//! The balancer-node role: `FleetController`'s cross-shard half, driven
//! purely over RPC.
//!
//! A [`BalancerNode`] owns what the fleet layer owns in-process — the
//! [`ShardMap`] routing truth and the [`BalancePlane`] (cooldowns,
//! stats, the handoff audit log, the trace) — and *nothing* of what
//! shards own (telemetry, placements, solvers). Every observation and
//! every mutation of shard state crosses the [`crate::Transport`] as an
//! RPC, and the balance round itself is the plane's — the **same**
//! policy code path the in-process `FleetController` runs, driven
//! through [`MemberLink`] handles instead of direct `ShardController`
//! access. What is this role's own is the links, the leases and the
//! standbys. That single-code-path design is what the loopback
//! equivalence property test pins down: a fleet run over RPC is
//! tick-for-tick identical to the in-process fleet.
//!
//! ## Leases and failure detection
//!
//! Liveness is tick-based, not wall-clock-based (wall clocks would break
//! determinism): every successful RPC renews a shard's lease; every
//! failed one counts a miss. A shard at
//! [`LeaseConfig::miss_limit`] consecutive misses is **down**: the
//! balancer stops ticking it, its summary reads as unplanned (never a
//! donor, never a receiver), and the rest of the fleet keeps running.
//! Rejoin is **self-healing**: a restored node announces itself to the
//! balancer's lease endpoint (`Announce`, retried with bounded
//! deterministic tick-based backoff — see [`crate::ShardNode::announce_via`]),
//! and the balancer drains announces at the top of each tick and
//! *reconciles*: the routing map is the ownership truth, so a
//! restored-but-stale node drops tenants the map has since moved
//! elsewhere, and tenants the map routes to the node but its checkpoint
//! predates are re-seeded from scratch. The operator-driven path
//! ([`BalancerNode::rejoin`]) still exists underneath — an announce is
//! just a node asking for it.
//!
//! ## Balancer failover
//!
//! The balancer is itself a single point of control, so it serves a
//! lease endpoint of its own ([`BalancerNode::serve_lease`]) and any
//! number of [`StandbyBalancer`]s watch it. Promotion is deterministic
//! and double-guarded: standby rank `r` arms after `r × miss_limit`
//! consecutive misses (the lowest rank always arms first), and then
//! promotes only once the *fleet itself* has stopped making progress —
//! the split-brain guard, since a promoted lower rank never serves the
//! dead primary's old endpoint but does keep the shards' tick counters
//! moving. A promoted standby rebuilds the routing map **and** the
//! membership view (replica counts, anti-affinity pairs) from the
//! shards themselves — the ground truth the balancer state summarizes —
//! and adopts the fleet tick from the most advanced shard.
//!
//! The balancer's *soft* state — cooldown memory, the parked-handoff
//! lot, the handoff audit log, the chaos gate — no longer dies with
//! the primary: after every balance round the primary streams a
//! [`BalancerSoftState`] frame to each registered standby
//! ([`BalancerNode::add_standby_sync`] → `SyncState` RPC →
//! [`StandbyBalancer::serve_sync`]), and a promoted standby resumes
//! from the replicated state. The probe-first rebuild from shard
//! ground truth ([`BalancerNode::recover_stray_tenants`]) remains as
//! the fallback reconciliation — it catches whatever a lagging sync
//! missed (e.g. a tenant parked after the last acked frame).

use crate::link::MemberLink;
use crate::rpc::{self, Request, Response};
use crate::transport::{NetError, ServerHandle, Transport};
use kairos_controller::{
    add_anti_affinity_pair, ControllerStats, FleetPlacement, ReSolver, TenantHandoff, TickOutcome,
};
use kairos_core::ConsolidationEngine;
use kairos_fleet::{
    BalancePlane, BalancerSoftState, EvictedTenant, FleetAudit, FleetConfig, FleetMetrics,
    HandoffRecord, ParkedHandoff, ShardMap,
};
use kairos_obs::{DecisionEvent, HealthMonitor, MetricsRegistry};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Tick-based lease tuning.
#[derive(Debug, Clone, Copy)]
pub struct LeaseConfig {
    /// Consecutive failed RPCs after which a shard is considered down
    /// (and a balancer's own lease endpoint, dead — scaled by standby
    /// rank; see the module docs).
    pub miss_limit: u32,
}

impl Default for LeaseConfig {
    fn default() -> LeaseConfig {
        LeaseConfig { miss_limit: 3 }
    }
}

/// What one balancer tick did.
#[derive(Debug)]
pub struct NetTickReport {
    /// Per-shard outcome; `None` for shards that are down (or whose Tick
    /// RPC failed this interval).
    pub outcomes: Vec<Option<TickOutcome>>,
    /// Handoffs proposed by this tick's balance round (empty off-cadence).
    pub handoffs: Vec<HandoffRecord>,
    /// Shards currently past their lease (skipped until rejoin).
    pub down: Vec<usize>,
}

/// The RPC balancer: links, leases and standbys around the
/// [`BalancePlane`] it derefs to. See module docs.
pub struct BalancerNode {
    cfg: FleetConfig,
    lease: LeaseConfig,
    transport: Arc<dyn Transport>,
    links: Vec<MemberLink>,
    map: ShardMap,
    /// Replica counts by tenant — needed to re-seed a tenant lost to a
    /// pre-checkpoint node death.
    replicas: BTreeMap<String, u32>,
    /// The round state and its observability. Its parked lot is this
    /// process's memory, but it does not die with the balancer: it
    /// replicates to standbys, and a promoted standby also rebuilds it
    /// probe-first from shard ground truth (the evict outboxes — see
    /// [`BalancerNode::recover_stray_tenants`]), so a *triple* fault
    /// (double-fault parking followed by a balancer death) recovers the
    /// tenant at promotion instead of stranding it until a manual
    /// rejoin. Its trace additionally carries the network-plane events
    /// only this role can see (lease misses, shard down, rejoin
    /// reconciliation, standby promotion).
    plane: BalancePlane,
    /// Transport-level lease misses observed by the tick loop (the
    /// `Metrics` exporters render it alongside the fleet counters).
    lease_misses: kairos_obs::Counter,
    /// Builds the audit's global problem with a real engine (shards are
    /// assumed homogeneous, the same contract as
    /// `FleetController::audit`) and holds the fleet anti-affinity list.
    audit_resolver: ReSolver,
    /// Mirror of the fleet tick counter for the served lease endpoint.
    lease_ticks: Arc<AtomicU64>,
    /// Standby sync endpoints ([`BalancerNode::add_standby_sync`]): the
    /// primary streams a [`BalancerSoftState`] frame to each after
    /// every balance round.
    standbys: Vec<StandbyLink>,
    /// `kairos_fleet_sync_lag_rounds` — rounds between the current
    /// balance round and the *least*-caught-up standby's last ack.
    /// Registered lazily with the first standby.
    sync_lag: Option<kairos_obs::FloatCell>,
    /// Announces received on the lease endpoint, drained (and
    /// reconciled via [`BalancerNode::rejoin`]) at the top of each
    /// tick: `(shard, endpoint, generation)`.
    announce_inbox: Arc<Mutex<Vec<(u64, String, u64)>>>,
    /// Events observed by this balancer's server threads —
    /// authentication rejects on the lease and sync endpoints, sync
    /// frames a standby applied — drained into the decision trace on
    /// the tick/watch thread (the trace is single-writer, so the order
    /// is deterministic).
    server_notes: Arc<Mutex<Vec<DecisionEvent>>>,
    /// Last balance round the watchdog observed. This host observes
    /// once per **balance round**, not per tick: trend rules (sync-lag
    /// growth) watch gauges that only move once per round; observing
    /// between rounds would read plateaus and never see strict growth.
    health_round: Option<u64>,
    /// Last health report, shared with the lease endpoint's server
    /// thread so `Health` is answerable without crossing the balancer's
    /// mutable state (same discipline as the announce inbox).
    lease_health: Arc<Mutex<kairos_obs::HealthReport>>,
    /// Span-bytes snapshot for the lease endpoint's `Spans` answer,
    /// refreshed after each balance round (the only time spans record).
    lease_spans: Arc<Mutex<Vec<u8>>>,
}

impl std::ops::Deref for BalancerNode {
    type Target = BalancePlane;

    fn deref(&self) -> &BalancePlane {
        &self.plane
    }
}

impl std::ops::DerefMut for BalancerNode {
    fn deref_mut(&mut self) -> &mut BalancePlane {
        &mut self.plane
    }
}

/// Every live shard has produced its first plan (down shards are
/// excluded — they read as unplanned in the round and can be neither
/// donor nor receiver, so balancing the rest stays safe).
fn all_live_planned(links: &mut [MemberLink]) -> bool {
    let mut any_live = false;
    for link in links.iter_mut().filter(|link| !link.down()) {
        any_live = true;
        match link.call(&Request::PlannedOnce) {
            Ok(Response::PlannedOnce(true)) => {}
            _ => return false,
        }
    }
    any_live
}

/// Maximum sync-retry backoff, in balance rounds.
const MAX_SYNC_BACKOFF_ROUNDS: u64 = 8;

/// One standby's sync-replication state (primary side).
struct StandbyLink {
    link: MemberLink,
    /// Highest round the standby has acked (`Synced { round }`).
    acked_round: u64,
    /// Consecutive failed syncs — drives the bounded deterministic
    /// backoff below, so a dead standby costs one connect attempt per
    /// backoff window, not per round.
    fails: u32,
    /// Skip sync attempts until this balance round.
    retry_at_round: u64,
}

impl BalancerNode {
    /// Connect to one shard-node endpoint per configured shard. The
    /// audit judges placements with a default engine. RPC dispatch is
    /// strictly serial — that is what makes delivery order deterministic.
    pub fn connect(
        cfg: FleetConfig,
        lease: LeaseConfig,
        transport: Arc<dyn Transport>,
        endpoints: &[String],
    ) -> Result<BalancerNode, NetError> {
        assert_eq!(endpoints.len(), cfg.shards, "one endpoint per shard");
        assert!(cfg.shards >= 1, "need at least one shard");
        let metrics = FleetMetrics::new(MetricsRegistry::new());
        let lease_misses = metrics.registry().counter("kairos_net_lease_misses_total");
        let mut node = BalancerNode {
            map: ShardMap::new(cfg.shards),
            cfg,
            lease,
            transport,
            links: Vec::new(),
            replicas: BTreeMap::new(),
            plane: BalancePlane::new(cfg.balancer, metrics, kairos_obs::span::NODE_BALANCER),
            lease_misses,
            audit_resolver: ReSolver::new(ConsolidationEngine::builder().build()),
            lease_ticks: Arc::new(AtomicU64::new(0)),
            standbys: Vec::new(),
            sync_lag: None,
            announce_inbox: Arc::new(Mutex::new(Vec::new())),
            server_notes: Arc::new(Mutex::new(Vec::new())),
            health_round: None,
            lease_health: Arc::new(Mutex::new(kairos_obs::HealthReport::default())),
            lease_spans: Arc::new(Mutex::new(Vec::new())),
        };
        for endpoint in endpoints {
            let mut link = node.link_to(endpoint);
            link.conn = Some(node.transport.connect(endpoint)?);
            node.links.push(link);
        }
        Ok(node)
    }

    /// A not-yet-dialed link to `endpoint` under this balancer's lease.
    fn link_to(&self, endpoint: &str) -> MemberLink {
        MemberLink::new(
            endpoint,
            Some(self.transport.clone()),
            self.lease.miss_limit,
            self.cfg.shard.telemetry.interval_secs,
        )
    }

    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// This balancer's registries — fleet-level plus the process-global
    /// transport instruments — as one flat JSON object. Shard-side
    /// metrics are a `Metrics` RPC away ([`BalancerNode::shard_metrics`]).
    pub fn metrics_json(&self) -> String {
        kairos_obs::render_json_all(&[self.plane.metrics_registry(), kairos_obs::global()])
    }

    /// [`BalancerNode::metrics_json`] in Prometheus text format.
    pub fn metrics_prometheus(&self) -> String {
        kairos_obs::render_prometheus_all(&[self.plane.metrics_registry(), kairos_obs::global()])
    }

    /// One shard node's rendered metrics `(json, prometheus)` over RPC;
    /// `None` for down shards.
    pub fn shard_metrics(&mut self, shard: usize) -> Option<(String, String)> {
        match self.links[shard].ask(&Request::Metrics)? {
            Response::Metrics { json, prometheus } => Some((json, prometheus)),
            _ => None,
        }
    }

    /// One shard's decision-trace bytes over RPC; `None` for down
    /// shards. Byte-identical to the same shard's
    /// `ShardController::trace_bytes` — the trace crosses the wire as
    /// the canonical codec encoding, untranslated.
    pub fn shard_trace(&mut self, shard: usize) -> Option<Vec<u8>> {
        match self.links[shard].ask(&Request::Trace)? {
            Response::Trace(bytes) => Some(bytes),
            _ => None,
        }
    }

    /// One shard node's span-log bytes over RPC; `None` for down shards.
    /// (Shard-side span logs are owned by the shard nodes — enable them
    /// there with `ShardController::configure_spans`; the context chains
    /// over RPC through each frame's span section either way.)
    pub fn shard_spans(&mut self, shard: usize) -> Option<Vec<u8>> {
        match self.links[shard].ask(&Request::Spans)? {
            Response::Spans(bytes) => Some(bytes),
            _ => None,
        }
    }

    /// Arm (or disarm, with `None`) the health watchdog. Observed once
    /// per balance round, over the balancer + process-global registries.
    pub fn set_health(&mut self, monitor: Option<HealthMonitor>) {
        self.plane.set_health(monitor);
        self.health_round = None;
    }

    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Shards currently past their lease.
    pub fn down_shards(&self) -> Vec<usize> {
        (0..self.links.len())
            .filter(|&i| self.links[i].down())
            .collect()
    }

    /// Register a brand-new tenant on a specific shard. The node binds
    /// the live source itself (by name, through its
    /// [`crate::SourceBinder`]); only the registration crosses the wire.
    pub fn add_workload_to(
        &mut self,
        shard: usize,
        tenant: &str,
        replicas: u32,
    ) -> Result<(), NetError> {
        match self.links[shard].call(&Request::AddWorkload {
            tenant: tenant.to_string(),
            replicas,
        })? {
            Response::Done => {
                self.map.assign(tenant, shard);
                if replicas > 1 {
                    self.replicas.insert(tenant.to_string(), replicas);
                }
                Ok(())
            }
            other => Err(NetError::Protocol(format!(
                "AddWorkload answered {other:?}"
            ))),
        }
    }

    /// Address-book update: point a shard's link at a new endpoint
    /// without connecting yet (the next RPC — or a promotion's
    /// reconnect — dials it). This is how standbys learn about a node
    /// respawned on a new port before they ever take over.
    pub fn set_endpoint(&mut self, shard: usize, endpoint: &str) {
        self.links[shard] = self.link_to(endpoint);
    }

    /// Operator override: re-assert that `tenant` lives on `shard` in
    /// the routing map without touching any node (used after an
    /// out-of-band transfer, e.g. an operator-driven evict/admit pair;
    /// the next rejoin reconciliation then enforces it).
    pub fn reroute(&mut self, tenant: &str, shard: usize) {
        self.map.assign(tenant, shard);
    }

    /// Retire a tenant wherever it currently lives. The node-side
    /// retirement happens first: on a transport failure the routing map
    /// is left untouched, so a retry actually retries (removing the map
    /// entry first would orphan a still-live tenant and turn retries
    /// into no-ops).
    pub fn remove_workload(&mut self, tenant: &str) -> Result<(), NetError> {
        let Some(shard) = self.map.shard_of(tenant) else {
            return Ok(());
        };
        self.links[shard].call(&Request::RemoveWorkload {
            tenant: tenant.to_string(),
        })?;
        self.map.remove(tenant);
        self.replicas.remove(tenant);
        self.plane.forget(tenant);
        Ok(())
    }

    /// Declare a fleet-wide anti-affinity pair (registered on every
    /// shard, and on the audit's problem builder). Idempotent at every
    /// layer — node-side registration skips known pairs — so a
    /// partially-failed call is safely retried whole.
    pub fn add_anti_affinity(&mut self, a: &str, b: &str) -> Result<(), NetError> {
        add_anti_affinity_pair(&mut self.audit_resolver.anti_affinity, a, b);
        for link in &mut self.links {
            link.call(&Request::AddAntiAffinity {
                a: a.to_string(),
                b: b.to_string(),
            })?;
        }
        Ok(())
    }

    /// One monitoring interval: tick every live shard over RPC, then, on
    /// the balance cadence, one balance round — the plane's shared policy
    /// over the [`MemberLink`] handles.
    pub fn tick(&mut self) -> NetTickReport {
        let started = Instant::now();
        let tick = self.plane.begin_tick();
        self.lease_ticks.store(tick, Ordering::SeqCst);
        self.drain_announces(tick);
        let miss_limit = self.lease.miss_limit;
        let mut outcomes: Vec<Option<TickOutcome>> = Vec::new();
        outcomes.resize_with(self.links.len(), || None);
        for (shard, outcome_slot) in outcomes.iter_mut().enumerate() {
            if self.links[shard].down() {
                continue;
            }
            match self.links[shard].call(&Request::Tick) {
                Ok(Response::Tick(outcome)) => *outcome_slot = Some(outcome),
                Ok(_) | Err(NetError::Remote(_)) => {}
                // Transport failure: the link already counted the miss;
                // the trace records it (and the down transition, the
                // moment the miss counter crosses the lease limit).
                Err(_) => {
                    self.lease_misses.inc();
                    self.plane.record(
                        tick,
                        DecisionEvent::LeaseMiss {
                            shard,
                            missed: u64::from(self.links[shard].missed),
                            limit: u64::from(miss_limit),
                        },
                    );
                    if self.links[shard].missed == miss_limit {
                        self.plane.record(tick, DecisionEvent::ShardDown { shard });
                    }
                }
            }
        }
        let links = &mut self.links;
        let handoffs = if self.plane.due(tick, || all_live_planned(links)) {
            self.balance_round(tick)
        } else {
            Vec::new()
        };
        self.plane
            .finish_tick(started, outcomes.iter().flatten(), &handoffs);
        self.observe_health();
        NetTickReport {
            outcomes,
            handoffs,
            down: self.down_shards(),
        }
    }

    /// One watchdog observation per balance round, when armed (see
    /// `health_round`); the report is mirrored for the lease endpoint.
    fn observe_health(&mut self) {
        let round = self.plane.stats().balance_rounds;
        if self.health_round == Some(round) {
            return;
        }
        if let Some(report) = self.plane.observe_health([kairos_obs::global()]) {
            *self.lease_health.lock().expect("lease health lock") = report.clone();
            self.health_round = Some(round);
        }
    }

    fn balance_round(&mut self, tick: u64) -> Vec<HandoffRecord> {
        let records = self.plane.round(&mut self.links, tick);
        self.map.apply(&records);
        if self.plane.span_log().is_enabled() {
            *self.lease_spans.lock().expect("lease spans lock") = self.plane.span_bytes();
        }
        self.sync_to_standbys();
        records
    }

    /// Register a standby's sync endpoint (served by
    /// [`StandbyBalancer::serve_sync`]). After every balance round the
    /// primary captures its soft state — cooldown memory, the
    /// parked-handoff lot, the handoff audit log, the chaos gate — and
    /// streams it there as one checksummed `SyncState` frame.
    pub fn add_standby_sync(&mut self, endpoint: &str) {
        if self.sync_lag.is_none() {
            self.sync_lag = Some(
                self.plane
                    .metrics_registry()
                    .gauge("kairos_fleet_sync_lag_rounds"),
            );
        }
        self.standbys.push(StandbyLink {
            link: self.link_to(endpoint),
            acked_round: 0,
            fails: 0,
            retry_at_round: 0,
        });
    }

    /// Stream this round's [`BalancerSoftState`] to every registered
    /// standby. Failures back off deterministically (in rounds, capped
    /// at [`MAX_SYNC_BACKOFF_ROUNDS`]) and never block the round — a
    /// standby that misses frames resumes from the next one it acks,
    /// and whatever it missed is covered at promotion by the
    /// probe-first fallback ([`BalancerNode::recover_stray_tenants`]).
    fn sync_to_standbys(&mut self) {
        if self.standbys.is_empty() {
            return;
        }
        let round = self.plane.stats().balance_rounds;
        let frame = self.plane.soft_state().to_frame();
        for standby in &mut self.standbys {
            if round < standby.retry_at_round {
                continue;
            }
            let synced = standby.link.call(&Request::SyncState {
                frame: frame.clone(),
            });
            match synced {
                Ok(Response::Synced { round: acked_round }) => {
                    standby.acked_round = standby.acked_round.max(acked_round);
                    standby.fails = 0;
                    standby.retry_at_round = 0;
                }
                _ => {
                    standby.fails = standby.fails.saturating_add(1);
                    let backoff = 1u64
                        .checked_shl(standby.fails)
                        .unwrap_or(MAX_SYNC_BACKOFF_ROUNDS)
                        .min(MAX_SYNC_BACKOFF_ROUNDS);
                    standby.retry_at_round = round + backoff;
                }
            }
        }
        let min_acked = self
            .standbys
            .iter()
            .map(|s| s.acked_round)
            .min()
            .unwrap_or(round);
        if let Some(gauge) = &self.sync_lag {
            gauge.set(round.saturating_sub(min_acked) as f64);
        }
    }

    /// Drain the lease endpoint's inboxes on the tick thread: record
    /// any authentication rejects, then reconcile pending announces
    /// through [`BalancerNode::rejoin`]. An announce that cannot be
    /// reconciled yet (the fault that killed the node still active) is
    /// re-queued for the next tick — and the node keeps re-announcing
    /// on its own backoff, so neither side forgets.
    fn drain_announces(&mut self, tick: u64) {
        self.drain_server_notes();
        let pending: Vec<(u64, String, u64)> = {
            let mut inbox = self.announce_inbox.lock().expect("announce inbox lock");
            std::mem::take(&mut *inbox)
        };
        if pending.is_empty() {
            return;
        }
        // Keep the newest announce per shard: a node may have retried
        // while its first announce was still queued, or a replacement
        // node (higher generation) may have announced over a dead one.
        let mut newest: BTreeMap<u64, (String, u64)> = BTreeMap::new();
        for (shard, endpoint, generation) in pending {
            newest.insert(shard, (endpoint, generation));
        }
        for (shard, (endpoint, generation)) in newest {
            let idx = shard as usize;
            if idx >= self.links.len() {
                continue;
            }
            // A retry of an already-reconciled announce: the link
            // already points there and is healthy. Ignore.
            if self.links[idx].endpoint == endpoint && !self.links[idx].down() {
                continue;
            }
            match self.rejoin(idx, &endpoint) {
                Ok(()) => self.plane.record(
                    tick,
                    DecisionEvent::NodeAnnounced {
                        shard: idx,
                        endpoint,
                        generation,
                    },
                ),
                Err(_) => self
                    .announce_inbox
                    .lock()
                    .expect("announce inbox lock")
                    .push((shard, endpoint, generation)),
            }
        }
    }

    /// Move what the server threads noted into the decision trace, on
    /// this thread, stamped with the current tick.
    fn drain_server_notes(&mut self) {
        let notes = std::mem::take(&mut *self.server_notes.lock().expect("server note lock"));
        let tick = self.plane.stats().ticks;
        for event in notes {
            self.plane.record(tick, event);
        }
    }

    /// Command every live shard to checkpoint itself at
    /// `<dir>/shard-<i>.ksnp` (node-local paths — in the multi-process
    /// example all nodes share a filesystem; a real deployment would
    /// point each node at its own durable volume). Returns per-shard
    /// results; down shards are skipped with an error entry.
    pub fn checkpoint_shards(&mut self, dir: &str) -> Vec<Result<String, NetError>> {
        let mut results = Vec::with_capacity(self.links.len());
        for (shard, link) in self.links.iter_mut().enumerate() {
            let path = format!("{dir}/shard-{shard}.ksnp");
            if link.down() {
                results.push(Err(NetError::Unreachable(link.endpoint.clone())));
                continue;
            }
            results.push(
                match link.call(&Request::Checkpoint { path: path.clone() }) {
                    Ok(Response::Done) => Ok(path),
                    Ok(other) => Err(NetError::Protocol(format!("Checkpoint answered {other:?}"))),
                    Err(e) => Err(e),
                },
            );
        }
        results
    }

    /// Reconnect a (restored) shard node at `endpoint` and reconcile
    /// ownership: the routing map is the single-ownership truth, so the
    /// node drops tenants the map has since moved elsewhere, and tenants
    /// the map routes here but the node's checkpoint predates are
    /// re-seeded from scratch (fresh telemetry; its next ticks replan
    /// membership).
    pub fn rejoin(&mut self, shard: usize, endpoint: &str) -> Result<(), NetError> {
        let mut conn = self.transport.connect(endpoint)?;
        let owned: BTreeSet<String> = match rpc::call(conn.as_mut(), &Request::Workloads)? {
            Response::Workloads(names) => names.into_iter().collect(),
            other => {
                return Err(NetError::Protocol(format!("Workloads answered {other:?}")));
            }
        };
        // Stale copies: the restored checkpoint predates a handoff that
        // moved the tenant elsewhere. Map wins; the node retires them.
        let mut retired = Vec::new();
        for name in &owned {
            if self.map.shard_of(name) != Some(shard) {
                rpc::call(
                    conn.as_mut(),
                    &Request::RemoveWorkload {
                        tenant: name.clone(),
                    },
                )?;
                retired.push(name.clone());
            }
        }
        // Lost tenants: admitted (or added) after the checkpoint the
        // node restored from. Re-seed them; history is gone but
        // ownership is preserved.
        let mut reseeded = Vec::new();
        for tenant in self.map.tenants_of(shard) {
            if !owned.contains(&tenant) {
                let replicas = self.replicas.get(&tenant).copied().unwrap_or(1);
                rpc::call(
                    conn.as_mut(),
                    &Request::AddWorkload {
                        tenant: tenant.clone(),
                        replicas,
                    },
                )?;
                reseeded.push(tenant);
            }
        }
        // Constraints can postdate the checkpoint too: re-assert the
        // fleet anti-affinity list (idempotent node-side, so pairs the
        // checkpoint already carried are not duplicated).
        for (a, b) in &self.audit_resolver.anti_affinity {
            rpc::call(
                conn.as_mut(),
                &Request::AddAntiAffinity {
                    a: a.clone(),
                    b: b.clone(),
                },
            )?;
        }
        let mut link = self.link_to(endpoint);
        link.conn = Some(conn);
        self.links[shard] = link;
        self.plane.record(
            self.plane.stats().ticks,
            DecisionEvent::ShardRejoined {
                shard,
                retired,
                reseeded,
            },
        );
        Ok(())
    }

    /// Global audit over RPC ([`BalancePlane::audit`]): pull every
    /// shard's forecasts, placement and planned flag, and build the
    /// global problem from the audit resolver's engine and the fleet
    /// anti-affinity list — bit-identical to `FleetController::audit`
    /// when the engines match. Down shards audit as `None`.
    pub fn audit(&mut self) -> FleetAudit {
        let mut pulled: Vec<(Vec<_>, Option<FleetPlacement>, bool)> = self
            .links
            .iter_mut()
            .map(|link| {
                let forecasts = match link.ask(&Request::ForecastFleet) {
                    Some(Response::Profiles(p)) => p,
                    _ => Vec::new(),
                };
                let placement = match link.ask(&Request::Placement) {
                    Some(Response::Placement(p)) => Some(p),
                    _ => None,
                };
                let planned = matches!(
                    link.ask(&Request::PlannedOnce),
                    Some(Response::PlannedOnce(true))
                );
                (forecasts, placement, planned)
            })
            .collect();
        let members = pulled
            .iter_mut()
            .map(|(forecasts, placement, planned)| {
                (std::mem::take(forecasts), placement.as_ref(), *planned)
            })
            .collect();
        BalancePlane::audit(members, |profiles| self.audit_resolver.problem(profiles))
    }

    /// Explain an audit in terms of the decision traces
    /// ([`BalancePlane::explain_audit`]), each flagged shard's trace
    /// pulled over the `Trace` RPC.
    pub fn explain_audit(&mut self, audit: &FleetAudit) -> String {
        let links = &mut self.links;
        self.plane
            .explain_audit(audit, |shard| match links[shard].ask(&Request::Trace) {
                Some(Response::Trace(bytes)) => serde::from_bytes(&bytes).unwrap_or_default(),
                _ => Vec::new(),
            })
    }

    /// Per-shard loop counters over RPC (`None` for down shards).
    pub fn shard_stats(&mut self) -> Vec<Option<ControllerStats>> {
        self.links
            .iter_mut()
            .map(|link| match link.ask(&Request::Stats)? {
                Response::Stats(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    /// Tenant names per shard over RPC (`None` for down shards).
    pub fn shard_workloads(&mut self) -> Vec<Option<Vec<String>>> {
        self.links
            .iter_mut()
            .map(|link| match link.ask(&Request::Workloads)? {
                Response::Workloads(w) => Some(w),
                _ => None,
            })
            .collect()
    }

    /// Ask every live shard node to exit (the multi-process example's
    /// clean teardown).
    pub fn shutdown_shards(&mut self) {
        for link in &mut self.links {
            let _ = link.call(&Request::Shutdown);
        }
    }

    /// Serve this balancer's own lease endpoint: standbys ping it and
    /// promote when it goes quiet, and restored shard nodes announce
    /// themselves here for rejoin. The balancer's mutable state never
    /// crosses this endpoint: `Ping` and `Announce` touch dedicated
    /// shared cells (announces land in an inbox the tick thread
    /// drains), and the observability read side — `Metrics`, `Health`,
    /// `Spans` for `kairos-top` and the CI scrape — answers from the
    /// shared registry and tick-thread-refreshed snapshots.
    pub fn serve_lease(
        &self,
        transport: &dyn Transport,
        endpoint: &str,
    ) -> Result<ServerHandle, NetError> {
        let ticks = self.lease_ticks.clone();
        let inbox = self.announce_inbox.clone();
        let registry = self.plane.metrics_registry().clone();
        let health = self.lease_health.clone();
        let spans = self.lease_spans.clone();
        rpc::serve(
            transport,
            endpoint,
            self.note_auth_rejects(),
            move |request| match request {
                Request::Ping => Response::Pong {
                    ticks: ticks.load(Ordering::SeqCst),
                },
                Request::Announce {
                    shard,
                    endpoint,
                    generation,
                } => {
                    inbox
                        .lock()
                        .expect("announce inbox lock")
                        .push((shard, endpoint, generation));
                    Response::Done
                }
                Request::Metrics => Response::Metrics {
                    json: kairos_obs::render_json_all(&[&registry, kairos_obs::global()]),
                    prometheus: kairos_obs::render_prometheus_all(&[
                        &registry,
                        kairos_obs::global(),
                    ]),
                },
                Request::Health => {
                    Response::Health(health.lock().expect("lease health lock").clone())
                }
                Request::Spans => Response::Spans(spans.lock().expect("lease spans lock").clone()),
                other => Response::Error(format!(
                    "balancer lease endpoint answers Ping/Announce/Metrics/Health/Spans, \
                     got {other:?}"
                )),
            },
        )
    }

    /// The `on_auth_reject` hook of this balancer's served endpoints:
    /// note the rejection for the tick/watch thread to trace.
    fn note_auth_rejects(&self) -> impl FnMut(&str) + Send + 'static {
        let notes = self.server_notes.clone();
        move |served| {
            notes
                .lock()
                .expect("server note lock")
                .push(DecisionEvent::AuthRejected {
                    endpoint: served.to_string(),
                })
        }
    }

    /// Rebuild balancer state from the shards themselves — the promotion
    /// path. The shards are the ground truth the routing map summarizes:
    /// each reports what it owns (single ownership holds because the
    /// two-phase handshake never leaves a tenant on two shards) **and**
    /// its membership view (replica counts, anti-affinity pairs — a
    /// re-seed after a node death must not silently drop a replica, and
    /// the audit must keep building the same constrained problem the
    /// dead primary built). The fleet tick resumes from the most
    /// advanced shard so cadences keep firing. Fails if any shard is
    /// unreachable — a promotion must start from a complete map.
    ///
    /// When a replicated [`BalancerSoftState`] is available the soft
    /// state — cooldown memory, the parked lot, the audit log and the
    /// chaos gate — resumes from the last synced frame, so hysteresis
    /// and history survive the primary; the probe-first stray recovery
    /// still runs afterwards as reconciliation and only touches
    /// tenants the replicated lot does not already track.
    fn adopt(&mut self, replicated: Option<&BalancerSoftState>) -> Result<(), NetError> {
        let mut map = ShardMap::new(self.links.len());
        let mut replicas: BTreeMap<String, u32> = BTreeMap::new();
        let mut anti_affinity: Option<Vec<(String, String)>> = None;
        let mut max_ticks = 0u64;
        for (shard, link) in self.links.iter_mut().enumerate() {
            // Fresh connections: the standby's links may never have been
            // used (or may predate a node restart).
            link.conn = Some(self.transport.connect(&link.endpoint)?);
            link.missed = 0;
            match link.call(&Request::Workloads)? {
                Response::Workloads(names) => {
                    for name in names {
                        map.assign(&name, shard);
                    }
                }
                other => {
                    return Err(NetError::Protocol(format!("Workloads answered {other:?}")));
                }
            }
            match link.call(&Request::Membership)? {
                Response::Membership {
                    replicas: shard_replicas,
                    anti_affinity: shard_pairs,
                } => {
                    replicas.extend(shard_replicas);
                    // Every shard carries the full fleet pair list in
                    // registration order; the first one is canonical.
                    anti_affinity.get_or_insert(shard_pairs);
                }
                other => {
                    return Err(NetError::Protocol(format!("Membership answered {other:?}")));
                }
            }
            if let Response::Stats(stats) = link.call(&Request::Stats)? {
                max_ticks = max_ticks.max(stats.ticks);
            }
        }
        self.map = map;
        self.replicas = replicas;
        self.audit_resolver.anti_affinity = anti_affinity.unwrap_or_default();
        if let Some(state) = replicated {
            max_ticks = max_ticks.max(state.tick);
            self.plane.adopt(state);
            // A parked tenant is owned by no shard (evicted at the
            // donor, never admitted at the receiver), so the ground-
            // truth rebuild above cannot route it. The dead primary's
            // map still did — the registration survived the failed
            // handoff — and the retry resolutions depend on that: a
            // `returned-to-donor` re-admit emits no re-routing record.
            // Restore the same routing for every replicated entry.
            for (tenant, donor, _) in self.plane.parked_handoffs() {
                if self.map.shard_of(&tenant).is_none() {
                    self.map.assign(&tenant, donor);
                }
            }
        }
        self.plane.set_ticks(max_ticks);
        self.lease_ticks.store(max_ticks, Ordering::SeqCst);
        self.recover_stray_tenants(max_ticks)?;
        Ok(())
    }

    /// Rebuild the dead primary's parked-handoff lot from shard ground
    /// truth. The lot was the primary's memory; without this pass a
    /// standby promotion after a double-faulted handoff (evicted at the
    /// donor, admit failed at the receiver, owns probe unanswered)
    /// strands the tenant until a manual rejoin: it is owned by no
    /// shard, so the map rebuild above never sees it.
    ///
    /// Ground truth is the evict outbox: the donor node retains every
    /// evicted tenant's handoff frame until the tenant is admitted back
    /// somewhere it knows of. A tenant in some node's outbox and in no
    /// node's workload list is exactly a stranded handoff. Recovery is
    /// probe-first and happens where the frame lives: re-`Evict`
    /// replays the retained frame (idempotent retry path), `Admit`
    /// re-binds a source and re-admits at that shard. If even that
    /// fails (the node's binder cannot produce a source, or the shard
    /// faults again mid-recovery), the tenant parks in the *new*
    /// balancer's lot so every subsequent balance round keeps probing —
    /// recovered or parked, never forgotten.
    ///
    /// Tenants already tracked by the (possibly replicated) parked lot
    /// are skipped: the next balance round resolves them probe-first
    /// with their real donor/receiver context, which this promotion
    /// pass does not have.
    fn recover_stray_tenants(&mut self, tick: u64) -> Result<(), NetError> {
        for shard in 0..self.links.len() {
            // Re-read per shard: a tenant parked from an earlier shard's
            // outbox must not be recovered a second time from a later one.
            let parked: BTreeSet<String> = self
                .plane
                .parked_handoffs()
                .into_iter()
                .map(|(tenant, _, _)| tenant)
                .collect();
            let stray: Vec<String> = match self.links[shard].call(&Request::EvictOutbox)? {
                Response::Workloads(names) => names
                    .into_iter()
                    .filter(|name| self.map.shard_of(name).is_none() && !parked.contains(name))
                    .collect(),
                other => {
                    return Err(NetError::Protocol(format!(
                        "EvictOutbox answered {other:?}"
                    )));
                }
            };
            for tenant in stray {
                let wire = match self.links[shard].call(&Request::Evict {
                    tenant: tenant.clone(),
                }) {
                    Ok(Response::Evicted(Some(wire))) => wire,
                    _ => Vec::new(),
                };
                let admitted = !wire.is_empty()
                    && matches!(
                        self.links[shard].call(&Request::Admit {
                            frame: wire.clone()
                        }),
                        Ok(Response::Done)
                    );
                if admitted {
                    self.map.assign(&tenant, shard);
                    if let Ok((_, tenant_replicas, _)) = TenantHandoff::parts_from_wire(&wire) {
                        if tenant_replicas > 1 {
                            self.replicas.insert(tenant.clone(), tenant_replicas);
                        }
                    }
                    self.plane.record(
                        tick,
                        DecisionEvent::ParkedRetried {
                            tenant,
                            donor: shard,
                            receiver: shard,
                            resolution: "recovered-at-promotion".to_string(),
                        },
                    );
                } else {
                    self.plane.record(
                        tick,
                        DecisionEvent::HandoffParked {
                            tenant: tenant.clone(),
                            donor: shard,
                            receiver: shard,
                        },
                    );
                    self.plane.park(ParkedHandoff {
                        donor: shard,
                        receiver: shard,
                        tenant: EvictedTenant {
                            name: tenant,
                            wire,
                            source: None,
                        },
                    });
                }
            }
        }
        Ok(())
    }

    /// The most advanced shard tick observable right now — the standby's
    /// fleet-activity probe (a dead lease endpoint with a *moving* fleet
    /// means another balancer already took over).
    fn max_shard_ticks(&mut self) -> u64 {
        let mut max_ticks = 0u64;
        for link in &mut self.links {
            if let Ok(Response::Stats(stats)) = link.call(&Request::Stats) {
                max_ticks = max_ticks.max(stats.ticks);
            }
        }
        max_ticks
    }
}

/// Pacing outcome of one standby watch interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StandbyAction {
    /// The primary's lease is current (or not yet past this standby's
    /// threshold).
    Watching,
    /// This standby's promotion threshold was reached — call
    /// [`StandbyBalancer::promote`].
    Promote,
}

/// A warm-standby balancer watching a primary's lease endpoint. See the
/// module docs for the rank-ordered deterministic promotion rule.
pub struct StandbyBalancer {
    node: BalancerNode,
    rank: u32,
    primary: MemberLink,
    missed: u32,
    /// Fleet progress at the previous over-threshold watch — the
    /// split-brain guard's memory (see [`StandbyBalancer::watch_tick`]).
    fleet_ticks_seen: Option<u64>,
    /// Consecutive over-threshold watches with no fleet progress.
    frozen_watches: u32,
    /// The newest [`BalancerSoftState`] the primary has streamed here
    /// (shared with the sync endpoint's server thread).
    replicated: Arc<Mutex<Option<BalancerSoftState>>>,
    /// The serving handle for this standby's sync endpoint; stopped at
    /// promotion (a primary pushes sync, it does not receive it).
    sync_server: Option<ServerHandle>,
}

/// Consecutive frozen-fleet observations a standby requires before
/// promoting. One observation is racy — an active balancer may simply
/// not have completed a tick between two samples (e.g. blocked inside a
/// warm re-solve); two full watch intervals of zero progress is the
/// signal nobody is driving. Deployment contract: the watch interval
/// must be at least the control tick interval.
const FROZEN_WATCHES_TO_PROMOTE: u32 = 2;

impl StandbyBalancer {
    /// `rank >= 1`; rank 1 is the first in the promotion order.
    pub fn new(node: BalancerNode, primary_endpoint: &str, rank: u32) -> StandbyBalancer {
        assert!(rank >= 1, "standby ranks start at 1");
        StandbyBalancer {
            primary: node.link_to(primary_endpoint),
            node,
            rank,
            missed: 0,
            fleet_ticks_seen: None,
            frozen_watches: 0,
            replicated: Arc::new(Mutex::new(None)),
            sync_server: None,
        }
    }

    /// Serve this standby's sync endpoint: the primary streams its soft
    /// state here after every balance round
    /// ([`BalancerNode::add_standby_sync`]). Frames are checksummed and
    /// versioned ([`BalancerSoftState`]); stale rounds (out-of-order
    /// delivery after a redial) are acked with the newer round already
    /// held, never applied backwards.
    pub fn serve_sync(
        &mut self,
        transport: &dyn Transport,
        endpoint: &str,
    ) -> Result<(), NetError> {
        let cell = self.replicated.clone();
        let notes = self.node.server_notes.clone();
        let dispatch = move |request| match request {
            Request::SyncState { frame: state_frame } => {
                match BalancerSoftState::from_frame(&state_frame) {
                    Ok(state) => {
                        let mut cell = cell.lock().expect("replicated state lock");
                        let newest = cell.as_ref().map_or(0, |s| s.round);
                        if state.round >= newest {
                            notes.lock().expect("server note lock").push(
                                DecisionEvent::StandbySynced {
                                    sync_round: state.round,
                                    parked: state.parked.len(),
                                    cooldowns: state.cooldown.len(),
                                    log_events: state.handoffs.len(),
                                },
                            );
                            let round = state.round;
                            *cell = Some(state);
                            Response::Synced { round }
                        } else {
                            Response::Synced { round: newest }
                        }
                    }
                    Err(e) => Response::Error(format!("sync_state: damaged frame: {e}")),
                }
            }
            other => Response::Error(format!(
                "standby sync endpoint answers SyncState only, got {other:?}"
            )),
        };
        let on_auth_reject = self.node.note_auth_rejects();
        self.sync_server = Some(rpc::serve(transport, endpoint, on_auth_reject, dispatch)?);
        Ok(())
    }

    /// The newest replicated round held, if the primary has synced yet.
    pub fn replicated_round(&self) -> Option<u64> {
        self.replicated
            .lock()
            .expect("replicated state lock")
            .as_ref()
            .map(|s| s.round)
    }

    /// One watch interval: ping the primary's lease endpoint. Returns
    /// [`StandbyAction::Promote`] once `rank × miss_limit` consecutive
    /// pings have failed **and** the fleet has made no progress for
    /// [`FROZEN_WATCHES_TO_PROMOTE`] consecutive watches. The second
    /// condition is the split-brain guard: a promoted lower-rank
    /// standby never serves the dead primary's old endpoint, so a
    /// higher rank would otherwise blow through its own threshold
    /// eventually and promote a *second* active balancer. The shards'
    /// tick counters are the reliable signal — if they advanced across
    /// this standby's recent watches, someone is driving the fleet, and
    /// this standby keeps waiting.
    pub fn watch_tick(&mut self) -> StandbyAction {
        self.node.drain_server_notes();
        let alive = matches!(self.primary.call(&Request::Ping), Ok(Response::Pong { .. }));
        if alive {
            self.missed = 0;
            self.fleet_ticks_seen = None;
            self.frozen_watches = 0;
            return StandbyAction::Watching;
        }
        self.missed = self.missed.saturating_add(1);
        let threshold = self.node.lease.miss_limit.saturating_mul(self.rank.max(1));
        if self.missed < threshold {
            return StandbyAction::Watching;
        }
        let now = self.node.max_shard_ticks();
        match self.fleet_ticks_seen {
            // No progress since the last over-threshold watch. One
            // frozen sample is racy (an active balancer may simply be
            // mid-tick); require consecutive frozen intervals before
            // concluding nobody is driving.
            Some(seen) if now <= seen => {
                self.frozen_watches = self.frozen_watches.saturating_add(1);
                if self.frozen_watches >= FROZEN_WATCHES_TO_PROMOTE {
                    StandbyAction::Promote
                } else {
                    StandbyAction::Watching
                }
            }
            // Moving (or first over-threshold sample): hold, re-check
            // next watch.
            _ => {
                self.fleet_ticks_seen = Some(now);
                self.frozen_watches = 0;
                StandbyAction::Watching
            }
        }
    }

    /// Take over: rebuild the routing map from the shards (ground
    /// truth), resume soft state — cooldowns, the parked lot, the
    /// audit log, the gate — from the last replicated [`SyncState`]
    /// frame when the primary was syncing here, adopt the fleet tick
    /// from the most advanced shard, and return the now-primary
    /// balancer. Fails (returning `self` for a retry) while any shard
    /// is unreachable.
    ///
    /// [`SyncState`]: crate::Request::SyncState
    #[allow(clippy::result_large_err)] // self is handed back for retry
    pub fn promote(mut self) -> Result<BalancerNode, (Box<StandbyBalancer>, NetError)> {
        self.node.drain_server_notes();
        let replicated = self
            .replicated
            .lock()
            .expect("replicated state lock")
            .clone();
        match self.node.adopt(replicated.as_ref()) {
            Ok(()) => {
                if let Some(handle) = self.sync_server.take() {
                    handle.stop();
                }
                let adopted_ticks = self.node.stats().ticks;
                self.node.record(
                    adopted_ticks,
                    DecisionEvent::StandbyPromoted {
                        rank: u64::from(self.rank),
                        adopted_ticks,
                    },
                );
                Ok(self.node)
            }
            Err(e) => Err((Box::new(self), e)),
        }
    }

    /// The wrapped (not yet primary) balancer, for inspection.
    pub fn node(&self) -> &BalancerNode {
        &self.node
    }

    /// Mutable access to the wrapped balancer — address-book updates
    /// ([`BalancerNode::set_endpoint`]) must reach standbys too, or a
    /// promotion would dial ports that died with the old nodes.
    pub fn node_mut(&mut self) -> &mut BalancerNode {
        &mut self.node
    }
}
