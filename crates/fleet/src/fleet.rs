//! The sharded fleet control plane.
//!
//! [`FleetController`] owns N independent [`ShardController`]s — each
//! with its own telemetry ingester, drift detector, warm re-solver,
//! migration planner and executor over a disjoint slice of hosts — plus
//! the [`BalancePlane`] whose balance round moves tenants between shards
//! via the two-phase handoff of [`crate::handoff`]. One `tick()` advances
//! every shard one monitoring interval and, on the balance cadence, runs
//! one balance round.
//!
//! The hierarchy is what makes the control plane scale: per-shard
//! re-solves see only their shard's tenants (solve cost grows with shard
//! size, not fleet size), while the balancer sees only coarse per-shard
//! summaries ([`kairos_traces::aggregate`] roll-ups), never per-tenant
//! telemetry.

use crate::balancer::BalancerConfig;
use crate::handoff::HandoffRecord;
use crate::plane::{BalancePlane, FleetAudit, FleetMetrics};
use crate::shardmap::ShardMap;
use crate::snapshot::{FleetSnapshot, FLEET_SNAPSHOT_VERSION};
use kairos_controller::{
    add_anti_affinity_pair, ControllerConfig, ShardController, ShardSummary, TelemetrySource,
    TenantHandoff, TickOutcome, TRACE_CHECKPOINT_CAP,
};
use kairos_core::ConsolidationEngine;
use kairos_obs::{MetricsRegistry, SpanRecord};
use kairos_store::StoreError;
use std::path::Path;
use std::time::Instant;

/// Fleet-level tuning.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of shards. Each runs an independent control loop over its
    /// own (shard-local) machine namespace.
    pub shards: usize,
    /// Per-shard loop tuning.
    pub shard: ControllerConfig,
    pub balancer: BalancerConfig,
    /// Read by nothing: a fleet ticks its shards and evaluates its audit
    /// serially, on the calling thread. Kept only because kbench sets it;
    /// ROADMAP item 17 deletes it.
    pub tick_threads: usize,
}

/// The one thread count the fleet uses: 1 (see
/// [`FleetConfig::tick_threads`]).
pub fn default_tick_threads() -> usize {
    1
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            shards: 4,
            shard: ControllerConfig::default(),
            balancer: BalancerConfig::default(),
            tick_threads: default_tick_threads(),
        }
    }
}

/// What one fleet tick did.
#[derive(Debug)]
pub struct FleetTickReport {
    /// Per-shard outcome, indexed by shard.
    pub outcomes: Vec<TickOutcome>,
    /// Handoffs proposed by this tick's balance round (empty off-cadence).
    pub handoffs: Vec<HandoffRecord>,
}

/// The top-level control plane, hosted in one process: the members are
/// its own; everything around the balance round is the [`BalancePlane`]
/// it derefs to. See module docs.
pub struct FleetController {
    cfg: FleetConfig,
    shards: Vec<ShardController>,
    map: ShardMap,
    /// Fleet-wide anti-affinity pairs (by name); registered on every
    /// shard so they keep holding wherever a handoff lands a tenant.
    anti_affinity: Vec<(String, String)>,
    plane: BalancePlane,
}

impl std::ops::Deref for FleetController {
    type Target = BalancePlane;

    fn deref(&self) -> &BalancePlane {
        &self.plane
    }
}

impl std::ops::DerefMut for FleetController {
    fn deref_mut(&mut self) -> &mut BalancePlane {
        &mut self.plane
    }
}

impl FleetController {
    /// A fleet whose shards all run the default consolidation engine.
    pub fn new(cfg: FleetConfig) -> FleetController {
        let engines = (0..cfg.shards)
            .map(|_| ConsolidationEngine::builder().build())
            .collect();
        FleetController::with_engines(cfg, engines)
    }

    /// A fleet with one pre-built engine per shard (custom machine
    /// classes, disk models, solver budgets).
    ///
    /// # Panics
    /// Panics unless `engines.len() == cfg.shards`.
    pub fn with_engines(cfg: FleetConfig, engines: Vec<ConsolidationEngine>) -> FleetController {
        assert!(cfg.shards >= 1, "need at least one shard");
        assert_eq!(engines.len(), cfg.shards, "one engine per shard");
        let shards = engines
            .into_iter()
            .map(|e| ShardController::new(cfg.shard, e))
            .collect();
        FleetController {
            map: ShardMap::new(cfg.shards),
            cfg,
            shards,
            anti_affinity: Vec::new(),
            plane: FleetController::fresh_plane(&cfg),
        }
    }

    fn fresh_plane(cfg: &FleetConfig) -> BalancePlane {
        BalancePlane::new(
            cfg.balancer,
            FleetMetrics::new(MetricsRegistry::new()),
            kairos_obs::span::NODE_BALANCER,
        )
    }

    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Every registry in the control plane — fleet-level first, then one
    /// per shard.
    fn registries(&self) -> Vec<&MetricsRegistry> {
        std::iter::once(self.plane.metrics_registry())
            .chain(self.shards.iter().map(|s| s.metrics_registry()))
            .collect()
    }

    /// Every registry in the control plane rendered as one flat JSON
    /// object.
    pub fn metrics_json(&self) -> String {
        kairos_obs::render_json_all(&self.registries())
    }

    /// Every registry in the control plane in Prometheus text format.
    pub fn metrics_prometheus(&self) -> String {
        kairos_obs::render_prometheus_all(&self.registries())
    }

    /// Enable or disable decision tracing fleet-wide (the fleet log and
    /// every shard's).
    pub fn set_tracing(&mut self, enabled: bool) {
        self.plane.set_tracing(enabled);
        for shard in &mut self.shards {
            shard.set_tracing(enabled);
        }
    }

    /// Enable or disable causal span tracing fleet-wide: the balancer's
    /// span log (node id `span::NODE_BALANCER`) and every shard's (node
    /// id `span::node_for_shard(i)`).
    pub fn set_span_tracing(&mut self, enabled: bool) {
        self.plane.set_span_tracing(enabled);
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.configure_spans(kairos_obs::span::node_for_shard(i), enabled);
        }
    }

    /// Every span in the control plane — balancer first, then each
    /// shard's, in shard order. The flight-recorder query layer and the
    /// span-tree assembler consume this merged view.
    pub fn all_spans(&self) -> Vec<SpanRecord> {
        let mut all = self.plane.span_log().to_vec();
        for shard in &self.shards {
            all.extend(shard.span_log().to_vec());
        }
        all
    }

    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    pub fn shards(&self) -> &[ShardController] {
        &self.shards
    }

    /// Admit a new tenant, assigned to the least-populated shard.
    /// Returns the shard chosen.
    pub fn add_workload(&mut self, source: Box<dyn TelemetrySource>) -> usize {
        let shard = self.map.least_populated();
        self.add_workload_to(shard, source);
        shard
    }

    /// Admit a new tenant to a specific shard (initial partitioning).
    pub fn add_workload_to(&mut self, shard: usize, source: Box<dyn TelemetrySource>) {
        self.map.assign(source.name(), shard);
        self.shards[shard].add_workload(source);
    }

    /// Admit a replicated tenant to a specific shard.
    pub fn add_workload_with_replicas(
        &mut self,
        shard: usize,
        source: Box<dyn TelemetrySource>,
        replicas: u32,
    ) {
        self.map.assign(source.name(), shard);
        self.shards[shard].add_workload_with_replicas(source, replicas);
    }

    /// Retire a tenant wherever it currently lives.
    pub fn remove_workload(&mut self, name: &str) {
        if let Some(shard) = self.map.remove(name) {
            self.shards[shard].remove_workload(name);
        }
        self.plane.forget(name);
    }

    /// Declare a fleet-wide anti-affinity pair. Holds inside whatever
    /// shard the tenants occupy, including after handoffs (every shard
    /// carries the full pair list; pairs split across shards are
    /// trivially satisfied). Idempotent in either orientation, like the
    /// shard-level and RPC registrations.
    pub fn add_anti_affinity(&mut self, a: &str, b: &str) {
        add_anti_affinity_pair(&mut self.anti_affinity, a, b);
        for s in &mut self.shards {
            s.add_anti_affinity(a, b);
        }
    }

    /// Fleet-wide anti-affinity pairs registered so far.
    pub fn anti_affinity(&self) -> &[(String, String)] {
        &self.anti_affinity
    }

    /// Per-shard summaries (the balancer's input, exposed for
    /// observability).
    pub fn summaries(&self) -> Vec<ShardSummary> {
        self.shards.iter().map(|s| s.summary()).collect()
    }

    // ----- hierarchy surface (see `crate::hierarchy`) -----

    /// Mutable shard access, for callers that drive shards through the
    /// [`crate::balancer::ShardHandle`] surface themselves — the zone
    /// roll-up does (its constant-size summary consumes each shard's
    /// staleness-bounded `summary_cached`, which is `&mut`).
    pub fn shards_mut(&mut self) -> &mut [ShardController] {
        &mut self.shards
    }

    /// Evict `name` from whichever shard holds it, returning the tenant
    /// as a checksummed handoff frame (sketched telemetry inside; see
    /// [`kairos_controller::HANDOFF_WIRE_VERSION`]). The live source is
    /// dropped: a cross-zone admit re-binds its own, exactly like an RPC
    /// admit. This is the building block of the hierarchy's group moves.
    pub fn evict_tenant(&mut self, name: &str) -> Option<Vec<u8>> {
        let shard = self.map.shard_of(name)?;
        let handoff = self.shards[shard].evict(name)?;
        self.map.remove(name);
        self.plane.forget(name);
        let (wire, _source) = handoff.into_wire();
        Some(wire)
    }

    /// Admit an already-decoded handoff into a specific shard, updating
    /// the routing map — the inverse of [`FleetController::evict_tenant`]
    /// (the hierarchy's group admit binds all its members' sources
    /// *before* touching any state, so it arrives here with handoffs
    /// already built).
    pub fn admit_handoff(&mut self, shard: usize, handoff: TenantHandoff) {
        self.map.assign(&handoff.name, shard);
        self.shards[shard].admit(handoff);
    }

    /// Summed greedy pack estimate across every shard — the zone-level
    /// analogue of a shard's `pack_estimate_remaining`. `None` if any
    /// shard cannot estimate (unbootstrapped).
    pub fn pack_estimate_total(&self) -> Option<usize> {
        self.shards.iter().map(|s| s.pack_estimate(&[])).sum()
    }

    /// One monitoring interval: every shard ticks in shard order, then,
    /// on the balance cadence, one balance round drives the shards
    /// through [`ShardController`]'s direct
    /// [`crate::balancer::ShardHandle`] implementation. Everything that
    /// mutates cross-shard structures (the `ShardMap`, handoff transfers,
    /// the handoff log, fleet stats) runs after every shard has ticked.
    /// The watchdog, when armed, observes once per tick over the fleet +
    /// shard registries.
    pub fn tick(&mut self) -> FleetTickReport {
        let started = Instant::now();
        let tick = self.plane.begin_tick();
        let outcomes: Vec<TickOutcome> =
            self.shards.iter_mut().map(ShardController::tick).collect();
        let shards = &self.shards;
        let handoffs = if self
            .plane
            .due(tick, || shards.iter().all(|s| s.planned_once()))
        {
            let records = self.plane.round(&mut self.shards, tick);
            debug_assert!(
                self.plane.parked_handoffs().is_empty(),
                "in-process admits cannot fail, so nothing may park"
            );
            self.map.apply(&records);
            records
        } else {
            Vec::new()
        };
        self.plane.finish_tick(started, &outcomes, &handoffs);
        self.plane
            .observe_health(self.shards.iter().map(|s| s.metrics_registry()));
        FleetTickReport { outcomes, handoffs }
    }

    // ----- checkpoint / restore -----

    /// The whole control plane's state as one serializable snapshot:
    /// every shard's [`kairos_controller::ShardSnapshot`] plus the shard
    /// map, the balancer's cooldown memory, the handoff audit log and
    /// fleet counters. Take it between ticks — everything in the image is
    /// then mutually consistent.
    ///
    /// The handoff log is persisted as its most recent
    /// [`crate::snapshot::HANDOFF_LOG_CHECKPOINT_CAP`] records: the log
    /// is observability, not resume state (only stats and cooldowns feed
    /// decisions), so checkpoint size must track *current* fleet state,
    /// not total handoffs ever performed.
    pub fn snapshot(&self) -> FleetSnapshot {
        let handoffs = self.plane.handoffs();
        let log_tail = handoffs
            .len()
            .saturating_sub(crate::snapshot::HANDOFF_LOG_CHECKPOINT_CAP);
        FleetSnapshot {
            shards: self.shards.iter().map(|s| s.snapshot()).collect(),
            map: self
                .map
                .entries()
                .map(|(t, s)| (t.to_string(), s))
                .collect(),
            anti_affinity: self.anti_affinity.clone(),
            handoff_log: handoffs[log_tail..].to_vec(),
            probe_cooldown: self.plane.cooldown().clone(),
            stats: self.stats(),
            trace: {
                let events = self.plane.trace_events();
                let skip = events.len().saturating_sub(TRACE_CHECKPOINT_CAP);
                events.into_iter().skip(skip).collect()
            },
        }
    }

    /// Atomically persist [`FleetController::snapshot`] at `path` as a
    /// versioned, CRC-trailed `kairos-store` frame (temp-file-then-rename:
    /// a crash mid-write leaves the previous complete checkpoint).
    pub fn checkpoint(&self, path: &Path) -> Result<(), StoreError> {
        kairos_store::save(path, FLEET_SNAPSHOT_VERSION, &self.snapshot())
    }

    /// Rebuild a fleet from a checkpoint file written by
    /// [`FleetController::checkpoint`], with default engines per shard.
    /// Partial, truncated or bit-flipped files are rejected with a
    /// [`StoreError`] — never a panic or a silent partial restore.
    ///
    /// Telemetry sources cannot be persisted; re-bind one per tenant with
    /// [`FleetController::reattach`] before ticking
    /// ([`FleetController::missing_sources`] lists the remainder).
    pub fn resume_from(cfg: FleetConfig, path: &Path) -> Result<FleetController, StoreError> {
        let snapshot: FleetSnapshot = kairos_store::load(path, FLEET_SNAPSHOT_VERSION)?;
        let engines = (0..cfg.shards)
            .map(|_| ConsolidationEngine::builder().build())
            .collect();
        FleetController::resume_with_engines(cfg, engines, snapshot)
    }

    /// [`FleetController::resume_from`] with pre-built per-shard engines
    /// and an already-loaded snapshot. Validates the cross-shard
    /// invariants — the map and the shards' telemetry must describe the
    /// same partition of tenants — before adopting any state.
    ///
    /// # Panics
    /// Panics unless `engines.len() == cfg.shards` (same contract as
    /// [`FleetController::with_engines`]).
    pub fn resume_with_engines(
        cfg: FleetConfig,
        engines: Vec<ConsolidationEngine>,
        snapshot: FleetSnapshot,
    ) -> Result<FleetController, StoreError> {
        assert_eq!(engines.len(), cfg.shards, "one engine per shard");
        if cfg.shards != snapshot.shards.len() {
            return Err(StoreError::Inconsistent(format!(
                "config has {} shards but the snapshot has {}",
                cfg.shards,
                snapshot.shards.len()
            )));
        }
        let mut map = ShardMap::new(cfg.shards);
        for (tenant, shard) in &snapshot.map {
            if *shard >= cfg.shards {
                return Err(StoreError::Inconsistent(format!(
                    "tenant {tenant} mapped to out-of-range shard {shard}"
                )));
            }
            map.assign(tenant, *shard);
        }
        // The map and the shards must partition the same tenant set.
        for (idx, shard_snap) in snapshot.shards.iter().enumerate() {
            for (name, _) in &shard_snap.telemetry {
                if map.shard_of(name) != Some(idx) {
                    return Err(StoreError::Inconsistent(format!(
                        "shard {idx} holds telemetry for {name}, which the map routes to {:?}",
                        map.shard_of(name)
                    )));
                }
            }
        }
        let held: usize = snapshot.shards.iter().map(|s| s.telemetry.len()).sum();
        if held != map.len() {
            return Err(StoreError::Inconsistent(format!(
                "map routes {} tenants but shards hold {held}",
                map.len()
            )));
        }
        let mut shards = Vec::with_capacity(cfg.shards);
        for (engine, shard_snap) in engines.into_iter().zip(snapshot.shards) {
            let shard = ShardController::restore(cfg.shard, engine, shard_snap)
                .map_err(|e| StoreError::Inconsistent(e.to_string()))?;
            shards.push(shard);
        }
        let mut plane = FleetController::fresh_plane(&cfg);
        plane.restore(
            &snapshot.stats,
            snapshot.probe_cooldown,
            snapshot.handoff_log,
            snapshot.trace,
        );
        Ok(FleetController {
            cfg,
            shards,
            map,
            anti_affinity: snapshot.anti_affinity,
            plane,
        })
    }

    /// Re-bind a live telemetry source to a restored tenant, routed to
    /// whichever shard the restored map assigns it. Unlike
    /// [`FleetController::add_workload`] this triggers no membership
    /// re-plan — the tenant never left the fleet, only the process died.
    pub fn reattach(&mut self, source: Box<dyn TelemetrySource>) -> Result<(), StoreError> {
        let name = source.name().to_string();
        let Some(shard) = self.map.shard_of(&name) else {
            return Err(StoreError::Inconsistent(format!(
                "reattach: {name} is not in the restored shard map"
            )));
        };
        self.shards[shard]
            .attach_source(source)
            .map_err(|e| StoreError::Inconsistent(e.to_string()))
    }

    /// Tenants still waiting for [`FleetController::reattach`] after a
    /// resume. Tick only once this is empty: a tenant without a source is
    /// not polled, so its rolling window would silently stall.
    pub fn missing_sources(&self) -> Vec<String> {
        self.shards
            .iter()
            .flat_map(|s| s.detached_workloads())
            .collect()
    }

    /// Global audit ([`BalancePlane::audit`]) over direct reads of every
    /// shard, the global problem built by shard 0's real engine — every
    /// shard carries the full fleet anti-affinity list, so the shard's
    /// own constraint plumbing applies the pairs by name.
    pub fn audit(&self) -> FleetAudit {
        let members = self
            .shards
            .iter()
            .map(|s| (s.forecast_fleet(), Some(s.placement()), s.planned_once()))
            .collect();
        BalancePlane::audit(members, |profiles| self.shards[0].problem_for(profiles))
    }

    /// Explain an audit in terms of the decision trace
    /// ([`BalancePlane::explain_audit`]), each flagged shard's events
    /// read directly.
    pub fn explain_audit(&self, audit: &FleetAudit) -> String {
        self.plane
            .explain_audit(audit, |shard| self.shards[shard].trace_events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_controller::SyntheticSource;
    use kairos_types::Bytes;
    use kairos_workloads::RatePattern;

    fn quick_cfg(shards: usize, budget: usize) -> FleetConfig {
        FleetConfig {
            shards,
            shard: ControllerConfig {
                horizon: 8,
                check_every: 4,
                cooldown_ticks: 8,
                ..ControllerConfig::default()
            },
            balancer: BalancerConfig {
                machines_per_shard: budget,
                balance_every: 4,
                max_moves_per_round: 4,
                ..BalancerConfig::default()
            },
            ..FleetConfig::default()
        }
    }

    fn flat(name: String, tps: f64) -> SyntheticSource {
        SyntheticSource::new(name, 300.0, Bytes::gib(4), RatePattern::Flat { tps }).with_noise(0.0)
    }

    /// Tick `ticks` times, checking that [`ShardController::tick_may_solve`]
    /// was set before every shard tick that planned or re-planned; returns
    /// how many did.
    fn run(fleet: &mut FleetController, ticks: u64) -> usize {
        let mut solving = 0;
        for tick in 0..ticks {
            let hints: Vec<bool> = fleet.shards().iter().map(|s| s.tick_may_solve()).collect();
            for (shard, outcome) in fleet.tick().outcomes.iter().enumerate() {
                if matches!(
                    outcome,
                    TickOutcome::InitialPlan { .. } | TickOutcome::Replanned(_)
                ) {
                    assert!(
                        hints[shard],
                        "tick {tick}, shard {shard}: {outcome:?} unhinted"
                    );
                    solving += 1;
                }
            }
        }
        solving
    }

    #[test]
    fn shards_bootstrap_independently_and_audit_clean() {
        let mut fleet = FleetController::new(quick_cfg(2, 8));
        for i in 0..6 {
            fleet.add_workload(Box::new(flat(format!("t{i:02}"), 200.0)));
        }
        assert_eq!(fleet.map().counts(), vec![3, 3]);
        run(&mut fleet, 20);
        let audit = fleet.audit();
        assert!(audit.complete(), "both shards must have planned");
        assert!(audit.zero_violations());
        assert!(audit.within_budget(8));
        assert!(fleet.handoffs().is_empty(), "balanced fleet: no handoffs");
    }

    #[test]
    fn overloaded_shard_sheds_to_peer() {
        // Shard 0 gets 10 heavy tenants (4 cores each → ~4 machines),
        // shard 1 gets 2 light ones. Budget 3: shard 0 must shed.
        let mut fleet = FleetController::new(quick_cfg(2, 3));
        for i in 0..10 {
            fleet.add_workload_to(0, Box::new(flat(format!("heavy-{i:02}"), 400.0)));
        }
        for i in 0..2 {
            fleet.add_workload_to(1, Box::new(flat(format!("light-{i}"), 100.0)));
        }
        run(&mut fleet, 40);
        let stats = fleet.stats();
        assert!(
            stats.handoffs_completed >= 1,
            "balancer must move tenants: {stats:?}"
        );
        let audit = fleet.audit();
        assert!(audit.complete());
        assert!(audit.zero_violations());
        assert!(
            audit.within_budget(3),
            "both shards within budget, got {:?}",
            audit.machines_used
        );
        // The shard map agrees with who actually runs each tenant.
        for (i, shard) in fleet.shards().iter().enumerate() {
            for name in shard.workloads() {
                assert_eq!(fleet.map().shard_of(&name), Some(i));
            }
        }
    }

    #[test]
    fn single_shard_fleet_never_proposes_handoffs() {
        // Regression: a 1-shard fleet has no possible receiver, so the
        // balancer must not probe donors at all — previously an
        // over-budget single shard recorded a rejected handoff per
        // candidate per round, polluting the stats.
        let mut fleet = FleetController::new(quick_cfg(1, 2));
        for i in 0..10 {
            // ~4 cores each → way over a 2-machine budget.
            fleet.add_workload_to(0, Box::new(flat(format!("t{i:02}"), 400.0)));
        }
        run(&mut fleet, 60);
        let stats = fleet.stats();
        assert!(stats.balance_rounds > 0, "balance cadence must have run");
        assert_eq!(
            stats.handoffs_rejected, 0,
            "no receiver exists, so nothing may be counted as rejected"
        );
        assert_eq!(stats.handoffs_completed, 0);
        assert!(fleet.handoffs().is_empty());
    }

    #[test]
    fn cooldown_hysteresis_reduces_repeated_rejections() {
        // Both shards saturated over budget: every probe is rejected
        // (nobody can admit). Without the cooldown the same heavy
        // tenants are re-proposed every round; with it they sit out.
        let saturated = |cooldown_rounds: u64| {
            let mut cfg = quick_cfg(2, 1);
            cfg.balancer.cooldown_rounds = cooldown_rounds;
            let mut fleet = FleetController::new(cfg);
            for shard in 0..2 {
                for i in 0..6 {
                    fleet
                        .add_workload_to(shard, Box::new(flat(format!("s{shard}-t{i:02}"), 400.0)));
                }
            }
            run(&mut fleet, 80);
            fleet.stats()
        };
        let without = saturated(0);
        let with = saturated(3);
        assert!(
            without.handoffs_rejected > 0,
            "saturated fleet must be proposing (and failing) handoffs: {without:?}"
        );
        assert!(
            with.handoffs_rejected < without.handoffs_rejected,
            "cooldown must cut repeated rejections: {} (cooldown) vs {} (none)",
            with.handoffs_rejected,
            without.handoffs_rejected
        );
    }

    #[test]
    fn low_watermark_sheds_below_budget() {
        // Donor over a budget of 3; with a low watermark of 2 it keeps
        // shedding — within the round that triggered it — until its
        // greedy estimate fits 2 machines, not 3. (8 heavies ≈ 4
        // machines; shedding 4 of them fits the round's move budget.)
        let mut cfg = quick_cfg(2, 3);
        cfg.balancer.low_watermark = 2;
        cfg.balancer.cooldown_rounds = 0;
        let mut fleet = FleetController::new(cfg);
        for i in 0..8 {
            fleet.add_workload_to(0, Box::new(flat(format!("heavy-{i:02}"), 400.0)));
        }
        for i in 0..2 {
            fleet.add_workload_to(1, Box::new(flat(format!("light-{i}"), 100.0)));
        }
        run(&mut fleet, 60);
        assert!(fleet.stats().handoffs_completed >= 1);
        let donor_est = fleet.shards()[0].pack_estimate(&[]).expect("packable");
        assert!(
            donor_est <= 2,
            "donor must shed to the low watermark, estimate {donor_est}"
        );
    }

    #[test]
    fn remove_workload_routes_to_owning_shard() {
        let mut fleet = FleetController::new(quick_cfg(2, 8));
        for i in 0..4 {
            fleet.add_workload(Box::new(flat(format!("t{i}"), 150.0)));
        }
        run(&mut fleet, 12);
        let shard = fleet.map().shard_of("t1").unwrap();
        fleet.remove_workload("t1");
        assert_eq!(fleet.map().shard_of("t1"), None);
        assert!(!fleet.shards()[shard].has_workload("t1"));
    }

    #[test]
    fn repeated_anti_affinity_registers_one_pair() {
        let mut fleet = FleetController::new(quick_cfg(2, 8));
        for i in 0..4 {
            fleet.add_workload(Box::new(flat(format!("t{i}"), 150.0)));
        }
        fleet.add_anti_affinity("t0", "t1");
        let once = serde::to_bytes(&fleet.snapshot());
        // Same pair again, in both orientations: a no-op at every layer.
        fleet.add_anti_affinity("t0", "t1");
        fleet.add_anti_affinity("t1", "t0");
        assert_eq!(
            fleet.anti_affinity(),
            [("t0".to_string(), "t1".to_string())]
        );
        assert_eq!(
            serde::to_bytes(&fleet.snapshot()),
            once,
            "a repeated registration must not grow the checkpoint"
        );
    }

    /// [`run`]'s hint check on a three-shard fleet whose tenants spike and
    /// move between shards.
    #[test]
    fn tick_may_solve_is_set_before_every_solving_shard_tick() {
        let mut fleet = FleetController::new(quick_cfg(3, 2));
        for shard in 0..3 {
            for i in 0..5 {
                let src = flat(
                    format!("s{shard}-t{i}"),
                    if shard == 0 { 200.0 } else { 100.0 },
                );
                let src = if shard == 0 && i < 3 {
                    src.then_at(20 + 4 * i as u64, RatePattern::Flat { tps: 640.0 })
                } else {
                    src
                };
                fleet.add_workload_to(shard, Box::new(src));
            }
        }
        let solving = run(&mut fleet, 80);
        assert!(fleet.stats().handoffs_completed > 0, "no tenant moved");
        assert!(solving >= 6, "only {solving} solving ticks");
    }
}
