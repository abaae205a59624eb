//! The shard-node role: one [`ShardController`] served behind a
//! [`Transport`] endpoint.
//!
//! A node answers the full RPC catalog ([`crate::rpc`]) against its
//! controller, serialized by one mutex (dispatch order = delivery order,
//! so the loopback fleet replays the in-process fleet exactly). The one
//! thing bytes cannot carry across a process boundary is a live
//! telemetry *source*; the node owns a [`SourceBinder`] that supplies
//! them:
//!
//! * [`SourceEscrow`] — a shared in-process parking lot. An eviction
//!   deposits the live source; an admission (or reattach) withdraws it.
//!   This is what a single-process loopback fleet uses: the source
//!   physically moves, exactly like the pre-RPC `FleetController`.
//! * [`SourceFactory`] — a constructor by tenant name. This is the
//!   multi-process reality: the donor's source dies with the eviction
//!   and the destination *re-binds its own* — the PR 4
//!   `attach_source`/`detached_workloads` surface, driven from the
//!   network layer. The factory receives the shard's current tick so a
//!   deterministic source can be fast-forwarded into phase.
//!
//! The admit path decodes and validates the handoff frame **before**
//! binding anything: a damaged frame is rejected with an error response
//! and zero state change — a shard never admits a tenant from bytes it
//! cannot prove intact (mid-handshake corruption is property-tested).

use crate::rpc::{self, Request, Response};
use crate::transport::{NetError, ServerHandle, Transport};
use kairos_controller::{
    ControllerConfig, ShardController, ShardSnapshot, TelemetrySource, TenantHandoff,
    SHARD_SNAPSHOT_VERSION,
};
use kairos_core::ConsolidationEngine;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Where a node gets live telemetry sources from (see module docs).
pub trait SourceBinder: Send {
    /// Park an evicted tenant's live source (in-process deployments) or
    /// discard it (cross-process: the destination rebinds its own).
    fn deposit(&mut self, source: Box<dyn TelemetrySource>);
    /// Produce the live source for `tenant`. `at_tick` is the shard's
    /// current tick — a factory fast-forwards a freshly built
    /// deterministic source by that much so its stream is in phase.
    fn bind(&mut self, tenant: &str, at_tick: u64) -> Option<Box<dyn TelemetrySource>>;
}

/// Shared in-process source parking lot (the loopback deployment's
/// binder). `Clone` shares the lot: hand one handle to every node and
/// evicted sources flow donor → escrow → receiver.
#[derive(Clone, Default)]
pub struct SourceEscrow {
    lot: Arc<Mutex<BTreeMap<String, Box<dyn TelemetrySource>>>>,
}

impl SourceEscrow {
    pub fn new() -> SourceEscrow {
        SourceEscrow::default()
    }

    /// Park a source up front (how a test hands a node its initial
    /// tenants before `AddWorkload` RPCs).
    pub fn park(&self, source: Box<dyn TelemetrySource>) {
        let name = source.name().to_string();
        self.lot.lock().expect("escrow lock").insert(name, source);
    }

    /// Tenants currently parked (diagnostics).
    pub fn parked(&self) -> Vec<String> {
        self.lot
            .lock()
            .expect("escrow lock")
            .keys()
            .cloned()
            .collect()
    }
}

impl SourceBinder for SourceEscrow {
    fn deposit(&mut self, source: Box<dyn TelemetrySource>) {
        self.park(source);
    }

    fn bind(&mut self, tenant: &str, _at_tick: u64) -> Option<Box<dyn TelemetrySource>> {
        self.lot.lock().expect("escrow lock").remove(tenant)
    }
}

/// Constructor-by-name binder (the multi-process deployment). The
/// closure builds a tenant's deterministic source positioned at
/// `at_tick`; evicted sources are simply dropped — the tenant's history
/// travels in the handoff frame, and the destination re-binds its own.
pub struct SourceFactory {
    make: SourceMaker,
}

/// The constructor a [`SourceFactory`] wraps: `(tenant, at_tick)` →
/// live source, or `None` for tenants it cannot build.
pub type SourceMaker = Box<dyn FnMut(&str, u64) -> Option<Box<dyn TelemetrySource>> + Send>;

impl SourceFactory {
    pub fn new(
        make: impl FnMut(&str, u64) -> Option<Box<dyn TelemetrySource>> + Send + 'static,
    ) -> SourceFactory {
        SourceFactory {
            make: Box::new(make),
        }
    }
}

impl SourceBinder for SourceFactory {
    fn deposit(&mut self, _source: Box<dyn TelemetrySource>) {}

    fn bind(&mut self, tenant: &str, at_tick: u64) -> Option<Box<dyn TelemetrySource>> {
        (self.make)(tenant, at_tick)
    }
}

/// Most recent eviction frames a node retains for idempotent retries.
/// An `Evict` whose *response* is lost leaves the client without the
/// handoff bytes while the shard already dropped the tenant; the retry
/// finds the frame here instead of a hole. Small and bounded: entries
/// clear when the tenant is admitted back, and only the most recent
/// evictions are kept.
const EVICT_OUTBOX_CAP: usize = 64;

/// Ticks of backoff never exceed this between announce attempts.
const MAX_ANNOUNCE_BACKOFF_TICKS: u64 = 8;

/// Self-healing membership state: this node announces itself to the
/// balancer's lease endpoint and, until acknowledged, re-announces on
/// `Tick` dispatches with bounded deterministic backoff
/// (`min(2^attempts, 8)` ticks — tick-based, never wall-clock, so chaos
/// schedules replay exactly).
struct AnnounceState {
    transport: Arc<dyn Transport>,
    balancer: String,
    shard: u64,
    endpoint: String,
    generation: u64,
    /// An announce is owed (initial, or the last attempt failed).
    pending: bool,
    attempts: u32,
    next_attempt_tick: u64,
}

impl AnnounceState {
    /// One announce attempt. On failure the next attempt is scheduled
    /// `min(2^attempts, 8)` ticks out from `now`.
    fn attempt(&mut self, now: u64) {
        let request = Request::Announce {
            shard: self.shard,
            endpoint: self.endpoint.clone(),
            generation: self.generation,
        };
        let delivered = self
            .transport
            .connect(&self.balancer)
            .and_then(|mut conn| rpc::call(conn.as_mut(), &request))
            .is_ok();
        if delivered {
            self.pending = false;
            self.attempts = 0;
        } else {
            self.attempts = self.attempts.saturating_add(1);
            let backoff = 1u64
                .checked_shl(self.attempts)
                .unwrap_or(MAX_ANNOUNCE_BACKOFF_TICKS)
                .min(MAX_ANNOUNCE_BACKOFF_TICKS);
            self.next_attempt_tick = now + backoff;
        }
    }
}

struct NodeState {
    shard: ShardController,
    binder: Box<dyn SourceBinder>,
    /// `(tenant, frame)` of recent evictions, oldest first — the
    /// lost-response recovery buffer (see [`EVICT_OUTBOX_CAP`]).
    evict_outbox: Vec<(String, Vec<u8>)>,
    shutdown: bool,
    /// Self-healing membership, when configured (see [`AnnounceState`]).
    announce: Option<AnnounceState>,
    /// The health watchdog, when armed ([`ShardNode::set_health`]).
    /// Observed on every `Tick` dispatch over the shard + process-global
    /// registries; the current report answers the `Health` RPC.
    health: Option<kairos_obs::HealthMonitor>,
}

/// One shard served over a transport. See module docs.
pub struct ShardNode {
    state: Arc<Mutex<NodeState>>,
}

impl ShardNode {
    /// A fresh, empty shard.
    pub fn new(
        cfg: ControllerConfig,
        engine: ConsolidationEngine,
        binder: Box<dyn SourceBinder>,
    ) -> ShardNode {
        ShardNode::from_controller(ShardController::new(cfg, engine), binder)
    }

    /// Wrap an existing controller (tests that pre-populate state).
    pub fn from_controller(shard: ShardController, binder: Box<dyn SourceBinder>) -> ShardNode {
        ShardNode {
            state: Arc::new(Mutex::new(NodeState {
                shard,
                binder,
                evict_outbox: Vec::new(),
                shutdown: false,
                announce: None,
                health: None,
            })),
        }
    }

    /// Restore a node from a shard checkpoint file (written via the
    /// `Checkpoint` RPC) and re-bind every detached tenant through the
    /// binder at the restored tick — the rejoin path after a node death.
    pub fn restore_from(
        cfg: ControllerConfig,
        engine: ConsolidationEngine,
        path: &Path,
        binder: Box<dyn SourceBinder>,
    ) -> Result<ShardNode, NetError> {
        let snapshot: ShardSnapshot = kairos_store::load(path, SHARD_SNAPSHOT_VERSION)
            .map_err(|e| NetError::Remote(format!("restore: {e}")))?;
        ShardNode::from_snapshot(cfg, engine, snapshot, binder)
    }

    /// [`ShardNode::restore_from`] with an already-loaded snapshot.
    pub fn from_snapshot(
        cfg: ControllerConfig,
        engine: ConsolidationEngine,
        snapshot: ShardSnapshot,
        mut binder: Box<dyn SourceBinder>,
    ) -> Result<ShardNode, NetError> {
        let mut shard = ShardController::restore(cfg, engine, snapshot)
            .map_err(|e| NetError::Remote(format!("restore: {e}")))?;
        let at_tick = shard.stats().ticks;
        for tenant in shard.detached_workloads() {
            let Some(source) = binder.bind(&tenant, at_tick) else {
                return Err(NetError::Remote(format!(
                    "restore: no source bindable for {tenant}"
                )));
            };
            shard
                .attach_source(source)
                .map_err(|e| NetError::Remote(format!("restore: {e}")))?;
        }
        Ok(ShardNode::from_controller(shard, binder))
    }

    /// Register this node's RPC handler at `endpoint`.
    pub fn serve(
        &self,
        transport: &dyn Transport,
        endpoint: &str,
    ) -> Result<ServerHandle, NetError> {
        let rejecting = self.state.clone();
        let state = self.state.clone();
        rpc::serve(
            transport,
            endpoint,
            move |served| {
                let mut state = rejecting.lock().expect("node state lock");
                state
                    .shard
                    .record_event(kairos_obs::DecisionEvent::AuthRejected {
                        endpoint: served.to_string(),
                    });
            },
            move |request| dispatch(&state, request),
        )
    }

    /// Configure self-healing membership: announce `(shard, endpoint,
    /// generation)` to the balancer's lease endpoint now, and — if the
    /// announce cannot be delivered — keep retrying on `Tick`
    /// dispatches with bounded deterministic backoff until it lands.
    /// Call after `serve` (initial join, or a checkpoint restore): this
    /// replaces supervisor-driven rejoin with the node healing itself.
    pub fn announce_via(
        &self,
        transport: Arc<dyn Transport>,
        balancer_endpoint: &str,
        shard: u64,
        endpoint: &str,
        generation: u64,
    ) {
        let mut announce = AnnounceState {
            transport,
            balancer: balancer_endpoint.to_string(),
            shard,
            endpoint: endpoint.to_string(),
            generation,
            pending: true,
            attempts: 0,
            next_attempt_tick: 0,
        };
        let now = self.with_shard(|shard| shard.stats().ticks);
        announce.attempt(now);
        self.state.lock().expect("node state lock").announce = Some(announce);
    }

    /// Run `f` against the shard (tests, examples, local maintenance).
    pub fn with_shard<R>(&self, f: impl FnOnce(&mut ShardController) -> R) -> R {
        f(&mut self.state.lock().expect("node state lock").shard)
    }

    /// Arm (or disarm, with `None`) the node's health watchdog. Observed
    /// on every `Tick` dispatch; the `Health` RPC serves the report.
    pub fn set_health(&self, monitor: Option<kairos_obs::HealthMonitor>) {
        self.state.lock().expect("node state lock").health = monitor;
    }

    /// Did a `Shutdown` RPC arrive? (The node process's exit signal.)
    pub fn shutdown_requested(&self) -> bool {
        self.state.lock().expect("node state lock").shutdown
    }
}

/// Serve one request against the node. Exactly one lock scope — a
/// request observes and mutates a consistent shard.
fn dispatch(state: &Arc<Mutex<NodeState>>, request: Request) -> Response {
    let mut state = state.lock().expect("node state lock");
    let state = &mut *state;
    let shard = &mut state.shard;
    match request {
        Request::Ping => Response::Pong {
            ticks: shard.stats().ticks,
        },
        Request::Tick => {
            let outcome = shard.tick();
            // Pump self-healing membership on the tick clock: an owed
            // announce retries here once its backoff expires.
            let now = shard.stats().ticks;
            if let Some(announce) = state.announce.as_mut() {
                if announce.pending && now >= announce.next_attempt_tick {
                    announce.attempt(now);
                }
            }
            // One watchdog observation per tick, when armed; newly fired
            // rules land in the shard's decision trace.
            if let Some(monitor) = state.health.as_mut() {
                let registries = [shard.metrics_registry(), kairos_obs::global()];
                for finding in monitor.observe(now, &registries) {
                    shard.record_event(kairos_obs::DecisionEvent::HealthFlagged {
                        rule: finding.rule.clone(),
                        metric: finding.metric.clone(),
                        severity: finding.severity.name().to_string(),
                    });
                }
            }
            Response::Tick(outcome)
        }
        Request::PlannedOnce => Response::PlannedOnce(shard.planned_once()),
        Request::Summary => Response::Summary(shard.summary_cached()),
        Request::SummarySince { seen } => {
            let digest = shard.summary_digest();
            Response::SummarySince {
                digest,
                summary: (seen != Some(digest)).then(|| shard.summary_cached()),
            }
        }
        Request::PackEstimate { exclude } => {
            let refs: Vec<&str> = exclude.iter().map(|s| s.as_str()).collect();
            Response::PackEstimate(shard.pack_estimate(&refs))
        }
        Request::Forecast { tenant } => Response::Forecast(shard.forecast_workload(&tenant)),
        Request::ForecastFleet => Response::Profiles(shard.forecast_fleet()),
        Request::CanAdmit { profile, budget } => {
            Response::CanAdmit(shard.can_admit(&profile, budget))
        }
        Request::Evict { tenant } => match shard.evict(&tenant) {
            Some(handoff) => {
                let (wire, source) = handoff.into_wire();
                // In-process: the live source parks in the escrow for the
                // receiver. Cross-process: the factory binder drops it —
                // the destination node re-binds its own.
                state.binder.deposit(source);
                // Retain the frame for an idempotent retry: if this
                // response is lost in flight, the caller's re-Evict
                // finds the bytes below instead of a hole.
                state.evict_outbox.retain(|(name, _)| name != &tenant);
                state.evict_outbox.push((tenant, wire.clone()));
                if state.evict_outbox.len() > EVICT_OUTBOX_CAP {
                    state.evict_outbox.remove(0);
                }
                Response::Evicted(Some(wire))
            }
            // Lost-response retry: the tenant already left, but its
            // frame is in the outbox — hand it out again.
            None => Response::Evicted(
                state
                    .evict_outbox
                    .iter()
                    .find(|(name, _)| name == &tenant)
                    .map(|(_, wire)| wire.clone()),
            ),
        },
        Request::Admit { frame } => {
            // Validate BEFORE binding: a damaged frame must reject with
            // zero state change, and no source gets built for it.
            let (name, replicas, telemetry) = match TenantHandoff::parts_from_wire(&frame) {
                Ok(parts) => parts,
                Err(e) => return Response::Error(format!("admit: damaged handoff frame: {e}")),
            };
            let at_tick = shard.stats().ticks;
            let Some(source) = state.binder.bind(&name, at_tick) else {
                return Response::Error(format!("admit: no source bindable for {name}"));
            };
            if source.name() != name {
                return Response::Error(format!(
                    "admit: binder produced source {} for tenant {name}",
                    source.name()
                ));
            }
            state.evict_outbox.retain(|(n, _)| n != &name);
            shard.admit(TenantHandoff {
                name,
                replicas,
                source,
                telemetry,
                sketch: shard.sketch_config(),
            });
            Response::Done
        }
        Request::AddWorkload { tenant, replicas } => {
            let at_tick = shard.stats().ticks;
            let Some(source) = state.binder.bind(&tenant, at_tick) else {
                return Response::Error(format!("add_workload: no source bindable for {tenant}"));
            };
            if replicas > 1 {
                shard.add_workload_with_replicas(source, replicas);
            } else {
                shard.add_workload(source);
            }
            Response::Done
        }
        Request::RemoveWorkload { tenant } => {
            shard.remove_workload(&tenant);
            Response::Done
        }
        Request::AddAntiAffinity { a, b } => {
            shard.add_anti_affinity(&a, &b);
            Response::Done
        }
        Request::Workloads => Response::Workloads(shard.workloads()),
        Request::Owns { tenant } => Response::Owns(shard.has_workload(&tenant)),
        Request::Membership => Response::Membership {
            replicas: shard.replica_counts(),
            anti_affinity: shard.anti_affinity_pairs().to_vec(),
        },
        Request::DetachedWorkloads => Response::Workloads(shard.detached_workloads()),
        Request::Placement => Response::Placement(shard.placement().clone()),
        Request::Stats => Response::Stats(shard.stats()),
        Request::Checkpoint { path } => {
            match kairos_store::save(Path::new(&path), SHARD_SNAPSHOT_VERSION, &shard.snapshot()) {
                Ok(()) => Response::Done,
                Err(e) => Response::Error(format!("checkpoint: {e}")),
            }
        }
        Request::Shutdown => {
            state.shutdown = true;
            Response::Done
        }
        Request::Metrics => {
            // The shard's own registry plus the process-global one (the
            // transport layer's RPC/frame instruments live there).
            let registries = [shard.metrics_registry(), kairos_obs::global()];
            Response::Metrics {
                json: kairos_obs::render_json_all(&registries),
                prometheus: kairos_obs::render_prometheus_all(&registries),
            }
        }
        Request::Trace => Response::Trace(shard.trace_bytes()),
        Request::EvictOutbox => Response::Workloads(
            state
                .evict_outbox
                .iter()
                .map(|(name, _)| name.clone())
                .collect(),
        ),
        // Balancer-role requests; a shard node is the wrong peer.
        Request::SyncState { .. } => Response::Error("sync_state: not a balancer standby".into()),
        Request::Announce { .. } => Response::Error("announce: not a balancer".into()),
        Request::Query { query } => Response::Query(kairos_obs::run_query(
            &query,
            &shard.trace_events(),
            &shard.span_log().to_vec(),
        )),
        Request::Health => Response::Health(
            state
                .health
                .as_ref()
                .map(|m| m.report().clone())
                .unwrap_or_default(),
        ),
        Request::Spans => Response::Spans(shard.span_bytes()),
    }
}
