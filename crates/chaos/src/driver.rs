//! The schedule interpreter: one full RPC fleet, one [`Schedule`], and
//! an invariant suite asserted after **every tick**.
//!
//! The fleet runs over a [`FaultedTransport`] — the fault-injecting
//! decorator — wrapped around a pluggable backend
//! ([`ChaosBackend::Loopback`] by default, [`ChaosBackend::Tcp`] for
//! real sockets via `KAIROS_CHAOS_TRANSPORT=tcp`), so the full
//! schedule grammar drives either backend through one code path.
//!
//! The driver is three phases on one tick loop:
//!
//! 1. **warmup** — the fleet bootstraps, plans, and takes its first
//!    checkpoint; no faults yet (chaos against an unbootstrapped fleet
//!    only finds startup races the generator didn't mean to schedule);
//! 2. **fault window** — scheduled faults apply at their ticks;
//!    checkpoints keep landing on cadence so crashes have something
//!    recent to restore from;
//! 3. **settle** — everything healed/restored (forced at the window
//!    edge if the schedule didn't), the fleet must *converge*: parked
//!    handoffs drain, audits complete within budget, conservation holds
//!    exactly.
//!
//! Per-tick invariants read shard **ground truth** directly (the node
//! objects, not RPCs) so a partition can't blind the checker:
//!
//! * no tenant owned by two live shards (never duplicated);
//! * every owned tenant is routed to its owner (map/ownership agree);
//! * every tenant routed to a live shard but owned by nobody is in the
//!   balancer's parked lot (never silently lost).
//!
//! Determinism: the transport's corruption bit-flips are seeded from
//! the schedule's seed, the fleet is single-threaded, and nothing here
//! reads clocks — so a rerun of the same schedule produces the same
//! [`RunOutcome::fingerprint`] byte for byte, per backend. The sweep
//! binary spot-checks exactly that, and a violation report carries the
//! why-chain (the decision-trace tail) for the failing run.

use crate::schedule::{ChaosFault, GeneratorBounds, Schedule};
use kairos_controller::{ControllerConfig, SyntheticSource};
use kairos_fleet::{BalancerConfig, FleetConfig};
use kairos_net::{
    BalancerNode, FaultInjector, FaultedTransport, LeaseConfig, LoopbackTransport, Request,
    ServerHandle, ShardNode, SourceEscrow, Transport,
};
use kairos_obs::why::render_event;
use kairos_types::Bytes;
use kairos_workloads::RatePattern;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The backend the fault-injecting decorator wraps. Every run goes
/// through [`FaultedTransport`] either way — the schedule grammar and
/// its precedence contract are identical; only the bytes' ride differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChaosBackend {
    /// Deterministic in-memory dispatch (the sweep's default).
    #[default]
    Loopback,
    /// Real `std::net` sockets on kernel-assigned loopback ports; the
    /// decorator routes the schedule's logical endpoint names.
    Tcp,
}

impl ChaosBackend {
    /// `KAIROS_CHAOS_TRANSPORT=tcp|loopback` (default loopback).
    pub fn from_env() -> ChaosBackend {
        match std::env::var("KAIROS_CHAOS_TRANSPORT").as_deref() {
            Ok("tcp") => ChaosBackend::Tcp,
            _ => ChaosBackend::Loopback,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            ChaosBackend::Loopback => "loopback",
            ChaosBackend::Tcp => "tcp",
        }
    }

    fn transport(self, seed: u64) -> FaultedTransport {
        match self {
            ChaosBackend::Loopback => {
                FaultedTransport::new(Arc::new(LoopbackTransport::new()), seed)
            }
            ChaosBackend::Tcp => FaultedTransport::over_tcp(seed),
        }
    }
}

/// The balancer's lease endpoint — restored shard nodes announce here
/// and the balancer reconciles at its next tick (self-healing
/// membership; no supervisor-driven rejoin anywhere in the driver).
const LEASE_ENDPOINT: &str = "balancer-lease";

/// The fleet the schedules run against. Small on purpose: the sweep
/// runs hundreds of these, and every fault class fires just as well
/// against 3 shards as 30.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    pub shards: usize,
    /// Evenly-loaded base tenants per shard.
    pub tenants_per_shard: usize,
    /// Extra heavy tenants stacked on shard 0, so the fleet starts
    /// over budget there and must shed — chaos hits live handoffs, not
    /// an idle fleet.
    pub heavies: usize,
    /// Ticks before the fault window opens (bootstrap + first plan +
    /// first checkpoint).
    pub warmup: u64,
    /// Width of the fault window.
    pub window: u64,
    /// Ticks after forced heal for the fleet to converge.
    pub settle: u64,
    pub machines_per_shard: usize,
    pub balance_every: u64,
    /// Checkpoint cadence (ticks, from warmup) — the crash/restore
    /// fault class restores from the latest of these.
    pub checkpoint_every: u64,
    pub miss_limit: u32,
    /// Sketch shape every shard compresses summaries and handoff
    /// frames with. Default is the controller default; the sketched
    /// chaos leg tightens it so faulted handoffs cross with genuinely
    /// lossy frames.
    pub sketch: kairos_traces::SketchConfig,
    /// Run with causal span tracing armed on the balancer and every
    /// shard (including restored ones). The span logs then join the
    /// determinism fingerprint, so a rerun must reproduce the whole
    /// cross-node span forest byte-for-byte — not just the decision
    /// traces.
    pub spans: bool,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            shards: 3,
            tenants_per_shard: 4,
            heavies: 3,
            warmup: 12,
            window: 24,
            settle: 40,
            machines_per_shard: 2,
            balance_every: 4,
            checkpoint_every: 8,
            miss_limit: 3,
            sketch: kairos_traces::SketchConfig::default(),
            spans: false,
        }
    }
}

impl ChaosConfig {
    /// The generator bounds this fleet implies.
    pub fn bounds(&self) -> GeneratorBounds {
        GeneratorBounds {
            window_start: self.warmup,
            window_end: self.warmup + self.window,
            shards: self.shards,
            miss_limit: self.miss_limit as u64,
        }
    }

    pub fn total_ticks(&self) -> u64 {
        self.warmup + self.window + self.settle
    }

    fn fleet_cfg(&self) -> FleetConfig {
        FleetConfig {
            shards: self.shards,
            shard: ControllerConfig {
                horizon: 8,
                check_every: 4,
                cooldown_ticks: 8,
                sketch: self.sketch,
                ..ControllerConfig::default()
            },
            balancer: BalancerConfig {
                machines_per_shard: self.machines_per_shard,
                balance_every: self.balance_every,
                max_moves_per_round: 2,
                cooldown_rounds: 0,
                ..BalancerConfig::default()
            },
            tick_threads: 1,
        }
    }
}

/// A broken invariant: which one, when, and the decision-trace tail
/// that explains the fleet's path into it.
#[derive(Debug, Clone)]
pub struct Violation {
    pub tick: u64,
    pub invariant: String,
    pub detail: String,
    /// Rendered tail of the balancer's decision trace — the why-chain
    /// a failing sweep prints next to the minimal schedule.
    pub why: Vec<String>,
}

impl Violation {
    pub fn render(&self) -> String {
        let mut out = format!(
            "invariant violated at tick {}: {}\n  {}\n  why (decision-trace tail):\n",
            self.tick, self.invariant, self.detail
        );
        for line in &self.why {
            out.push_str(&format!("    {line}\n"));
        }
        out
    }
}

/// What a run produced besides pass/fail — the human-facing summary
/// (deliberately **not** part of the fingerprint).
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    pub ticks: u64,
    pub faults_applied: usize,
    pub handoffs_completed: u64,
    pub handoffs_failed: u64,
    pub parked_peak: usize,
    /// Percentiles of the per-tick live-owned-tenant count: p0 dips
    /// while tenants sit parked or crashed, p100 is the registered
    /// total. [`kairos_obs::Histogram`] semantics (upper bucket bounds).
    pub owned_p0: u64,
    pub owned_p50: u64,
    pub owned_p100: u64,
}

/// One interpreted schedule: the first violation (if any), the
/// determinism fingerprint, and the report.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    pub violation: Option<Violation>,
    /// Byte-exact digest of the run's observable behaviour: the
    /// balancer decision trace, every shard's decision trace, the
    /// handoff log, and the final routing map. Two runs of the same
    /// schedule must produce identical bytes — the chaos harness's
    /// determinism oracle.
    pub fingerprint: Vec<u8>,
    pub report: RunReport,
}

impl RunOutcome {
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }
}

/// `name → tps`, derived from the name so a restored shard rebuilds
/// byte-identical sources. Heavies (`-h` names) run hot.
fn tps_of(name: &str) -> f64 {
    let h = name
        .bytes()
        .fold(7u64, |a, b| a.wrapping_mul(31).wrapping_add(b as u64));
    let base = if name.contains("-h") { 500.0 } else { 180.0 };
    base + (h % 80) as f64
}

fn make_source(name: &str) -> SyntheticSource {
    SyntheticSource::new(
        name.to_string(),
        300.0,
        Bytes::gib(4),
        RatePattern::Flat { tps: tps_of(name) },
    )
    .with_noise(0.0)
}

/// Last checkpoint a shard can be restored from.
struct Ckpt {
    path: String,
    /// The shard's tick counter at checkpoint time (sources fast-forward
    /// to here on restore).
    ticks: u64,
}

struct ShardSlot {
    node: Option<ShardNode>,
    handle: Option<ServerHandle>,
    endpoint: String,
    generation: u32,
    ckpt: Option<Ckpt>,
    crashed: bool,
}

static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Interpret `schedule` against a fresh fleet over the default
/// (loopback-backed) decorator. Total: every schedule (generated ones
/// by construction, hand-written ones by the forced heal at the window
/// edge) runs to completion and returns.
pub fn run(cfg: &ChaosConfig, schedule: &Schedule) -> RunOutcome {
    run_on(cfg, schedule, ChaosBackend::default())
}

/// [`run`], with the decorator's backend chosen explicitly.
pub fn run_on(cfg: &ChaosConfig, schedule: &Schedule, backend: ChaosBackend) -> RunOutcome {
    let dir = std::env::temp_dir().join(format!(
        "kairos-chaos-{}-{}",
        std::process::id(),
        RUN_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("chaos checkpoint dir");
    let outcome = run_in(cfg, schedule, &dir, backend);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn run_in(cfg: &ChaosConfig, schedule: &Schedule, dir: &Path, backend: ChaosBackend) -> RunOutcome {
    let transport = Arc::new(backend.transport(schedule.seed));
    let escrow = SourceEscrow::new();
    let fleet_cfg = cfg.fleet_cfg();

    let mut slots: Vec<ShardSlot> = Vec::new();
    for shard in 0..cfg.shards {
        let node = ShardNode::new(
            fleet_cfg.shard,
            kairos_core::ConsolidationEngine::builder().build(),
            Box::new(escrow.clone()),
        );
        let endpoint = format!("shard-{shard}");
        let handle = node
            .serve(transport.as_ref(), &endpoint)
            .expect("shard serves");
        slots.push(ShardSlot {
            node: Some(node),
            handle: Some(handle),
            endpoint,
            generation: 0,
            ckpt: None,
            crashed: false,
        });
    }
    let endpoints: Vec<String> = slots.iter().map(|s| s.endpoint.clone()).collect();
    let mut balancer = BalancerNode::connect(
        fleet_cfg,
        LeaseConfig {
            miss_limit: cfg.miss_limit,
        },
        transport.clone(),
        &endpoints,
    )
    .expect("balancer connects");
    if cfg.spans {
        balancer.set_span_tracing(true);
        for (shard, slot) in slots.iter().enumerate() {
            if let Some(node) = &slot.node {
                node.with_shard(|s| {
                    s.configure_spans(kairos_obs::span::node_for_shard(shard), true)
                });
            }
        }
    }
    // Served so restored nodes can announce themselves back in; never
    // the target of a scheduled fault, so self-healing is reachable
    // whenever the node's side of the link is.
    let _lease = balancer
        .serve_lease(transport.as_ref(), LEASE_ENDPOINT)
        .expect("lease endpoint serves");

    let mut registered: BTreeSet<String> = BTreeSet::new();
    for shard in 0..cfg.shards {
        for i in 0..cfg.tenants_per_shard {
            let name = format!("c{shard}-t{i}");
            escrow.park(Box::new(make_source(&name)));
            balancer
                .add_workload_to(shard, &name, 1)
                .expect("registers");
            registered.insert(name);
        }
    }
    for i in 0..cfg.heavies {
        let name = format!("c0-h{i}");
        escrow.park(Box::new(make_source(&name)));
        balancer.add_workload_to(0, &name, 1).expect("registers");
        registered.insert(name);
    }

    let admit_tag = kairos_net::rpc::wire_tag(&Request::Admit { frame: Vec::new() });
    let evict_tag = kairos_net::rpc::wire_tag(&Request::Evict {
        tenant: String::new(),
    });
    let owns_tag = kairos_net::rpc::wire_tag(&Request::Owns {
        tenant: String::new(),
    });

    let mut report = RunReport::default();
    let owned_hist = kairos_obs::MetricsRegistry::new().histogram("chaos_owned_per_tick");
    let window_end = cfg.warmup + cfg.window;
    let mut fault_cursor = 0usize;
    let mut violation: Option<Violation> = None;

    'ticks: for t in 0..cfg.total_ticks() {
        // Checkpoints land before faults: a crash at tick T may restore
        // from tick T's checkpoint, never from post-crash state.
        if t >= cfg.warmup && (t - cfg.warmup).is_multiple_of(cfg.checkpoint_every) {
            let dir_str = dir.to_string_lossy().to_string();
            for (shard, result) in balancer.checkpoint_shards(&dir_str).into_iter().enumerate() {
                if let Ok(path) = result {
                    let ticks = slots[shard]
                        .node
                        .as_ref()
                        .map(|n| n.with_shard(|s| s.stats().ticks))
                        .unwrap_or(0);
                    slots[shard].ckpt = Some(Ckpt { path, ticks });
                }
            }
        }

        while fault_cursor < schedule.faults.len() && schedule.faults[fault_cursor].tick == t {
            let fault = schedule.faults[fault_cursor].fault.clone();
            fault_cursor += 1;
            apply_fault(
                &fault,
                t,
                cfg,
                &transport,
                &escrow,
                &mut slots,
                &mut balancer,
                (admit_tag, evict_tag, owns_tag),
            );
            report.faults_applied += 1;
        }

        // Forced heal at the window edge: whatever the schedule left
        // broken gets repaired so the settle phase demands convergence.
        if t == window_end {
            transport.heal_all();
            for shard in 0..cfg.shards {
                if slots[shard].crashed {
                    restore_shard(
                        shard,
                        t,
                        cfg,
                        &transport,
                        &escrow,
                        &mut slots,
                        &mut balancer,
                    );
                }
            }
            // Partition-downed (not crashed) shards heal themselves the
            // same way a restored one does: announce, reconcile at the
            // balancer's next tick.
            for shard in balancer.down_shards() {
                announce(shard, &transport, &slots);
            }
        }

        balancer.tick();
        report.ticks = t + 1;
        report.parked_peak = report.parked_peak.max(balancer.parked_handoffs().len());

        // ---- the per-tick invariant suite --------------------------------
        let parked: BTreeSet<String> = balancer
            .parked_handoffs()
            .into_iter()
            .map(|(tenant, _, _)| tenant)
            .collect();
        let mut owned_by: Vec<(String, usize)> = Vec::new();
        for (shard, slot) in slots.iter().enumerate() {
            let Some(node) = &slot.node else { continue };
            for name in node.with_shard(|s| s.workloads()) {
                owned_by.push((name, shard));
            }
        }
        owned_hist.record(owned_by.len() as u64);
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for (name, shard) in &owned_by {
            if !seen.insert(name.as_str()) {
                violation = Some(violate(
                    t,
                    "no-tenant-duplicated",
                    format!("{name} owned by two live shards"),
                    &balancer,
                ));
                break 'ticks;
            }
            if balancer.map().shard_of(name) != Some(*shard) {
                violation = Some(violate(
                    t,
                    "map-agrees-with-ownership",
                    format!(
                        "{name} owned by shard {shard} but routed to {:?}",
                        balancer.map().shard_of(name)
                    ),
                    &balancer,
                ));
                break 'ticks;
            }
        }
        for name in &registered {
            let Some(route) = balancer.map().shard_of(name) else {
                violation = Some(violate(
                    t,
                    "no-tenant-lost",
                    format!("{name} fell out of the routing map"),
                    &balancer,
                ));
                break 'ticks;
            };
            if slots[route].crashed {
                continue; // unreadable until restore; conservation re-checked then
            }
            let owned = seen.contains(name.as_str());
            if !owned && !parked.contains(name) {
                violation = Some(violate(
                    t,
                    "no-tenant-lost",
                    format!(
                        "{name} routed to live shard {route} but owned by nobody and not parked"
                    ),
                    &balancer,
                ));
                break 'ticks;
            }
        }
    }

    // ---- end-of-run convergence suite (only if still clean) -------------
    if violation.is_none() {
        let t = cfg.total_ticks();
        let parked = balancer.parked_handoffs();
        if !parked.is_empty() {
            violation = Some(violate(
                t,
                "parked-handoffs-drain",
                format!(
                    "{} handoffs still parked after settle: {parked:?}",
                    parked.len()
                ),
                &balancer,
            ));
        }
    }
    if violation.is_none() {
        let t = cfg.total_ticks();
        let mut owned: BTreeSet<String> = BTreeSet::new();
        'conserve: for (shard, slot) in slots.iter().enumerate() {
            let node = slot.node.as_ref().expect("all shards restored by settle");
            for name in node.with_shard(|s| s.workloads()) {
                if !owned.insert(name.clone()) {
                    violation = Some(violate(
                        t,
                        "ownership-conservation",
                        format!("{name} owned twice at end of run"),
                        &balancer,
                    ));
                    break 'conserve;
                }
                if balancer.map().shard_of(&name) != Some(shard) {
                    violation = Some(violate(
                        t,
                        "ownership-conservation",
                        format!("{name} owned by {shard} but routed elsewhere at end of run"),
                        &balancer,
                    ));
                    break 'conserve;
                }
            }
        }
        if violation.is_none() && owned != registered {
            let lost: Vec<&String> = registered.difference(&owned).collect();
            let extra: Vec<&String> = owned.difference(&registered).collect();
            violation = Some(violate(
                t,
                "ownership-conservation",
                format!("end-of-run census mismatch: lost {lost:?}, extra {extra:?}"),
                &balancer,
            ));
        }
    }
    if violation.is_none() {
        let t = cfg.total_ticks();
        let audit = balancer.audit();
        if !audit.complete() {
            violation = Some(violate(
                t,
                "audit-complete",
                "a shard never re-audited after heal".into(),
                &balancer,
            ));
        } else if !audit.zero_violations() {
            violation = Some(violate(
                t,
                "audit-zero-violations",
                "capacity violation survived settle".into(),
                &balancer,
            ));
        } else if !audit.within_budget(cfg.machines_per_shard) {
            violation = Some(violate(
                t,
                "audit-within-budget",
                format!(
                    "machines used {:?} > budget {}",
                    audit.machines_used, cfg.machines_per_shard
                ),
                &balancer,
            ));
        }
    }

    let stats = balancer.stats();
    report.handoffs_completed = stats.handoffs_completed;
    report.handoffs_failed = stats.handoffs_failed;
    report.owned_p0 = owned_hist.percentile(0.0);
    report.owned_p50 = owned_hist.percentile(0.5);
    report.owned_p100 = owned_hist.percentile(1.0);

    // ---- determinism fingerprint ----------------------------------------
    let mut fingerprint = balancer.trace_bytes();
    for shard in 0..cfg.shards {
        fingerprint.extend_from_slice(&(shard as u64).to_le_bytes());
        if let Some(trace) = balancer.shard_trace(shard) {
            fingerprint.extend_from_slice(&trace);
        }
    }
    fingerprint.extend_from_slice(format!("{:?}", balancer.handoffs()).as_bytes());
    for shard in 0..cfg.shards {
        fingerprint.extend_from_slice(balancer.map().tenants_of(shard).join(",").as_bytes());
        fingerprint.push(b';');
    }
    if cfg.spans {
        // The span forest is part of observable behaviour when armed:
        // the balancer's own spans plus every shard's, the latter
        // fetched over the `Spans` RPC so the wire path is in the
        // oracle too.
        fingerprint.extend_from_slice(&balancer.span_bytes());
        for shard in 0..cfg.shards {
            fingerprint.extend_from_slice(&(shard as u64).to_le_bytes());
            if let Some(spans) = balancer.shard_spans(shard) {
                fingerprint.extend_from_slice(&spans);
            }
        }
    }

    RunOutcome {
        violation,
        fingerprint,
        report,
    }
}

fn violate(tick: u64, invariant: &str, detail: String, balancer: &BalancerNode) -> Violation {
    let events = balancer.trace_events();
    let why = events
        .iter()
        .rev()
        .take(12)
        .rev()
        .map(|e| format!("t={:<4} {}", e.tick, render_event(&e.event)))
        .collect();
    Violation {
        tick,
        invariant: invariant.to_string(),
        detail,
        why,
    }
}

#[allow(clippy::too_many_arguments)]
fn apply_fault(
    fault: &ChaosFault,
    tick: u64,
    cfg: &ChaosConfig,
    transport: &Arc<FaultedTransport>,
    escrow: &SourceEscrow,
    slots: &mut [ShardSlot],
    balancer: &mut BalancerNode,
    (admit_tag, evict_tag, owns_tag): (u32, u32, u32),
) {
    match *fault {
        ChaosFault::Partition { shard } => {
            if !slots[shard].crashed {
                transport.partition(&slots[shard].endpoint);
            }
        }
        ChaosFault::Heal { shard } => {
            transport.heal(&slots[shard].endpoint);
            if !slots[shard].crashed && balancer.down_shards().contains(&shard) {
                announce(shard, transport, slots);
            }
        }
        ChaosFault::Crash { shard } => {
            // Refuse a crash that has nothing to restore from — the
            // generator never schedules one, but a shrunk or
            // hand-written schedule might.
            if slots[shard].crashed || slots[shard].ckpt.is_none() {
                return;
            }
            if let Some(handle) = slots[shard].handle.take() {
                handle.stop();
            }
            slots[shard].node = None; // in-memory state (and live sources) die here
            transport.partition(&slots[shard].endpoint);
            slots[shard].crashed = true;
        }
        ChaosFault::Restore { shard } => {
            if slots[shard].crashed {
                restore_shard(shard, tick, cfg, transport, escrow, slots, balancer);
            }
        }
        ChaosFault::DropCalls { shard, n } => {
            transport.drop_next_calls(&slots[shard].endpoint, n);
        }
        ChaosFault::CorruptAdmit { shard } => {
            transport.corrupt_next_calls_matching(&slots[shard].endpoint, admit_tag, 1);
        }
        ChaosFault::CorruptEvict { shard } => {
            transport.corrupt_next_calls_matching(&slots[shard].endpoint, evict_tag, 1);
        }
        ChaosFault::CorruptOwns { shard } => {
            transport.corrupt_next_calls_matching(&slots[shard].endpoint, owns_tag, 1);
        }
        ChaosFault::SkipRound { n } => balancer.skip_balance_rounds(n),
        ChaosFault::DelayRound { n } => balancer.delay_balance_rounds(n),
    }
}

/// The self-healing path: the node announces `(shard, endpoint,
/// generation)` to the balancer's lease endpoint; the balancer drains
/// announces at the top of its next tick and reconciles via rejoin.
/// An undeliverable announce retries on the node's `Tick` dispatches
/// with bounded deterministic backoff.
fn announce(shard: usize, transport: &Arc<FaultedTransport>, slots: &[ShardSlot]) {
    if let Some(node) = &slots[shard].node {
        let shared: Arc<dyn Transport> = transport.clone();
        node.announce_via(
            shared,
            LEASE_ENDPOINT,
            shard as u64,
            &slots[shard].endpoint,
            u64::from(slots[shard].generation),
        );
    }
}

/// Bring a crashed shard back: reconstructed sources parked for every
/// tenant the checkpoint (or the map, for post-checkpoint arrivals)
/// says it should hold, node restored from the checkpoint, served on a
/// fresh endpoint — which then announces itself to the balancer
/// (reconciling stale/lost tenants against the routing map at the
/// balancer's next tick).
#[allow(clippy::too_many_arguments)]
fn restore_shard(
    shard: usize,
    _tick: u64,
    cfg: &ChaosConfig,
    transport: &Arc<FaultedTransport>,
    escrow: &SourceEscrow,
    slots: &mut [ShardSlot],
    balancer: &mut BalancerNode,
) {
    let ckpt = slots[shard]
        .ckpt
        .as_ref()
        .expect("crash implies checkpoint");
    let mut rebind: BTreeSet<String> = balancer.map().tenants_of(shard).into_iter().collect();
    // Parked handoffs touching this shard may land at either end once
    // the lot retries; their live sources died with the crash, so make
    // them reconstructible too.
    for (tenant, donor, receiver) in balancer.parked_handoffs() {
        if donor == shard || receiver == shard {
            rebind.insert(tenant);
        }
    }
    for name in rebind {
        escrow.park(Box::new(make_source(&name).fast_forward(ckpt.ticks)));
    }
    let node = ShardNode::restore_from(
        balancer.config().shard,
        kairos_core::ConsolidationEngine::builder().build(),
        Path::new(&ckpt.path),
        Box::new(escrow.clone()),
    )
    .expect("checkpoint restores");
    if cfg.spans {
        // Span logs are in-memory only: the restored node starts an
        // empty log (deterministically — a rerun crashes and restores
        // at the same ticks), but must record from here on.
        node.with_shard(|s| s.configure_spans(kairos_obs::span::node_for_shard(shard), true));
    }
    slots[shard].generation += 1;
    let endpoint = format!("shard-{shard}-g{}", slots[shard].generation);
    let handle = node
        .serve(transport.as_ref(), &endpoint)
        .expect("restored shard serves");
    slots[shard].node = Some(node);
    slots[shard].handle = Some(handle);
    slots[shard].endpoint = endpoint;
    slots[shard].crashed = false;
    announce(shard, transport, slots);
}
