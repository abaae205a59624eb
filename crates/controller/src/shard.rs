//! The per-shard control loop — one self-contained slice of the fleet.
//!
//! [`ShardController`] is the unit a sharded control plane replicates: it
//! owns its tenants' telemetry, drift detection, warm re-solver,
//! migration planner and executor. On top of the loop it exposes what a
//! top-level balancer needs:
//!
//! * [`ShardController::summary`] — aggregate load, machines used,
//!   feasibility, and per-tenant peaks (the balancer's decision input);
//! * [`ShardController::can_admit`] / [`ShardController::pack_estimate`]
//!   — capacity reservation checks for the two-phase handoff;
//! * [`ShardController::evict`] / [`ShardController::admit`] — the
//!   transfer itself, moving the tenant's telemetry source *and* rolling
//!   history so the destination replans without a fresh bootstrap;
//! * replica counts and named anti-affinity pairs, threaded through the
//!   bootstrap solve, every re-solve, and placement verification.

use crate::controller::{
    ControllerConfig, ControllerStats, ReplanReason, ReplanSummary, ShardMetrics, TickOutcome,
};
use crate::drift::DriftReport;
use crate::executor::FleetExecutor;
use crate::ingest::{TelemetryIngester, TelemetrySketch, TelemetrySource, WorkloadTelemetry};
use crate::migration::plan_migration;
use crate::resolver::{add_anti_affinity_pair, forecast_windows, FleetPlacement, ReSolver};
use crate::snapshot::{ShardSnapshot, TRACE_CHECKPOINT_CAP};
use kairos_core::ConsolidationEngine;
use kairos_obs::{Counter, DecisionEvent, DecisionLog, MetricsRegistry, SpanLog, TracedEvent};
use kairos_solver::{evaluate, greedy_pack, Assignment, Evaluation};
use kairos_traces::{AggregateSketch, RollingWindow, SeriesSketch, SketchConfig, TailAlignedSums};
use kairos_types::{KairosError, WorkloadProfile};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Max age, in ticks, of a cached balancer summary. The summary is
/// recomputed immediately whenever the shard's state actually changes
/// (plan, membership, handoff, failed solve); this bound only limits how
/// long the *forecast-derived* fields (feasibility, tenant peaks, drift
/// count) may coast on unchanged state between balance rounds.
const SUMMARY_REFRESH_TICKS: u64 = 24;

/// When a memo was filled: the shard's state epoch and its tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stamp {
    epoch: u64,
    tick: u64,
}

/// The cached balancer summary, the stamp it was filled at, and its
/// [`ShardSummary::digest`], computed on first demand.
struct SummaryMemo {
    at: Stamp,
    summary: ShardSummary,
    digest: Option<u64>,
}

/// One tenant's forecast peaks — what the balancer weighs when choosing
/// handoff candidates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantLoad {
    pub name: String,
    pub replicas: u32,
    pub cpu_peak: f64,
    pub ram_peak: f64,
    pub ws_peak: f64,
    pub rate_peak: f64,
}

/// A shard's state as the balancer sees it. Serializable because the
/// shard's staleness-bounded summary cache checkpoints with it — a
/// restored fleet must present the balancer the same (possibly cached)
/// view the original would have, or balance rounds diverge after resume.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardSummary {
    pub tenants: usize,
    /// `false` while the shard is still bootstrapping its first plan.
    pub planned: bool,
    pub machines_used: usize,
    /// Current placement re-evaluated against the current forecast.
    pub feasible: bool,
    pub violation: f64,
    /// The most recent re-plan attempt could not place the fleet.
    pub resolve_failed: bool,
    /// Workloads currently outside their planned envelope.
    pub drifting: usize,
    /// Aggregate rolling load across the shard's tenants, sketched to
    /// constant size (peaks exact — see [`kairos_traces::sketch`]): the
    /// summary's wire size no longer grows with the monitoring window.
    pub aggregate: AggregateSketch,
    /// Per-tenant forecast peaks, for handoff candidate selection.
    pub tenant_loads: Vec<TenantLoad>,
}

impl ShardSummary {
    /// The summary's content digest: SipHash-2-4 under a fixed all-zero
    /// key over its codec bytes. Equal bytes give equal digests, so a
    /// member answers a caller that already holds this digest with the
    /// digest alone, and the caller's copy is the one a full answer
    /// would carry (up to a 2⁻⁶⁴ accidental collision). Zone roll-ups
    /// are `ShardSummary`s too, so shard and zone nodes share the rule.
    pub fn digest(&self) -> u64 {
        kairos_store::siphash24(0, 0, &serde::to_bytes(self))
    }
}

/// A tenant in flight between shards: its telemetry source plus the
/// rolling history that lets the destination shard plan it immediately.
pub struct TenantHandoff {
    pub name: String,
    pub replicas: u32,
    pub source: Box<dyn TelemetrySource>,
    pub telemetry: WorkloadTelemetry,
    /// Sketch shape [`TenantHandoff::into_wire`] compresses the
    /// telemetry with (the donor shard's configured shape).
    pub sketch: SketchConfig,
}

/// Frame version of [`TenantHandoff::into_wire`]'s encoding.
///
/// v2: the telemetry travels as a constant-size [`TelemetrySketch`]
/// instead of the full RRD rings — frame size is independent of the
/// monitoring window (peaks exact, recent tail verbatim, deep past
/// replayed from the quantile staircase on admit).
pub const HANDOFF_WIRE_VERSION: u32 = 2;

impl TenantHandoff {
    /// Serialize the transportable part of the handoff — name, replica
    /// count, and the *sketched* rolling telemetry — into a checksummed
    /// [`kairos_store`] frame, handing the live source back separately.
    /// The source is the one piece that cannot cross a process boundary
    /// as bytes (an RPC transport re-binds the destination's own); the
    /// in-process balancer routes every handoff through this encoding so
    /// the bytes (and the sketch round-trip) are exercised on the hot
    /// path, not just in tests.
    pub fn into_wire(self) -> (Vec<u8>, Box<dyn TelemetrySource>) {
        let TenantHandoff {
            name,
            replicas,
            source,
            telemetry,
            sketch,
        } = self;
        let bytes = kairos_store::encode_frame(
            HANDOFF_WIRE_VERSION,
            &(name, replicas, telemetry.sketch(&sketch)),
        );
        (bytes, source)
    }

    /// Validate and decode a handoff frame's transportable parts —
    /// `(tenant, replicas, telemetry)` — without binding a source,
    /// rebuilding the rolling telemetry from the frame's sketch. The
    /// RPC admit path decodes first and only then binds a
    /// destination-side source for the named tenant, so a damaged frame
    /// is rejected before any state is touched (and a failed admission
    /// can hand the caller's source back for the rollback re-admit).
    pub fn parts_from_wire(
        bytes: &[u8],
    ) -> Result<(String, u32, WorkloadTelemetry), kairos_store::StoreError> {
        let (name, replicas, sketch): (String, u32, TelemetrySketch) =
            kairos_store::decode_frame(bytes, HANDOFF_WIRE_VERSION)?;
        Ok((name, replicas, WorkloadTelemetry::from_sketch(&sketch)))
    }

    /// Inverse of [`TenantHandoff::into_wire`]: validate and decode the
    /// frame, re-binding the destination-side telemetry source. Rejects
    /// corrupt bytes and a source whose name disagrees with the frame.
    pub fn from_wire(
        bytes: &[u8],
        source: Box<dyn TelemetrySource>,
    ) -> Result<TenantHandoff, kairos_store::StoreError> {
        let (name, replicas, telemetry) = TenantHandoff::parts_from_wire(bytes)?;
        if source.name() != name {
            return Err(kairos_store::StoreError::Inconsistent(format!(
                "handoff frame names tenant {name} but the bound source is {}",
                source.name()
            )));
        }
        Ok(TenantHandoff {
            name,
            replicas,
            source,
            telemetry,
            // A decoded handoff re-sketches (if ever re-encoded) with the
            // default shape; the owning shard's evict path overrides it.
            sketch: SketchConfig::default(),
        })
    }
}

/// Does `cand` tighten `old` — never exceeding its peak on any resource
/// series while actually lowering the mean somewhere? The scheduled
/// horizon refresh only swaps a conservative envelope for a candidate
/// that is a strict improvement; anything else keeps the envelope (and
/// leaves the correction to the drift detector).
fn profile_tightens(cand: &WorkloadProfile, old: &WorkloadProfile) -> bool {
    let pairs = [
        (&cand.cpu_cores, &old.cpu_cores),
        (&cand.ram_bytes, &old.ram_bytes),
        (&cand.disk_working_set_bytes, &old.disk_working_set_bytes),
        (
            &cand.disk_update_rows_per_sec,
            &old.disk_update_rows_per_sec,
        ),
    ];
    let mut improves = false;
    for (c, o) in pairs {
        if c.is_empty() || o.is_empty() {
            return false;
        }
        if c.max() > o.max() * (1.0 + 1e-9) {
            return false;
        }
        if c.mean() < o.mean() * (1.0 - 1e-9) {
            improves = true;
        }
    }
    improves
}

/// The per-shard consolidation loop. See module docs.
pub struct ShardController {
    cfg: ControllerConfig,
    ingester: TelemetryIngester,
    sources: BTreeMap<String, Box<dyn TelemetrySource>>,
    resolver: ReSolver,
    executor: FleetExecutor,
    placement: FleetPlacement,
    /// Per workload: the profile its current placement was solved for.
    planned: BTreeMap<String, WorkloadProfile>,
    /// Workloads whose planned profile is a conservative flat envelope
    /// (their forecast hit the regime-change fallback) — the scheduled
    /// horizon refresh's worklist.
    envelope_planned: std::collections::BTreeSet<String>,
    /// Tick at which the scheduled zero-move profile refresh runs (set
    /// after an envelope-planned re-plan; see
    /// [`ControllerConfig::profile_refresh_ticks`]).
    profile_refresh_due: Option<u64>,
    /// Replica counts for tenants that run more than one copy.
    replicas: BTreeMap<String, u32>,
    planned_once: bool,
    membership_changed: bool,
    /// Tick of the most recent (re-)plan, for cooldown accounting.
    last_plan_tick: u64,
    /// Do not attempt another re-plan before this tick (set after a
    /// failed solve so retries are paced, not per-tick).
    replan_backoff_until: u64,
    last_resolve_failed: bool,
    /// Bumped by every change a memo reads — plans, failed solves,
    /// profile refreshes, membership, anti-affinity pairs, a new sketch
    /// shape — so a memo stamped with an older epoch is stale. Not
    /// checkpointed: a restore stamps what it keeps with its own.
    epoch: u64,
    /// The balancer summary: served while its epoch is current and it is
    /// younger than [`SUMMARY_REFRESH_TICKS`].
    summary_memo: Option<SummaryMemo>,
    /// [`ShardController::pack_estimate`]`(&[])`: served only at the
    /// stamp it was packed at. Not checkpointed.
    pack_memo: Cell<Option<(Stamp, Option<usize>)>>,
    /// `kairos_shard_pack_estimates_total`: greedy packs
    /// [`ShardController::pack_estimate`] actually ran. Registry only —
    /// not part of [`ControllerStats`] or the snapshot.
    pack_estimates: Counter,
    /// `kairos_shard_summary_fills_total`: summaries the memo computed
    /// afresh (registry only).
    summary_fills: Counter,
    /// `kairos_shard_resolve_evals_total`: the searches
    /// ([`SolveReport::evals_used`](kairos_solver::SolveReport)) of every
    /// bootstrap and re-plan solve, one per binary-search probe and one per
    /// final run; a re-plan that keeps its polished warm plan at the lower
    /// bound adds none. Registry only, like `pack_estimates`.
    resolve_evals: Counter,
    /// Registry-backed live counters; [`ControllerStats`] is a view.
    metrics: ShardMetrics,
    /// The deterministic decision trace (tick-stamped, ring-buffered).
    log: DecisionLog,
    /// The causal span log: evict/admit record child spans under
    /// whatever context the caller installed (locally or from an RPC
    /// frame's span section), chaining this shard's work into the
    /// balancer's cross-node trace. Disabled by default — zero records,
    /// zero wire change.
    spans: SpanLog,
    /// Objective of the current plan at its adoption — the "before" side
    /// of the next [`DecisionEvent::Replanned`] event. Checkpointed so a
    /// restored shard's trace continues instead of forking.
    last_objective_bits: u64,
}

impl ShardController {
    pub fn new(cfg: ControllerConfig, engine: ConsolidationEngine) -> ShardController {
        let mut resolver = ReSolver::new(engine);
        resolver.solver = cfg.solver;
        resolver.cost_per_move = cfg.cost_per_move;
        resolver.cold = cfg.cold_resolves;
        let registry = MetricsRegistry::new();
        ShardController {
            cfg,
            ingester: TelemetryIngester::new(),
            sources: BTreeMap::new(),
            resolver,
            executor: FleetExecutor::new(),
            placement: FleetPlacement::new(),
            planned: BTreeMap::new(),
            envelope_planned: std::collections::BTreeSet::new(),
            profile_refresh_due: None,
            replicas: BTreeMap::new(),
            planned_once: false,
            membership_changed: false,
            last_plan_tick: 0,
            replan_backoff_until: 0,
            last_resolve_failed: false,
            epoch: 0,
            summary_memo: None,
            pack_memo: Cell::new(None),
            pack_estimates: registry.counter("kairos_shard_pack_estimates_total"),
            summary_fills: registry.counter("kairos_shard_summary_fills_total"),
            resolve_evals: registry.counter("kairos_shard_resolve_evals_total"),
            metrics: ShardMetrics::new(registry),
            log: DecisionLog::new(),
            spans: SpanLog::new(0),
            last_objective_bits: 0,
        }
    }

    /// The shard's current tick count (drives every cadence gate).
    fn ticks(&self) -> u64 {
        self.metrics.ticks.get()
    }

    /// What a memo filled now is stamped with.
    fn stamp(&self) -> Stamp {
        Stamp {
            epoch: self.epoch,
            tick: self.ticks(),
        }
    }

    /// Stale every memo: called once by each change a memo reads.
    fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// A tenant arrived or left: a membership re-plan is due once the
    /// shard has planned, and every memo is stale.
    fn membership_moved(&mut self) {
        if self.planned_once {
            self.membership_changed = true;
        }
        self.bump_epoch();
    }

    /// The registry behind this shard's metrics (the `Metrics` RPC and
    /// the fleet exporters render it).
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        self.metrics.registry()
    }

    /// Record an externally-observed event (e.g. the serving layer's
    /// `AuthRejected`) into this shard's trace at its current tick.
    pub fn record_event(&mut self, event: DecisionEvent) {
        self.log.record(self.ticks(), event);
    }

    /// The trace's events, oldest first (checkpoint / RPC payload).
    pub fn trace_events(&self) -> Vec<TracedEvent> {
        self.log.to_vec()
    }

    /// The canonical trace bytes (workspace codec) — the byte-identity
    /// the determinism and net-equivalence suites assert.
    pub fn trace_bytes(&self) -> Vec<u8> {
        self.log.trace_bytes()
    }

    /// Enable or disable decision tracing. Disabled, `record` is a single
    /// branch (the bench-overhead configuration); already-recorded events
    /// are kept.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.log.set_enabled(enabled);
    }

    /// Configure causal span tracing: the node id this shard's spans
    /// carry (`kairos_obs::span::node_for_shard` and friends) and
    /// whether spans record at all. Disabled (the default) the evict /
    /// admit paths record nothing and RPC frames stay span-free.
    pub fn configure_spans(&mut self, node: u32, enabled: bool) {
        self.spans.set_node(node);
        self.spans.set_enabled(enabled);
    }

    /// The shard's span log (read side: queries, RPC payloads).
    pub fn span_log(&self) -> &SpanLog {
        &self.spans
    }

    /// The canonical span bytes (workspace codec `Vec<SpanRecord>`) —
    /// included in chaos fingerprints when spans are enabled.
    pub fn span_bytes(&self) -> Vec<u8> {
        self.spans.span_bytes()
    }

    /// Attach a workload's telemetry stream. Arrival of a new workload
    /// after the initial plan triggers a membership re-plan once the
    /// newcomer has enough observed windows.
    pub fn add_workload(&mut self, source: Box<dyn TelemetrySource>) {
        let name = source.name().to_string();
        self.ingester.register(&name, self.cfg.telemetry);
        self.sources.insert(name, source);
        self.membership_moved();
    }

    /// Attach a replicated workload: `replicas` copies on distinct
    /// machines (the solver's implicit replica anti-affinity).
    pub fn add_workload_with_replicas(&mut self, source: Box<dyn TelemetrySource>, replicas: u32) {
        assert!(replicas >= 1);
        if replicas > 1 {
            self.replicas.insert(source.name().to_string(), replicas);
        }
        self.add_workload(source);
    }

    /// Declare that `a` and `b` must never share a machine. Applies to
    /// every subsequent solve; ignored in solves where either is absent.
    /// Idempotent in either orientation ([`add_anti_affinity_pair`]).
    pub fn add_anti_affinity(&mut self, a: &str, b: &str) {
        add_anti_affinity_pair(&mut self.resolver.anti_affinity, a, b);
        self.bump_epoch();
    }

    /// Detach a workload: telemetry dropped, tenant retired from the
    /// executor's routing, and an opportunistic repack scheduled
    /// (departures free capacity).
    pub fn remove_workload(&mut self, name: &str) {
        self.sources.remove(name);
        self.ingester.deregister(name);
        self.planned.remove(name);
        self.envelope_planned.remove(name);
        self.replicas.remove(name);
        self.placement.remove_workload(name);
        self.executor.retire(name);
        self.membership_moved();
    }

    pub fn stats(&self) -> ControllerStats {
        self.metrics.stats()
    }

    pub fn placement(&self) -> &FleetPlacement {
        &self.placement
    }

    pub fn executor(&self) -> &FleetExecutor {
        &self.executor
    }

    pub fn workloads(&self) -> Vec<String> {
        self.ingester.names()
    }

    pub fn has_workload(&self, name: &str) -> bool {
        self.sources.contains_key(name)
    }

    pub fn planned_once(&self) -> bool {
        self.planned_once
    }

    /// Could the *next* tick do more than poll telemetry? Mirrors the
    /// gating in [`ShardController::tick`]: bootstrap still pending, a
    /// membership replan due, or a drift check on cadence. The fleet's
    /// tick fan-out uses this to keep quiet ticks on one thread (thread
    /// spawns cost more than polling) while solve-capable ticks — the
    /// ones worth parallelizing — go wide. Purely a scheduling hint: the
    /// tick's behaviour is identical either way.
    pub fn tick_may_solve(&self) -> bool {
        let next = self.ticks() + 1;
        // Lookahead 1 everywhere: one more sample lands before the next
        // tick's readiness checks actually run.
        if !self.planned_once {
            // Mirrors maybe_bootstrap's gate: no solve can happen until
            // every workload has a full horizon of observations.
            return !self.ingester.is_empty() && self.windows_ready(self.cfg.horizon, 1);
        }
        if next < self.replan_backoff_until {
            return false;
        }
        // Mirrors fleet_observable: a warming-up arrival defers the
        // membership replan — but tick() then falls through to the drift
        // path, so an unobservable membership change must NOT veto the
        // cadence check below.
        if self.membership_changed && self.windows_ready(self.cfg.detector.min_windows, 1) {
            return true;
        }
        let cooled = next.saturating_sub(self.last_plan_tick) >= self.cfg.cooldown_ticks;
        cooled && next.is_multiple_of(self.cfg.check_every)
    }

    /// One monitoring interval: poll every source, then act.
    pub fn tick(&mut self) -> TickOutcome {
        self.metrics.ticks.inc();
        for (name, source) in self.sources.iter_mut() {
            let sample = source.poll();
            self.ingester.ingest(name, &sample);
        }
        self.metrics.samples_ingested.add(self.sources.len() as u64);

        if !self.planned_once {
            return self.maybe_bootstrap();
        }
        if self.ticks() < self.replan_backoff_until {
            return TickOutcome::Idle;
        }
        if self.membership_changed && self.fleet_observable() {
            return self.replan(ReplanReason::Membership);
        }
        // The scheduled refresh outranks the drift-check cadence: it
        // fires at most once per replan and is cheap (no solver), while
        // a cadence check runs forever — were the order reversed, a
        // `check_every: 1` config would drift-check on every cooled tick
        // and starve the refresh permanently.
        if self
            .profile_refresh_due
            .is_some_and(|due| self.ticks() >= due)
        {
            return self.profile_refresh();
        }
        let cooled_down =
            self.ticks().saturating_sub(self.last_plan_tick) >= self.cfg.cooldown_ticks;
        if cooled_down && self.ticks().is_multiple_of(self.cfg.check_every) {
            return self.check_drift();
        }
        TickOutcome::Idle
    }

    /// Every registered workload has at least `needed` live samples,
    /// `lookahead` of which will only have landed by the time the
    /// predicted check runs (0 = check now, 1 = predict the next tick).
    /// The single source of truth for the bootstrap, membership and
    /// fan-out-hint gates — they must not drift apart.
    fn windows_ready(&self, needed: usize, lookahead: usize) -> bool {
        self.ingester
            .iter()
            .all(|(_, t)| t.window_len() + lookahead >= needed)
    }

    /// Every registered workload has at least the detector's minimum
    /// window of live samples.
    fn fleet_observable(&self) -> bool {
        self.windows_ready(self.cfg.detector.min_windows, 0)
    }

    /// Bootstrap: wait until every workload has a full horizon of
    /// observations, then plan cold and provision the fleet.
    fn maybe_bootstrap(&mut self) -> TickOutcome {
        let ready = !self.ingester.is_empty() && self.windows_ready(self.cfg.horizon, 0);
        if !ready {
            return TickOutcome::Bootstrapping;
        }
        let (profiles, envelopes) = self.forecast_fleet_flagged();
        let t0 = Instant::now();
        let (problem, report) = match self.resolver.plan_cold(&profiles) {
            Ok(x) => x,
            Err(_) => return TickOutcome::Bootstrapping,
        };
        let solve_secs = t0.elapsed().as_secs_f64();
        self.metrics.solve_secs_total.add(solve_secs);
        self.metrics.solve_usecs.record((solve_secs * 1e6) as u64);
        self.resolve_evals.add(report.evals_used as u64);

        let slots = &problem.slot_series().slots;
        let from = vec![None; slots.len()];
        let migration = plan_migration(&problem, &from, &report.assignment);
        let exec = self.executor.execute(&migration, &problem);
        self.metrics.forced_steps.add(exec.forced_steps as u64);

        let mut placement = FleetPlacement::new();
        for (slot, &machine) in slots.iter().zip(report.assignment.machine_of.iter()) {
            placement.set(
                &problem.workloads[slot.workload].name,
                slot.replica,
                machine,
            );
        }
        let machines = report.assignment.machines_used();
        self.placement = placement;
        self.planned = profiles.into_iter().map(|p| (p.name.clone(), p)).collect();
        self.planned_once = true;
        self.last_plan_tick = self.ticks();
        self.last_objective_bits = report.evaluation.objective.to_bits();
        self.log.record(
            self.ticks(),
            DecisionEvent::Bootstrapped {
                machines,
                objective_bits: self.last_objective_bits,
            },
        );
        self.note_envelopes(envelopes);
        self.bump_epoch();
        TickOutcome::InitialPlan {
            machines,
            solve_secs,
        }
    }

    /// Forecast every workload's next horizon from its rolling telemetry
    /// (replica counts applied).
    pub fn forecast_fleet(&self) -> Vec<WorkloadProfile> {
        self.forecast_fleet_flagged().0
    }

    /// Forecast one workload's next horizon. `None` if unknown.
    pub fn forecast_workload(&self, name: &str) -> Option<WorkloadProfile> {
        let t = self.ingester.get(name)?;
        Some(
            self.forecast_workload_flagged(name, t.history(), t.samples_seen())
                .0,
        )
    }

    /// [`ShardController::forecast_workload`] plus whether the forecast
    /// fell back to the conservative flat envelope — the single
    /// forecasting path every caller (planning, summaries, the
    /// ForecastFleet RPC, the audit) goes through, so the flagged and
    /// unflagged views can never drift apart.
    fn forecast_workload_flagged(
        &self,
        name: &str,
        history: [RollingWindow<'_>; 3],
        samples_seen: u64,
    ) -> (WorkloadProfile, bool) {
        let (mut profile, envelope) =
            forecast_windows(name, history, samples_seen, self.cfg.horizon);
        profile.replicas = self.replicas.get(name).copied().unwrap_or(1);
        (profile, envelope)
    }

    /// [`ShardController::forecast_fleet`] plus the names whose forecast
    /// fell back to the conservative flat envelope — the scheduled
    /// horizon refresh's worklist.
    fn forecast_fleet_flagged(&self) -> (Vec<WorkloadProfile>, Vec<String>) {
        let mut profiles = Vec::with_capacity(self.ingester.len());
        let mut envelopes = Vec::new();
        for (name, telemetry) in self.ingester.iter() {
            let (profile, envelope) =
                self.forecast_workload_flagged(name, telemetry.history(), telemetry.samples_seen());
            if envelope {
                envelopes.push(name.to_string());
            }
            profiles.push(profile);
        }
        (profiles, envelopes)
    }

    /// Record which workloads were just planned against a conservative
    /// envelope, scheduling the zero-move refresh once
    /// [`ControllerConfig::profile_refresh_ticks`] of post-drift
    /// telemetry will have re-accumulated.
    fn note_envelopes(&mut self, envelopes: Vec<String>) {
        self.envelope_planned = envelopes.into_iter().collect();
        self.profile_refresh_due =
            if !self.envelope_planned.is_empty() && self.cfg.profile_refresh_ticks > 0 {
                Some(self.ticks() + self.cfg.profile_refresh_ticks)
            } else {
                None
            };
    }

    /// The profile `name`'s current placement was solved for (`None`
    /// before the initial plan or for unknown tenants).
    pub fn planned_profile(&self, name: &str) -> Option<&WorkloadProfile> {
        self.planned.get(name)
    }

    /// Workloads whose planned profile is currently a conservative flat
    /// envelope, pending the scheduled refresh.
    pub fn envelope_planned(&self) -> Vec<String> {
        self.envelope_planned.iter().cloned().collect()
    }

    /// Scheduled horizon refresh: re-forecast every envelope-planned
    /// workload from its post-drift tail alone and, when that tightens
    /// the profile *and* the current placement stays feasible under it,
    /// adopt the tighter planned set — zero solver work, zero
    /// migrations. The lazier slack side of the drift detector would
    /// eventually force the same correction, but through a full re-solve
    /// and possible moves.
    fn profile_refresh(&mut self) -> TickOutcome {
        self.profile_refresh_due = None;
        let names: Vec<String> = self.envelope_planned.iter().cloned().collect();
        let tail_len = self.cfg.profile_refresh_ticks as usize;
        let mut candidates = self.planned.clone();
        let mut refreshed_names: Vec<String> = Vec::new();
        for name in &names {
            let (Some(telemetry), Some(old)) = (self.ingester.get(name), self.planned.get(name))
            else {
                continue;
            };
            let mut cand =
                crate::resolver::forecast_profile_tail(name, telemetry, self.cfg.horizon, tail_len);
            cand.replicas = self.replicas.get(name).copied().unwrap_or(1);
            if !profile_tightens(&cand, old) {
                continue;
            }
            candidates.insert(name.clone(), cand);
            refreshed_names.push(name.clone());
        }
        self.envelope_planned.clear();
        if refreshed_names.is_empty() {
            return TickOutcome::Idle;
        }
        // Zero-move safety: adopt only when the *current* placement is
        // feasible under the refreshed profiles (it is, whenever the live
        // load really stabilized inside the envelope — a regime still
        // running hot trips overload drift instead).
        let profiles: Vec<WorkloadProfile> = candidates.values().cloned().collect();
        match self.verify_with(&profiles) {
            Some(e) if e.feasible => {
                self.planned = candidates;
                self.metrics.profile_refreshes.inc();
                let refreshed = refreshed_names.len();
                self.log.record(
                    self.ticks(),
                    DecisionEvent::ProfileRefreshed {
                        workloads: refreshed_names,
                    },
                );
                self.bump_epoch();
                TickOutcome::ProfileRefreshed { refreshed }
            }
            _ => TickOutcome::Idle,
        }
    }

    /// Each planned tenant's live window against its planned profile,
    /// read in place, in canonical order. A workload with telemetry but
    /// no plan yet (arrival still warming up) is membership, not drift,
    /// and one with no samples has no verdict. The reports' `workload` is
    /// empty: a caller names only what it keeps.
    fn drift_reports(&self) -> impl Iterator<Item = (&str, DriftReport)> + '_ {
        self.ingester.iter().filter_map(|(name, telemetry)| {
            Some((name, self.drift_report(self.planned.get(name)?, telemetry)?))
        })
    }

    /// One tenant's entry of [`ShardController::drift_reports`].
    fn drift_report(
        &self,
        planned: &WorkloadProfile,
        telemetry: &WorkloadTelemetry,
    ) -> Option<DriftReport> {
        if telemetry.window_len() == 0 {
            return None;
        }
        let [cpu, ram, rate] = telemetry.windows(self.cfg.horizon);
        let now = telemetry.samples_seen().saturating_sub(1);
        let live = [cpu, ram, ram, rate];
        Some(self.cfg.detector.check_windows(planned, live, now))
    }

    /// Compare each live window against its planned profile.
    fn check_drift(&mut self) -> TickOutcome {
        self.metrics.drift_checks.inc();
        let mut drifted: Vec<String> = Vec::new();
        let (mut max_overload, mut max_slack) = (0.0f64, 0.0f64);
        for (name, report) in self.drift_reports() {
            if report.drifted {
                max_overload = max_overload.max(report.max_overload);
                max_slack = max_slack.max(report.max_slack);
                drifted.push(name.to_string());
            }
        }
        if drifted.is_empty() {
            TickOutcome::Stable
        } else {
            self.log.record(
                self.ticks(),
                DecisionEvent::DriftTripped {
                    workloads: drifted.clone(),
                    max_overload_bits: max_overload.to_bits(),
                    max_slack_bits: max_slack.to_bits(),
                    overload_threshold_bits: self.cfg.detector.overload_threshold.to_bits(),
                    slack_threshold_bits: self.cfg.detector.slack_threshold.to_bits(),
                },
            );
            self.replan(ReplanReason::Drift(drifted))
        }
    }

    /// Render a replan trigger for the decision trace.
    fn reason_label(reason: &ReplanReason) -> String {
        match reason {
            ReplanReason::Membership => "membership".to_string(),
            ReplanReason::Drift(names) => format!("drift[{}]", names.join(",")),
        }
    }

    /// Warm re-solve + capacity-safe migration.
    fn replan(&mut self, reason: ReplanReason) -> TickOutcome {
        let (profiles, envelopes) = self.forecast_fleet_flagged();
        let t0 = Instant::now();
        let outcome = match self.resolver.resolve(&profiles, &self.placement) {
            Ok(o) => o,
            Err(_) => {
                // Nothing placeable right now (e.g. a workload's forecast
                // momentarily outgrew the machine class). Keep the old
                // plan and leave `membership_changed` untouched so a
                // pending arrival is retried rather than orphaned; back
                // off one check period so a persistently infeasible fleet
                // doesn't pay a full solve every tick.
                self.replan_backoff_until = self.ticks() + self.cfg.check_every;
                self.last_resolve_failed = true;
                self.log.record(
                    self.ticks(),
                    DecisionEvent::ResolveFailed {
                        reason: Self::reason_label(&reason),
                        backoff_until: self.replan_backoff_until,
                    },
                );
                self.bump_epoch();
                return TickOutcome::Stable;
            }
        };
        let solve_secs = t0.elapsed().as_secs_f64();
        self.last_resolve_failed = false;

        let migration = plan_migration(
            &outcome.problem,
            &outcome.baseline,
            &outcome.report.assignment,
        );
        let execution = self.executor.execute(&migration, &outcome.problem);

        let churn = outcome.churn();
        self.metrics.resolves.inc();
        self.metrics.total_moves.add(outcome.moves as u64);
        self.metrics.forced_steps.add(execution.forced_steps as u64);
        self.metrics.bytes_copied.add(execution.bytes_copied);
        self.metrics.max_churn.max(churn);
        self.metrics.solve_secs_total.add(solve_secs);
        self.metrics.solve_usecs.record((solve_secs * 1e6) as u64);
        self.resolve_evals.add(outcome.report.evals_used as u64);

        self.placement = outcome.placement;
        self.planned = profiles.into_iter().map(|p| (p.name.clone(), p)).collect();
        self.membership_changed = false;
        self.last_plan_tick = self.ticks();
        let objective_after_bits = outcome.report.evaluation.objective.to_bits();
        self.log.record(
            self.ticks(),
            DecisionEvent::Replanned {
                reason: Self::reason_label(&reason),
                feasible: outcome.report.evaluation.feasible,
                moves: outcome.moves,
                machines: self.placement.machines_used(),
                objective_before_bits: self.last_objective_bits,
                objective_after_bits,
                churn_bits: churn.to_bits(),
            },
        );
        self.last_objective_bits = objective_after_bits;
        self.note_envelopes(envelopes);
        self.bump_epoch();

        TickOutcome::Replanned(ReplanSummary {
            reason,
            feasible: outcome.report.evaluation.feasible,
            moves: outcome.moves,
            churn,
            machines: self.placement.machines_used(),
            execution,
            solve_secs,
        })
    }

    /// Re-evaluate the current placement against the current forecast —
    /// the "is the plan still sound" check exposed for tests and reports.
    /// `None` before the initial plan.
    pub fn verify_current(&self) -> Option<Evaluation> {
        if !self.planned_once {
            return None;
        }
        self.verify_with(&self.forecast_fleet())
    }

    /// [`ShardController::verify_current`] against an already-computed
    /// forecast (so callers holding one don't re-forecast the fleet).
    fn verify_with(&self, profiles: &[WorkloadProfile]) -> Option<Evaluation> {
        if !self.planned_once || profiles.is_empty() {
            return None;
        }
        let problem = self.resolver.problem(profiles).ok()?;
        let slots = &problem.slot_series().slots;
        let keys = slots
            .iter()
            .map(|slot| (problem.workloads[slot.workload].name.as_str(), slot.replica));
        let machine_of = self.placement.machines_of(slots.len(), keys)?;
        Some(evaluate(&problem, &Assignment::new(machine_of)))
    }

    /// Build this shard's constraint-carrying solver problem (replica
    /// counts from the profiles, the shard's named anti-affinity pairs
    /// applied) for an arbitrary profile set — the fleet audit uses this
    /// to construct the *global* problem with a real shard engine rather
    /// than re-deriving the constraint plumbing.
    pub fn problem_for(
        &self,
        profiles: &[WorkloadProfile],
    ) -> kairos_types::Result<kairos_solver::ConsolidationProblem> {
        self.resolver.problem(profiles)
    }

    // ----- checkpoint / restore -----

    /// Capture everything a restarted controller needs to resume this
    /// shard's loop exactly: rolling telemetry (drift-detector phase
    /// state included — `samples_seen` drives phase alignment), the
    /// current placement (the warm re-solver's seed), the planned
    /// profiles it was solved for, replica counts, anti-affinity pairs,
    /// cadence/cooldown counters, the balancer summary cache, and the
    /// executor's tenant routing. The shard's *configuration* (and its
    /// engine) deliberately stays out: a snapshot restores state into a
    /// freshly configured controller, so ops can tune the loop across a
    /// restart without invalidating checkpoints.
    pub fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            telemetry: self
                .ingester
                .iter()
                .map(|(n, t)| (n.to_string(), t.clone()))
                .collect(),
            placement: self.placement.clone(),
            planned: self.planned.clone(),
            envelope_planned: self.envelope_planned.iter().cloned().collect(),
            profile_refresh_due: self.profile_refresh_due,
            replicas: self.replicas.clone(),
            anti_affinity: self.resolver.anti_affinity.clone(),
            planned_once: self.planned_once,
            membership_changed: self.membership_changed,
            last_plan_tick: self.last_plan_tick,
            replan_backoff_until: self.replan_backoff_until,
            last_resolve_failed: self.last_resolve_failed,
            summary_cache: self
                .summary_memo
                .as_ref()
                .filter(|m| m.at.epoch == self.epoch)
                .map(|m| (m.at.tick, self.cfg.sketch.digest(), m.summary.clone())),
            stats: self.metrics.stats(),
            routing: self.executor.routing_snapshot(),
            trace: {
                // Like the fleet handoff log, checkpoints keep a bounded
                // tail of the trace so file size tracks current state.
                let events = self.log.to_vec();
                let skip = events.len().saturating_sub(TRACE_CHECKPOINT_CAP);
                events.into_iter().skip(skip).collect()
            },
            last_objective_bits: self.last_objective_bits,
        }
    }

    /// Rebuild a shard from a [`ShardSnapshot`]: telemetry windows are
    /// re-installed, the executor's routing entries are reinstated,
    /// and all loop state (placement, planned profiles, counters, the
    /// cached summary) is restored verbatim — the summary only when
    /// `cfg` sketches with the shape it was filled under. Internally inconsistent
    /// snapshots (placements or routing for tenants with no telemetry)
    /// are rejected — a partial restore must never come up half-silent.
    ///
    /// Telemetry *sources* cannot be serialized; after restoring, re-bind
    /// one per tenant with [`ShardController::attach_source`] before
    /// ticking ([`ShardController::detached_workloads`] lists what is
    /// still missing).
    pub fn restore(
        cfg: ControllerConfig,
        engine: ConsolidationEngine,
        snapshot: ShardSnapshot,
    ) -> kairos_types::Result<ShardController> {
        let names: std::collections::BTreeSet<&str> =
            snapshot.telemetry.iter().map(|(n, _)| n.as_str()).collect();
        if names.len() != snapshot.telemetry.len() {
            return Err(KairosError::InvalidInput(
                "shard snapshot repeats a tenant".into(),
            ));
        }
        let unknown = {
            let placed = snapshot.placement.iter().map(|((w, _), _)| ("places", w));
            let planned = snapshot.planned.keys().chain(snapshot.replicas.keys());
            let enveloped = snapshot.envelope_planned.iter();
            let routed = snapshot.routing.iter().map(|(w, ..)| ("routes", w));
            placed
                .chain(planned.map(|w| ("plans", w)))
                .chain(enveloped.map(|w| ("envelope-plans", w)))
                .chain(routed)
                .find(|(_, w)| !names.contains(w.as_str()))
                .map(|(verb, w)| format!("shard snapshot {verb} unknown tenant {w}"))
        };
        if let Some(message) = unknown {
            return Err(KairosError::InvalidInput(message));
        }

        let mut shard = ShardController::new(cfg, engine);
        for (name, telemetry) in snapshot.telemetry {
            shard.ingester.insert(&name, telemetry);
        }
        shard.resolver.anti_affinity = snapshot.anti_affinity;
        shard.executor.restore_routing(&snapshot.routing);
        shard.placement = snapshot.placement;
        shard.planned = snapshot.planned;
        shard.envelope_planned = snapshot.envelope_planned.into_iter().collect();
        shard.profile_refresh_due = snapshot.profile_refresh_due;
        shard.replicas = snapshot.replicas;
        shard.planned_once = snapshot.planned_once;
        shard.membership_changed = snapshot.membership_changed;
        shard.last_plan_tick = snapshot.last_plan_tick;
        shard.replan_backoff_until = snapshot.replan_backoff_until;
        shard.last_resolve_failed = snapshot.last_resolve_failed;
        // A summary sketched under another shape is not kept.
        let sketched_as = shard.cfg.sketch.digest();
        shard.summary_memo = snapshot
            .summary_cache
            .filter(|(_, digest, _)| *digest == sketched_as)
            .map(|(tick, _, summary)| SummaryMemo {
                at: Stamp {
                    tick,
                    ..shard.stamp()
                },
                summary,
                digest: None,
            });
        shard.metrics.restore(&snapshot.stats);
        shard.log =
            DecisionLog::restore(snapshot.trace, kairos_obs::events::DEFAULT_TRACE_CAP, true);
        shard.last_objective_bits = snapshot.last_objective_bits;
        Ok(shard)
    }

    /// Re-bind a live telemetry source to a restored tenant. Unlike
    /// [`ShardController::add_workload`] this does *not* mark membership
    /// as changed — the tenant never left the fleet, only the process
    /// died — so reattachment triggers no spurious re-plan. Rejects
    /// sources for tenants the shard has no telemetry for.
    pub fn attach_source(&mut self, source: Box<dyn TelemetrySource>) -> kairos_types::Result<()> {
        let name = source.name().to_string();
        if self.ingester.get(&name).is_none() {
            return Err(KairosError::InvalidInput(format!(
                "attach_source: {name} has no telemetry here — new tenants go through add_workload"
            )));
        }
        self.sources.insert(name, source);
        Ok(())
    }

    /// Replica counts for tenants running more than one copy — part of
    /// the membership view a network balancer adopts on failover (the
    /// shard is the ground truth for what it hosts).
    pub fn replica_counts(&self) -> Vec<(String, u32)> {
        self.replicas.iter().map(|(k, &v)| (k.clone(), v)).collect()
    }

    /// Named anti-affinity pairs registered on this shard, in
    /// registration order (every shard carries the full fleet list).
    pub fn anti_affinity_pairs(&self) -> &[(String, String)] {
        &self.resolver.anti_affinity
    }

    /// Tenants with telemetry but no live source — what still needs
    /// [`ShardController::attach_source`] after a restore.
    pub fn detached_workloads(&self) -> Vec<String> {
        self.ingester
            .names()
            .into_iter()
            .filter(|n| !self.sources.contains_key(n))
            .collect()
    }

    // ----- balancer surface -----

    /// The shard's state rolled up for the balancer: aggregate rolling
    /// load (every tenant's full window summed tail-aligned per resource
    /// and sketched), machines in use, placement health, and per-tenant
    /// forecast peaks. One walk over the tenants reads each one's windows
    /// once, for the roll-up, the forecast and the drift count; the
    /// forecasts then feed both the placement check and the peaks.
    pub fn summary(&self) -> ShardSummary {
        let mut sums = TailAlignedSums::default();
        let mut profiles = Vec::with_capacity(self.ingester.len());
        let mut drifting = 0;
        // Plans are keyed by name like the telemetry: a merge walk finds each.
        let mut planned = self.planned.iter().peekable();
        for (name, telemetry) in self.ingester.iter() {
            let history = telemetry.history();
            sums.add(history);
            let seen = telemetry.samples_seen();
            profiles.push(self.forecast_workload_flagged(name, history, seen).0);
            while planned.next_if(|(n, _)| n.as_str() < name).is_some() {}
            if let Some((_, plan)) = planned.next_if(|(n, _)| n.as_str() == name) {
                let report = self.drift_report(plan, telemetry);
                drifting += usize::from(report.is_some_and(|d| d.drifted));
            }
        }
        // RAM is the working set, so its sketch serves both.
        let [cpu, ram, rate] = sums
            .finish(self.cfg.telemetry.interval_secs)
            .map(|sum| SeriesSketch::of(&sum, &self.cfg.sketch));
        let aggregate = AggregateSketch {
            cpu_cores: cpu,
            ram_bytes: ram.clone(),
            ws_bytes: ram,
            rate_rows: rate,
            tenants: self.ingester.len(),
        };
        let (feasible, violation) = match self.verify_with(&profiles) {
            Some(e) => (e.feasible, e.violation),
            None => (!self.planned_once, 0.0),
        };
        let peak = |s: &kairos_types::TimeSeries| {
            if s.is_empty() {
                0.0
            } else {
                s.max()
            }
        };
        let tenant_loads = profiles
            .into_iter()
            .map(|p| TenantLoad {
                replicas: p.replicas,
                cpu_peak: peak(&p.cpu_cores),
                ram_peak: peak(&p.ram_bytes),
                ws_peak: peak(&p.disk_working_set_bytes),
                rate_peak: peak(&p.disk_update_rows_per_sec),
                name: p.name,
            })
            .collect();
        ShardSummary {
            tenants: self.ingester.len(),
            planned: self.planned_once,
            machines_used: self.placement.machines_used(),
            feasible,
            violation,
            resolve_failed: self.last_resolve_failed,
            drifting,
            aggregate,
            tenant_loads,
        }
    }

    /// [`ShardController::summary`] through a staleness-bounded cache:
    /// recomputed whenever the shard's state actually changed (plan,
    /// membership, handoff, failed solve, sketch shape — every change
    /// that bumps the epoch) or when the cached copy is
    /// `SUMMARY_REFRESH_TICKS` old. This is the balance round's hot path:
    /// a quiet shard's summary is a clone, not a fleet-wide forecast
    /// pass. Caveat: telemetry that drifts without tripping the detector
    /// (so no replan happens) moves the forecast-derived fields
    /// (`feasible`, tenant peaks, `drifting`) only once the staleness
    /// bound expires.
    pub fn summary_cached(&mut self) -> ShardSummary {
        self.summary_ref().clone()
    }

    /// [`ShardController::summary_cached`] by reference: the cached
    /// summary, refilled first when stale, for readers that need only
    /// some of its fields (a zone's roll-up, its choice of shard).
    pub fn summary_ref(&mut self) -> &ShardSummary {
        &self.memoized_summary().summary
    }

    /// [`ShardSummary::digest`] of the summary
    /// [`ShardController::summary_cached`] returns now, computed at most
    /// once per cache fill — what a shard node answers `SummarySince`
    /// from without cloning or encoding on a match.
    pub fn summary_digest(&mut self) -> u64 {
        let SummaryMemo {
            summary, digest, ..
        } = self.memoized_summary();
        *digest.get_or_insert_with(|| summary.digest())
    }

    /// The summary memo, refilled first unless it is a hit.
    fn memoized_summary(&mut self) -> &mut SummaryMemo {
        let now = self.stamp();
        let hit = |m: &SummaryMemo| {
            m.at.epoch == now.epoch && now.tick.saturating_sub(m.at.tick) < SUMMARY_REFRESH_TICKS
        };
        if !self.summary_memo.as_ref().is_some_and(hit) {
            self.summary_fills.inc();
            self.summary_memo = Some(SummaryMemo {
                at: now,
                summary: self.summary(),
                digest: None,
            });
        }
        self.summary_memo.as_mut().expect("filled above")
    }

    /// The sketch shape this shard compresses summaries and handoff
    /// frames with.
    pub fn sketch_config(&self) -> SketchConfig {
        self.cfg.sketch
    }

    /// Re-shape the telemetry sketches (mark count / verbatim tail). A
    /// new shape stales the cached summary; the same shape keeps it.
    pub fn set_sketch_config(&mut self, sketch: SketchConfig) {
        if self.cfg.sketch != sketch {
            self.cfg.sketch = sketch;
            self.bump_epoch();
        }
    }

    /// Phase 1 of the handoff (reservation): would this shard still pack
    /// within `machine_budget` target machines after admitting
    /// `incoming`? Conservative — uses the greedy packer, so a `true`
    /// here means a feasible placement certainly exists.
    pub fn can_admit(&self, incoming: &WorkloadProfile, machine_budget: usize) -> bool {
        let mut profiles = self.forecast_fleet();
        profiles.push(incoming.clone());
        let Ok(problem) = self.resolver.problem(&profiles) else {
            return false;
        };
        match greedy_pack(&problem) {
            Some(g) => {
                g.machines_used <= machine_budget && evaluate(&problem, &g.assignment).feasible
            }
            None => false,
        }
    }

    /// Machines this shard would need (greedy estimate) if the named
    /// tenants were evicted. `None` when even greedy cannot pack what
    /// remains; `Some(0)` when nothing remains. The estimate with nothing
    /// excluded is packed at most once per tick and epoch: a zone's pack
    /// estimate asked again after an evict repacks only the shards the
    /// evict touched.
    pub fn pack_estimate(&self, exclude: &[&str]) -> Option<usize> {
        let now = self.stamp();
        if exclude.is_empty() {
            if let Some((at, estimate)) = self.pack_memo.get() {
                if at == now {
                    return estimate;
                }
            }
        }
        let profiles: Vec<WorkloadProfile> = self
            .forecast_fleet()
            .into_iter()
            .filter(|p| !exclude.contains(&p.name.as_str()))
            .collect();
        let estimate = if profiles.is_empty() {
            Some(0)
        } else {
            self.resolver.problem(&profiles).ok().and_then(|problem| {
                self.pack_estimates.inc();
                greedy_pack(&problem).map(|g| g.machines_used)
            })
        };
        if exclude.is_empty() {
            self.pack_memo.set(Some((now, estimate)));
        }
        estimate
    }

    /// Phase 2a of the handoff: remove a tenant from this shard,
    /// returning it — with its telemetry history — for admission
    /// elsewhere. Frees capacity only (removal is always capacity-safe);
    /// schedules an opportunistic repack. `None` if unknown.
    pub fn evict(&mut self, name: &str) -> Option<TenantHandoff> {
        let source = self.sources.remove(name)?;
        let telemetry = self
            .ingester
            .take(name)
            .expect("registered source implies telemetry");
        let replicas = self.replicas.remove(name).unwrap_or(1);
        self.planned.remove(name);
        self.envelope_planned.remove(name);
        self.placement.remove_workload(name);
        self.executor.retire(name);
        self.membership_moved();
        // Chain into the caller's trace: locally that's the balance
        // round's handoff span; over RPC it's the context the frame's
        // span section delivered. No installed context ⇒ no span.
        if let Some(parent) = kairos_obs::span::current() {
            self.spans
                .open_child(parent, "evict", self.ticks(), &[("tenant", name)]);
        }
        self.log.record(
            self.ticks(),
            DecisionEvent::TenantEvicted {
                tenant: name.to_string(),
            },
        );
        Some(TenantHandoff {
            name: name.to_string(),
            replicas,
            source,
            telemetry,
            sketch: self.cfg.sketch,
        })
    }

    /// Phase 2b of the handoff: adopt an evicted tenant. Its history
    /// arrives with it, so the next tick replans membership immediately
    /// instead of re-bootstrapping, and the placement goes through this
    /// shard's capacity-safe migration planner.
    pub fn admit(&mut self, handoff: TenantHandoff) {
        let TenantHandoff {
            name,
            replicas,
            source,
            telemetry,
            sketch: _,
        } = handoff;
        self.ingester.insert(&name, telemetry);
        if replicas > 1 {
            self.replicas.insert(name.clone(), replicas);
        }
        if let Some(parent) = kairos_obs::span::current() {
            self.spans
                .open_child(parent, "admit", self.ticks(), &[("tenant", &name)]);
        }
        self.log.record(
            self.ticks(),
            DecisionEvent::TenantAdmitted {
                tenant: name.clone(),
            },
        );
        self.sources.insert(name, source);
        self.membership_moved();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::SyntheticSource;
    use kairos_types::Bytes;
    use kairos_workloads::RatePattern;

    fn quick_cfg() -> ControllerConfig {
        ControllerConfig {
            horizon: 8,
            check_every: 4,
            cooldown_ticks: 8,
            ..ControllerConfig::default()
        }
    }

    fn shard_with(n: usize, tps: f64) -> ShardController {
        let mut s = ShardController::new(quick_cfg(), ConsolidationEngine::builder().build());
        for i in 0..n {
            s.add_workload(Box::new(
                SyntheticSource::new(
                    format!("t{i:02}"),
                    300.0,
                    Bytes::gib(4),
                    RatePattern::Flat { tps },
                )
                .with_noise(0.0),
            ));
        }
        s
    }

    fn run_until_planned(s: &mut ShardController, max_ticks: u64) {
        for _ in 0..max_ticks {
            if let TickOutcome::InitialPlan { .. } = s.tick() {
                return;
            }
        }
        panic!("shard never bootstrapped");
    }

    #[test]
    fn summary_reports_aggregate_and_tenants() {
        let mut s = shard_with(4, 200.0);
        run_until_planned(&mut s, 20);
        let sum = s.summary();
        assert_eq!(sum.tenants, 4);
        assert!(sum.planned);
        assert!(sum.feasible);
        assert!(sum.machines_used >= 1);
        assert_eq!(sum.tenant_loads.len(), 4);
        // 4 × 200 tps × 0.01 cores/tps = 8 aggregate cores.
        let [cpu, ram, _, rate] = sum.aggregate.peaks();
        assert!((cpu - 8.0).abs() < 0.5, "aggregate cpu {cpu}");
        assert!(ram > 0.0);
        assert!(rate > 0.0);
    }

    #[test]
    fn evict_then_admit_transfers_history_and_replans() {
        let mut donor = shard_with(4, 200.0);
        let mut receiver = shard_with(3, 200.0);
        run_until_planned(&mut donor, 20);
        run_until_planned(&mut receiver, 20);

        let forecast = donor.forecast_workload("t00").expect("known tenant");
        assert!(receiver.can_admit(&forecast, 8));

        let handoff = donor.evict("t00").expect("evictable");
        assert!(handoff.telemetry.window_len() >= 8, "history travels");
        assert!(!donor.has_workload("t00"));
        assert!(donor.placement().machine_of("t00", 0).is_none());
        assert!(donor.executor().machine_of("t00", 0).is_none());

        receiver.admit(handoff);
        assert!(receiver.has_workload("t00"));
        // The receiver replans on the next tick — membership, not a
        // bootstrap — because the telemetry arrived with the tenant.
        let outcome = receiver.tick();
        match outcome {
            TickOutcome::Replanned(r) => {
                assert_eq!(r.reason, ReplanReason::Membership);
                assert!(r.feasible);
            }
            other => panic!("expected immediate membership replan, got {other:?}"),
        }
        assert!(receiver.placement().machine_of("t00", 0).is_some());
        assert!(receiver.verify_current().expect("planned").feasible);
    }

    #[test]
    fn evict_unknown_tenant_is_none() {
        let mut s = shard_with(2, 100.0);
        assert!(s.evict("ghost").is_none());
    }

    #[test]
    fn can_admit_rejects_over_budget() {
        let mut s = shard_with(5, 200.0); // ~2 cores each → one machine
        run_until_planned(&mut s, 20);
        let big = WorkloadProfile::flat(
            "giant",
            300.0,
            8,
            10.0,
            Bytes::gib(8),
            kairos_types::DiskDemand::new(Bytes::gib(1), kairos_types::Rate(100.0)),
        );
        // A 10-core tenant cannot share the single allowed machine.
        assert!(!s.can_admit(&big, 1));
        assert!(s.can_admit(&big, 2));
    }

    #[test]
    fn anti_affinity_added_after_a_summary_reads_at_once() {
        let mut s = shard_with(5, 200.0); // ~2 cores each → one machine
        run_until_planned(&mut s, 20);
        assert!(s.summary_cached().feasible);
        let names = s.workloads();
        let machine = |name: &String| s.placement().machine_of(name, 0);
        let (a, b) = names
            .iter()
            .enumerate()
            .find_map(|(i, a)| {
                let b = names[i + 1..].iter().find(|b| machine(b) == machine(a))?;
                Some((a.clone(), b.clone()))
            })
            .expect("two tenants share a machine");
        s.add_anti_affinity(&a, &b);
        assert!(
            !s.summary_cached().feasible,
            "{a} and {b} share a machine, yet the summary reads feasible"
        );
    }

    /// What a step must do to the shard's memos.
    enum Effect {
        /// It changed state a memo reads: both memos miss.
        Stales(&'static str),
        /// It changed nothing a memo reads: both memos hit.
        Keeps,
        /// A tick that neither planned nor refreshed: the pack estimate
        /// misses, the summary ages.
        Ticks,
        /// A restore: the summary is the snapshot's unless the sketch
        /// shape changed.
        Restores,
    }

    #[test]
    fn every_memo_matches_a_fresh_one_after_every_step() {
        fn packs(s: &ShardController) -> u64 {
            s.metrics_registry()
                .counter_value("kairos_shard_pack_estimates_total")
                .unwrap_or(0)
        }
        fn source(name: &str, tps: f64) -> Box<dyn TelemetrySource> {
            Box::new(SyntheticSource::new(
                name,
                300.0,
                Bytes::gib(4),
                RatePattern::Flat { tps },
            ))
        }
        // Every source is noisy, so a summary held across a tick shows.
        // `hot` changes regime at tick 24: a drift re-plan onto an
        // envelope, then the envelope's refresh. `giant` fits no machine,
        // so a re-plan with it aboard fails.
        let cfg = |sketch| ControllerConfig {
            profile_refresh_ticks: 8,
            sketch,
            ..quick_cfg()
        };
        let shapes = [SketchConfig::default(), SketchConfig { marks: 5, tail: 4 }];
        let engine = || ConsolidationEngine::builder().build();
        let mut rng = kairos_types::SplitMix64::from_env(0x57A3B);
        let mut staled: BTreeMap<&str, usize> = BTreeMap::new();
        for round in 0..6 {
            // Every other round mostly ticks, long enough for `hot`'s
            // envelope refresh to come due between membership changes.
            let tick_share = [60, 90][round % 2];
            let mut s = ShardController::new(cfg(shapes[0]), engine());
            s.add_workload(Box::new(
                SyntheticSource::new(
                    "hot",
                    300.0,
                    Bytes::gib(4),
                    RatePattern::Flat { tps: 200.0 },
                )
                .then_at(
                    24,
                    RatePattern::Sinusoid {
                        mean: 260.0,
                        amplitude: 140.0,
                        period_secs: 8.0 * 300.0,
                        phase: 0.0,
                    },
                ),
            ));
            for i in 0..5 {
                s.add_workload(source(&format!("t{i}"), rng.next_in(150.0, 350.0)));
            }
            let mut parked: Vec<TenantHandoff> = Vec::new();
            for step in 0..150 {
                let before = s.summary_digest();
                s.pack_estimate(&[]);
                let packed = packs(&s);
                let backoff = s.replan_backoff_until;
                let movable: Vec<String> =
                    s.workloads().into_iter().filter(|n| n != "hot").collect();
                let pick = |rng: &mut kairos_types::SplitMix64| {
                    movable[rng.next_range(movable.len() as u64) as usize].clone()
                };
                let fresh_name = format!("n{round}.{step}");
                let mut original = None;
                let roll = match rng.next_range(100) {
                    roll if roll < tick_share => 0,
                    _ => 60 + rng.next_range(40),
                };
                let effect = match roll {
                    0..60 => match s.tick() {
                        TickOutcome::InitialPlan { .. } => Effect::Stales("bootstrap"),
                        TickOutcome::Replanned(_) => Effect::Stales("re-plan"),
                        TickOutcome::ProfileRefreshed { .. } => Effect::Stales("profile refresh"),
                        _ if s.replan_backoff_until != backoff => Effect::Stales("failed re-plan"),
                        _ => Effect::Ticks,
                    },
                    60..64 => {
                        s.add_workload(source(&fresh_name, rng.next_in(100.0, 300.0)));
                        Effect::Stales("add_workload")
                    }
                    64..66 => {
                        s.add_workload_with_replicas(source(&fresh_name, 100.0), 2);
                        Effect::Stales("add_workload_with_replicas")
                    }
                    66..68 if s.has_workload("giant") => {
                        s.remove_workload("giant");
                        Effect::Stales("remove_workload")
                    }
                    66..68 if s.planned_once() => {
                        s.add_workload(source("giant", 3_000.0));
                        Effect::Stales("add_workload")
                    }
                    68..71 if !movable.is_empty() => {
                        s.remove_workload(&pick(&mut rng));
                        Effect::Stales("remove_workload")
                    }
                    71..74 if movable.len() >= 2 => {
                        // A pair that shares a machine reads at once.
                        let machine = |n: &String| s.placement().machine_of(n, 0);
                        let pair = movable.iter().enumerate().find_map(|(i, a)| {
                            let b = movable[i + 1..]
                                .iter()
                                .find(|b| machine(b).is_some() && machine(b) == machine(a))?;
                            Some((a.clone(), b.clone()))
                        });
                        let (a, b) = pair.unwrap_or_else(|| (pick(&mut rng), pick(&mut rng)));
                        s.add_anti_affinity(&a, &b);
                        Effect::Stales("add_anti_affinity")
                    }
                    74..77 if !movable.is_empty() => {
                        parked.push(s.evict(&pick(&mut rng)).expect("resident"));
                        Effect::Stales("evict")
                    }
                    77..80 => match parked.pop() {
                        Some(mut handoff) => {
                            handoff.replicas = 1 + rng.next_range(2) as u32;
                            s.admit(handoff);
                            Effect::Stales("admit")
                        }
                        None => {
                            assert!(s.evict("ghost").is_none());
                            Effect::Keeps
                        }
                    },
                    80..83 => {
                        let shape = shapes[rng.next_range(2) as usize];
                        let changed = shape != s.sketch_config();
                        s.set_sketch_config(shape);
                        if changed {
                            Effect::Stales("set_sketch_config")
                        } else {
                            Effect::Keeps
                        }
                    }
                    83..86 => {
                        s.record_event(DecisionEvent::TenantAdmitted {
                            tenant: "ghost".into(),
                        });
                        Effect::Keeps
                    }
                    86..88 => {
                        s.set_tracing(rng.next_range(2) == 0);
                        Effect::Keeps
                    }
                    88..90 => {
                        s.configure_spans(1, rng.next_range(2) == 0);
                        Effect::Keeps
                    }
                    90..93 if !movable.is_empty() => {
                        let name = pick(&mut rng);
                        s.attach_source(source(&name, 200.0)).expect("resident");
                        assert!(s.attach_source(source("ghost", 1.0)).is_err());
                        Effect::Keeps
                    }
                    93..100 => {
                        let shape = shapes[rng.next_range(2) as usize];
                        let mut restored =
                            ShardController::restore(cfg(shape), engine(), s.snapshot())
                                .expect("restores");
                        for (_, src) in std::mem::take(&mut s.sources) {
                            restored.attach_source(src).expect("restored tenant");
                        }
                        original = Some(std::mem::replace(&mut s, restored));
                        Effect::Restores
                    }
                    _ => continue,
                };
                let at = format!("round {round} step {step}");
                // The pack estimate: uncached, packed once per stamp.
                let memo = s.pack_estimate(&[]);
                // A restored shard's counter starts at zero.
                let base = if matches!(effect, Effect::Restores) {
                    0
                } else {
                    packed
                };
                let fresh_packs = packs(&s) - base;
                assert_eq!(
                    memo,
                    s.pack_estimate(&["nobody"]),
                    "{at}: stale pack estimate"
                );
                let after = packs(&s);
                assert_eq!(s.pack_estimate(&[]), memo);
                assert_eq!(packs(&s), after, "{at}: packed twice at one stamp");
                let fresh = s.summary();
                match effect {
                    Effect::Stales(what) => {
                        *staled.entry(what).or_default() += 1;
                        assert_eq!(fresh_packs, 1, "{at}: {what} kept the pack estimate");
                        assert_eq!(
                            s.summary_cached().digest(),
                            fresh.digest(),
                            "{at}: {what} kept a stale summary"
                        );
                        assert_eq!(s.summary_digest(), fresh.digest(), "{at}: {what}");
                    }
                    Effect::Keeps => {
                        assert_eq!(fresh_packs, 0, "{at}: a no-op repacked");
                        assert_eq!(s.summary_digest(), before, "{at}: a no-op refilled");
                    }
                    Effect::Ticks => assert_eq!(fresh_packs, 1, "{at}: a tick kept the pack"),
                    Effect::Restores => {
                        let mut original = original.take().expect("restored");
                        let expected = if s.sketch_config() == original.sketch_config() {
                            original.summary_cached().digest()
                        } else {
                            fresh.digest()
                        };
                        assert_eq!(s.summary_digest(), expected, "{at}: restored summary");
                        assert_eq!(s.summary_cached().digest(), expected, "{at}");
                    }
                }
            }
        }
        // Every change a memo reads ran, so dropping any one bump fails.
        let kinds = [
            "bootstrap",
            "re-plan",
            "failed re-plan",
            "profile refresh",
            "add_workload",
            "add_workload_with_replicas",
            "remove_workload",
            "add_anti_affinity",
            "evict",
            "admit",
            "set_sketch_config",
        ];
        for kind in kinds {
            assert!(staled.contains_key(kind), "no {kind} ran: {staled:?}");
        }
    }

    #[test]
    fn a_restored_summary_is_a_cache_hit() {
        let mut s = ShardController::new(quick_cfg(), ConsolidationEngine::builder().build());
        for i in 0..6 {
            // Noisy: a summary computed afresh moves every tick.
            s.add_workload(Box::new(
                SyntheticSource::new(
                    format!("t{i:02}"),
                    300.0,
                    Bytes::gib(4),
                    RatePattern::Flat { tps: 210.0 },
                )
                .with_noise(0.05),
            ));
        }
        run_until_planned(&mut s, 20);
        let cached = s.summary_digest();
        for age in 1..SUMMARY_REFRESH_TICKS {
            let outcome = s.tick();
            assert!(
                matches!(outcome, TickOutcome::Stable | TickOutcome::Idle),
                "the shard must stay quiet, got {outcome:?}"
            );
            let mut restored = ShardController::restore(
                quick_cfg(),
                ConsolidationEngine::builder().build(),
                s.snapshot(),
            )
            .expect("restores");
            assert_ne!(
                restored.summary().digest(),
                cached,
                "the telemetry must have moved by age {age}"
            );
            assert_eq!(
                restored.summary_digest(),
                cached,
                "a restored summary {age} ticks old must be served from cache"
            );
        }
    }

    #[test]
    fn resolve_evals_count_each_solves_report() {
        fn evals(s: &ShardController) -> u64 {
            s.metrics_registry()
                .counter_value("kairos_shard_resolve_evals_total")
                .unwrap_or(0)
        }
        let mut s = shard_with(8, 400.0);
        run_until_planned(&mut s, 20);
        let bootstrap = evals(&s);
        assert!(bootstrap > 0, "the cold bootstrap solve ran no search");
        // A pair that may not share a machine changes the problem, so the
        // re-plan searches instead of accepting the deployed plan as is.
        s.add_anti_affinity("t00", "t01");
        let profiles = s.forecast_fleet();
        let expected = s
            .resolver
            .resolve(&profiles, &s.placement)
            .expect("a feasible plan")
            .report
            .evals_used as u64;
        assert!(expected > 0, "the re-plan ran no search");
        assert!(
            matches!(
                s.replan(ReplanReason::Membership),
                TickOutcome::Replanned(_)
            ),
            "the re-plan failed"
        );
        assert_eq!(evals(&s), bootstrap + expected);
    }

    #[test]
    fn pack_estimate_shrinks_with_exclusions() {
        let mut s = shard_with(6, 400.0); // 4 cores each → ~3 machines
        run_until_planned(&mut s, 20);
        let all = s.pack_estimate(&[]).expect("packable");
        let fewer = s.pack_estimate(&["t00", "t01"]).expect("packable");
        assert!(fewer <= all);
        assert_eq!(
            s.pack_estimate(&["t00", "t01", "t02", "t03", "t04", "t05"]),
            Some(0)
        );
    }
}
