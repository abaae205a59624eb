//! The balance plane: what a balance host owns and does around a round.
//!
//! The policy is one function ([`run_balance_round`] over
//! [`ShardHandle`]s). Everything a host keeps *around* that function —
//! the round state (cooldown memory, the parked-handoff lot, the cadence
//! gate, the handoff audit log), its counters, its decision trace and
//! span log, the health watchdog, and the global placement audit — lives
//! here once, as [`BalancePlane`]. The three hosts own only what is
//! genuinely theirs and reach the plane by `Deref`:
//!
//! * [`crate::FleetController`] — in-process members, ticked in order;
//! * `kairos-net`'s `BalancerNode` — links, leases and standbys;
//! * [`crate::RootBalancer`] — the zone roll-up pass.

use crate::balancer::{
    run_balance_round, BalanceGate, BalancerConfig, BalancerSoftState, ParkedHandoff, ShardHandle,
};
use crate::handoff::{HandoffOutcome, HandoffRecord};
use kairos_controller::{FleetPlacement, TickOutcome};
use kairos_obs::{
    DecisionEvent, DecisionLog, HealthMonitor, MetricsRegistry, ParkedAges, SpanLog, TracedEvent,
};
use kairos_solver::{evaluate, Assignment, ConsolidationProblem, Evaluation};
use kairos_types::WorkloadProfile;
use std::collections::BTreeMap;
use std::time::Instant;

/// Fleet-level counters. Serializable: the tick counter drives the
/// balance cadence, so a restored fleet must resume from the
/// checkpointed counts.
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct FleetStats {
    pub ticks: u64,
    pub balance_rounds: u64,
    pub handoffs_completed: u64,
    pub handoffs_rejected: u64,
    /// Handoffs that failed mid-handshake and were rolled back onto the
    /// donor ([`HandoffOutcome::Failed`]). Always 0 in-process; only a
    /// real transport can damage or lose a frame between the phases.
    pub handoffs_failed: u64,
}

/// The registry-backed live counters behind [`FleetStats`], plus the
/// instruments the compatibility view doesn't carry: tick wall-clock
/// latency **split by what the tick did** (quiet poll-and-ingest vs. a
/// tick that solved or moved tenants — the two populations whose
/// conflation the old `tick_p99` hid) and the parked handoff lot's depth.
///
/// Same pattern as [`kairos_controller::ShardMetrics`]: one code path
/// owns counting, [`FleetMetrics::stats`] assembles the serializable
/// view on demand, and the `Metrics` exporters render the registry.
pub struct FleetMetrics {
    registry: MetricsRegistry,
    pub ticks: kairos_obs::Counter,
    pub balance_rounds: kairos_obs::Counter,
    pub handoffs_completed: kairos_obs::Counter,
    pub handoffs_rejected: kairos_obs::Counter,
    pub handoffs_failed: kairos_obs::Counter,
    /// Wall-clock latency of ticks where no shard solved and no tenant
    /// moved — the steady-state polling cost.
    pub poll_tick_usecs: kairos_obs::Histogram,
    /// Wall-clock latency of ticks that bootstrapped, re-planned or
    /// completed handoffs — the solver-dominated population.
    pub solve_tick_usecs: kairos_obs::Histogram,
    /// Current depth of the parked-handoff retry lot.
    pub parked_depth: kairos_obs::FloatCell,
}

impl FleetMetrics {
    /// The `kairos_fleet_*` export of a host that runs a tick loop.
    pub fn new(registry: MetricsRegistry) -> FleetMetrics {
        FleetMetrics {
            ticks: registry.counter("kairos_fleet_ticks_total"),
            balance_rounds: registry.counter("kairos_fleet_balance_rounds_total"),
            handoffs_completed: registry.counter("kairos_fleet_handoffs_completed_total"),
            handoffs_rejected: registry.counter("kairos_fleet_handoffs_rejected_total"),
            handoffs_failed: registry.counter("kairos_fleet_handoffs_failed_total"),
            poll_tick_usecs: registry.histogram("kairos_fleet_poll_tick_usecs"),
            solve_tick_usecs: registry.histogram("kairos_fleet_solve_tick_usecs"),
            parked_depth: registry.gauge("kairos_fleet_parked_depth"),
            registry,
        }
    }

    /// The `root_*` export: the round counters under the names a
    /// mega-fleet's dashboards separate root rounds from zone internals
    /// by. The root is driven per round and has no tick loop, so the
    /// tick instruments stay detached — they count, but export nowhere.
    pub fn root(registry: MetricsRegistry) -> FleetMetrics {
        FleetMetrics {
            ticks: Default::default(),
            balance_rounds: registry.counter("root_balance_rounds"),
            handoffs_completed: registry.counter("root_groups_moved"),
            handoffs_rejected: registry.counter("root_moves_rejected"),
            handoffs_failed: registry.counter("root_moves_failed"),
            poll_tick_usecs: Default::default(),
            solve_tick_usecs: Default::default(),
            parked_depth: Default::default(),
            registry,
        }
    }

    /// The registry these counters live in.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Assemble the compatibility view.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            ticks: self.ticks.get(),
            balance_rounds: self.balance_rounds.get(),
            handoffs_completed: self.handoffs_completed.get(),
            handoffs_rejected: self.handoffs_rejected.get(),
            handoffs_failed: self.handoffs_failed.get(),
        }
    }

    /// Seed the registry from a checkpointed view (restore path).
    pub fn restore(&self, stats: &FleetStats) {
        self.ticks.set(stats.ticks);
        self.balance_rounds.set(stats.balance_rounds);
        self.handoffs_completed.set(stats.handoffs_completed);
        self.handoffs_rejected.set(stats.handoffs_rejected);
        self.handoffs_failed.set(stats.handoffs_failed);
    }
}

/// Global placement audit: every member's placement re-evaluated against
/// the member-local restriction of one global problem
/// ([`kairos_solver::ConsolidationProblem::restrict`]).
#[derive(Debug)]
pub struct FleetAudit {
    /// Per shard: `None` while bootstrapping (or mid-handoff tenants not
    /// yet placed, or down), otherwise the evaluation of its current
    /// placement.
    pub per_shard: Vec<Option<Evaluation>>,
    /// Machines in use per shard.
    pub machines_used: Vec<usize>,
}

impl FleetAudit {
    /// Every planned shard's placement is feasible — zero capacity
    /// violations fleet-wide.
    pub fn zero_violations(&self) -> bool {
        self.per_shard
            .iter()
            .flatten()
            .all(|e| e.feasible && e.violation == 0.0)
    }

    /// Every shard evaluated (none bootstrapping / mid-handoff).
    pub fn complete(&self) -> bool {
        self.per_shard.iter().all(|e| e.is_some())
    }

    /// All shards within the machine budget.
    pub fn within_budget(&self, budget: usize) -> bool {
        self.machines_used.iter().all(|&m| m <= budget)
    }

    pub fn total_machines(&self) -> usize {
        self.machines_used.iter().sum()
    }
}

/// The round state and observability every balance host shares. See the
/// module docs.
pub struct BalancePlane {
    cfg: BalancerConfig,
    /// Balance round at which each tenant was last probed for a handoff
    /// (completed or rejected) — the hysteresis cooldown's memory.
    cooldown: BTreeMap<String, u64>,
    /// Parking lot for handoffs stranded mid-handshake by transport
    /// faults; every balance round resolves it probe-first (see
    /// [`run_balance_round`]), so a tenant is never silently dropped and
    /// never blindly duplicated. In-process admits cannot fail, so only
    /// a host behind a real transport ever populates it. Deliberately
    /// not checkpointed (a live telemetry source cannot serialize); it
    /// replicates to standbys as wire frames via [`BalancerSoftState`].
    parked: Vec<ParkedHandoff>,
    /// Chaos-harness hook: skip/delay injections over the balance
    /// cadence. One gate type for every host, so all interpret a chaos
    /// schedule identically. Idle (the default) it is a pass-through.
    gate: BalanceGate,
    handoff_log: Vec<HandoffRecord>,
    metrics: FleetMetrics,
    /// The host's decision trace: balancer-round events via the shared
    /// round, recorded on the calling thread (one writer, so the stream
    /// is deterministic and byte-identical between the in-process and
    /// RPC hosts), plus whatever only that host can see
    /// ([`BalancePlane::record`]).
    /// Member-loop events live in each member's own log.
    log: DecisionLog,
    /// Balancer-side causal span log (`balance_round` roots plus
    /// `handoff`/`parked_retry` children); member-side spans live in
    /// each member's own log. Disabled by default.
    spans: SpanLog,
    /// The health watchdog, when armed ([`BalancePlane::set_health`]).
    /// `None` (the default) costs nothing and keeps the decision trace
    /// byte-identical to a watchdog-free run.
    health: Option<HealthMonitor>,
    /// First-seen balance round per parked tenant — feeds the
    /// `kairos_fleet_parked_oldest_rounds` gauge the watchdog's
    /// aged-parked-handoff rule watches. Kept out of
    /// [`BalancerSoftState`]: ages are derivable observability, not
    /// resume state.
    parked_ages: ParkedAges,
}

impl BalancePlane {
    /// A fresh plane exporting through `metrics`, its span log numbered
    /// `span_node` (see `kairos_obs::span` for the structural node ids).
    pub fn new(cfg: BalancerConfig, metrics: FleetMetrics, span_node: u32) -> BalancePlane {
        BalancePlane {
            cfg,
            cooldown: BTreeMap::new(),
            parked: Vec::new(),
            gate: BalanceGate::default(),
            handoff_log: Vec::new(),
            metrics,
            log: DecisionLog::new(),
            spans: SpanLog::new(span_node),
            health: None,
            parked_ages: ParkedAges::new(),
        }
    }

    /// Resume from a checkpoint: counters, cooldown memory, the audit
    /// log, and the decision trace — whose sequence counter continues
    /// after the last checkpointed entry, so post-restore history
    /// appends rather than forking.
    pub fn restore(
        &mut self,
        stats: &FleetStats,
        cooldown: BTreeMap<String, u64>,
        handoff_log: Vec<HandoffRecord>,
        trace: Vec<TracedEvent>,
    ) {
        self.metrics.restore(stats);
        self.cooldown = cooldown;
        self.handoff_log = handoff_log;
        self.log = DecisionLog::restore(trace, kairos_obs::events::DEFAULT_TRACE_CAP, true);
    }

    /// Resume a dead primary's replicated soft state — cooldown memory,
    /// the parked lot, the audit log, the gate and the round counter.
    pub fn adopt(&mut self, state: &BalancerSoftState) {
        self.cooldown = state.cooldown.clone();
        self.handoff_log = state.handoffs.clone();
        self.gate = state.gate;
        self.parked = state.parked_lot();
        self.metrics.balance_rounds.set(state.round);
    }

    /// This plane's current soft state — exactly what a `SyncState`
    /// push replicates.
    pub fn soft_state(&self) -> BalancerSoftState {
        BalancerSoftState::capture(
            self.metrics.balance_rounds.get(),
            self.metrics.ticks.get(),
            &self.cooldown,
            &self.parked,
            &self.handoff_log,
            self.gate,
        )
    }

    pub fn stats(&self) -> FleetStats {
        self.metrics.stats()
    }

    /// The host-level metrics registry (round counters, tick-latency
    /// histograms split poll vs. solve, parked-lot depth). Member
    /// registries are the members' own; each host's render helpers merge
    /// what it can see.
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        self.metrics.registry()
    }

    /// The trace's events, oldest first.
    pub fn trace_events(&self) -> Vec<TracedEvent> {
        self.log.to_vec()
    }

    /// The canonical trace bytes (workspace codec) — the byte-identity
    /// the net equivalence suite asserts between the in-process and RPC
    /// hosts.
    pub fn trace_bytes(&self) -> Vec<u8> {
        self.log.trace_bytes()
    }

    /// Record a host-side event (lease misses, rejoins, roll-ups, …) at
    /// `tick`, on the calling thread — the trace is single-writer.
    pub fn record(&mut self, tick: u64, event: DecisionEvent) {
        self.log.record(tick, event);
    }

    /// Enable or disable this host's decision tracing. Disabled,
    /// recording is a single branch per event — the bench-overhead
    /// configuration.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.log.set_enabled(enabled);
    }

    /// Enable or disable this host's causal span tracing. Disabled (the
    /// default) nothing records, and RPC deployments emit span-free
    /// frames.
    pub fn set_span_tracing(&mut self, enabled: bool) {
        self.spans.set_enabled(enabled);
    }

    /// The balancer-side span log.
    pub fn span_log(&self) -> &SpanLog {
        &self.spans
    }

    /// Renumber the span log's node id — a zone gives its internal fleet
    /// balancer a zone-scoped id (`span::node_for_zone_balancer`) so two
    /// zones' internal rounds never collide in span-id space.
    pub fn set_span_node(&mut self, node: u32) {
        self.spans.set_node(node);
    }

    /// The balancer-side canonical span bytes (workspace codec).
    pub fn span_bytes(&self) -> Vec<u8> {
        self.spans.span_bytes()
    }

    /// Arm (or disarm, with `None`) the health watchdog — e.g.
    /// `HealthMonitor::new()` for the default rule set. Newly fired
    /// rules land in the decision trace as `HealthFlagged` events, so an
    /// armed watchdog's trace is only byte-identical across runs if the
    /// runs are healthy at the same observations — chaos fingerprint
    /// runs keep it disarmed.
    pub fn set_health(&mut self, monitor: Option<HealthMonitor>) {
        self.health = monitor;
    }

    /// The watchdog's current report, if one is armed.
    pub fn health_report(&self) -> Option<kairos_obs::HealthReport> {
        self.health.as_ref().map(|m| m.report().clone())
    }

    /// All handoffs ever proposed (completed, rejected and failed).
    pub fn handoffs(&self) -> &[HandoffRecord] {
        &self.handoff_log
    }

    /// The cooldown memory: tenant → balance round it was last probed.
    pub fn cooldown(&self) -> &BTreeMap<String, u64> {
        &self.cooldown
    }

    /// The parked-handoff lot as `(tenant, donor, receiver)` triples —
    /// chaos-invariant introspection (an unowned-but-routed tenant must
    /// appear here, and the lot must drain once faults heal).
    pub fn parked_handoffs(&self) -> Vec<(String, usize, usize)> {
        self.parked
            .iter()
            .map(|p| (p.tenant.name.clone(), p.donor, p.receiver))
            .collect()
    }

    /// Park a handoff the host stranded outside a round (promotion-time
    /// stray recovery); the next round resolves it probe-first.
    pub fn park(&mut self, handoff: ParkedHandoff) {
        self.parked.push(handoff);
    }

    /// Forget a tenant that left the host's care: its cooldown entry
    /// goes, and a retired tenant must never be resurrectable from the
    /// parked lot either.
    pub fn forget(&mut self, tenant: &str) {
        self.cooldown.remove(tenant);
        self.parked.retain(|p| p.tenant.name != tenant);
    }

    /// Chaos-harness injection: drop the next `n` due balance rounds.
    pub fn skip_balance_rounds(&mut self, n: u64) {
        self.gate.skip_rounds(n);
    }

    /// Chaos-harness injection: run each of the next `n` due balance
    /// rounds one tick late.
    pub fn delay_balance_rounds(&mut self, n: u64) {
        self.gate.delay_rounds(n);
    }

    /// Adopt a tick count observed elsewhere — a promoted standby
    /// resumes from the most advanced shard so cadences keep firing.
    pub fn set_ticks(&mut self, ticks: u64) {
        self.metrics.ticks.set(ticks);
    }

    /// Open one monitoring interval: bump the tick counter and return
    /// the new tick.
    pub fn begin_tick(&mut self) -> u64 {
        self.metrics.ticks.inc();
        self.metrics.ticks.get()
    }

    /// Does a balance round run at `tick`? The cadence fires every
    /// `balance_every` ticks once every (live) member has planned;
    /// `all_planned` is only asked on cadence (over RPC it costs a call
    /// per member), and the chaos gate has the last word.
    pub fn due(&mut self, tick: u64, all_planned: impl FnOnce() -> bool) -> bool {
        let on_cadence = tick.is_multiple_of(self.cfg.balance_every.max(1));
        self.gate.admit(on_cadence && all_planned())
    }

    /// One balance round over `members`: donors shed their heaviest
    /// tenants to the emptiest members that can reserve capacity for
    /// them. The policy itself is [`run_balance_round`] — this is its
    /// one call site, so an in-process shard, a link to a shard node and
    /// a zone are just handle types. Counts the outcomes and extends the
    /// audit log; the caller applies the returned records to whatever
    /// routing it keeps ([`crate::ShardMap::apply`]).
    pub fn round<H: ShardHandle>(&mut self, members: &mut [H], tick: u64) -> Vec<HandoffRecord> {
        self.metrics.balance_rounds.inc();
        let records = run_balance_round(
            members,
            &self.cfg,
            self.metrics.balance_rounds.get(),
            tick,
            &mut self.cooldown,
            &mut self.parked,
            &mut self.log,
            &mut self.spans,
        );
        for record in &records {
            match record.outcome {
                HandoffOutcome::Completed => self.metrics.handoffs_completed.inc(),
                HandoffOutcome::NoReceiver => self.metrics.handoffs_rejected.inc(),
                HandoffOutcome::Failed => self.metrics.handoffs_failed.inc(),
            }
        }
        self.handoff_log.extend(records.iter().cloned());
        records
    }

    /// Close the interval opened by [`BalancePlane::begin_tick`]: record
    /// its latency, classified by what the tick actually did — quiet
    /// poll-and-ingest ticks and solver/handoff ticks are different
    /// populations by orders of magnitude, so one conflated histogram
    /// would report a meaningless p99 (the fleet_scale bench's old
    /// `tick_p99_usecs` did exactly that) — and refresh the parked-lot
    /// depth gauge.
    pub fn finish_tick<'a>(
        &mut self,
        started: Instant,
        outcomes: impl IntoIterator<Item = &'a TickOutcome>,
        handoffs: &[HandoffRecord],
    ) {
        let solved = !handoffs.is_empty()
            || outcomes.into_iter().any(|o| {
                matches!(
                    o,
                    TickOutcome::InitialPlan { .. } | TickOutcome::Replanned(_)
                )
            });
        let usecs = started.elapsed().as_micros() as u64;
        if solved {
            self.metrics.solve_tick_usecs.record(usecs);
        } else {
            self.metrics.poll_tick_usecs.record(usecs);
        }
        self.metrics.parked_depth.set(self.parked.len() as f64);
    }

    /// One watchdog observation, when armed: refresh the parked-age
    /// gauge, evaluate every rule over this plane's registry plus
    /// `others` (member or process-global registries), trace the rules
    /// that newly fired, and return the refreshed report. How often to
    /// observe is the host's call.
    pub fn observe_health<'a>(
        &mut self,
        others: impl IntoIterator<Item = &'a MetricsRegistry>,
    ) -> Option<&kairos_obs::HealthReport> {
        let monitor = self.health.as_mut()?;
        let oldest = self.parked_ages.update(
            self.metrics.balance_rounds.get(),
            self.parked.iter().map(|p| p.tenant.name.as_str()),
        );
        self.metrics
            .registry()
            .gauge("kairos_fleet_parked_oldest_rounds")
            .set(oldest as f64);
        let tick = self.metrics.ticks.get();
        let mut registries = vec![self.metrics.registry()];
        for registry in others {
            registries.push(registry);
        }
        for finding in monitor.observe(tick, &registries) {
            self.log.record(
                tick,
                DecisionEvent::HealthFlagged {
                    rule: finding.rule.clone(),
                    metric: finding.metric.clone(),
                    severity: finding.severity.name().to_string(),
                },
            );
        }
        Some(monitor.report())
    }

    /// Global audit: build one problem over every tenant's forecast,
    /// restrict it member-by-member
    /// ([`kairos_solver::ConsolidationProblem::restrict`]), and evaluate
    /// each member's current placement against its restriction. The
    /// fleet-wide "are we violation-free" check the acceptance scenarios
    /// assert on.
    ///
    /// `members` carries, per member, its tenants' forecasts, its
    /// placement (`None`: down or unreachable) and whether it has
    /// planned at all; hosts differ only in how they obtain those
    /// (direct reads vs. RPCs), so the in-process and RPC audits are
    /// bit-identical when the engines match. `problem` builds the global
    /// problem — with a real engine (machine class, headroom, disk
    /// model) and the fleet anti-affinity list rather than a fresh
    /// default, because the audit must judge placements by the
    /// capacities the members actually solve under. Members are assumed
    /// homogeneous (the global problem is only meaningful for one target
    /// class).
    pub fn audit(
        mut members: Vec<(Vec<WorkloadProfile>, Option<&FleetPlacement>, bool)>,
        problem: impl FnOnce(&[WorkloadProfile]) -> kairos_types::Result<ConsolidationProblem>,
    ) -> FleetAudit {
        let machines_used = members
            .iter()
            .map(|(_, placement, _)| placement.map_or(0, |p| p.machines_used()))
            .collect();
        let mut profiles: Vec<WorkloadProfile> = Vec::new();
        let mut member_indices: Vec<Vec<usize>> = Vec::with_capacity(members.len());
        for (forecasts, _, _) in &mut members {
            let start = profiles.len();
            member_indices.push((start..start + forecasts.len()).collect());
            profiles.append(forecasts);
        }
        let mut per_shard: Vec<Option<Evaluation>> = vec![None; members.len()];
        let global = if profiles.is_empty() {
            None
        } else {
            problem(&profiles).ok()
        };
        let Some(global) = global else {
            return FleetAudit {
                per_shard,
                machines_used,
            };
        };

        for (((_, placement, planned), keep), out) in
            members.iter().zip(&member_indices).zip(&mut per_shard)
        {
            let Some(placement) = placement.filter(|_| *planned && !keep.is_empty()) else {
                continue;
            };
            let sub = global.restrict(keep);
            let machine_of = sub
                .slot_series()
                .slots
                .iter()
                .map(|slot| placement.machine_of(&sub.workloads[slot.workload].name, slot.replica))
                .collect::<Option<Vec<usize>>>();
            if let Some(machine_of) = machine_of {
                *out = Some(evaluate(&sub, &Assignment::new(machine_of)));
            }
        }
        FleetAudit {
            per_shard,
            machines_used,
        }
    }

    /// Explain an audit in terms of the decision traces: for every
    /// member the audit flags (infeasible, violated, unevaluated, or
    /// over the balancer budget), render the why-chain — the decision
    /// events from the member's last adopted plan forward
    /// (`member_events`: read directly, or pulled over the `Trace` RPC),
    /// merged with this plane's balancer events that touched it
    /// ([`kairos_obs::render_why_chain`]). The human-readable bridge
    /// from "the audit failed" to "here is the sequence of decisions
    /// that got us here".
    pub fn explain_audit(
        &self,
        audit: &FleetAudit,
        mut member_events: impl FnMut(usize) -> Vec<TracedEvent>,
    ) -> String {
        let budget = self.cfg.machines_per_shard;
        let fleet_events = self.log.to_vec();
        let mut out = String::new();
        for (shard, eval) in audit.per_shard.iter().enumerate() {
            let verdict = match eval {
                None => "not evaluated (bootstrapping, mid-handoff or down)".to_string(),
                Some(e) if !e.feasible || e.violation > 0.0 => {
                    format!("infeasible (violation {:.3})", e.violation)
                }
                Some(_) if audit.machines_used[shard] > budget => format!(
                    "over budget ({} machines > {budget})",
                    audit.machines_used[shard]
                ),
                Some(_) => continue,
            };
            out.push_str(&format!("shard {shard}: {verdict}\n"));
            out.push_str(&kairos_obs::render_why_chain(
                shard,
                &member_events(shard),
                &fleet_events,
            ));
        }
        if out.is_empty() {
            "audit clean: every planned shard feasible and within budget\n".to_string()
        } else {
            out
        }
    }
}
