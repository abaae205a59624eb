//! The incremental re-solver: drift fired, produce a new plan that is
//! feasible for the forecast load *and* close to the incumbent placement.
//!
//! Two mechanisms work together (both added to `kairos-solver` for this
//! controller):
//!
//! * **warm start** — [`solve_warm`] polishes the incumbent placement
//!   into the initial search incumbent and tightens the K binary search,
//!   so near-stationary re-solves cost a fraction of a cold solve;
//! * **migration cost** — [`ConsolidationProblem::with_migration`] prices
//!   every slot moved off its current machine, so among near-equal plans
//!   the low-churn one wins (Fig 5's landscape plus a per-move step).
//!
//! Forecasting reuses the Fig 13 predictability machinery: with at least
//! two full horizons of history the next horizon is predicted as the
//! element-wise mean of past horizons (`kairos_traces::predict`'s model);
//! with less, the live window itself is tiled across the horizon.

use crate::ingest::WorkloadTelemetry;
use kairos_core::ConsolidationEngine;
use kairos_solver::{
    solve, solve_warm, Assignment, ConsolidationProblem, SolveReport, SolverConfig,
};
use kairos_traces::RollingWindow;
use kairos_types::{Result, TimeSeries, WorkloadProfile};
use std::collections::BTreeMap;

/// Where every replica of every workload currently runs.
///
/// Serializable: a checkpointed placement is the warm-solver seed a
/// restored controller re-solves from, so it must survive restarts
/// bit-for-bit.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FleetPlacement {
    /// (workload, replica) → machine index.
    map: BTreeMap<(String, u32), usize>,
}

impl FleetPlacement {
    pub fn new() -> FleetPlacement {
        FleetPlacement::default()
    }

    pub fn machine_of(&self, workload: &str, replica: u32) -> Option<usize> {
        self.map.get(&(workload.to_string(), replica)).copied()
    }

    pub fn set(&mut self, workload: &str, replica: u32, machine: usize) {
        self.map.insert((workload.to_string(), replica), machine);
    }

    pub fn remove_workload(&mut self, workload: &str) {
        self.map.retain(|(w, _), _| w != workload);
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Machines in use.
    pub fn machines_used(&self) -> usize {
        let set: std::collections::BTreeSet<usize> = self.map.values().copied().collect();
        set.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&(String, u32), &usize)> {
        self.map.iter()
    }
}

/// Outcome of one re-solve.
pub struct ReSolveOutcome {
    /// The new placement.
    pub placement: FleetPlacement,
    /// Raw solver report (assignment indexed by the profiles' slot order).
    pub report: SolveReport,
    /// Slots that changed machine relative to the incumbent.
    pub moves: usize,
    /// Slots that existed in the incumbent placement (new arrivals are
    /// placements, not migrations).
    pub preexisting_slots: usize,
    /// The migration-aware problem that was solved (the migration
    /// planner's diff input; carries the per-slot baseline).
    pub problem: kairos_solver::ConsolidationProblem,
    /// `baseline[slot]` = incumbent machine (None for new arrivals).
    pub baseline: Vec<Option<usize>>,
}

impl ReSolveOutcome {
    /// Fraction of pre-existing workload slots the new plan relocates.
    pub fn churn(&self) -> f64 {
        if self.preexisting_slots == 0 {
            0.0
        } else {
            self.moves as f64 / self.preexisting_slots as f64
        }
    }
}

/// Register the named anti-affinity pair `(a, b)` in `pairs` unless it is
/// already there in either orientation — the one registration every
/// layer (shard, in-process fleet, RPC balancer) goes through. A
/// duplicated pair would double-count its violations and shift solver
/// objectives, and idempotence lets a network balancer blindly re-assert
/// the fleet list on a rejoined node.
pub fn add_anti_affinity_pair(pairs: &mut Vec<(String, String)>, a: &str, b: &str) {
    let known = pairs
        .iter()
        .any(|(x, y)| (x == a && y == b) || (x == b && y == a));
    if !known {
        pairs.push((a.to_string(), b.to_string()));
    }
}

/// The re-solver: an engine (problem construction: target class, headroom,
/// weights, disk combiner) plus warm-start solver tuning.
pub struct ReSolver {
    pub engine: ConsolidationEngine,
    pub solver: SolverConfig,
    /// Objective price per migrated slot (see
    /// [`kairos_solver::MigrationCost`]); 0 disables churn preference but
    /// keeps the warm start.
    pub cost_per_move: f64,
    /// `true` = ignore the incumbent entirely (cold solve, no migration
    /// term). Exists to *measure* what warm-starting buys; production
    /// loops leave it off.
    pub cold: bool,
    /// Workload pairs (by name) that must not share a machine, layered on
    /// top of the implicit replica anti-affinity. Pairs whose endpoints
    /// are not both present in a given solve are ignored (a cross-shard
    /// pair is trivially satisfied by sharding).
    pub anti_affinity: Vec<(String, String)>,
}

impl ReSolver {
    pub fn new(engine: ConsolidationEngine) -> ReSolver {
        ReSolver {
            engine,
            // A polished warm plan that beats greedy ends the solve after
            // the binary search (one polish pass when it already meets the
            // machine-count lower bound).
            solver: SolverConfig::default(),
            cost_per_move: 0.25,
            cold: false,
            anti_affinity: Vec::new(),
        }
    }

    /// Build the solver problem for `profiles`, applying the resolver's
    /// named anti-affinity pairs (replica counts ride in on the profiles
    /// themselves).
    pub fn problem(&self, profiles: &[WorkloadProfile]) -> Result<ConsolidationProblem> {
        let mut problem = self.engine.problem(profiles)?;
        if !self.anti_affinity.is_empty() {
            let idx_of: BTreeMap<&str, usize> = profiles
                .iter()
                .enumerate()
                .map(|(i, p)| (p.name.as_str(), i))
                .collect();
            let mut pairs = problem.anti_affinity.clone();
            for (a, b) in &self.anti_affinity {
                if let (Some(&ia), Some(&ib)) = (idx_of.get(a.as_str()), idx_of.get(b.as_str())) {
                    pairs.push((ia, ib));
                }
            }
            problem = problem.with_anti_affinity(pairs);
        }
        Ok(problem)
    }

    /// Cold bootstrap solve (the first plan of a shard): no incumbent, all
    /// constraints (replicas, anti-affinity) applied, under the engine's
    /// tuning, as `engine.consolidate` would run it.
    pub fn plan_cold(
        &self,
        profiles: &[WorkloadProfile],
    ) -> Result<(ConsolidationProblem, SolveReport)> {
        let problem = self.problem(profiles)?;
        let report = solve(&problem, &self.engine.solver_config())?;
        Ok((problem, report))
    }

    /// Re-solve placement for `profiles` (the forecast horizon), warm from
    /// `current`. Workloads present in `profiles` but absent from
    /// `current` are new arrivals (free to place); workloads in `current`
    /// but not in `profiles` have left and simply drop out.
    pub fn resolve(
        &self,
        profiles: &[WorkloadProfile],
        current: &FleetPlacement,
    ) -> Result<ReSolveOutcome> {
        let problem = self.problem(profiles)?;
        // Held by `Arc`: the problem is moved into its migration-priced
        // form below and the cache travels with it.
        let series = problem.slot_series().clone();
        let slots = &series.slots;
        let k = problem.max_machines;

        // The baseline records where each tenant *physically* runs — never
        // clamp it into the new problem's machine range. A tenant stranded
        // on a machine index ≥ k (the fleet shrank) must read as a move in
        // every candidate plan so the migration planner actually relocates
        // it; clamping would silently relabel it and desynchronize the
        // placement map from the executor's routing.
        let mut baseline: Vec<Option<usize>> = Vec::with_capacity(slots.len());
        for slot in slots {
            let name = &problem.workloads[slot.workload].name;
            baseline.push(current.machine_of(name, slot.replica));
        }
        let preexisting_slots = baseline.iter().filter(|b| b.is_some()).count();

        // Warm assignment: incumbents stay put (clamped into the search
        // space — this is just the search seed, not the truth); new
        // arrivals start on the least-populated machine (the polish pass
        // will refine).
        let mut occupancy = vec![0usize; k];
        for b in baseline.iter().flatten() {
            occupancy[(*b).min(k.saturating_sub(1))] += 1;
        }
        let mut warm = Vec::with_capacity(slots.len());
        for b in &baseline {
            let m = match b {
                Some(m) => (*m).min(k.saturating_sub(1)),
                None => {
                    let least = (0..k).min_by_key(|&i| occupancy[i]).unwrap_or(0);
                    occupancy[least] += 1;
                    least
                }
            };
            warm.push(m);
        }

        let (problem, report) = if self.cold {
            // Baseline-blind: solve from scratch, then count how many
            // incumbents the oblivious plan would uproot.
            let mut report = solve(&problem, &self.solver)?;
            report.evaluation.moves_from_baseline = report
                .assignment
                .machine_of
                .iter()
                .zip(baseline.iter())
                .filter(|&(&m, &b)| b.is_some_and(|b| b != m))
                .count();
            (problem, report)
        } else {
            let problem = problem.with_migration(baseline.clone(), self.cost_per_move);
            let report = solve_warm(&problem, &self.solver, &Assignment::new(warm))?;
            (problem, report)
        };

        let mut placement = FleetPlacement::new();
        for (slot, &machine) in slots.iter().zip(report.assignment.machine_of.iter()) {
            let name = &problem.workloads[slot.workload].name;
            placement.set(name, slot.replica, machine);
        }
        Ok(ReSolveOutcome {
            placement,
            moves: report.evaluation.moves_from_baseline,
            preexisting_slots,
            report,
            problem,
            baseline,
        })
    }
}

/// When the most recent horizon deviates from the phase-mean prediction
/// by more than this relative RMSE, the series has changed regime and
/// history stops being predictive (aligned with [`crate::DriftDetector`]'s
/// default overload trip point).
const REGIME_CHANGE_THRESHOLD: f64 = 0.25;

/// [`forecast_window`] over an owned series.
#[cfg(test)]
pub(crate) fn forecast_series_flagged(
    history: &TimeSeries,
    horizon: usize,
    start_index: u64,
) -> (TimeSeries, bool) {
    forecast_window(RollingWindow::of(history), horizon, start_index)
}

/// Add `values` into the per-phase sums and counts, `values[0]` at phase
/// `p`; returns the phase after the last value. Each run up to the end of
/// the horizon is one element-wise add, and every phase still receives
/// its values in sample order.
fn add_by_phase(sum: &mut [f64], count: &mut [usize], values: &[f64], mut p: usize) -> usize {
    let mut rest = values;
    while !rest.is_empty() {
        let (run, tail) = rest.split_at((sum.len() - p).min(rest.len()));
        for ((s, c), v) in sum[p..].iter_mut().zip(&mut count[p..]).zip(run) {
            *s += v;
            *c += 1;
        }
        p = (p + run.len()) % sum.len();
        rest = tail;
    }
    p
}

/// Forecast the next planning horizon of one series from its rolling
/// window, read in place — the one forecasting kernel.
///
/// The forecast is built in *phase space*: `start_index` is the global
/// sample index of `history`'s first value, so element `p` of the result
/// always corresponds to global phase `p` within the horizon — the same
/// convention the drift detector uses for phase alignment.
///
/// * **Stationary** (possibly periodic) series: the per-phase mean of all
///   observed occurrences — the Fig 13 predictor
///   (`kairos_traces::predict`'s model), which averages measurement noise
///   out.
/// * **Regime change** (the most recent horizon deviates from that
///   prediction beyond [`REGIME_CHANGE_THRESHOLD`]): stale history would
///   systematically mislead, and the recent window itself still mixes
///   both regimes. The forecast falls back to a conservative flat
///   envelope at the recent window's *peak* — scale-up provisioning for
///   the regime that is arriving; the lazier slack side of the drift
///   detector repacks later if the envelope proves too generous.
///
/// The flag says whether the forecast fell back to the conservative
/// flat envelope (regime change detected). The flag is what
/// schedules the controller's zero-move horizon refresh: an
/// envelope-planned profile is deliberately loose, and should be
/// tightened once enough post-drift history re-accumulates instead of
/// waiting for slack drift to trip.
fn forecast_window(
    history: RollingWindow<'_>,
    horizon: usize,
    start_index: u64,
) -> (TimeSeries, bool) {
    assert!(horizon > 0);
    let interval = history.interval_secs;
    if history.is_empty() {
        return (TimeSeries::constant(interval, 0.0, horizon), false);
    }
    let phase_of = |index: u64| (index % horizon as u64) as usize;

    // Per-phase occurrence means.
    let mut sum = vec![0.0f64; horizon];
    let mut count = vec![0usize; horizon];
    let mut p = phase_of(start_index);
    for half in [history.older, history.newer] {
        p = add_by_phase(&mut sum, &mut count, half, p);
    }
    let overall_mean = history.iter().sum::<f64>() / history.len() as f64;
    for (s, &c) in sum.iter_mut().zip(&count) {
        *s = if c > 0 { *s / c as f64 } else { overall_mean };
    }
    let phase_mean = sum;

    // Regime test: the most recent (≤ horizon) samples against the
    // phase-mean prediction.
    let tail = history.last(horizon);
    let mut p = phase_of(start_index + (history.len() - tail.len()) as u64);
    let sq: f64 = tail
        .iter()
        .map(|v| {
            let d = v - phase_mean[p];
            p = if p + 1 == horizon { 0 } else { p + 1 };
            d * d
        })
        .sum();
    let rmse = (sq / tail.len() as f64).sqrt();
    let mean_abs = overall_mean.abs().max(1e-12);

    if rmse / mean_abs <= REGIME_CHANGE_THRESHOLD {
        (TimeSeries::new(interval, phase_mean), false)
    } else {
        let peak = tail.iter().fold(f64::NEG_INFINITY, f64::max);
        (TimeSeries::constant(interval, peak, horizon), true)
    }
}

/// Forecast a whole workload profile for the next horizon (phase-aligned;
/// see `forecast_window`), plus whether *any* resource series
/// fell back to the conservative flat envelope.
pub fn forecast_profile_flagged(
    name: &str,
    telemetry: &WorkloadTelemetry,
    horizon: usize,
) -> (WorkloadProfile, bool) {
    forecast_windows(name, telemetry.history(), telemetry.samples_seen(), horizon)
}

/// Forecast `[cpu, ram, rate]` windows whose newest sample is number
/// `samples_seen`. RAM is the working set, so its forecast is used twice.
fn forecast_windows(
    name: &str,
    [cpu, ram, rate]: [RollingWindow<'_>; 3],
    samples_seen: u64,
    horizon: usize,
) -> (WorkloadProfile, bool) {
    let start = samples_seen.saturating_sub(cpu.len() as u64);
    let (cpu, e_cpu) = forecast_window(cpu, horizon, start);
    let (ram, e_ram) = forecast_window(ram, horizon, start);
    let (rate, e_rate) = forecast_window(rate, horizon, start);
    let profile = WorkloadProfile::new(name, cpu, ram.clone(), ram, rate);
    (profile, e_cpu || e_ram || e_rate)
}

/// Forecast the next horizon from the most recent `tail_len` samples
/// *only* — the scheduled horizon refresh's forecaster. After a regime
/// change the full-window phase means stay polluted by the old regime
/// until it washes out of the rolling window, which is exactly why the
/// regime forecast fell back to a flat envelope; once `tail_len` ticks of
/// pure post-drift telemetry exist, their phase means are the tight,
/// periodic profile the envelope was standing in for. Phase convention
/// matches `forecast_window`: element `p` corresponds to global phase `p`
/// within the horizon.
pub fn forecast_profile_tail(
    name: &str,
    telemetry: &WorkloadTelemetry,
    horizon: usize,
    tail_len: usize,
) -> WorkloadProfile {
    let tail = telemetry.history().map(|w| w.last(tail_len));
    forecast_windows(name, tail, telemetry.samples_seen(), horizon).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_core::ConsolidationPlan;
    use kairos_types::{Bytes, DiskDemand, Rate};

    /// The placement a one-shot plan recommends.
    fn placement_of(plan: &ConsolidationPlan) -> FleetPlacement {
        let mut placement = FleetPlacement::new();
        for p in &plan.placements {
            placement.set(&p.workload, p.replica, p.machine);
        }
        placement
    }

    fn profile(name: &str, cpu: f64) -> WorkloadProfile {
        WorkloadProfile::flat(
            name,
            300.0,
            6,
            cpu,
            Bytes::gib(4),
            DiskDemand::new(Bytes::gib(1), Rate(100.0)),
        )
    }

    #[test]
    fn stationary_resolve_keeps_everyone_in_place() {
        let profiles: Vec<WorkloadProfile> =
            (0..6).map(|i| profile(&format!("w{i}"), 1.0)).collect();
        let engine = ConsolidationEngine::builder().build();
        let rs = ReSolver::new(engine);
        let cold = rs.engine.consolidate(&profiles).unwrap();
        let current = placement_of(&cold);

        let out = rs.resolve(&profiles, &current).unwrap();
        assert!(out.report.evaluation.feasible);
        assert_eq!(out.moves, 0, "unchanged load must not migrate anyone");
        assert_eq!(out.placement, current);
    }

    #[test]
    fn new_arrival_places_without_migrating_incumbents() {
        let mut profiles: Vec<WorkloadProfile> =
            (0..5).map(|i| profile(&format!("w{i}"), 1.0)).collect();
        let engine = ConsolidationEngine::builder().build();
        let rs = ReSolver::new(engine);
        let cold = rs.engine.consolidate(&profiles).unwrap();
        let current = placement_of(&cold);

        profiles.push(profile("w_new", 1.0));
        let out = rs.resolve(&profiles, &current).unwrap();
        assert!(out.report.evaluation.feasible);
        assert_eq!(out.preexisting_slots, 5);
        assert_eq!(out.moves, 0, "a tiny arrival fits without reshuffling");
        assert!(out.placement.machine_of("w_new", 0).is_some());
    }

    #[test]
    fn overload_drift_migrates_minimally() {
        // 4 workloads at 2.5 cores pack onto one 12-core machine (10 <
        // 11.4). One grows to 6 cores → 13.5 > 11.4: someone must move,
        // but not everyone.
        let profiles: Vec<WorkloadProfile> =
            (0..4).map(|i| profile(&format!("w{i}"), 2.5)).collect();
        let engine = ConsolidationEngine::builder().build();
        let rs = ReSolver::new(engine);
        let cold = rs.engine.consolidate(&profiles).unwrap();
        assert_eq!(cold.machines_used(), 1);
        let current = placement_of(&cold);

        let mut drifted = profiles.clone();
        drifted[0] = profile("w0", 6.0);
        let out = rs.resolve(&drifted, &current).unwrap();
        assert!(out.report.evaluation.feasible);
        assert!(out.moves >= 1, "overload requires at least one move");
        assert!(
            out.moves <= 2,
            "migration cost must keep churn low, moved {}",
            out.moves
        );
        assert!(out.churn() <= 0.5);
    }

    #[test]
    fn forecast_uses_phase_means_when_stationary() {
        let mut vals = Vec::new();
        for _ in 0..3 {
            vals.extend([10.0, 11.0, 12.0, 13.0]);
        }
        vals[0] = 10.6; // mild noise in the first cycle
        let hist = TimeSeries::new(300.0, vals);
        let f = forecast_series_flagged(&hist, 4, 0).0;
        assert_eq!(f.len(), 4);
        assert!((f.values()[0] - (10.6 + 10.0 + 10.0) / 3.0).abs() < 1e-9);
        assert!((f.values()[1] - 11.0).abs() < 1e-9);
    }

    #[test]
    fn forecast_respects_phase_offset() {
        // History starts at global index 2 of a period-4 cycle whose
        // value equals its phase. Element p of the forecast must be p.
        let vals = vec![2.0, 3.0, 0.0, 1.0, 2.0, 3.0, 0.0, 1.0];
        let hist = TimeSeries::new(300.0, vals);
        let f = forecast_series_flagged(&hist, 4, 2).0;
        assert_eq!(f.values(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn forecast_regime_change_uses_conservative_envelope() {
        // Two quiet horizons, then the load jumps: the forecast must
        // provision a flat envelope at the recent peak, not trust the
        // stale mean.
        let mut vals = vec![1.0; 8];
        vals.extend([2.5; 4]);
        let hist = TimeSeries::new(300.0, vals);
        let f = forecast_series_flagged(&hist, 4, 0).0;
        assert_eq!(f.values(), &[2.5; 4]);
    }

    #[test]
    fn forecast_covers_unseen_phases_with_overall_mean() {
        // Only 2 samples at phases 0 and 1: phases 2 and 3 fall back to
        // the overall mean (and the regime test sees no surprise).
        let hist = TimeSeries::new(300.0, vec![2.0, 3.0]);
        let f = forecast_series_flagged(&hist, 4, 0).0;
        assert_eq!(f.len(), 4);
        assert_eq!(f.values()[0], 2.0);
        assert_eq!(f.values()[1], 3.0);
        assert_eq!(f.values()[2], 2.5);
        assert_eq!(f.values()[3], 2.5);
    }
}
