//! The full consolidation search (§6): bound K, binary-search the minimum
//! feasible K′, then solve at K′ with a generous budget and polish.
//!
//! A warm re-plan whose polished start holds the incumbent stops after the
//! binary search: the final run at K′ rarely beats a polished deployed
//! plan, and it was most of a re-plan's time. It still runs for cold
//! solves, and for warm ones whose polished start lost to greedy's bound,
//! where greedy's plan may be a mass migration that run would beat. At the
//! lower bound a warm incumbent leaves the binary search nothing to probe,
//! so such a re-plan costs one polish.
//!
//! "Since upper and lower bounds are typically not too far apart, we can
//! binary search to determine the lowest value K′ of K that leads to a
//! viable solution. [...] We then re-run the solver, giving it a maximum
//! of K′ servers [...]. Limiting the number of possible servers reduces
//! the number of variables, and thus explores a much smaller solution
//! space."
//!
//! DIRECT does not see the decoded objective as a black box. Every sample
//! it takes is a rectangle's centre with one coordinate moved, which
//! decodes to at most one slot on another machine, so `DecodedObjective`
//! scores the centre once and each sample as that one-slot move
//! ([`CentreScorer`]): bit for bit the value a full `evaluate` of the
//! decoded point reports, so the search takes the trajectory a
//! from-scratch scorer would.
//!
//! The search pays once for each thing it learns. A machine's score does
//! not depend on K, so one memo of them serves every probe and the final
//! run of a solve and is dropped when the solve returns. A feasible probe
//! at K whose plan uses fewer than K machines has shown that count
//! feasible, so it lowers the binary search's upper end to the count, not
//! just to K. And at K = 1 every point decodes to the same placement, so
//! it is scored, not searched for.

use crate::bounds::{fractional_lower_bound, identity_assignment, upper_bound};
use crate::direct::{direct_minimize_objective, DirectConfig, DirectObjective};
use crate::local::polish;
use crate::objective::{evaluate, CentreScorer, Evaluation, Scoring, PENALTY};
use crate::problem::{Assignment, ConsolidationProblem};
use kairos_types::{KairosError, Result};

/// What an online re-solver keeps between solves: it calls
/// [`solve_warm_with`] every drift event against similarly-sized problems,
/// and one `SolveScratch` held across them keeps the [`CentreScorer`]'s
/// machine table buffers. Its memo of machine scores is as large as a search
/// was long, so it is *not* kept: it is released before a solve returns.
/// What a solve still allocates grows by doubling (`tests/solve_alloc.rs`).
#[derive(Default)]
pub struct SolveScratch {
    scorer: CentreScorer,
}

/// Any objective below this is feasible (the infeasibility penalty floor).
const FEASIBLE_BELOW: f64 = PENALTY;

/// Solver tuning.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// DIRECT evaluations per K-feasibility probe.
    pub probe_evals: usize,
    /// DIRECT evaluations for the final K′ solve, which a warm solve runs
    /// only when greedy's bound beat its polished start.
    pub final_evals: usize,
    /// DIRECT ε (local/global balance).
    pub epsilon: f64,
    /// Local-search rounds after DIRECT (0 disables polish).
    pub polish_rounds: usize,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            probe_evals: 1_500,
            final_evals: 8_000,
            epsilon: 1e-4,
            polish_rounds: 60,
        }
    }
}

/// Full solve output.
#[derive(Debug, Clone)]
pub struct SolveReport {
    pub assignment: Assignment,
    pub evaluation: Evaluation,
    /// (fractional lower bound, upper bound) before the binary search.
    pub k_bounds: (usize, usize),
    /// The minimum feasible K found.
    pub k_final: usize,
    /// Objective evaluations consumed in total.
    pub evals_used: usize,
    /// K values probed, with feasibility outcomes.
    pub probes: Vec<(usize, bool)>,
}

impl SolveReport {
    /// Consolidation ratio against a reference server count.
    pub fn consolidation_ratio(&self, reference_servers: usize) -> f64 {
        reference_servers as f64 / self.assignment.machines_used().max(1) as f64
    }
}

/// Decode a DIRECT point into an assignment over `k` machines. Pinned
/// replica-0 slots are not variables: they sit on their pin.
pub fn decode(problem: &ConsolidationProblem, k: usize, x: &[f64]) -> Assignment {
    let mut machine_of = Vec::new();
    decode_into(problem, k, x, &mut machine_of);
    Assignment::new(machine_of)
}

/// [`decode`] into a caller-owned buffer (cleared first) — the
/// allocation-free variant DIRECT's inner loop uses.
pub fn decode_into(problem: &ConsolidationProblem, k: usize, x: &[f64], out: &mut Vec<usize>) {
    let slots = &problem.slot_series().slots;
    out.clear();
    out.reserve(slots.len());
    let mut xi = 0usize;
    for &slot in slots {
        match problem.pin_of(slot) {
            Some(p) => out.push(p.min(k - 1)),
            None => {
                out.push(decode_coord(x[xi], k));
                xi += 1;
            }
        }
    }
    debug_assert_eq!(xi, free_dims(problem));
}

/// The machine one free coordinate decodes to.
fn decode_coord(v: f64, k: usize) -> usize {
    ((v.clamp(0.0, 1.0) * k as f64).floor() as usize).min(k - 1)
}

/// The decoded objective as DIRECT sees it: a point is decoded and scored
/// in full once per rectangle (`rebase`); each of the rectangle's samples
/// moves one coordinate, so at most one slot, and is scored by
/// [`Scoring::moved`] — bit for bit `evaluate(decode(x)).objective`.
struct DecodedObjective<'a, 'p> {
    k: usize,
    scoring: &'a mut Scoring<'p>,
    decode_buf: Vec<usize>,
    /// DIRECT dimension → slot index (pinned replica-0 slots have none).
    free_slots: Vec<usize>,
}

impl<'a, 'p> DecodedObjective<'a, 'p> {
    fn new(k: usize, scoring: &'a mut Scoring<'p>) -> DecodedObjective<'a, 'p> {
        let slots = &scoring.series.slots;
        let free_slots = (0..slots.len())
            .filter(|&s| scoring.problem.pin_of(slots[s]).is_none())
            .collect();
        DecodedObjective {
            k,
            scoring,
            decode_buf: Vec::new(),
            free_slots,
        }
    }
}

impl DirectObjective for DecodedObjective<'_, '_> {
    fn eval(&mut self, x: &[f64]) -> f64 {
        self.rebase(x);
        self.scoring.centre()
    }

    fn rebase(&mut self, centre: &[f64]) {
        decode_into(self.scoring.problem, self.k, centre, &mut self.decode_buf);
        self.scoring.rebase(&self.decode_buf);
    }

    fn eval_axis(&mut self, x: &[f64], axis: usize) -> f64 {
        // With every slot pinned DIRECT still gets one (ignored) dimension.
        let Some(&slot) = self.free_slots.get(axis) else {
            return self.scoring.centre();
        };
        self.scoring.moved(slot, decode_coord(x[axis], self.k))
    }
}

/// Number of free decision variables (unpinned slots).
pub fn free_dims(problem: &ConsolidationProblem) -> usize {
    let slots = &problem.slot_series().slots;
    slots
        .iter()
        .filter(|&&s| problem.pin_of(s).is_none())
        .count()
}

/// Solve at a fixed machine count `k`: DIRECT over the decoded encoding,
/// then local polish. Returns the best assignment, its evaluation, and
/// evaluations used.
pub fn solve_at_k(
    problem: &ConsolidationProblem,
    k: usize,
    evals: usize,
    epsilon: f64,
    polish_rounds: usize,
    stop_on_feasible: bool,
) -> (Assignment, Evaluation, usize) {
    let mut scorer = CentreScorer::default();
    let scoring = &mut scorer.on(problem);
    solve_at_k_on(scoring, k, evals, epsilon, polish_rounds, stop_on_feasible)
}

/// [`solve_at_k`] on a [`Scoring`] the caller may hold across calls (a
/// machine's score does not depend on `k`). DIRECT's inner loop scores each
/// sample as a one-slot move off its rectangle's centre.
fn solve_at_k_on(
    scoring: &mut Scoring,
    k: usize,
    evals: usize,
    epsilon: f64,
    polish_rounds: usize,
    stop_on_feasible: bool,
) -> (Assignment, Evaluation, usize) {
    let problem = scoring.problem;
    assert!(k >= 1);
    let dims = free_dims(problem).max(1);
    let (best_x, evals_used) = if k == 1 {
        // Every point decodes to the one placement there is: no search.
        (vec![0.5; dims], 1)
    } else {
        let cfg = DirectConfig {
            max_evals: evals,
            max_iters: usize::MAX,
            epsilon,
            stop_below: stop_on_feasible.then_some(FEASIBLE_BELOW),
        };
        let result = direct_minimize_objective(dims, &cfg, &mut DecodedObjective::new(k, scoring));
        (result.best_x, result.evals)
    };
    let direct_best = decode(problem, k, &best_x);
    if polish_rounds > 0 {
        let polished = polish(problem, &direct_best, k, polish_rounds);
        (polished.assignment, polished.evaluation, evals_used)
    } else {
        let eval = evaluate(problem, &direct_best);
        (direct_best, eval, evals_used)
    }
}

/// The §6-optimized solve: bounds → binary search for K′ → final solve.
pub fn solve(problem: &ConsolidationProblem, cfg: &SolverConfig) -> Result<SolveReport> {
    solve_inner(problem, cfg, None, &mut SolveScratch::default())
}

/// [`solve`] with a caller-held scratch arena (see [`SolveScratch`]).
pub fn solve_with(
    problem: &ConsolidationProblem,
    cfg: &SolverConfig,
    scratch: &mut SolveScratch,
) -> Result<SolveReport> {
    solve_inner(problem, cfg, None, scratch)
}

/// Warm-started solve for online re-planning: `warm` (typically the
/// placement currently deployed) is polished into the initial incumbent
/// and tightens the binary search's upper bound. When that polished plan
/// beats greedy's bound it is the incumbent, and the solve ends after the
/// binary search, without the final DIRECT run at K′: a drifted-but-close
/// problem re-solves for its probes alone, and for one polish when the
/// plan already meets the machine-count lower bound. Combine with
/// [`ConsolidationProblem::with_migration`] to also *prefer* low-churn
/// plans in the objective; without it the warm start only accelerates.
pub fn solve_warm(
    problem: &ConsolidationProblem,
    cfg: &SolverConfig,
    warm: &Assignment,
) -> Result<SolveReport> {
    solve_warm_with(problem, cfg, warm, &mut SolveScratch::default())
}

/// [`solve_warm`] with a caller-held scratch arena (see
/// [`SolveScratch`]): the online re-solver's entry point.
pub fn solve_warm_with(
    problem: &ConsolidationProblem,
    cfg: &SolverConfig,
    warm: &Assignment,
    scratch: &mut SolveScratch,
) -> Result<SolveReport> {
    assert_eq!(
        warm.machine_of.len(),
        problem.slots().len(),
        "warm assignment must cover every placement slot"
    );
    solve_inner(problem, cfg, Some(warm), scratch)
}

fn solve_inner(
    problem: &ConsolidationProblem,
    cfg: &SolverConfig,
    warm: Option<&Assignment>,
    scratch: &mut SolveScratch,
) -> Result<SolveReport> {
    // One memo of machine scores under every probe and the final run; it
    // is dropped, memory and all, on every way out of this function.
    let scoring = &mut scratch.scorer.on(problem);
    let lower = fractional_lower_bound(problem);
    let (ub_assignment, mut upper) = upper_bound(problem);
    let mut evals_used = 0usize;
    let mut best: Option<(Assignment, Evaluation)> = {
        let eval = evaluate(problem, &ub_assignment);
        if eval.feasible {
            Some((ub_assignment, eval))
        } else {
            // Even the identity may be infeasible (a single workload too
            // big for the target machine).
            let id = identity_assignment(problem);
            let id_eval = evaluate(problem, &id);
            if id_eval.feasible {
                upper = id.machines_used();
                Some((id, id_eval))
            } else {
                None
            }
        }
    };
    // Polish the warm start into a candidate incumbent. When it beats
    // greedy's bound, only a binary-search probe can still replace it.
    let mut warm_is_incumbent = false;
    if let Some(w) = warm {
        let polished = polish(problem, w, problem.max_machines, cfg.polish_rounds.max(20));
        if polished.evaluation.feasible {
            upper = upper.min(polished.assignment.machines_used());
            let better = best
                .as_ref()
                .is_none_or(|(_, e)| polished.evaluation.objective < e.objective);
            if better {
                best = Some((polished.assignment, polished.evaluation));
                warm_is_incumbent = true;
            }
        }
    }
    let Some(mut incumbent) = best.take() else {
        return Err(KairosError::Infeasible(
            "no feasible assignment exists even without consolidation; \
             some workload exceeds the target machine"
                .into(),
        ));
    };

    let mut probes = Vec::new();

    // Binary search the smallest feasible K in [lower, upper].
    let (mut lo, mut hi) = (lower, upper.max(lower));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let (a, eval, used) = solve_at_k_on(
            scoring,
            mid,
            cfg.probe_evals,
            cfg.epsilon,
            cfg.polish_rounds.min(40),
            true,
        );
        evals_used += used;
        let feasible = eval.feasible;
        probes.push((mid, feasible));
        if feasible {
            // The plan is feasible at the machine count it uses, which
            // DIRECT and polish may have brought below `mid`.
            hi = mid.min(eval.machines_used);
            // The objective is the sole authority: without a migration
            // term it already orders fewer machines first; with one, an
            // equal-machine-count plan that relocates half the fleet must
            // NOT displace a cheaper low-churn incumbent.
            if eval.objective < incumbent.1.objective {
                incumbent = (a, eval);
            }
        } else {
            lo = mid + 1;
        }
    }
    let k_final = lo;

    // Final, well-funded solve at K′ with local-search emphasis: for cold
    // solves, and for warm ones whose polished start lost to greedy's
    // bound (say the old plan went infeasible under a spike), where
    // greedy's plan may be a mass migration this run would beat. Behind a
    // warm incumbent it rarely wins and costs most of the re-plan.
    if !warm_is_incumbent {
        let (a, eval, used) = solve_at_k_on(
            scoring,
            k_final,
            cfg.final_evals,
            cfg.epsilon,
            cfg.polish_rounds,
            false,
        );
        evals_used += used;
        if eval.feasible && eval.objective < incumbent.1.objective {
            incumbent = (a, eval);
        }
    }

    let (assignment, evaluation) = incumbent;
    Ok(SolveReport {
        assignment,
        evaluation,
        k_bounds: (lower, upper),
        k_final,
        evals_used,
        probes,
    })
}

/// The unoptimized comparator for §7.5's solver-performance experiment:
/// a single raw DIRECT run over the full `max_machines` space — no
/// bounding, no binary search, no local-search polish (the paper's naive
/// Tomlab/DIRECT application).
pub fn solve_unbounded(problem: &ConsolidationProblem, cfg: &SolverConfig) -> Result<SolveReport> {
    let k = problem.max_machines;
    let (assignment, evaluation, evals_used) =
        solve_at_k(problem, k, cfg.final_evals, cfg.epsilon, 0, false);
    if !evaluation.feasible {
        return Err(KairosError::Infeasible(
            "unbounded DIRECT run found no feasible assignment".into(),
        ));
    }
    Ok(SolveReport {
        assignment,
        evaluation,
        k_bounds: (1, k),
        k_final: k,
        evals_used,
        probes: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LinearDiskCombiner, TargetMachine, WorkloadSpec};
    use std::sync::Arc;

    fn problem(cpus: &[f64]) -> ConsolidationProblem {
        let w = cpus
            .iter()
            .enumerate()
            .map(|(i, &c)| WorkloadSpec::flat(format!("w{i}"), 3, c, 2e9, 2e8, 50.0))
            .collect();
        ConsolidationProblem::new(
            w,
            TargetMachine::paper_target(),
            cpus.len(),
            Arc::new(LinearDiskCombiner::default()),
        )
    }

    #[test]
    fn decode_maps_unit_interval_to_machines() {
        let p = problem(&[1.0, 1.0, 1.0]);
        let a = decode(&p, 3, &[0.0, 0.5, 0.99]);
        assert_eq!(a.machine_of, vec![0, 1, 2]);
    }

    #[test]
    fn decode_skips_pinned_slots() {
        let mut p = problem(&[1.0, 1.0, 1.0]);
        p.workloads[1].pinned = Some(2);
        assert_eq!(free_dims(&p), 2);
        let a = decode(&p, 3, &[0.1, 0.9]);
        assert_eq!(a.machine_of, vec![0, 2, 2]);
    }

    #[test]
    fn direct_axis_samples_score_as_the_decoded_point_evaluates() {
        // Workload 1 is pinned, so DIRECT's axes are slots 0, 2, 3 and 4.
        let mut p = problem(&[5.0, 1.0, 6.0, 2.0, 4.0]);
        p.workloads[1].pinned = Some(2);
        let mut scratch = SolveScratch::default();
        let mut scoring = scratch.scorer.on(&p);
        // One memo under every K, as under the probes of one solve: cold
        // at 3, then warm at 2 and at 3 again.
        for k in [3, 2, 3] {
            let mut f = DecodedObjective::new(k, &mut scoring);
            let exact = |x: &[f64]| evaluate(&p, &decode(&p, k, x)).objective.to_bits();
            for centre in [[0.5; 4], [0.1, 0.9, 0.5, 0.5], [0.17, 0.5, 0.83, 0.0]] {
                assert_eq!(f.eval(&centre).to_bits(), exact(&centre));
                for axis in 0..4 {
                    for v in [0.0, 1.0 / 6.0, 0.5, 5.0 / 6.0, 1.0] {
                        let mut x = centre;
                        x[axis] = v;
                        assert_eq!(f.eval_axis(&x, axis).to_bits(), exact(&x), "k {k}: {x:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn one_scratch_serves_different_problems_and_keeps_nothing() {
        // The same six slots under three loads, the last unplaceable:
        // every occupant set recurs with another score.
        let problems = [
            problem(&[2.0, 3.0, 1.0, 4.0, 2.0, 3.0]),
            problem(&[5.0, 5.5, 6.0, 4.0, 5.0, 3.0]),
            problem(&[2.0, 3.0, 50.0, 4.0, 2.0, 3.0]),
        ];
        let cfg = SolverConfig::default();
        let told = |r: Result<SolveReport>| {
            r.ok()
                .map(|r| (r.assignment, r.evaluation.objective.to_bits(), r.probes))
        };
        let mut scratch = SolveScratch::default();
        for p in problems.iter().chain(problems.iter().rev()) {
            let reused = solve_with(p, &cfg, &mut scratch);
            assert_eq!(scratch.scorer.memo_capacity(), 0, "memo outlived its solve");
            assert_eq!(told(reused), told(solve(p, &cfg)));
        }
    }

    #[test]
    fn solve_consolidates_light_workloads_to_one_machine() {
        // 8 × 1-core workloads on 12-core targets: K′ = 1.
        let p = problem(&[1.0; 8]);
        let report = solve(&p, &SolverConfig::default()).unwrap();
        assert!(report.evaluation.feasible);
        assert_eq!(report.assignment.machines_used(), 1);
        assert_eq!(report.k_final, 1);
        assert!(report.k_bounds.0 <= report.k_final);
    }

    #[test]
    fn solve_matches_fractional_bound_when_tight() {
        // 6 × 4-core = 24 cores → fractional bound = ceil(24/11.4) = 3.
        let p = problem(&[4.0; 6]);
        let report = solve(&p, &SolverConfig::default()).unwrap();
        assert!(report.evaluation.feasible);
        assert_eq!(report.k_bounds.0, 3);
        assert_eq!(report.assignment.machines_used(), 3);
    }

    #[test]
    fn solve_balances_across_machines() {
        // 4 × 5-core workloads: need 2 machines, balanced 2+2.
        let p = problem(&[5.0; 4]);
        let report = solve(&p, &SolverConfig::default()).unwrap();
        assert_eq!(report.assignment.machines_used(), 2);
        let by = report.assignment.by_machine();
        for (_, slots) in by {
            assert_eq!(slots.len(), 2, "expected a 2+2 split");
        }
    }

    #[test]
    fn solve_handles_replication() {
        let mut p = problem(&[1.0, 1.0]);
        p.workloads[0].replicas = 2;
        p.max_machines = 3;
        let report = solve(&p, &SolverConfig::default()).unwrap();
        assert!(report.evaluation.feasible);
        // Replicas on distinct machines forces ≥ 2 machines.
        assert!(report.assignment.machines_used() >= 2);
    }

    #[test]
    fn solve_errors_when_single_workload_cannot_fit() {
        let p = problem(&[50.0]); // 50 cores > 12-core target
        let err = solve(&p, &SolverConfig::default()).unwrap_err();
        assert!(matches!(err, KairosError::Infeasible(_)));
    }

    #[test]
    fn bounded_uses_fewer_evals_than_unbounded_for_same_quality() {
        let p = problem(&[2.0, 3.0, 1.0, 4.0, 2.0, 3.0, 1.5, 2.5]);
        let cfg = SolverConfig::default();
        let bounded = solve(&p, &cfg).unwrap();
        let unbounded = solve_unbounded(&p, &cfg).unwrap();
        assert!(bounded.evaluation.feasible && unbounded.evaluation.feasible);
        assert!(
            bounded.assignment.machines_used() <= unbounded.assignment.machines_used(),
            "bounded {} vs unbounded {}",
            bounded.assignment.machines_used(),
            unbounded.assignment.machines_used()
        );
    }

    #[test]
    fn consolidation_ratio_computed_vs_reference() {
        let p = problem(&[1.0; 8]);
        let report = solve(&p, &SolverConfig::default()).unwrap();
        assert!((report.consolidation_ratio(8) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn solve_is_deterministic() {
        let p = problem(&[2.0, 3.0, 1.0, 4.0]);
        let a = solve(&p, &SolverConfig::default()).unwrap();
        let b = solve(&p, &SolverConfig::default()).unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.evals_used, b.evals_used);
    }

    #[test]
    fn warm_start_with_migration_prefers_low_churn() {
        // Six 3-core workloads, currently balanced 2+2+2 across three
        // machines — a perfectly good plan (18 cores / 11.4 per machine
        // needs ≥ 2; 3 is near-optimal but stable). After a mild drift,
        // the warm solve with migration cost must keep churn low, while
        // still producing a feasible plan.
        let p = problem(&[3.0, 3.0, 3.0, 3.0, 3.2, 3.2]);
        let current = Assignment::new(vec![0, 0, 1, 1, 2, 2]);
        assert!(evaluate(&p, &current).feasible);

        let baseline = current.machine_of.iter().map(|&m| Some(m)).collect();
        let warm_p = p.clone().with_migration(baseline, 0.5);
        let report = solve_warm(&warm_p, &SolverConfig::default(), &current).unwrap();
        assert!(report.evaluation.feasible);
        // With every machine fairly loaded and moves costing 0.5 each, a
        // wholesale reshuffle cannot win: most slots stay put.
        assert!(
            report.evaluation.moves_from_baseline <= 2,
            "warm re-solve moved {} of 6 slots",
            report.evaluation.moves_from_baseline
        );
    }

    #[test]
    fn warm_start_still_repairs_infeasible_current_plans() {
        // The current plan overloads machine 0 (3 × 5 cores > 11.4); the
        // warm solve must move something despite the migration cost.
        let p = problem(&[5.0, 5.0, 5.0, 1.0]);
        let current = Assignment::new(vec![0, 0, 0, 1]);
        assert!(!evaluate(&p, &current).feasible);

        let baseline = current.machine_of.iter().map(|&m| Some(m)).collect();
        let warm_p = p.clone().with_migration(baseline, 0.5);
        let report = solve_warm(&warm_p, &SolverConfig::default(), &current).unwrap();
        assert!(
            report.evaluation.feasible,
            "warm solve must repair overload"
        );
        assert!(report.evaluation.moves_from_baseline >= 1);
    }

    #[test]
    fn warm_start_matches_cold_quality_without_migration_cost() {
        let p = problem(&[2.0, 3.0, 1.0, 4.0, 2.0, 3.0]);
        let cold = solve(&p, &SolverConfig::default()).unwrap();
        let start = Assignment::new((0..p.slots().len()).collect());
        let warm = solve_warm(&p, &SolverConfig::default(), &start).unwrap();
        assert!(warm.evaluation.feasible);
        assert!(
            warm.assignment.machines_used() <= cold.assignment.machines_used(),
            "warm ({}) must not be worse than cold ({})",
            warm.assignment.machines_used(),
            cold.assignment.machines_used()
        );
    }
}
