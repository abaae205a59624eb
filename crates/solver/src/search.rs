//! The full consolidation search (§6): bound K, binary-search the minimum
//! feasible K′, then a longer final run at K′.
//!
//! "Since upper and lower bounds are typically not too far apart, we can
//! binary search to determine the lowest value K′ of K that leads to a
//! viable solution. [...] We then re-run the solver, giving it a maximum
//! of K′ servers [...]. Limiting the number of possible servers reduces
//! the number of variables, and thus explores a much smaller solution
//! space."
//!
//! **Seed and polish.** A search at K — each binary-search probe and the
//! final run at K′ — polishes one seed: the centre of DIRECT's unit cube,
//! decoded ([`centre`]). That is the first point DIRECT samples, and on the
//! paper's datasets DIRECT found nothing better to hand polish: at K′ its
//! best point on Wikipedia and SecondLife was still infeasible, so the
//! plan was polish's. A probe polishes at most 40 rounds, the final run
//! [`SolverConfig::polish_rounds`].
//!
//! **DIRECT where it still wins.** A problem of at most
//! `DIRECT_MAX_FREE_SLOTS` free slots is seeded from DIRECT's best point
//! instead (per probe 1,500 evaluations cold and 400 warm, stopping at the
//! first feasible point; 8,000 and 2,000 for the final run):
//! `tests/optimality_gap.rs` measures both searches against exact optima
//! on such instances, and there the polished centre is behind in every
//! class; above a dozen free slots the two seeds were measured about even.
//! DIRECT is also §7.5's raw comparator ([`solve_at_k`],
//! [`solve_unbounded`]). A point scores what [`evaluate`] reports for its
//! decoded placement, each distinct machine scored once per solve.
//!
//! A feasible probe at K whose plan uses fewer than K machines has shown
//! that count feasible, so it lowers the binary search's upper end to the
//! count, not just to K.
//!
//! A warm re-plan whose polished start holds the incumbent stops after the
//! binary search: the final run at K′ rarely beats a polished deployed
//! plan. It still runs for cold solves, and for warm ones whose polished
//! start lost to greedy's bound, where greedy's plan may be a mass
//! migration that run would beat. At the lower bound a warm incumbent
//! leaves the binary search nothing to probe, so such a re-plan costs one
//! polish.

use crate::bounds::{fractional_lower_bound, upper_bound};
use crate::direct::{direct_minimize, DirectConfig};
use crate::local::polish;
use crate::machines::Machines;
use crate::objective::{evaluate, score_machine, Evaluation, MachineScore, MachineSums, PENALTY};
use crate::problem::{Assignment, ConsolidationProblem};
use kairos_types::{KairosError, Result};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Solver tuning.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Local-search rounds of the final run at K′; a probe polishes at most
    /// 40, a warm start at least 20. 0 leaves every seed as it decodes.
    pub polish_rounds: usize,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig { polish_rounds: 60 }
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
    /// Searches at a K run: one per probe and one for the final run. 0
    /// means neither ran: a warm plan at the lower bound was returned.
    /// For [`solve_unbounded`], DIRECT's evaluations.
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
    let mut free = x.iter();
    let machine_of = problem
        .slot_series()
        .slots
        .iter()
        .map(|&slot| match problem.pin_of(slot) {
            Some(p) => p.min(k - 1),
            None => machine_at(*free.next().expect("a coordinate per free slot"), k),
        });
    Assignment::new(machine_of.collect())
}

/// The machine a free slot's coordinate `v` decodes to at `k`.
fn machine_at(v: f64, k: usize) -> usize {
    ((v.clamp(0.0, 1.0) * k as f64).floor() as usize).min(k - 1)
}

/// Number of free decision variables (unpinned slots).
pub fn free_dims(problem: &ConsolidationProblem) -> usize {
    let slots = &problem.slot_series().slots;
    slots
        .iter()
        .filter(|&&s| problem.pin_of(s).is_none())
        .count()
}

/// Problems with at most this many free slots keep DIRECT under polish at
/// every K: where its seed stops paying. Cold solves seeded both ways
/// (5–32 free slots, `tests/optimality_gap.rs`'s instance families, about
/// 2,000 instances): up to 12, DIRECT's plan used fewer machines than the
/// centre's in 11–14 % of instances and more in 0.5–2 %; from 13 on, fewer
/// in 6–12 % and more in 10–13 %, at 5–8× the centre's time. On the
/// oracle's instances the centre reaches the optimal machine count less
/// often than DIRECT in every class.
const DIRECT_MAX_FREE_SLOTS: usize = 12;

/// DIRECT's first sample, the centre of the unit cube, decoded: every free
/// slot on machine ⌊k/2⌋, every pinned one on its pin. Every search at a
/// K polishes it, unless DIRECT is kept for the problem.
pub fn centre(problem: &ConsolidationProblem, k: usize) -> Assignment {
    decode(problem, k, &vec![0.5; free_dims(problem)])
}

/// Machine shares by occupant bitset, kept for one solve: a share does
/// not depend on K, so the probes and the final run look up each other's.
type Shares = HashMap<u128, MachineScore, BuildHasherDefault<BitsetHasher>>;

/// Multiply-rotate hashing of [`Shares`]' keys: with SipHash a DIRECT
/// point cost about a third more. The keys are bitsets the solver builds,
/// so SipHash's guard against chosen keys buys nothing; the rotations
/// carry every bit, the high ones too, into the low bits a table indexes
/// by.
#[derive(Default)]
struct BitsetHasher(u64);

const MIX: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for BitsetHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(26) ^ word).wrapping_mul(MIX);
    }

    fn write_u128(&mut self, bits: u128) {
        self.write_u64(bits as u64);
        self.write_u64((bits >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26).wrapping_mul(MIX).rotate_left(26)
    }
}

/// DIRECT over the decoded encoding at `k`, `evals` evaluations, stopping
/// at the first feasible point if `stop_on_feasible`: its best point,
/// decoded, and the evaluations spent.
///
/// A point scores what [`evaluate`] reports for its decoded placement, bit
/// for bit: each machine summed from zero over its ascending slot list,
/// the same total. Consecutive points differ in a slot or two (a sample is
/// its rectangle's centre with one coordinate moved), so the table follows
/// the points by moving the slots whose machine changed, and only the
/// machines they touch are scored again. A machine's share depends only on
/// which slots it holds, and DIRECT revisits the same few machines
/// thousands of times, so on problems of at most 128 slots each distinct
/// set is scored once into `shares`, keyed by its bitset.
fn direct_at(
    problem: &ConsolidationProblem,
    k: usize,
    evals: usize,
    stop_on_feasible: bool,
    shares: &mut Shares,
) -> (Assignment, usize) {
    let cfg = DirectConfig {
        max_evals: evals,
        max_iters: usize::MAX,
        stop_below: stop_on_feasible.then_some(PENALTY),
        ..Default::default()
    };
    let series = problem.slot_series();
    let placed = centre(problem, k).machine_of;
    // The slot each coordinate places, and the point the table holds.
    let free: Vec<usize> = (0..placed.len())
        .filter(|&s| problem.pin_of(series.slots[s]).is_none())
        .collect();
    let mut at = vec![0.5; free.len()];
    let mut table = Machines::default();
    table.place(problem, &placed, k);
    let keyed = placed.len() <= 128;
    let mut sets = vec![0u128; k];
    if keyed {
        placed
            .iter()
            .enumerate()
            .for_each(|(s, &m)| sets[m] |= 1 << s);
    }
    let (mut sums, mut sorted) = (MachineSums::default(), Vec::new());
    let (mut touched, mut value): (Vec<usize>, _) = ((0..k).collect(), 0.0);
    let objective = |x: &[f64]| {
        for ((&s, &v), held) in free.iter().zip(x).zip(&mut at) {
            if v == *held {
                continue;
            }
            *held = v;
            let (src, dst) = (table.machine_of[s], machine_at(v, k));
            if src != dst {
                table.move_slot(problem, s, dst);
                if keyed {
                    (sets[src], sets[dst]) = (sets[src] ^ 1 << s, sets[dst] ^ 1 << s);
                }
                touched.extend([src, dst]);
            }
        }
        if touched.is_empty() {
            return value;
        }
        touched.sort_unstable();
        touched.dedup();
        for m in touched.drain(..) {
            let known = keyed.then(|| shares.get(&sets[m]).copied()).flatten();
            let share = known.unwrap_or_else(|| {
                sorted.clear();
                sorted.extend_from_slice(&table[m].slots);
                sorted.sort_unstable();
                sums.sum_of(series, &sorted);
                let share = score_machine(problem, &series.slots, &sorted, &sums, |_| {});
                if keyed {
                    shares.insert(sets[m], share);
                }
                share
            });
            table.set_share(m, share);
        }
        value = (table.total_with(problem, table.placement, &[], table.moves)).0;
        value
    };
    // With every slot pinned DIRECT still gets one (ignored) dimension.
    let result = direct_minimize(free_dims(problem).max(1), &cfg, objective);
    (decode(problem, k, &result.best_x), result.evals)
}

/// Where DIRECT is kept, its evaluations per probe and for the final run:
/// a cold solve's, and a warm re-plan's (the deployed plan carries most of
/// its quality).
type DirectBudget = (usize, usize);
const COLD_DIRECT: DirectBudget = (1_500, 8_000);
const WARM_DIRECT: DirectBudget = (400, 2_000);

/// DIRECT's budget for a solve of `problem`, if DIRECT seeds its searches.
fn direct_budget(problem: &ConsolidationProblem, warm: bool) -> Option<DirectBudget> {
    let budget = if warm { WARM_DIRECT } else { COLD_DIRECT };
    (free_dims(problem) <= DIRECT_MAX_FREE_SLOTS).then_some(budget)
}

/// §7.5's comparator at a fixed machine count `k`: DIRECT over the decoded
/// encoding with `evals` evaluations, then `polish_rounds` of local polish.
/// Returns the best assignment, its evaluation, and evaluations used.
pub fn solve_at_k(
    problem: &ConsolidationProblem,
    k: usize,
    evals: usize,
    polish_rounds: usize,
) -> (Assignment, Evaluation, usize) {
    assert!(k >= 1);
    let (best, evals_used) = direct_at(problem, k, evals, false, &mut Shares::default());
    let polished = polish(problem, &best, k, polish_rounds);
    (polished.assignment, polished.evaluation, evals_used)
}

/// The §6-optimized solve: bounds → binary search for K′ → final run.
pub fn solve(problem: &ConsolidationProblem, cfg: &SolverConfig) -> Result<SolveReport> {
    solve_inner(problem, cfg, None, direct_budget(problem, false))
}

/// Warm-started solve for online re-planning: `warm` (typically the
/// placement currently deployed) is polished into the initial incumbent
/// and tightens the binary search's upper bound. When that polished plan
/// beats greedy's bound it is the incumbent, and the solve ends after the
/// binary search, without the final run at K′: a drifted-but-close
/// problem re-solves for its probes alone, and for one polish when the
/// plan already meets the machine-count lower bound. Combine with
/// [`ConsolidationProblem::with_migration`] to also *prefer* low-churn
/// plans in the objective; without it the warm start only accelerates.
pub fn solve_warm(
    problem: &ConsolidationProblem,
    cfg: &SolverConfig,
    warm: &Assignment,
) -> Result<SolveReport> {
    assert_eq!(
        warm.machine_of.len(),
        problem.slots().len(),
        "warm assignment must cover every placement slot"
    );
    solve_inner(problem, cfg, Some(warm), direct_budget(problem, true))
}

fn solve_inner(
    problem: &ConsolidationProblem,
    cfg: &SolverConfig,
    warm: Option<&Assignment>,
    direct: Option<DirectBudget>,
) -> Result<SolveReport> {
    let lower = fractional_lower_bound(problem);
    // Greedy's pack, else the identity, which may be infeasible too (a
    // single workload too big for the target machine).
    let (ub_assignment, mut upper) = upper_bound(problem);
    let ub_eval = evaluate(problem, &ub_assignment);
    let mut best = ub_eval.feasible.then_some((ub_assignment, ub_eval));
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
    let mut shares = Shares::default();
    // One search at `k` — a probe, or the final run at K′ — polished for at
    // most 40 rounds or for the final run's: from DIRECT's best point on
    // `direct`'s budget, or from the [`centre`] without one. At K = 1 every
    // point decodes to the centre.
    let mut search_at = |k: usize, probe: bool| {
        let seed = match direct.filter(|_| k > 1) {
            Some((per_probe, per_final)) => {
                let evals = if probe { per_probe } else { per_final };
                direct_at(problem, k, evals, probe, &mut shares).0
            }
            None => centre(problem, k),
        };
        let rounds = if probe {
            cfg.polish_rounds.min(40)
        } else {
            cfg.polish_rounds
        };
        let polished = polish(problem, &seed, k, rounds);
        (polished.assignment, polished.evaluation)
    };

    // Binary search the smallest feasible K in [lower, upper].
    let (mut lo, mut hi) = (lower, upper.max(lower));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let (a, eval) = search_at(mid, true);
        let feasible = eval.feasible;
        probes.push((mid, feasible));
        if feasible {
            // The plan is feasible at the machine count it uses, which
            // polish may have brought below `mid`.
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

    // The final, longer run at K′: for cold solves, and for warm ones whose
    // polished start lost to greedy's bound (say the old plan went
    // infeasible under a spike), where greedy's plan may be a mass
    // migration this run would beat. Behind a warm incumbent it rarely wins.
    if !warm_is_incumbent {
        let (a, eval) = search_at(k_final, false);
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
        evals_used: probes.len() + usize::from(!warm_is_incumbent),
        probes,
    })
}

/// The unoptimized comparator for §7.5's solver-performance experiment:
/// a single raw DIRECT run of `evals` evaluations over the full
/// `max_machines` space — no bounding, no binary search, no local-search
/// polish (the paper's naive Tomlab/DIRECT application).
pub fn solve_unbounded(problem: &ConsolidationProblem, evals: usize) -> Result<SolveReport> {
    let k = problem.max_machines;
    let (assignment, evaluation, evals_used) = solve_at_k(problem, k, evals, 0);
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
    use std::f64::consts::TAU;
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
    fn direct_scores_every_point_as_evaluate_does() {
        // A pinned workload, a replicated one and a migration baseline: the
        // placement terms and the moves as well as the machines. The same
        // trajectory as DIRECT over plain `evaluate` means the same values.
        let mut p = problem(&[5.0, 1.0, 6.0, 2.0, 4.0, 3.0]);
        p.workloads[1].pinned = Some(2);
        p.workloads[3].replicas = 2;
        let baseline = (0..7).map(|s| (s % 3 != 0).then_some(s % 4)).collect();
        let p = p.with_migration(baseline, 0.25);
        for k in [2, 3, 5] {
            let cfg = DirectConfig {
                max_evals: 900,
                max_iters: usize::MAX,
                ..Default::default()
            };
            let plain = |x: &[f64]| evaluate(&p, &decode(&p, k, x)).objective;
            let reference = direct_minimize(free_dims(&p), &cfg, plain);
            let (best, evals) = direct_at(&p, k, 900, false, &mut Shares::default());
            assert_eq!(best, decode(&p, k, &reference.best_x), "k {k}");
            assert_eq!(evals, reference.evals, "k {k}");
        }
    }

    #[test]
    fn a_cold_solve_honours_a_pin_where_greedy_finds_no_pack() {
        // Workload 0 is pinned to machine 1 and heavy in CPU and RAM. Each of
        // greedy's passes puts a light slot beside it that overloads the
        // resource the pass does not pack, so only the fallback can plan.
        const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
        let spec = |name, cpu, ram| WorkloadSpec::flat(name, 3, cpu, ram * GIB, 2e8, 50.0);
        let mut w = vec![
            spec("w0", 7.2, 57.6),
            spec("w1", 6.0, 4.8),
            spec("w2", 0.6, 48.0),
        ];
        w[0].pinned = Some(1);
        let disk = Arc::new(LinearDiskCombiner::default());
        let p = ConsolidationProblem::new(w, TargetMachine::paper_target(), 3, disk);
        assert!(crate::greedy_pack(&p).is_none(), "greedy found a pack");
        assert_eq!(crate::identity_assignment(&p).machine_of, vec![1, 0, 2]);
        let report = solve(&p, &SolverConfig::default()).expect("a plan");
        assert!(report.evaluation.feasible);
        assert_eq!(report.assignment.machine_of[0], 1);
    }

    /// `n` diurnal tenants over 48 windows, each with its own peak.
    fn diurnal(rng: &mut kairos_types::SplitMix64, n: usize) -> ConsolidationProblem {
        const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
        let w = (0..n)
            .map(|i| {
                let (cpu, amp) = (rng.next_in(0.5, 4.5), rng.next_in(0.0, 0.6));
                let (ram, ws) = (rng.next_in(4.0, 36.0) * GIB, rng.next_in(2.0, 16.0) * GIB);
                let (rate, phase) = (rng.next_in(50.0, 900.0), rng.next_in(0.0, TAU));
                let wave = |t: usize| 1.0 + amp * (phase + TAU * t as f64 / 48.0).sin();
                let mut w = WorkloadSpec::flat(format!("w{i}"), 48, 0.0, ram, ws, 0.0);
                w.cpu = (0..48).map(|t| cpu * wave(t)).collect();
                w.rate = (0..48).map(|t| rate * wave(t)).collect();
                w
            })
            .collect();
        let disk = Arc::new(LinearDiskCombiner::default());
        ConsolidationProblem::new(w, TargetMachine::paper_target(), n, disk)
    }

    #[test]
    fn direct_earns_its_keep_up_to_a_dozen_free_slots() {
        // Cold solves of 9–16 tenants, seeded both ways: per side of the
        // threshold, those where DIRECT's seed plans on fewer machines than
        // the centre's, and those where it plans on more.
        let mut rng = kairos_types::SplitMix64::new(0xD1CE);
        let mut tally = [[0usize; 2]; 2];
        for n in 9..=16 {
            for _ in 0..12 {
                let p = diurnal(&mut rng, n);
                let machines = |direct| {
                    let report = solve_inner(&p, &SolverConfig::default(), None, direct);
                    report.expect("a plan").evaluation.machines_used
                };
                let (seeded, centred) = (machines(Some(COLD_DIRECT)), machines(None));
                let side = &mut tally[usize::from(n > DIRECT_MAX_FREE_SLOTS)];
                side[0] += usize::from(seeded < centred);
                side[1] += usize::from(seeded > centred);
            }
        }
        println!(
            "DIRECT fewer, more: 9–12 {:?}, 13–16 {:?}",
            tally[0], tally[1]
        );
        let [fewer, more] = tally[0];
        assert!(
            fewer >= 4 && fewer >= 3 * more,
            "9–12 free slots: {:?}",
            tally[0]
        );
    }

    #[test]
    fn the_centre_stacks_free_slots_on_the_middle_machine() {
        let mut p = problem(&[1.0, 1.0, 1.0, 1.0]);
        p.workloads[2].pinned = Some(3);
        assert_eq!(centre(&p, 5).machine_of, vec![2, 2, 3, 2]);
        assert_eq!(centre(&p, 1).machine_of, vec![0, 0, 0, 0]);
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
        let unbounded = solve_unbounded(&p, 8_000).unwrap();
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
