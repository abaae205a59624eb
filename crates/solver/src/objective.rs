//! Objective function and constraint evaluation (§5, Fig 5).
//!
//! `minimize Σ_j signum(used_j) · mean_t e^(load_tj)` where `load_tj` is
//! the weighted, normalized combined utilization of server `j` in window
//! `t`. An empty server contributes zero; any used server contributes at
//! least 1 (since `e^0 = 1`), so with per-server loads normalized to
//! `[0, 1]` a `k−1`-server solution always scores below any `k`-server
//! one, and for fixed `k` the convexity of `e^x` makes the balanced
//! assignment the minimum — exactly the landscape Fig 5 sketches,
//! including the constraint-violation penalty spike.

use crate::machines::Machines;
use crate::problem::{Assignment, ConsolidationProblem, Slot, SlotSeries};

/// Per-machine, per-window utilization triple (fractions of capacity).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowLoad {
    pub cpu: f64,
    pub ram: f64,
    pub disk: f64,
}

impl WindowLoad {
    /// Worst single resource.
    pub fn max_resource(&self) -> f64 {
        self.cpu.max(self.ram).max(self.disk)
    }
}

/// Full evaluation of an assignment.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Objective value (penalized if infeasible; includes the migration
    /// term when the problem carries one).
    pub objective: f64,
    pub feasible: bool,
    /// Total constraint excess (0 when feasible).
    pub violation: f64,
    pub machines_used: usize,
    /// Slots moved off the migration baseline (0 without a baseline).
    pub moves_from_baseline: usize,
    /// Per *used* machine: utilization series (windows long).
    pub loads: Vec<(usize, Vec<WindowLoad>)>,
}

/// Scale of the infeasibility penalty — large enough that any feasible
/// solution beats any infeasible one (Fig 5's spike).
pub(crate) const PENALTY: f64 = 1e4;

/// One machine's per-window resource sums.
#[derive(Debug, Clone, Default)]
pub(crate) struct MachineSums {
    pub cpu: Vec<f64>,
    pub ram: Vec<f64>,
    pub ws: Vec<f64>,
    pub rate: Vec<f64>,
}

impl MachineSums {
    /// All-zero sums over `windows` windows.
    pub fn clear(&mut self, windows: usize) {
        for v in [&mut self.cpu, &mut self.ram, &mut self.ws, &mut self.rate] {
            v.clear();
            v.resize(windows, 0.0);
        }
    }

    /// Apply `f` to every (accumulator, sample) pair of `slot`'s series.
    fn zip(&mut self, series: &SlotSeries, slot: usize, f: impl Fn(&mut f64, f64)) {
        for (acc, src) in [
            (&mut self.cpu, series.cpu_of(slot)),
            (&mut self.ram, series.ram_of(slot)),
            (&mut self.ws, series.ws_of(slot)),
            (&mut self.rate, series.rate_of(slot)),
        ] {
            for (a, &v) in acc.iter_mut().zip(src) {
                f(a, v);
            }
        }
    }

    pub fn add(&mut self, series: &SlotSeries, slot: usize) {
        self.zip(series, slot, |a, v| *a += v);
    }

    pub fn sub(&mut self, series: &SlotSeries, slot: usize) {
        self.zip(series, slot, |a, v| *a -= v);
    }

    /// Sum `members`' series from zero, in list order: the order every
    /// bit-identity promise of this module is stated in.
    pub fn sum_of(&mut self, series: &SlotSeries, members: &[usize]) {
        self.clear(series.windows);
        for &s in members {
            self.add(series, s);
        }
    }
}

/// What one machine adds to the objective: three numbers, whatever the
/// horizon, which is what makes a machine's score cheap to keep.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct MachineScore {
    /// Mean over the windows of `e^load`; 0 for an empty machine.
    pub contrib: f64,
    /// Co-located replica and anti-affinity pairs (integer-valued).
    pub colocation: f64,
    /// Resource excess over the headroom: this machine's subtotal, summed
    /// from zero in (window; cpu, ram, disk) order.
    pub excess: f64,
}

/// **The per-machine scoring primitive**: the one place outside
/// [`evaluate_reference`] that turns per-window sums into utilization,
/// excess and `e^load`. From a machine's occupants and their summed series
/// it returns the machine's [`MachineScore`] and hands every window's load
/// to `on_window`. [`evaluate`] and `polish` both score through its window
/// kernel, [`score_windows`], and add the parts up through
/// [`total_objective`]; they differ only in how they form a window's sums
/// (`polish` forms them in place, from cached ones).
pub(crate) fn score_machine(
    problem: &ConsolidationProblem,
    slots: &[Slot],
    occupants: &[usize],
    sums: &MachineSums,
    on_window: impl FnMut(WindowLoad),
) -> MachineScore {
    if occupants.is_empty() {
        return MachineScore::default();
    }
    // Counted first: no call between the slicing below and the kernel's
    // loop, so it knows every window is in bounds.
    let colocation = colocation_violations(problem, slots, occupants);
    let windows = problem.windows;
    let (cpu, ram) = (&sums.cpu[..windows], &sums.ram[..windows]);
    let (ws, rate) = (&sums.ws[..windows], &sums.rate[..windows]);
    let sum_at = |t: usize| [cpu[t], ram[t], ws[t], rate[t]];
    score_windows(problem, colocation, sum_at, on_window, |_| false)
        .expect("a score that never gives up reaches its last window")
}

/// Windows [`score_windows`] scores between two offers to give up.
pub(crate) const GIVE_UP_STRIDE: usize = 16;

/// The window kernel: window `t`'s summed `[cpu, ram, ws, rate]`, from
/// `sum_at(t)`, become a [`WindowLoad`] (handed to `on_window`), an excess
/// and an `e^load`. Every [`GIVE_UP_STRIDE`] windows short of the last, the
/// score so far (sums over the windows done, `e^load` divided by all of
/// them) is offered to `give_up`, and `None` returned if it accepts. Every
/// term added is non-negative and IEEE rounding is monotone, so no part of
/// a partial score exceeds the finished one's.
pub(crate) fn score_windows(
    problem: &ConsolidationProblem,
    colocation: f64,
    sum_at: impl Fn(usize) -> [f64; 4],
    mut on_window: impl FnMut(WindowLoad),
    mut give_up: impl FnMut(MachineScore) -> bool,
) -> Option<MachineScore> {
    let windows = problem.windows;
    let weights = problem.weights;
    let wsum = weights.total().max(1e-12);
    let cap = problem.machine;
    let headroom = problem.headroom;
    let (mut exp_sum, mut excess) = (0.0, 0.0);
    let score = |exp_sum: f64, excess| MachineScore {
        contrib: exp_sum / windows as f64,
        colocation,
        excess,
    };
    for t in 0..windows {
        let [cpu, ram, ws, rate] = sum_at(t);
        let load = WindowLoad {
            cpu: cpu / cap.cpu_cores,
            ram: ram / cap.ram_bytes,
            disk: problem.disk.utilization(ws, rate),
        };
        // Test first: the adds stay off the loop's dependency chain.
        if load.cpu > headroom || load.ram > headroom || load.disk > headroom {
            for u in [load.cpu, load.ram, load.disk] {
                if u > headroom {
                    excess += u - headroom;
                }
            }
        }
        let norm =
            (weights.cpu * load.cpu + weights.ram * load.ram + weights.disk * load.disk) / wsum;
        exp_sum += norm.clamp(0.0, 1.0).exp();
        on_window(load);
        let done = t + 1;
        if done % GIVE_UP_STRIDE == 0 && done < windows && give_up(score(exp_sum, excess)) {
            return None;
        }
    }
    Some(score(exp_sum, excess))
}

/// Form the objective from per-machine scores in [`evaluate_reference`]'s
/// accumulation order: the integer-valued violations (`placement` — machine
/// count and pins — and co-location: exact in any order) plus the excess
/// subtotals summed machine by machine from zero; the contributions machine
/// by machine, the migration term, the penalty. `(objective, violation)`.
pub(crate) fn total_objective(
    problem: &ConsolidationProblem,
    placement: f64,
    machines: impl Iterator<Item = MachineScore>,
    moves_from_baseline: usize,
) -> (f64, f64) {
    let (mut integer, mut excess, mut objective) = (placement, 0.0, 0.0);
    for m in machines {
        integer += m.colocation;
        excess += m.excess;
        objective += m.contrib;
    }
    let violation = integer + excess;
    if let Some(m) = &problem.migration {
        objective += m.cost_per_move * moves_from_baseline as f64;
    }
    if violation != 0.0 {
        objective += PENALTY * (1.0 + violation);
    }
    (objective, violation)
}

/// Change in the moves-off-baseline count when `slot` goes `src → dst`.
pub(crate) fn migration_delta(
    problem: &ConsolidationProblem,
    slot: usize,
    src: usize,
    dst: usize,
) -> isize {
    match problem.home_of(slot) {
        Some(b) if src == b && dst != b => 1,
        Some(b) if src != b && dst == b => -1,
        _ => 0,
    }
}

/// Co-location violations (replica + explicit anti-affinity) among the
/// slots sharing one machine. Integer-valued, so exact in any order.
pub(crate) fn colocation_violations(
    problem: &ConsolidationProblem,
    slots: &[Slot],
    slot_ids: &[usize],
) -> f64 {
    let mut violation = 0.0;
    for (a_pos, &a) in slot_ids.iter().enumerate() {
        for &b in &slot_ids[a_pos + 1..] {
            let (sa, sb) = (slots[a], slots[b]);
            if sa.workload == sb.workload {
                violation += 1.0;
            }
            if problem.anti_affinity.iter().any(|&(x, y)| {
                (x, y) == (sa.workload, sb.workload) || (y, x) == (sa.workload, sb.workload)
            }) {
                violation += 1.0;
            }
        }
    }
    violation
}

/// Evaluate `assignment` under `problem`, through the problem's
/// structure-of-arrays slot cache (built on first use; see
/// [`SlotSeries`]). Produces bit-identical results to
/// [`evaluate_reference`] — the cache-coherence property tests assert it.
pub fn evaluate(problem: &ConsolidationProblem, assignment: &Assignment) -> Evaluation {
    evaluate_with_series(problem, problem.slot_series(), assignment)
}

/// [`evaluate`] against an explicitly supplied slot cache. Exposed so
/// coherence tests can fault-inject a corrupted cache; production callers
/// go through [`evaluate`].
pub fn evaluate_with_series(
    problem: &ConsolidationProblem,
    series: &SlotSeries,
    assignment: &Assignment,
) -> Evaluation {
    let slots = &series.slots;
    assert_eq!(
        slots.len(),
        assignment.machine_of.len(),
        "assignment must cover every placement slot"
    );
    let mut table = Machines::default();
    table.place(problem, &assignment.machine_of, 0);
    let used = (0..table.len()).filter(|&m| !table[m].slots.is_empty());
    let mut loads = Vec::with_capacity(used.count());
    let mut sums = MachineSums::default();
    // Each used machine summed from zero over its ascending list, as the
    // reference sums it; an empty machine's zero share changes no bits.
    for m in 0..table.len() {
        let occupants = &table[m].slots;
        if occupants.is_empty() {
            continue;
        }
        sums.sum_of(series, occupants);
        let mut window_loads = Vec::with_capacity(problem.windows);
        let share = score_machine(problem, slots, occupants, &sums, |load| {
            window_loads.push(load)
        });
        table.set_share(m, share);
        loads.push((m, window_loads));
    }
    let (objective, violation) = table.total_with(problem, table.placement, &[], table.moves);
    Evaluation {
        objective,
        feasible: violation == 0.0,
        violation,
        machines_used: loads.len(),
        moves_from_baseline: table.moves,
        loads,
    }
}

/// The original, cache-free evaluation path: slot list re-expanded and
/// every per-window demand re-derived from the workload specs. Kept as
/// the independent reference the cache-coherence tests compare
/// [`evaluate`] against (bit-for-bit), and as the fallback documentation
/// of the objective's exact arithmetic.
pub fn evaluate_reference(problem: &ConsolidationProblem, assignment: &Assignment) -> Evaluation {
    let slots = problem.slots();
    assert_eq!(
        slots.len(),
        assignment.machine_of.len(),
        "assignment must cover every placement slot"
    );
    let windows = problem.windows;
    let weights = problem.weights;
    let wsum = weights.total().max(1e-12);
    let cap = problem.machine;
    let headroom = problem.headroom;

    let by_machine = assignment.by_machine();
    let mut violation = 0.0;
    let mut objective = 0.0;
    let mut loads = Vec::with_capacity(by_machine.len());

    for (&m, _) in by_machine.iter() {
        if m >= problem.max_machines {
            violation += 1.0 + (m - problem.max_machines) as f64;
        }
    }

    for (_, slot_ids) in by_machine.iter() {
        violation += colocation_violations(problem, &slots, slot_ids);
    }

    for (s, slot) in slots.iter().enumerate() {
        if slot.replica == 0 {
            if let Some(pin) = problem.workloads[slot.workload].pinned {
                if assignment.machine_of[s] != pin {
                    violation += 1.0;
                }
            }
        }
    }

    let mut excess_total = 0.0; // of per-machine subtotals
    for (&m, slot_ids) in by_machine.iter() {
        let mut series = Vec::with_capacity(windows);
        let mut exp_sum = 0.0;
        let mut excess = 0.0;
        for t in 0..windows {
            let mut cpu = 0.0;
            let mut ram = 0.0;
            let mut ws = 0.0;
            let mut rate = 0.0;
            for &s in slot_ids {
                let w = &problem.workloads[slots[s].workload];
                cpu += w.cpu_at(t);
                ram += w.ram_at(t);
                ws += w.ws_at(t);
                rate += w.rate_at(t);
            }
            let load = WindowLoad {
                cpu: cpu / cap.cpu_cores,
                ram: ram / cap.ram_bytes,
                disk: problem.disk.utilization(ws, rate),
            };
            for u in [load.cpu, load.ram, load.disk] {
                if u > headroom {
                    excess += u - headroom;
                }
            }
            let norm =
                (weights.cpu * load.cpu + weights.ram * load.ram + weights.disk * load.disk) / wsum;
            exp_sum += norm.clamp(0.0, 1.0).exp();
            series.push(load);
        }
        excess_total += excess;
        objective += exp_sum / windows as f64;
        loads.push((m, series));
    }

    violation += excess_total;

    let moves_from_baseline = problem
        .migration
        .as_ref()
        .map(|m| m.moves(&assignment.machine_of))
        .unwrap_or(0);
    if let Some(m) = &problem.migration {
        objective += m.cost_per_move * moves_from_baseline as f64;
    }

    let feasible = violation == 0.0;
    if !feasible {
        objective += PENALTY * (1.0 + violation);
    }
    Evaluation {
        objective,
        feasible,
        violation,
        machines_used: by_machine.len(),
        moves_from_baseline,
        loads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LinearDiskCombiner, TargetMachine, WorkloadSpec};
    use std::sync::Arc;

    fn problem(n: usize, cpu_each: f64) -> ConsolidationProblem {
        let w = (0..n)
            .map(|i| WorkloadSpec::flat(format!("w{i}"), 3, cpu_each, 1e9, 1e8, 10.0))
            .collect();
        ConsolidationProblem::new(
            w,
            TargetMachine::paper_target(),
            n,
            Arc::new(LinearDiskCombiner::default()),
        )
    }

    #[test]
    fn fewer_machines_always_score_lower() {
        let p = problem(4, 1.0); // 4 workloads, 1 core each, 12-core target
        let spread = evaluate(&p, &Assignment::new(vec![0, 1, 2, 3]));
        let packed2 = evaluate(&p, &Assignment::new(vec![0, 0, 1, 1]));
        let packed1 = evaluate(&p, &Assignment::new(vec![0, 0, 0, 0]));
        assert!(spread.feasible && packed2.feasible && packed1.feasible);
        assert!(packed1.objective < packed2.objective);
        assert!(packed2.objective < spread.objective);
        assert_eq!(packed1.machines_used, 1);
    }

    #[test]
    fn balanced_beats_unbalanced_at_same_machine_count() {
        // 4 × 2-core workloads on two machines: 2+2 vs 3+1.
        let p = problem(4, 2.0);
        let balanced = evaluate(&p, &Assignment::new(vec![0, 0, 1, 1]));
        let skewed = evaluate(&p, &Assignment::new(vec![0, 0, 0, 1]));
        assert!(balanced.feasible && skewed.feasible);
        assert!(balanced.objective < skewed.objective);
    }

    #[test]
    fn cpu_overcommit_is_penalized() {
        // 3 workloads × 5 cores = 15 > 12×0.95, but a pair (10) fits.
        let p = problem(3, 5.0);
        let packed = evaluate(&p, &Assignment::new(vec![0, 0, 0]));
        assert!(!packed.feasible);
        assert!(packed.violation > 0.0);
        let spread = evaluate(&p, &Assignment::new(vec![0, 0, 1]));
        assert!(spread.feasible);
        assert!(spread.objective < packed.objective);
    }

    #[test]
    fn ram_overcommit_is_penalized() {
        let mut p = problem(2, 0.5);
        for w in &mut p.workloads {
            w.ram = vec![60e9; 3]; // 2 × 60 GB > 96 GB
        }
        let packed = evaluate(&p, &Assignment::new(vec![0, 0]));
        assert!(!packed.feasible);
    }

    #[test]
    fn nonlinear_disk_constraint_uses_combined_demand() {
        struct Saturating;
        impl crate::problem::DiskCombiner for Saturating {
            fn utilization(&self, ws: f64, rate: f64) -> f64 {
                // Saturation rate falls with ws: cap = 1000 - ws/1e7.
                rate / (1000.0 - ws / 1e7).max(1.0)
            }
        }
        let w = vec![
            WorkloadSpec::flat("a", 1, 0.1, 1e9, 4e9, 300.0),
            WorkloadSpec::flat("b", 1, 0.1, 1e9, 4e9, 300.0),
        ];
        let p =
            ConsolidationProblem::new(w, TargetMachine::paper_target(), 2, Arc::new(Saturating));
        // Each alone: util = 300/(1000-400) = 0.5 — fine.
        let spread = evaluate(&p, &Assignment::new(vec![0, 1]));
        assert!(spread.feasible);
        // Combined: 600/(1000-800) = 3.0 — violates despite linear sum
        // (600/1000) looking fine. This is the Kairos point.
        let packed = evaluate(&p, &Assignment::new(vec![0, 0]));
        assert!(!packed.feasible);
    }

    #[test]
    fn replicas_must_not_colocate() {
        let mut p = problem(1, 1.0);
        p.workloads[0].replicas = 2;
        p.max_machines = 2;
        let together = evaluate(&p, &Assignment::new(vec![0, 0]));
        assert!(!together.feasible);
        let apart = evaluate(&p, &Assignment::new(vec![0, 1]));
        assert!(apart.feasible);
    }

    #[test]
    fn pinning_enforced() {
        let mut p = problem(2, 1.0);
        p.workloads[0].pinned = Some(1);
        let wrong = evaluate(&p, &Assignment::new(vec![0, 0]));
        assert!(!wrong.feasible);
        let right = evaluate(&p, &Assignment::new(vec![1, 0]));
        assert!(right.feasible);
    }

    #[test]
    fn anti_affinity_enforced() {
        let p = problem(2, 1.0).with_anti_affinity(vec![(0, 1)]);
        let together = evaluate(&p, &Assignment::new(vec![0, 0]));
        assert!(!together.feasible);
        let apart = evaluate(&p, &Assignment::new(vec![0, 1]));
        assert!(apart.feasible);
    }

    #[test]
    fn machine_index_beyond_max_is_violation() {
        let p = problem(1, 1.0);
        let bad = evaluate(&p, &Assignment::new(vec![99]));
        assert!(!bad.feasible);
    }

    #[test]
    fn any_feasible_beats_any_infeasible() {
        let p = problem(3, 6.0);
        let feasible_spread = evaluate(&p, &Assignment::new(vec![0, 1, 2]));
        let infeasible_packed = evaluate(&p, &Assignment::new(vec![0, 0, 0]));
        assert!(feasible_spread.objective < infeasible_packed.objective);
    }

    #[test]
    fn migration_term_counts_and_prices_moves() {
        let p = problem(4, 1.0).with_migration(vec![Some(0), Some(0), Some(1), Some(1)], 0.25);
        let stay = evaluate(&p, &Assignment::new(vec![0, 0, 1, 1]));
        assert_eq!(stay.moves_from_baseline, 0);
        let two_moves = evaluate(&p, &Assignment::new(vec![1, 0, 0, 1]));
        assert_eq!(two_moves.moves_from_baseline, 2);
        // Same machine count and mirrored shape: the only objective
        // difference is the migration term.
        assert!(
            (two_moves.objective - stay.objective - 0.5).abs() < 1e-9,
            "expected exactly 2 × 0.25 migration cost, got {}",
            two_moves.objective - stay.objective
        );
    }

    #[test]
    fn new_slots_are_free_to_place() {
        // Baseline covers only the first two slots; the rest are new.
        let p = problem(4, 1.0).with_migration(vec![Some(0), Some(0)], 0.25);
        let eval = evaluate(&p, &Assignment::new(vec![0, 0, 1, 2]));
        assert_eq!(eval.moves_from_baseline, 0);
    }

    #[test]
    fn cached_evaluate_matches_reference_bit_for_bit() {
        let mut p = problem(5, 2.3).with_anti_affinity(vec![(0, 3)]);
        p.workloads[1].replicas = 2;
        p.workloads[4].pinned = Some(1);
        let p = p.with_migration(
            vec![Some(0), Some(1), None, Some(0), Some(2), Some(1)],
            0.25,
        );
        for a in [
            Assignment::new(vec![0, 1, 2, 0, 1, 1]),
            Assignment::new(vec![0, 0, 0, 0, 0, 0]),
            Assignment::new(vec![3, 2, 1, 0, 4, 1]),
        ] {
            let cached = evaluate(&p, &a);
            let reference = evaluate_reference(&p, &a);
            assert_eq!(cached.objective.to_bits(), reference.objective.to_bits());
            assert_eq!(cached.violation.to_bits(), reference.violation.to_bits());
            assert_eq!(cached.feasible, reference.feasible);
            assert_eq!(cached.machines_used, reference.machines_used);
            assert_eq!(cached.moves_from_baseline, reference.moves_from_baseline);
            assert_eq!(cached.loads, reference.loads);
        }
    }

    #[test]
    fn migration_cost_never_outweighs_a_machine() {
        // Consolidating 4 → 1 machines must stay worthwhile even when all
        // four slots migrate at the default-scale cost.
        let p = problem(4, 1.0).with_migration(vec![Some(0), Some(1), Some(2), Some(3)], 0.1);
        let stay_spread = evaluate(&p, &Assignment::new(vec![0, 1, 2, 3]));
        let pack_all = evaluate(&p, &Assignment::new(vec![0, 0, 0, 0]));
        assert_eq!(pack_all.moves_from_baseline, 3);
        assert!(pack_all.objective < stay_spread.objective);
    }
}
