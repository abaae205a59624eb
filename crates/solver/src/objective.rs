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

    pub fn copy_from(&mut self, other: &MachineSums) {
        self.cpu.clone_from(&other.cpu);
        self.ram.clone_from(&other.ram);
        self.ws.clone_from(&other.ws);
        self.rate.clone_from(&other.rate);
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

/// What one machine adds to the objective, beside the resource-excess
/// terms [`score_machine`] appends.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct MachineScore {
    /// Mean over the windows of `e^load`; 0 for an empty machine.
    pub contrib: f64,
    /// Co-located replica and anti-affinity pairs (integer-valued).
    pub colocation: f64,
}

/// **The per-machine scoring primitive**: the one place outside
/// [`evaluate_reference`] that turns per-window sums into utilization,
/// excess and `e^load`. From a machine's occupants and their summed series
/// it returns the mean-exp contribution and the co-location count, appends
/// the resource-excess terms to `excess` in (window; cpu, ram, disk) order
/// and hands every window's load to `on_window`. [`evaluate`], DIRECT's
/// [`CentreScorer`] and `polish` all score through it; they differ only in
/// how they form `sums` and in how they add the parts up.
pub(crate) fn score_machine(
    problem: &ConsolidationProblem,
    slots: &[Slot],
    occupants: &[usize],
    sums: &MachineSums,
    excess: &mut Vec<f64>,
    mut on_window: impl FnMut(WindowLoad),
) -> MachineScore {
    if occupants.is_empty() {
        return MachineScore::default();
    }
    let windows = problem.windows;
    let weights = problem.weights;
    let wsum = weights.total().max(1e-12);
    let cap = problem.machine;
    let headroom = problem.headroom;
    let (cpu, ram) = (&sums.cpu[..windows], &sums.ram[..windows]);
    let (ws, rate) = (&sums.ws[..windows], &sums.rate[..windows]);
    let mut exp_sum = 0.0;
    for t in 0..windows {
        let load = WindowLoad {
            cpu: cpu[t] / cap.cpu_cores,
            ram: ram[t] / cap.ram_bytes,
            disk: problem.disk.utilization(ws[t], rate[t]),
        };
        for u in [load.cpu, load.ram, load.disk] {
            if u > headroom {
                excess.push(u - headroom);
            }
        }
        let norm =
            (weights.cpu * load.cpu + weights.ram * load.ram + weights.disk * load.disk) / wsum;
        exp_sum += norm.clamp(0.0, 1.0).exp();
        on_window(load);
    }
    MachineScore {
        contrib: exp_sum / windows as f64,
        colocation: colocation_violations(problem, slots, occupants),
    }
}

/// Form the objective from per-machine parts in [`evaluate_reference`]'s
/// accumulation order: the integer-valued violations (machine count,
/// co-location, pins: exact in any order), then the excess terms machine
/// by machine, then the contributions machine by machine, then the
/// migration term, then the penalty. Returns `(objective, violation)`.
fn total_objective(
    problem: &ConsolidationProblem,
    integer_violation: f64,
    contribs: impl Iterator<Item = f64>,
    excess: impl Iterator<Item = f64>,
    moves_from_baseline: usize,
) -> (f64, f64) {
    let violation = excess.fold(integer_violation, |v, e| v + e);
    let mut objective = contribs.fold(0.0, |o, c| o + c);
    if let Some(m) = &problem.migration {
        objective += m.cost_per_move * moves_from_baseline as f64;
    }
    if violation != 0.0 {
        objective += PENALTY * (1.0 + violation);
    }
    (objective, violation)
}

/// Machine-count violation of using machine `m` at all.
fn overflow_violation(problem: &ConsolidationProblem, m: usize) -> f64 {
    if m >= problem.max_machines {
        1.0 + (m - problem.max_machines) as f64
    } else {
        0.0
    }
}

/// Pin violation of `slot` on `machine`. The paper pins a workload to a
/// node; we interpret it as "replica 0 must sit on the pinned machine".
fn pin_violation(problem: &ConsolidationProblem, slot: Slot, machine: usize) -> f64 {
    match problem.workloads[slot.workload].pinned {
        Some(pin) if slot.replica == 0 && machine != pin => 1.0,
        _ => 0.0,
    }
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
/// slots sharing one machine.
fn colocation_violations(
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
    let series = problem.slot_series().clone();
    evaluate_with_series(problem, &series, assignment)
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
    let by_machine = assignment.by_machine();
    let mut integer_violation: f64 = slots
        .iter()
        .zip(&assignment.machine_of)
        .map(|(&slot, &m)| pin_violation(problem, slot, m))
        .sum();
    let mut sums = MachineSums::default();
    let mut excess = Vec::new();
    let mut contribs = Vec::with_capacity(by_machine.len());
    let mut loads = Vec::with_capacity(by_machine.len());
    // Per used machine, slot-major over the cached series: each window
    // accumulator receives its contributions in the same slot order the
    // reference path uses, so the floating-point results are identical.
    for (&m, slot_ids) in by_machine.iter() {
        sums.sum_of(series, slot_ids);
        let mut window_loads = Vec::with_capacity(problem.windows);
        let score = score_machine(problem, slots, slot_ids, &sums, &mut excess, |load| {
            window_loads.push(load)
        });
        integer_violation += overflow_violation(problem, m) + score.colocation;
        contribs.push(score.contrib);
        loads.push((m, window_loads));
    }

    // Migration-cost term (§ online re-solve): each slot moved off its
    // baseline machine costs a fixed objective increment, so plans with
    // small placement deltas win among near-equals.
    let moves_from_baseline = problem.moves_from_baseline(&assignment.machine_of);
    let (objective, violation) = total_objective(
        problem,
        integer_violation,
        contribs.into_iter(),
        excess.into_iter(),
        moves_from_baseline,
    );
    Evaluation {
        objective,
        feasible: violation == 0.0,
        violation,
        machines_used: by_machine.len(),
        moves_from_baseline,
        loads,
    }
}

/// A machine's score with its ordered excess terms.
#[derive(Debug, Clone, Default)]
struct Scored {
    score: MachineScore,
    excess: Vec<f64>,
}

impl Scored {
    /// Score a machine holding exactly `members`, summed from zero in list
    /// order.
    fn rescore(
        &mut self,
        problem: &ConsolidationProblem,
        series: &SlotSeries,
        members: &[usize],
        sums: &mut MachineSums,
    ) {
        self.excess.clear();
        sums.sum_of(series, members);
        self.score = score_machine(
            problem,
            &series.slots,
            members,
            sums,
            &mut self.excess,
            |_| {},
        );
    }
}

/// Objective of every placement one slot move away from a *centre*
/// placement, bit for bit what [`evaluate`] reports, without re-scoring
/// the machines the move does not touch. This is what DIRECT's inner loop
/// asks for: each of its samples is a rectangle's centre with one
/// coordinate changed, i.e. at most one slot on another machine.
///
/// [`rebase`](CentreScorer::rebase) scores the centre once and keeps, per
/// machine, the occupants (ascending slot index), the contribution, the
/// co-location count and the ordered excess terms.
/// [`moved`](CentreScorer::moved) re-sums only the source and the
/// destination machine — **from zero, in ascending slot order**, exactly
/// as `evaluate` sums them — and re-forms the total in `evaluate`'s order
/// with those two entries substituted.
///
/// Updating the source machine by subtraction (`sums − slot`) instead is
/// about 5× cheaper per sample and was measured and rejected: it differs
/// from the from-zero sum in the last ulp, and the search is chaotic
/// enough that on one SecondLife draw the binary search then probed
/// K′ = 21 instead of 20 and the plan used one machine more. Do not retry
/// it without an answer to that.
#[derive(Default)]
pub struct CentreScorer {
    machine_of: Vec<usize>,
    /// Per machine, ascending slot index. Sized to the largest machine
    /// index seen so far; a reused scorer only ever grows.
    occupants: Vec<Vec<usize>>,
    scored: Vec<Scored>,
    /// The centre's machine-count + co-location + pin violations.
    integer_violation: f64,
    moves_from_baseline: usize,
    centre: f64,
    // Scratch for the two machines a move touches. `src` is kept across
    // calls: DIRECT samples each axis twice, and the source machine
    // without the slot is the same both times.
    sums: MachineSums,
    members: Vec<usize>,
    src: Scored,
    src_without: Option<usize>,
    dst: Scored,
}

impl CentreScorer {
    fn grow(&mut self, machines: usize) {
        if self.occupants.len() < machines {
            self.occupants.resize_with(machines, Vec::new);
            self.scored.resize_with(machines, Scored::default);
        }
    }

    /// Make `machine_of` the centre and return its objective.
    pub fn rebase(
        &mut self,
        problem: &ConsolidationProblem,
        series: &SlotSeries,
        machine_of: &[usize],
    ) -> f64 {
        debug_assert_eq!(series.slots.len(), machine_of.len());
        for occ in &mut self.occupants {
            occ.clear();
        }
        self.grow(machine_of.iter().max().map_or(0, |m| m + 1));
        self.machine_of.clear();
        self.machine_of.extend_from_slice(machine_of);
        self.src_without = None;
        self.integer_violation = 0.0;
        for (s, &m) in machine_of.iter().enumerate() {
            self.occupants[m].push(s);
            self.integer_violation += pin_violation(problem, series.slots[s], m);
        }
        for m in 0..self.occupants.len() {
            let occ = &self.occupants[m];
            self.scored[m].rescore(problem, series, occ, &mut self.sums);
            if !occ.is_empty() {
                self.integer_violation += overflow_violation(problem, m);
            }
            self.integer_violation += self.scored[m].score.colocation;
        }
        self.moves_from_baseline = problem.moves_from_baseline(machine_of);
        self.centre = total_objective(
            problem,
            self.integer_violation,
            self.scored.iter().map(|m| m.score.contrib),
            self.scored.iter().flat_map(|m| m.excess.iter().copied()),
            self.moves_from_baseline,
        )
        .0;
        self.centre
    }

    /// The centre's objective.
    pub fn centre(&self) -> f64 {
        self.centre
    }

    /// Objective of the centre with `slot` on machine `dst` instead; the
    /// centre itself is unchanged. `problem` and `series` must be the ones
    /// last passed to [`rebase`](CentreScorer::rebase).
    pub fn moved(
        &mut self,
        problem: &ConsolidationProblem,
        series: &SlotSeries,
        slot: usize,
        dst: usize,
    ) -> f64 {
        let src = self.machine_of[slot];
        if src == dst {
            return self.centre;
        }
        self.grow(dst + 1);
        if self.src_without != Some(slot) {
            self.members.clear();
            self.members
                .extend(self.occupants[src].iter().filter(|&&s| s != slot));
            self.src
                .rescore(problem, series, &self.members, &mut self.sums);
            self.src_without = Some(slot);
        }
        let occ = &self.occupants[dst];
        let at = occ.partition_point(|&s| s < slot);
        self.members.clear();
        self.members.extend_from_slice(&occ[..at]);
        self.members.push(slot);
        self.members.extend_from_slice(&occ[at..]);
        self.dst
            .rescore(problem, series, &self.members, &mut self.sums);

        let mut integer_violation = self.integer_violation
            + (pin_violation(problem, series.slots[slot], dst)
                - pin_violation(problem, series.slots[slot], src))
            + (self.src.score.colocation - self.scored[src].score.colocation)
            + (self.dst.score.colocation - self.scored[dst].score.colocation);
        if self.occupants[src].len() == 1 {
            integer_violation -= overflow_violation(problem, src);
        }
        if self.occupants[dst].is_empty() {
            integer_violation += overflow_violation(problem, dst);
        }
        let moves = self.moves_from_baseline as isize + migration_delta(problem, slot, src, dst);
        let pick = |m: usize| {
            if m == src {
                &self.src
            } else if m == dst {
                &self.dst
            } else {
                &self.scored[m]
            }
        };
        total_objective(
            problem,
            integer_violation,
            (0..self.scored.len()).map(|m| pick(m).score.contrib),
            (0..self.scored.len()).flat_map(|m| pick(m).excess.iter().copied()),
            moves as usize,
        )
        .0
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

    for (&m, slot_ids) in by_machine.iter() {
        let mut series = Vec::with_capacity(windows);
        let mut exp_sum = 0.0;
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
                    violation += u - headroom;
                }
            }
            let norm =
                (weights.cpu * load.cpu + weights.ram * load.ram + weights.disk * load.disk) / wsum;
            exp_sum += norm.clamp(0.0, 1.0).exp();
            series.push(load);
        }
        objective += exp_sum / windows as f64;
        loads.push((m, series));
    }

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
    fn centre_scorer_matches_full_evaluation() {
        let mut p = problem(6, 1.7).with_anti_affinity(vec![(1, 2)]);
        p.workloads[0].replicas = 2;
        let p = p.with_migration(
            vec![Some(0), None, Some(1), Some(1), Some(2), None, Some(3)],
            0.1,
        );
        let series = p.slot_series().clone();
        // One scorer across centres of different widths: it only grows.
        let mut scorer = CentreScorer::default();
        for a in [
            vec![0, 1, 2, 3, 4, 5, 0],
            vec![0, 0, 0, 0, 0, 0, 0],
            vec![2, 1, 2, 1, 2, 1, 2],
        ] {
            let full = evaluate(&p, &Assignment::new(a.clone()));
            let centre = scorer.rebase(&p, &series, &a);
            assert_eq!(centre.to_bits(), full.objective.to_bits());
            assert_eq!(scorer.centre().to_bits(), centre.to_bits());
            for slot in 0..a.len() {
                for dst in 0..8 {
                    let mut moved = a.clone();
                    moved[slot] = dst;
                    let full = evaluate(&p, &Assignment::new(moved));
                    let lean = scorer.moved(&p, &series, slot, dst);
                    assert_eq!(
                        lean.to_bits(),
                        full.objective.to_bits(),
                        "slot {slot} -> {dst} from {a:?}: {lean} vs {}",
                        full.objective
                    );
                }
            }
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
