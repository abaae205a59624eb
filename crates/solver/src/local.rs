//! Local-search polish with incremental evaluation.
//!
//! §6: once K′ is fixed, "this allows us to parametrize the DIRECT
//! algorithm in favor of local searches to increase the quality of the
//! final solution". We complement DIRECT's coarse global structure with a
//! deterministic best-move hill climber over slot→machine moves and
//! whole-machine merges.
//!
//! A candidate is scored **once and without touching the state**: the
//! search keeps each machine's summed series and its share of the
//! objective, a move changes two machines, and the candidate's objective
//! is the in-order machine sum with those two shares substituted. Both
//! shares come from the crate's one scoring primitive
//! (`objective::score_machine`) run over scratch sums:
//!
//! * the source machine without the slot is the same for every
//!   destination, so it is scored once per slot;
//! * each destination is scored once with the slot added to its cached
//!   sums; a merge adds the source machine's slots to the destination's
//!   sums in list order and is scored once;
//! * all empty machines give a slot the same objective and a later
//!   candidate must beat the best so far by 1e-12, so only the
//!   lowest-indexed empty machine is scored — except the slot's own
//!   baseline machine, which wins back one move's migration cost and is
//!   scored whenever it is empty.
//!
//! Per-machine extrema (peak CPU/RAM over the horizon) feed a sound
//! **lower-bound pruner**: candidate moves whose best-case objective
//! delta provably cannot beat the incumbent are skipped without touching
//! the load series. Neither kind of skip changes the chosen move — only
//! candidates that could not have won are skipped.

use crate::objective::{
    evaluate, migration_delta, score_machine, total_objective, Evaluation, MachineScore,
    MachineSums, PENALTY,
};
use crate::problem::{Assignment, ConsolidationProblem, SlotSeries};
use std::sync::Arc;

struct MachineState {
    slots: Vec<usize>,
    sums: MachineSums,
    /// This machine's share of the objective.
    share: MachineScore,
    /// Peak CPU / RAM over the horizon (pruning bounds; refreshed with
    /// the share).
    cpu_peak: f64,
    ram_peak: f64,
}

struct SearchState<'a> {
    problem: &'a ConsolidationProblem,
    /// Shared slot cache; the slot list itself is `series.slots`.
    series: Arc<SlotSeries>,
    machines: Vec<MachineState>,
    assignment: Vec<usize>,
    /// Slots currently off the migration baseline (0 without a baseline);
    /// kept incrementally so the cached objective matches `evaluate`.
    mig_moves: usize,
    /// Candidates skipped unscored (see [`PolishReport::pruned`]).
    pruned: usize,
    // Scratch a candidate's touched machines are scored in.
    sums: MachineSums,
    members: Vec<usize>,
}

impl<'a> SearchState<'a> {
    fn new(
        problem: &'a ConsolidationProblem,
        assignment: &Assignment,
        k: usize,
    ) -> SearchState<'a> {
        let series = problem.slot_series().clone();
        let mut machines: Vec<MachineState> = (0..k)
            .map(|_| MachineState {
                slots: Vec::new(),
                sums: MachineSums::default(),
                share: MachineScore::default(),
                cpu_peak: 0.0,
                ram_peak: 0.0,
            })
            .collect();
        let mut asg = assignment.machine_of.clone();
        for (s, m) in asg.iter_mut().enumerate() {
            // Clamp any out-of-range machine and force pins.
            if *m >= k {
                *m = k - 1;
            }
            let slot = series.slots[s];
            if slot.replica == 0 {
                if let Some(pin) = problem.workloads[slot.workload].pinned {
                    if pin < k {
                        *m = pin;
                    }
                }
            }
            machines[*m].slots.push(s);
        }
        let mig_moves = problem.moves_from_baseline(&asg);
        let mut state = SearchState {
            problem,
            series,
            machines,
            assignment: asg,
            mig_moves,
            pruned: 0,
            sums: MachineSums::default(),
            members: Vec::new(),
        };
        for m in 0..k {
            let ms = &mut state.machines[m];
            ms.sums.sum_of(&state.series, &ms.slots);
            state.refresh(m);
        }
        state
    }

    /// Recompute the cached share and peaks of machine `m` from its sums.
    fn refresh(&mut self, m: usize) {
        let ms = &mut self.machines[m];
        ms.share = score_machine(
            self.problem,
            &self.series.slots,
            &ms.slots,
            &ms.sums,
            |_| {},
        );
        if ms.slots.is_empty() {
            ms.cpu_peak = 0.0;
            ms.ram_peak = 0.0;
        } else {
            ms.cpu_peak = ms.sums.cpu.iter().copied().fold(0.0, f64::max);
            ms.ram_peak = ms.sums.ram.iter().copied().fold(0.0, f64::max);
        }
    }

    /// The objective with each machine in `subs` holding the share given
    /// there instead of its cached one and `mig_moves` slots off the
    /// baseline: the in-order sum over machines.
    fn total_with(&self, subs: &[(usize, MachineScore)], mig_moves: usize) -> f64 {
        let shares = self
            .machines
            .iter()
            .enumerate()
            .map(|(m, ms)| subs.iter().find(|s| s.0 == m).map_or(ms.share, |s| s.1));
        // Pins are forced and every machine is below `k`: no placement term.
        total_objective(self.problem, 0.0, shares, mig_moves).0
    }

    fn total_objective(&self) -> f64 {
        self.total_with(&[], self.mig_moves)
    }

    fn violation_free(&self) -> bool {
        let clean = |m: &MachineState| m.share.excess == 0.0 && m.share.colocation == 0.0;
        self.machines.iter().all(clean)
    }

    fn is_pinned(&self, slot: usize) -> bool {
        let s = self.series.slots[slot];
        s.replica == 0 && self.problem.workloads[s.workload].pinned.is_some()
    }

    /// Apply `slot → dst`, updating caches.
    fn apply_move(&mut self, slot: usize, dst: usize) {
        let src = self.assignment[slot];
        if src == dst {
            return;
        }
        let from = &mut self.machines[src];
        let pos = from
            .slots
            .iter()
            .position(|&s| s == slot)
            .expect("slot tracked on its machine");
        from.slots.swap_remove(pos);
        if from.slots.is_empty() {
            // No subtraction residue: every empty machine is the same.
            from.sums.clear(self.problem.windows);
        } else {
            from.sums.sub(&self.series, slot);
        }
        let to = &mut self.machines[dst];
        to.slots.push(slot);
        to.sums.add(&self.series, slot);
        self.mig_moves =
            (self.mig_moves as isize + migration_delta(self.problem, slot, src, dst)) as usize;
        self.assignment[slot] = dst;
        self.refresh(src);
        self.refresh(dst);
    }

    /// Share of `slot`'s machine once the slot has left it.
    fn share_without(&mut self, slot: usize) -> MachineScore {
        let from = &self.machines[self.assignment[slot]];
        self.members.clear();
        self.members
            .extend(from.slots.iter().filter(|&&s| s != slot));
        self.sums.copy_from(&from.sums);
        self.sums.sub(&self.series, slot);
        score_machine(
            self.problem,
            &self.series.slots,
            &self.members,
            &self.sums,
            |_| {},
        )
    }

    /// Share of machine `dst` once `extra` (slots of another machine, in
    /// the order they would be moved) have joined it.
    fn share_with(&mut self, dst: usize, extra: &[usize]) -> MachineScore {
        let to = &self.machines[dst];
        self.members.clear();
        self.members.extend_from_slice(&to.slots);
        self.members.extend_from_slice(extra);
        self.sums.copy_from(&to.sums);
        for &s in extra {
            self.sums.add(&self.series, s);
        }
        score_machine(
            self.problem,
            &self.series.slots,
            &self.members,
            &self.sums,
            |_| {},
        )
    }

    /// `mig_moves` after moving `slots` from `src` to `dst`.
    fn mig_moves_after(&self, slots: &[usize], src: usize, dst: usize) -> usize {
        let delta: isize = slots
            .iter()
            .map(|&s| migration_delta(self.problem, s, src, dst))
            .sum();
        (self.mig_moves as isize + delta) as usize
    }

    /// The machine that strictly improves the objective most when `slot`
    /// alone moves to it, if any.
    fn best_move(&mut self, slot: usize) -> Option<usize> {
        let k = self.machines.len();
        let current = self.total_objective();
        let src = self.assignment[slot];
        // Lower-bound pruning (sound only from a violation-free state,
        // where any new violation costs ≥ PENALTY): if the best case —
        // source contribution collapsing to its floor, destinations
        // absorbing the slot for free, one migration move recovered —
        // cannot improve on the incumbent, no destination needs scoring.
        let feasible_now = self.violation_free() && current < PENALTY;
        if feasible_now && current - self.single_move_gain_bound(slot) >= current - 1e-12 {
            self.pruned += k - 1;
            return None;
        }
        let home = self.problem.home_of(slot);
        let without = self.share_without(slot);
        let mut best = (current, src);
        let mut empty_scored = false;
        for dst in 0..k {
            if dst == src {
                continue;
            }
            // Empty machines are interchangeable, bar the slot's baseline
            // home: the first one scored stands for the rest.
            if self.machines[dst].slots.is_empty() && home != Some(dst) {
                if empty_scored {
                    self.pruned += 1;
                    continue;
                }
                empty_scored = true;
            }
            // Capacity pruning: the cached destination peak plus the
            // slot's minimum already exceeds CPU or RAM capacity, so the
            // move is certainly infeasible and cannot beat a feasible
            // incumbent.
            if feasible_now && self.dst_certainly_violates(slot, dst) {
                self.pruned += 1;
                continue;
            }
            let with = self.share_with(dst, &[slot]);
            let mig_moves = self.mig_moves_after(&[slot], src, dst);
            let obj = self.total_with(&[(src, without), (dst, with)], mig_moves);
            if obj < best.0 - 1e-12 {
                best = (obj, dst);
            }
        }
        (best.1 != src).then_some(best.1)
    }

    /// The occupied machine that strictly improves the objective most when
    /// all of `src`'s slots are folded into it, if any. Relocating a whole
    /// machine at once captures the "+1 per server" gain that single moves
    /// cannot see (the first slot moved off a balanced pair looks like a
    /// loss).
    fn best_merge(&mut self, src: usize) -> Option<usize> {
        let src_slots = self.machines[src].slots.clone();
        if src_slots.is_empty() || src_slots.iter().any(|&s| self.is_pinned(s)) {
            return None;
        }
        let current = self.total_objective();
        let feasible_now = self.violation_free() && current < PENALTY;
        let min_of = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let src_cpu_min = min_of(&self.machines[src].sums.cpu);
        let src_ram_min = min_of(&self.machines[src].sums.ram);
        let cap = self.problem.machine;
        let headroom = self.problem.headroom;
        let mut best: Option<(f64, usize)> = None;
        for dst in 0..self.machines.len() {
            if dst == src || self.machines[dst].slots.is_empty() {
                continue;
            }
            // Same peak+min capacity bound, applied to the whole source
            // machine being folded into `dst`.
            if feasible_now
                && (self.machines[dst].cpu_peak + src_cpu_min > cap.cpu_cores * headroom
                    || self.machines[dst].ram_peak + src_ram_min > cap.ram_bytes * headroom)
            {
                self.pruned += src_slots.len();
                continue;
            }
            let merged = self.share_with(dst, &src_slots);
            let mig_moves = self.mig_moves_after(&src_slots, src, dst);
            let obj = self.total_with(&[(src, MachineScore::default()), (dst, merged)], mig_moves);
            if obj < current - 1e-12 && best.as_ref().is_none_or(|b| obj < b.0) {
                best = Some((obj, dst));
            }
        }
        best.map(|b| b.1)
    }

    /// Upper bound on what moving `slot` anywhere could gain, valid when
    /// the current state is violation-free. Removing the slot can drop
    /// its source machine's contribution at most to 1 (the mean-exp floor
    /// of a non-empty machine) or to 0 if the machine empties; adding it
    /// elsewhere never *decreases* any destination's contribution (loads
    /// are non-negative, so per-window `exp(clamp(norm))` is monotone);
    /// and the migration term can recover at most one move's cost (when
    /// the slot is currently off its baseline).
    fn single_move_gain_bound(&self, slot: usize) -> f64 {
        let src = self.assignment[slot];
        let ms = &self.machines[src];
        let floor = if ms.slots.len() > 1 { 1.0 } else { 0.0 };
        let mig_relief = match (&self.problem.migration, self.problem.home_of(slot)) {
            (Some(m), Some(home)) if home != src => m.cost_per_move,
            _ => 0.0,
        };
        (ms.share.contrib - floor) + mig_relief
    }

    /// Would placing `slot` on `dst` provably violate a CPU or RAM
    /// capacity constraint? Sound per-machine-peak bound:
    /// `max_t(dst_t + slot_t) ≥ max_t(dst_t) + min_t(slot_t)`, so when
    /// the cached destination peak plus the slot's cached minimum already
    /// exceeds capacity·headroom, the combined series certainly does.
    /// (Disk is non-linear and excluded — the bound stays conservative.)
    fn dst_certainly_violates(&self, slot: usize, dst: usize) -> bool {
        let ms = &self.machines[dst];
        if ms.slots.is_empty() {
            return false;
        }
        let cap = self.problem.machine;
        let headroom = self.problem.headroom;
        ms.cpu_peak + self.series.cpu_min[slot] > cap.cpu_cores * headroom
            || ms.ram_peak + self.series.ram_min[slot] > cap.ram_bytes * headroom
    }
}

/// Outcome of a polish run.
#[derive(Debug, Clone)]
pub struct PolishReport {
    pub assignment: Assignment,
    pub evaluation: Evaluation,
    pub moves: usize,
    pub rounds: usize,
    /// Candidate moves skipped unscored: those the lower-bound pruner
    /// proved could not beat the incumbent, and empty destinations
    /// interchangeable with a lower-indexed empty machine already scored.
    /// Skipping them never changes the result.
    pub pruned: usize,
}

/// Deterministic best-move local search over `k` machines.
pub fn polish(
    problem: &ConsolidationProblem,
    start: &Assignment,
    k: usize,
    max_rounds: usize,
) -> PolishReport {
    polish_observed(problem, start, k, max_rounds, |_| {})
}

/// [`polish`], calling `applied` with the state after every applied single
/// move and merge and once more at exit.
fn polish_observed(
    problem: &ConsolidationProblem,
    start: &Assignment,
    k: usize,
    max_rounds: usize,
    mut applied: impl FnMut(&SearchState),
) -> PolishReport {
    assert!(k >= 1);
    let mut state = SearchState::new(problem, start, k);
    let n_slots = state.series.slots.len();
    let mut moves = 0usize;
    let mut rounds = 0usize;

    for _ in 0..max_rounds {
        rounds += 1;
        let mut improved = false;
        for slot in 0..n_slots {
            // Pinned replica-0 slots stay put.
            if state.is_pinned(slot) {
                continue;
            }
            if let Some(dst) = state.best_move(slot) {
                state.apply_move(slot, dst);
                moves += 1;
                improved = true;
                applied(&state);
            }
        }
        for src in 0..k {
            if let Some(dst) = state.best_merge(src) {
                let src_slots = state.machines[src].slots.clone();
                for &s in &src_slots {
                    state.apply_move(s, dst);
                }
                moves += src_slots.len();
                improved = true;
                applied(&state);
            }
        }
        if !improved {
            break;
        }
    }
    applied(&state);

    let assignment = Assignment::new(state.assignment.clone());
    let evaluation = evaluate(problem, &assignment);
    PolishReport {
        assignment,
        evaluation,
        moves,
        rounds,
        pruned: state.pruned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LinearDiskCombiner, TargetMachine, WorkloadSpec};
    use std::sync::Arc;

    fn problem(n: usize, cpu_each: f64) -> ConsolidationProblem {
        let w = (0..n)
            .map(|i| WorkloadSpec::flat(format!("w{i}"), 3, cpu_each, 2e9, 1e8, 20.0))
            .collect();
        ConsolidationProblem::new(
            w,
            TargetMachine::paper_target(),
            n,
            Arc::new(LinearDiskCombiner::default()),
        )
    }

    #[test]
    fn incremental_objective_matches_full_evaluation() {
        let p = problem(6, 1.5);
        let a = Assignment::new(vec![0, 1, 2, 0, 1, 2]);
        let state = SearchState::new(&p, &a, 3);
        let full = evaluate(&p, &a);
        assert!(
            (state.total_objective() - full.objective).abs() < 1e-9,
            "incremental {} vs full {}",
            state.total_objective(),
            full.objective
        );
    }

    #[test]
    fn incremental_matches_after_moves() {
        let p = problem(5, 2.0);
        let a = Assignment::new(vec![0, 1, 2, 3, 4]);
        let mut state = SearchState::new(&p, &a, 5);
        state.apply_move(0, 3);
        state.apply_move(4, 1);
        let now = Assignment::new(state.assignment.clone());
        let full = evaluate(&p, &now);
        assert!((state.total_objective() - full.objective).abs() < 1e-9);
    }

    #[test]
    fn polish_consolidates_spread_workloads() {
        // 6 × 1-core workloads easily fit one 12-core machine.
        let p = problem(6, 1.0);
        let spread = Assignment::new(vec![0, 1, 2, 3, 4, 5]);
        let report = polish(&p, &spread, 6, 50);
        assert!(report.evaluation.feasible);
        assert_eq!(
            report.assignment.machines_used(),
            1,
            "{:?}",
            report.assignment
        );
        assert!(report.moves >= 5);
    }

    #[test]
    fn polish_repairs_infeasible_start() {
        // 4 × 5-core workloads cannot share one 12-core machine 4-up, but
        // fit pairwise (10 < 0.95 × 12).
        let p = problem(4, 5.0);
        let packed = Assignment::new(vec![0, 0, 0, 0]);
        let report = polish(&p, &packed, 4, 50);
        assert!(report.evaluation.feasible, "polish must repair violations");
        assert_eq!(report.assignment.machines_used(), 2);
    }

    #[test]
    fn polish_respects_pinning() {
        let mut p = problem(3, 1.0);
        p.workloads[1].pinned = Some(2);
        let start = Assignment::new(vec![0, 2, 0]);
        let report = polish(&p, &start, 3, 50);
        assert!(report.evaluation.feasible);
        assert_eq!(report.assignment.machine_of[1], 2);
    }

    #[test]
    fn polish_respects_replica_anti_affinity() {
        let mut p = problem(2, 1.0);
        p.workloads[0].replicas = 2; // slots: (0,r0), (0,r1), (1,r0)
        let start = Assignment::new(vec![0, 0, 1]);
        let report = polish(&p, &start, 3, 50);
        assert!(report.evaluation.feasible);
        assert_ne!(
            report.assignment.machine_of[0],
            report.assignment.machine_of[1]
        );
    }

    #[test]
    fn polish_is_deterministic() {
        let p = problem(8, 2.3);
        let start = Assignment::new((0..8).collect());
        let a = polish(&p, &start, 8, 50);
        let b = polish(&p, &start, 8, 50);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn slot_moves_home_past_a_lower_indexed_empty_machine() {
        // Slot 0 sits beside slot 1 on machine 0; its baseline home is
        // machine 3. Machines 1, 2 and 3 are all empty. A new machine
        // costs about 1 and a move home wins back 2, so home is the only
        // improving destination — and it is not the first empty machine.
        let p = problem(2, 1.0).with_migration(vec![Some(3), Some(0)], 2.0);
        let report = polish(&p, &Assignment::new(vec![0, 0]), 4, 50);
        assert_eq!(report.assignment.machine_of, vec![3, 0]);
        assert_eq!(report.evaluation.moves_from_baseline, 0);
        // Machines 1 and 2 stood in for each other once per round.
        assert!(report.pruned >= 1, "pruned {}", report.pruned);
    }

    #[test]
    fn spare_machines_are_free() {
        // An overloaded two-machine start that has to spread out: how many
        // more empty machines there are to spread into changes nothing.
        let p = problem(8, 4.0);
        let start = Assignment::new(vec![0, 0, 0, 0, 1, 1, 1, 1]);
        let tight = polish(&p, &start, 6, 50);
        let roomy = polish(&p, &start, 6 + 8, 50);
        assert!(tight.evaluation.feasible);
        assert_eq!(tight.assignment, roomy.assignment);
        assert_eq!(tight.rounds, roomy.rounds);
        assert_eq!(tight.moves, roomy.moves);
        assert!(roomy.pruned > tight.pruned);
    }

    #[test]
    fn cached_total_tracks_evaluate_through_every_applied_move() {
        // A violating start priced by a migration term (repaired by single
        // moves), and balanced pairs only merges can consolidate.
        let violating = problem(4, 5.0).with_migration(vec![Some(0); 4], 0.1);
        let pairs = problem(6, 1.0).with_migration(
            vec![Some(0), Some(0), Some(1), None, Some(2), Some(2)],
            0.05,
        );
        for (p, start, k, machines) in [
            (&violating, vec![0, 0, 0, 0], 4, 2),
            (&pairs, vec![0, 0, 1, 1, 2, 2], 3, 1),
        ] {
            let mut checks = 0;
            let report = polish_observed(p, &Assignment::new(start), k, 50, |state| {
                let full = evaluate(p, &Assignment::new(state.assignment.clone()));
                assert!(
                    (state.total_objective() - full.objective).abs() < 1e-9,
                    "cached {} vs full {}",
                    state.total_objective(),
                    full.objective
                );
                checks += 1;
            });
            assert!(checks >= 2, "no move was applied");
            assert!(report.evaluation.feasible);
            assert_eq!(report.assignment.machines_used(), machines);
        }
    }
}
