//! Local-search polish with incremental evaluation.
//!
//! §6: once K′ is fixed, "this allows us to parametrize the DIRECT
//! algorithm in favor of local searches to increase the quality of the
//! final solution". We complement DIRECT's coarse global structure with a
//! deterministic best-move hill climber over slot→machine moves and
//! whole-machine merges.
//!
//! The placement is a machine table (`machines::Machines`); beside it
//! polish keeps each machine's summed series, its peaks and three caches.
//! A candidate is scored **without touching the state**: a move changes
//! two machines, and its objective is the table's in-order machine sum
//! with their shares substituted, each from the window kernel
//! (`objective::score_windows`) fed a machine's cached sums minus the
//! slot, or plus the moving slots in list order (the additions
//! `MachineSums::add` on a copy would make: the same bits), and its cached
//! co-location count adjusted by the moving slots' pairs (integers). Of
//! the empty machines only the lowest-indexed (they tie, and a later
//! candidate must win by 1e-12) and the slot's baseline home are scored.
//!
//! **What no move has touched is not scored again.** A move bumps the
//! table's stamps of the two machines it changes; three dense caches, fresh
//! per polish, keep finished scores at their stamps: a destination with a
//! slot added (`slot × k`), a slot's machine without it (per slot, at
//! machine and stamp), a merge (`k × k`, at both stamps). Same stamp, same
//! slots and sums: the same score.
//!
//! **A candidate that cannot win is abandoned** once the objective with
//! its partial share (offered by the kernel every fixed stride of windows)
//! reaches what the move had to beat: `best − 1e-12`, or for a merge the
//! lower of `current − 1e-12` and the best merge so far. That is exact: no
//! part of a partial share exceeds the finished one's (non-negative terms,
//! monotone rounding), `total_objective` is monotone in every part, and a
//! NaN reaches no threshold. Abandoned candidates are not kept.
//!
//! Per-machine extrema (peak CPU/RAM over the horizon) feed a sound
//! **lower-bound pruner**: candidate moves whose best-case objective
//! delta provably cannot beat the incumbent are skipped without touching
//! the load series. No skip changes the chosen move.

use crate::machines::Machines;
use crate::objective::{
    colocation_violations, evaluate, migration_delta, score_machine, score_windows, Evaluation,
    MachineScore, MachineSums, PENALTY,
};
use crate::problem::{Assignment, ConsolidationProblem, SlotSeries};

#[cfg(test)]
mod reference;

/// The stamp no machine reaches: an empty cache entry.
const NEVER: u64 = u64::MAX;

/// `cache[i]`'s score, if it was kept at `at`.
fn kept<K: PartialEq>(cache: &[(K, MachineScore)], i: usize, at: K) -> Option<MachineScore> {
    let (key, score) = &cache[i];
    (*key == at).then_some(*score)
}

struct SearchState<'a> {
    problem: &'a ConsolidationProblem,
    /// Shared slot cache; the slot list itself is `series.slots`.
    series: &'a SlotSeries,
    /// The placement: slot lists, shares, stamps, moves off the baseline.
    table: Machines,
    /// Per machine: its slots' summed series, added to and taken from as
    /// slots move.
    sums: Vec<MachineSums>,
    /// Per machine: peak CPU / RAM over the horizon (pruning bounds).
    peaks: Vec<(f64, f64)>,
    /// Candidates skipped or abandoned (see [`PolishReport::pruned`]).
    pruned: usize,
    /// Kept scores: `dst` with `slot` added at `slot * k + dst`, `slot`'s
    /// machine without it at `slot`, `dst` with all of `src` at `src * k + dst`.
    with_slot: Vec<(u64, MachineScore)>,
    without: Vec<((usize, u64), MachineScore)>,
    merged: Vec<((u64, u64), MachineScore)>,
    /// The slots of the merge being applied.
    moving: Vec<usize>,
}

impl<'a> SearchState<'a> {
    fn new(problem: &'a ConsolidationProblem, start: &Assignment, k: usize) -> SearchState<'a> {
        let series = problem.slot_series();
        let n_slots = series.slots.len();
        // Out-of-range machines are clamped and pins forced.
        let mut machine_of = start.machine_of.clone();
        for (m, &slot) in machine_of.iter_mut().zip(&series.slots) {
            let pin = problem.pin_of(slot).filter(|&pin| pin < k);
            *m = pin.unwrap_or((*m).min(k - 1));
        }
        let mut table = Machines::default();
        table.place(problem, &machine_of, k);
        let none = MachineScore::default();
        let mut state = SearchState {
            problem,
            series,
            table,
            sums: vec![MachineSums::default(); k],
            peaks: vec![(0.0, 0.0); k],
            pruned: 0,
            with_slot: vec![(NEVER, none); n_slots * k],
            without: vec![((0, NEVER), none); n_slots],
            merged: vec![((NEVER, NEVER), none); k * k],
            moving: Vec::new(),
        };
        for m in 0..k {
            state.sums[m].sum_of(series, &state.table[m].slots);
            state.refresh(m);
        }
        state
    }

    /// Recompute the share and peaks of machine `m` from its sums.
    fn refresh(&mut self, m: usize) {
        let (occupants, sums) = (&self.table[m].slots, &self.sums[m]);
        let share = score_machine(self.problem, &self.series.slots, occupants, sums, |_| {});
        // An empty machine's sums are all zero, and so are its peaks.
        let peak = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        self.peaks[m] = (peak(&sums.cpu), peak(&sums.ram));
        self.table.set_share(m, share);
    }

    /// The objective with `subs` substituted and `moves` slots off the
    /// baseline. No placement term: pins are forced, machines counted by `k`.
    fn total_with(&self, subs: &[(usize, MachineScore)], moves: usize) -> f64 {
        self.table.total_with(self.problem, 0.0, subs, moves).0
    }

    fn total_objective(&self) -> f64 {
        self.total_with(&[], self.table.moves)
    }

    fn is_pinned(&self, slot: usize) -> bool {
        self.problem.pin_of(self.series.slots[slot]).is_some()
    }

    /// Apply `slot → dst`, updating sums and shares.
    fn apply_move(&mut self, slot: usize, dst: usize) {
        let src = self.table.machine_of[slot];
        self.table.move_slot(self.problem, slot, dst);
        if self.table[src].slots.is_empty() {
            // No subtraction residue: every empty machine is the same.
            self.sums[src].clear(self.problem.windows);
        } else {
            self.sums[src].sub(self.series, slot);
        }
        self.sums[dst].add(self.series, slot);
        self.refresh(src);
        self.refresh(dst);
    }

    /// Share of `slot`'s machine once the slot has left it: kept, or scored
    /// from the machine's sums minus the slot's series.
    fn share_without(&mut self, slot: usize) -> MachineScore {
        let src = self.table.machine_of[slot];
        let from = &self.table[src];
        let at = (src, from.stamp);
        if let Some(score) = kept(&self.without, slot, at) {
            return score;
        }
        let (problem, series) = (self.problem, self.series);
        let score = if from.slots.len() == 1 {
            MachineScore::default()
        } else {
            let mut colocation = from.share.colocation;
            for &b in from.slots.iter().filter(|&&b| b != slot) {
                colocation -= colocation_violations(problem, &series.slots, &[slot, b]);
            }
            let (sums, first) = (&self.sums[src], slot * problem.windows);
            let sum_at = |t: usize| {
                let i = first + t;
                [
                    sums.cpu[t] - series.cpu[i],
                    sums.ram[t] - series.ram[i],
                    sums.ws[t] - series.ws[i],
                    sums.rate[t] - series.rate[i],
                ]
            };
            score_windows(problem, colocation, sum_at, |_| {}, |_| false)
                .expect("a score that never gives up reaches its last window")
        };
        self.without[slot] = (at, score);
        score
    }

    /// Share of machine `dst` once `extra` (slots of another machine, in
    /// the order they would be moved) have joined it, or `None` once
    /// `give_up` accepts a partial share.
    fn share_with(
        &self,
        dst: usize,
        extra: &[usize],
        give_up: impl FnMut(MachineScore) -> bool,
    ) -> Option<MachineScore> {
        let (problem, series) = (self.problem, self.series);
        let to = &self.table[dst];
        let slots = &series.slots;
        let mut colocation = to.share.colocation + colocation_violations(problem, slots, extra);
        for &a in extra {
            for &b in &to.slots {
                colocation += colocation_violations(problem, slots, &[a, b]);
            }
        }
        let (sums, windows) = (&self.sums[dst], problem.windows);
        let sum_at = |t: usize| {
            let mut sum = [sums.cpu[t], sums.ram[t], sums.ws[t], sums.rate[t]];
            for &s in extra {
                let i = s * windows + t;
                sum[0] += series.cpu[i];
                sum[1] += series.ram[i];
                sum[2] += series.ws[i];
                sum[3] += series.rate[i];
            }
            sum
        };
        score_windows(problem, colocation, sum_at, |_| {}, give_up)
    }

    /// The give-up test for a partial share (`subs[1]`): does the objective
    /// with `subs` already reach `cutoff`? A share with no violation yet is
    /// passed over unsummed: only its last windows' `e^load` could tip it,
    /// and summing every machine each stride costs more than that saves.
    fn loses(&self, subs: [(usize, MachineScore); 2], mig_moves: usize, cutoff: f64) -> bool {
        let partial = subs[1].1;
        partial.excess + partial.colocation > 0.0 && self.total_with(&subs, mig_moves) >= cutoff
    }

    /// Moves off the baseline after moving `slots` from `src` to `dst`.
    fn mig_moves_after(&self, slots: &[usize], src: usize, dst: usize) -> usize {
        let delta = |&s: &usize| migration_delta(self.problem, s, src, dst);
        (self.table.moves as isize + slots.iter().map(delta).sum::<isize>()) as usize
    }

    /// The machine that strictly improves the objective most when `slot`
    /// alone moves to it, if any.
    fn best_move(&mut self, slot: usize) -> Option<usize> {
        let k = self.table.len();
        let current = self.total_objective();
        let src = self.table.machine_of[slot];
        // Lower-bound pruning (sound only from a violation-free state —
        // below PENALTY, as every other term is non-negative — where any
        // new violation costs ≥ PENALTY): if the best case — source
        // contribution collapsing to its floor, destinations absorbing the
        // slot for free, one migration move recovered — cannot improve on
        // the incumbent, no destination needs scoring.
        let feasible_now = current < PENALTY;
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
            if self.table[dst].slots.is_empty() && home != Some(dst) {
                if empty_scored {
                    self.pruned += 1;
                    continue;
                }
                empty_scored = true;
            }
            // Capacity pruning: a move certainly infeasible cannot beat a
            // feasible incumbent.
            let mins = (self.series.cpu_min[slot], self.series.ram_min[slot]);
            if feasible_now && !self.table[dst].slots.is_empty() && self.certainly_over(dst, mins) {
                self.pruned += 1;
                continue;
            }
            let mig_moves = self.mig_moves_after(&[slot], src, dst);
            let (i, at) = (slot * k + dst, self.table[dst].stamp);
            let with = match kept(&self.with_slot, i, at) {
                Some(with) => with,
                None => {
                    let cutoff = best.0 - 1e-12;
                    let give_up = |p| self.loses([(src, without), (dst, p)], mig_moves, cutoff);
                    let Some(with) = self.share_with(dst, &[slot], give_up) else {
                        self.pruned += 1;
                        continue;
                    };
                    self.with_slot[i] = (at, with);
                    with
                }
            };
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
        let k = self.table.len();
        let n = self.table[src].slots.len();
        if n == 0 || self.table[src].slots.iter().any(|&s| self.is_pinned(s)) {
            return None;
        }
        let current = self.total_objective();
        let feasible_now = current < PENALTY;
        let min_of = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let src_mins = (min_of(&self.sums[src].cpu), min_of(&self.sums[src].ram));
        let mut best: Option<(f64, usize)> = None;
        for dst in 0..k {
            if dst == src || self.table[dst].slots.is_empty() {
                continue;
            }
            // The same capacity bound, for the whole source machine.
            if feasible_now && self.certainly_over(dst, src_mins) {
                self.pruned += n;
                continue;
            }
            let src_slots = &self.table[src].slots;
            let mig_moves = self.mig_moves_after(src_slots, src, dst);
            let emptied = (src, MachineScore::default());
            let i = src * k + dst;
            let at = (self.table[src].stamp, self.table[dst].stamp);
            let merged = match kept(&self.merged, i, at) {
                Some(merged) => merged,
                None => {
                    let cutoff = best.map_or(current - 1e-12, |b| (current - 1e-12).min(b.0));
                    let give_up = |p| self.loses([emptied, (dst, p)], mig_moves, cutoff);
                    let Some(merged) = self.share_with(dst, src_slots, give_up) else {
                        self.pruned += n;
                        continue;
                    };
                    self.merged[i] = (at, merged);
                    merged
                }
            };
            let obj = self.total_with(&[emptied, (dst, merged)], mig_moves);
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
        let src = self.table.machine_of[slot];
        let ms = &self.table[src];
        let floor = if ms.slots.len() > 1 { 1.0 } else { 0.0 };
        let mig_relief = match (&self.problem.migration, self.problem.home_of(slot)) {
            (Some(m), Some(home)) if home != src => m.cost_per_move,
            _ => 0.0,
        };
        (ms.share.contrib - floor) + mig_relief
    }

    /// Would machine `dst` provably exceed CPU or RAM capacity with a load
    /// added whose minima over the horizon are `mins`? Sound peak bound:
    /// `max_t(dst_t + x_t) ≥ max_t(dst_t) + min_t(x_t)`, so when the
    /// cached peak plus the minimum already exceeds capacity·headroom, the
    /// combined series certainly does. (Disk is non-linear and excluded —
    /// the bound stays conservative.)
    fn certainly_over(&self, dst: usize, (cpu_min, ram_min): (f64, f64)) -> bool {
        let (cap, headroom) = (self.problem.machine, self.problem.headroom);
        let (cpu_peak, ram_peak) = self.peaks[dst];
        cpu_peak + cpu_min > cap.cpu_cores * headroom
            || ram_peak + ram_min > cap.ram_bytes * headroom
    }
}

/// Outcome of a polish run.
#[derive(Debug, Clone)]
pub struct PolishReport {
    pub assignment: Assignment,
    pub evaluation: Evaluation,
    pub moves: usize,
    pub rounds: usize,
    /// Candidate moves not scored to the end: those the lower-bound pruner
    /// proved could not beat the incumbent, empty destinations
    /// interchangeable with a lower-indexed empty one already scored, and
    /// those abandoned part-way, once the objective with their partial
    /// score reached what they had to beat (a merge counts once per slot).
    /// Skipping them never changes the result; reused scores do not count.
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
                let mut moving = std::mem::take(&mut state.moving);
                moving.clone_from(&state.table[src].slots);
                for &s in &moving {
                    state.apply_move(s, dst);
                }
                moves += moving.len();
                state.moving = moving;
                improved = true;
                applied(&state);
            }
        }
        if !improved {
            break;
        }
    }
    applied(&state);

    let assignment = Assignment::new(state.table.machine_of.clone());
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
        let now = Assignment::new(state.table.machine_of.clone());
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
                let full = evaluate(p, &Assignment::new(state.table.machine_of.clone()));
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
