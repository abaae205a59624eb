//! The polish the stamp caches and the give-up bound replaced, kept as a
//! bit-exact reference: every candidate scored from a copy of its
//! machine's sums plus (or minus) the moving slots, to the last window,
//! with co-location counted over the whole occupant list. A seeded
//! property test holds `polish` to it: the same plan, moves, rounds and
//! objective bits, and a `pruned` count that abandoned candidates can only
//! raise.

use super::PolishReport;
use crate::objective::{
    evaluate, migration_delta, score_machine, total_objective, MachineScore, MachineSums,
    GIVE_UP_STRIDE, PENALTY,
};
use crate::problem::{
    Assignment, ConsolidationProblem, DiskCombiner, LinearDiskCombiner, SlotSeries, TargetMachine,
    WorkloadSpec,
};
use kairos_types::SplitMix64;
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
    /// Candidates skipped unscored.
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
        self.sums.clone_from(&from.sums);
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
        self.sums.clone_from(&to.sums);
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
            if self.machines[dst].slots.is_empty() && home != Some(dst) {
                if empty_scored {
                    self.pruned += 1;
                    continue;
                }
                empty_scored = true;
            }
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
    /// all of `src`'s slots are folded into it, if any.
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
    /// the current state is violation-free.
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
    /// capacity constraint?
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

/// Deterministic best-move local search over `k` machines.
fn polish(
    problem: &ConsolidationProblem,
    start: &Assignment,
    k: usize,
    max_rounds: usize,
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
            if state.is_pinned(slot) {
                continue;
            }
            if let Some(dst) = state.best_move(slot) {
                state.apply_move(slot, dst);
                moves += 1;
                improved = true;
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
            }
        }
        if !improved {
            break;
        }
    }

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

/// A disk that saturates sooner the larger the working set: the
/// non-linear combiner shape the solver treats as a black box.
struct Saturating;

impl DiskCombiner for Saturating {
    fn utilization(&self, ws_bytes: f64, rows_per_sec: f64) -> f64 {
        rows_per_sec / (9_000.0 - ws_bytes / 1e7).max(100.0)
    }
}

/// One workload's series over `windows` windows around a level drawn from
/// `lo..hi`: flat, or wandering by up to ±40 % a window.
fn series(rng: &mut SplitMix64, windows: usize, (lo, hi): (f64, f64), flat: bool) -> Vec<f64> {
    let level = rng.next_in(lo, hi);
    (0..windows)
        .map(|_| {
            if flat {
                level
            } else {
                level * rng.next_in(0.6, 1.4)
            }
        })
        .collect()
}

/// A seeded problem of 2–12 workloads: replicas, pins, anti-affinity pairs,
/// identical twins (exact ties), either disk combiner and, half the time,
/// a migration baseline over up to `slots + 2` machines.
fn random_problem(rng: &mut SplitMix64, windows: usize) -> ConsolidationProblem {
    let n = 2 + rng.next_range(11) as usize;
    let mut workloads: Vec<WorkloadSpec> = Vec::with_capacity(n);
    for i in 0..n {
        let mut w = if i > 0 && rng.next_f64() < 0.15 {
            workloads[i - 1].clone()
        } else {
            let flat = rng.next_f64() < 0.3;
            let mut w = WorkloadSpec::flat(format!("w{i}"), 0, 0.0, 0.0, 0.0, 0.0);
            w.cpu = series(rng, windows, (0.1, 4.0), flat);
            w.ram = series(rng, windows, (1e9, 30e9), flat);
            w.ws = series(rng, windows, (1e8, 2e10), flat);
            w.rate = series(rng, windows, (10.0, 4_000.0), flat);
            w
        };
        w.name = format!("w{i}");
        w.replicas = if rng.next_f64() < 0.2 {
            2 + rng.next_range(2) as u32
        } else {
            1
        };
        w.pinned = (rng.next_f64() < 0.1).then(|| rng.next_range(4) as usize);
        workloads.push(w);
    }
    let slots: usize = workloads.iter().map(|w| w.replicas as usize).sum();
    let disk: Arc<dyn DiskCombiner> = if rng.next_f64() < 0.5 {
        Arc::new(LinearDiskCombiner::default())
    } else {
        Arc::new(Saturating)
    };
    let max_machines = 1 + rng.next_range(slots as u64 + 2) as usize;
    let pairs = (0..rng.next_range(3))
        .map(|_| {
            (
                rng.next_range(n as u64) as usize,
                rng.next_range(n as u64) as usize,
            )
        })
        .filter(|(a, b)| a != b)
        .collect();
    let problem =
        ConsolidationProblem::new(workloads, TargetMachine::paper_target(), max_machines, disk)
            .with_anti_affinity(pairs);
    if rng.next_f64() < 0.5 {
        let baseline = (0..slots)
            .map(|_| (rng.next_f64() < 0.85).then(|| rng.next_range(slots as u64 + 2) as usize))
            .collect();
        problem.with_migration(baseline, rng.next_in(0.05, 0.6))
    } else {
        problem
    }
}

#[test]
fn polish_matches_the_reference_bit_for_bit() {
    let mut rng = SplitMix64::from_env(0x9011_5EED);
    let (mut feasible_starts, mut infeasible_starts, mut abandoning) = (0, 0, 0);
    for case in 0..240 {
        let windows = [12, 40, 288][case % 3];
        let problem = random_problem(&mut rng, windows);
        let slots = problem.slot_series().slots.len();
        let k = 1 + rng.next_range(slots as u64 + 2) as usize;
        // Stacked on one machine (the DIRECT centre's shape), or scattered
        // over up to k + 2 machines (polish clamps what is out of range).
        let start = Assignment::new(if rng.next_f64() < 0.3 {
            vec![rng.next_range(k as u64) as usize; slots]
        } else {
            (0..slots)
                .map(|_| rng.next_range(k as u64 + 2) as usize)
                .collect()
        });
        let max_rounds = 1 + rng.next_range(40) as usize;
        let fast = super::polish(&problem, &start, k, max_rounds);
        let slow = polish(&problem, &start, k, max_rounds);
        let case = format!("case {case}: {windows} windows, {slots} slots, k {k}");
        assert_eq!(fast.assignment, slow.assignment, "{case}");
        assert_eq!(fast.moves, slow.moves, "{case}");
        assert_eq!(fast.rounds, slow.rounds, "{case}");
        assert_eq!(
            fast.evaluation.objective.to_bits(),
            slow.evaluation.objective.to_bits(),
            "{case}"
        );
        // Only an abandoned candidate adds to `pruned`, and a horizon no
        // longer than one stride never offers to give up.
        assert!(fast.pruned >= slow.pruned, "{case}");
        if windows <= GIVE_UP_STRIDE {
            assert_eq!(fast.pruned, slow.pruned, "{case}");
        }
        abandoning += usize::from(fast.pruned > slow.pruned);
        if evaluate(&problem, &start).feasible {
            feasible_starts += 1;
        } else {
            infeasible_starts += 1;
        }
    }
    assert!(abandoning > 0, "no candidate was ever abandoned");
    assert!(feasible_starts > 0 && infeasible_starts > 0);
}
