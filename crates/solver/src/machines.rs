//! The one way a search holds a placement (§5's objective and §6's search
//! both read it machine by machine). `polish` and `evaluate` are
//! [`Machines`]' clients; each scores machines itself, in its own summation
//! order, and keeps what only it needs beside the table.

use crate::objective::{migration_delta, total_objective, MachineScore};
use crate::problem::{ConsolidationProblem, Slot};
use std::ops::Index;

#[derive(Default)]
pub(crate) struct Machine {
    /// Ascending after [`Machines::place`]; a move takes a slot out by
    /// `swap_remove` and appends it at the destination.
    pub slots: Vec<usize>,
    /// Its share of the objective, as its client last scored it.
    pub share: MachineScore,
    /// Bumped whenever the machine gains or loses a slot.
    pub stamp: u64,
}

/// Per machine: slot list, share and stamp. For the whole placement:
/// `machine_of`, the placement violation and the moves.
#[derive(Default)]
pub(crate) struct Machines {
    machines: Vec<Machine>,
    pub machine_of: Vec<usize>,
    /// Pin violations, then machine-count violations in machine order.
    pub placement: f64,
    /// Slots off the migration baseline (0 without a baseline).
    pub moves: usize,
}

/// Machine-count violation of using machine `m` at all.
fn overflow_violation(problem: &ConsolidationProblem, m: usize) -> f64 {
    m.checked_sub(problem.max_machines)
        .map_or(0.0, |over| 1.0 + over as f64)
}

/// Pin violation of `slot` on `machine`.
fn pin_violation(problem: &ConsolidationProblem, slot: Slot, machine: usize) -> f64 {
    f64::from(problem.pin_of(slot).is_some_and(|pin| pin != machine))
}

impl Machines {
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    pub fn set_share(&mut self, m: usize, share: MachineScore) {
        self.machines[m].share = share;
    }

    /// Make `machine_of` the placement, over `k` machines or as many as it
    /// uses, whichever is more. Every share is zero and every stamp 0.
    pub fn place(&mut self, problem: &ConsolidationProblem, machine_of: &[usize], k: usize) {
        let slots = &problem.slot_series().slots;
        let machines = machine_of.iter().max().map_or(0, |m| m + 1).max(k);
        self.machines.truncate(machines);
        self.machines.resize_with(machines, Machine::default);
        for machine in &mut self.machines {
            machine.slots.clear();
            (machine.share, machine.stamp) = (MachineScore::default(), 0);
        }
        self.machine_of.clear();
        self.machine_of.extend_from_slice(machine_of);
        self.placement = 0.0;
        for (s, &m) in machine_of.iter().enumerate() {
            self.machines[m].slots.push(s);
            self.placement += pin_violation(problem, slots[s], m);
        }
        for m in 0..machines {
            if !self.machines[m].slots.is_empty() {
                self.placement += overflow_violation(problem, m);
            }
        }
        self.moves = problem.moves_from_baseline(machine_of);
    }

    /// Move `slot` to machine `dst`, not its own: the lists, the placement
    /// terms and both machines' stamps follow. Shares are the client's to
    /// refresh.
    pub fn move_slot(&mut self, problem: &ConsolidationProblem, slot: usize, dst: usize) {
        let (src, on) = (self.machine_of[slot], problem.slot_series().slots[slot]);
        debug_assert_ne!(src, dst, "a move to the slot's own machine");
        self.placement += pin_violation(problem, on, dst) - pin_violation(problem, on, src);
        let from = &mut self.machines[src].slots;
        let at = from.iter().position(|&s| s == slot);
        from.swap_remove(at.expect("a slot is listed on its machine"));
        if from.is_empty() {
            self.placement -= overflow_violation(problem, src);
        }
        let to = &mut self.machines[dst].slots;
        if to.is_empty() {
            self.placement += overflow_violation(problem, dst);
        }
        to.push(slot);
        self.moves = (self.moves as isize + migration_delta(problem, slot, src, dst)) as usize;
        self.machine_of[slot] = dst;
        self.machines[src].stamp += 1;
        self.machines[dst].stamp += 1;
    }

    /// `total_objective` in machine order, each machine in `subs` holding
    /// the share given there instead of its own: `(objective, violation)`.
    pub fn total_with(
        &self,
        problem: &ConsolidationProblem,
        placement: f64,
        subs: &[(usize, MachineScore)],
        moves: usize,
    ) -> (f64, f64) {
        let shares = self.machines.iter().enumerate().map(|(m, machine)| {
            let sub = subs.iter().find(|sub| sub.0 == m);
            sub.map_or(machine.share, |sub| sub.1)
        });
        total_objective(problem, placement, shares, moves)
    }
}

impl Index<usize> for Machines {
    type Output = Machine;

    fn index(&self, m: usize) -> &Machine {
        &self.machines[m]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{evaluate, score_machine, MachineSums};
    use crate::problem::{Assignment, LinearDiskCombiner, TargetMachine, WorkloadSpec};
    use kairos_types::SplitMix64;
    use std::sync::Arc;

    /// 2–9 workloads over 1–30 windows, some replicated, some pinned to a
    /// machine in 0..4, workloads 0 and 1 anti-affine, 1–4 machines allowed
    /// and a migration baseline over 0..6 with `None` entries.
    fn random_problem(rng: &mut SplitMix64) -> ConsolidationProblem {
        let n = 2 + rng.next_range(8) as usize;
        let windows = 1 + rng.next_range(30) as usize;
        let mut series = |lo, hi| (0..windows).map(|_| rng.next_in(lo, hi)).collect();
        let mut workloads: Vec<WorkloadSpec> = (0..n)
            .map(|i| {
                let mut w = WorkloadSpec::flat(format!("w{i}"), 0, 0.0, 0.0, 0.0, 0.0);
                (w.cpu, w.ram) = (series(0.1, 5.0), series(1e9, 40e9));
                (w.ws, w.rate) = (series(1e8, 2e10), series(10.0, 3_000.0));
                w
            })
            .collect();
        for w in &mut workloads {
            w.replicas = 1 + (rng.next_range(4) == 0) as u32 * (1 + rng.next_range(2) as u32);
            w.pinned = (rng.next_range(5) == 0).then(|| rng.next_range(4) as usize);
        }
        let max_machines = 1 + rng.next_range(4) as usize;
        let disk = Arc::new(LinearDiskCombiner::default());
        let p =
            ConsolidationProblem::new(workloads, TargetMachine::paper_target(), max_machines, disk)
                .with_anti_affinity(vec![(0, 1)]);
        let baseline = (0..p.slots().len())
            .map(|_| (rng.next_range(4) > 0).then(|| rng.next_range(6) as usize))
            .collect();
        p.with_migration(baseline, rng.next_in(0.05, 0.5))
    }

    /// The objective of `table`'s placement, each machine summed from zero
    /// over its list.
    fn scored_from_zero(problem: &ConsolidationProblem, table: &mut Machines) -> f64 {
        let series = problem.slot_series();
        let mut sums = MachineSums::default();
        for m in 0..table.len() {
            sums.sum_of(series, &table[m].slots);
            let share = score_machine(problem, &series.slots, &table[m].slots, &sums, |_| {});
            table.set_share(m, share);
        }
        table
            .total_with(problem, table.placement, &[], table.moves)
            .0
    }

    #[test]
    fn every_move_leaves_the_table_a_fresh_place_would_build() {
        let mut rng = SplitMix64::from_env(0x7AB1_E5ED);
        let (mut placement_moved, mut moves_moved) = (0, 0);
        for case in 0..150 {
            let p = random_problem(&mut rng);
            let slots = &p.slot_series().slots;
            let n = slots.len();
            let k = 1 + rng.next_range(7) as usize;
            let start: Vec<usize> = (0..n).map(|_| rng.next_range(k as u64) as usize).collect();
            let mut table = Machines::default();
            table.place(&p, &start, k);
            for step in 0..40 {
                let slot = rng.next_range(n as u64) as usize;
                let (src, dst) = (table.machine_of[slot], rng.next_range(k as u64) as usize);
                if src == dst {
                    continue;
                }
                let stamps: Vec<u64> = (0..k).map(|m| table[m].stamp).collect();
                let before = (table.placement, table.moves);
                table.move_slot(&p, slot, dst);
                let at = format!("case {case} step {step}: slot {slot} {src} -> {dst}");

                let mut seen = vec![0; n];
                for m in 0..k {
                    let touched = u64::from(m == src || m == dst);
                    assert_eq!(table[m].stamp, stamps[m] + touched, "{at}: stamp of {m}");
                    for &s in &table[m].slots {
                        seen[s] += 1;
                        assert_eq!(table.machine_of[s], m, "{at}: slot {s} listed on {m}");
                    }
                }
                assert!(seen.iter().all(|&on| on == 1), "{at}: {seen:?}");

                let mut fresh = Machines::default();
                fresh.place(&p, &table.machine_of, k);
                assert_eq!(table.placement.to_bits(), fresh.placement.to_bits(), "{at}");
                assert_eq!(table.moves, fresh.moves, "{at}");
                let exact = evaluate(&p, &Assignment::new(table.machine_of.clone()));
                let total = scored_from_zero(&p, &mut fresh);
                assert_eq!(total.to_bits(), exact.objective.to_bits(), "{at}");
                placement_moved += usize::from(table.placement != before.0);
                moves_moved += usize::from(table.moves != before.1);
            }
        }
        assert!(placement_moved > 100 && moves_moved > 100);
    }
}
