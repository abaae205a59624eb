//! Migration planning: turn "placement A → placement B" into an ordered
//! move list every intermediate state of which respects capacity.
//!
//! The solver guarantees the *final* placement is feasible; it says
//! nothing about the path. Executing moves in a bad order can transiently
//! overload a destination (move the big tenant in before the one vacating
//! made room). The planner simulates the fleet's per-window load ledger
//! and schedules each move only when its destination can absorb it; if a
//! circular dependency leaves no safe move (A↔B swaps with no spare
//! headroom), the least-damaging move is forced and flagged so operators
//! can see exactly which step briefly exceeded the ceiling.

use kairos_solver::{Assignment, ConsolidationProblem};

/// One relocation (or initial placement) of one replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Move {
    pub workload: String,
    pub replica: u32,
    /// Slot index within the problem this plan was built from.
    pub slot: usize,
    /// `None` = new arrival being provisioned, not migrated.
    pub from: Option<usize>,
    pub to: usize,
}

impl Move {
    pub fn is_provision(&self) -> bool {
        self.from.is_none()
    }
}

/// One scheduled step of the plan.
#[derive(Debug, Clone)]
pub struct MigrationStep {
    pub mv: Move,
    /// True when no capacity-safe order existed and this step was forced
    /// through a transient overload.
    pub forced: bool,
    /// Worst per-resource utilization on the destination machine across
    /// the horizon, *after* this step (fractions of capacity; > headroom
    /// only on forced steps).
    pub dest_peak_utilization: f64,
}

/// The ordered, capacity-checked plan.
#[derive(Debug, Clone, Default)]
pub struct MigrationPlan {
    pub steps: Vec<MigrationStep>,
    /// True when every step respected the capacity ceiling.
    pub capacity_safe: bool,
}

impl MigrationPlan {
    pub fn moves(&self) -> usize {
        self.steps.iter().filter(|s| !s.mv.is_provision()).count()
    }

    pub fn provisions(&self) -> usize {
        self.steps.iter().filter(|s| s.mv.is_provision()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Per-machine per-window load ledger used to validate intermediate
/// states (same combination rules as `solver::objective`, without the
/// objective machinery).
struct Ledger<'a> {
    problem: &'a ConsolidationProblem,
    /// [machine][window] sums.
    cpu: Vec<Vec<f64>>,
    ram: Vec<Vec<f64>>,
    ws: Vec<Vec<f64>>,
    rate: Vec<Vec<f64>>,
}

impl<'a> Ledger<'a> {
    fn new(problem: &'a ConsolidationProblem, machines: usize) -> Ledger<'a> {
        let w = problem.windows;
        Ledger {
            problem,
            cpu: vec![vec![0.0; w]; machines],
            ram: vec![vec![0.0; w]; machines],
            ws: vec![vec![0.0; w]; machines],
            rate: vec![vec![0.0; w]; machines],
        }
    }

    fn apply(&mut self, workload: usize, machine: usize, sign: f64) {
        let w = &self.problem.workloads[workload];
        for t in 0..self.problem.windows {
            self.cpu[machine][t] += sign * w.cpu_at(t);
            self.ram[machine][t] += sign * w.ram_at(t);
            self.ws[machine][t] += sign * w.ws_at(t);
            self.rate[machine][t] += sign * w.rate_at(t);
        }
    }

    /// Peak utilization fraction on `machine` if `workload` were added.
    fn peak_with(&self, workload: usize, machine: usize) -> f64 {
        let p = self.problem;
        let wl = &p.workloads[workload];
        let mut peak = 0.0f64;
        for t in 0..p.windows {
            let cpu = (self.cpu[machine][t] + wl.cpu_at(t)) / p.machine.cpu_cores;
            let ram = (self.ram[machine][t] + wl.ram_at(t)) / p.machine.ram_bytes;
            let disk = p.disk.utilization(
                self.ws[machine][t] + wl.ws_at(t),
                self.rate[machine][t] + wl.rate_at(t),
            );
            peak = peak.max(cpu).max(ram).max(disk);
        }
        peak
    }
}

/// Diff `from` (incumbent, `None` per new slot) against `to` (the solved
/// target) and order the moves capacity-safely. Workloads that left the
/// fleet are assumed retired before migration starts — they are not part
/// of `problem` and never occupy ledger capacity.
pub fn plan_migration(
    problem: &ConsolidationProblem,
    from: &[Option<usize>],
    to: &Assignment,
) -> MigrationPlan {
    let slots = &problem.slot_series().slots;
    assert_eq!(from.len(), slots.len(), "baseline must cover every slot");
    assert_eq!(
        to.machine_of.len(),
        slots.len(),
        "target must cover every slot"
    );
    let machines = problem
        .max_machines
        .max(from.iter().flatten().copied().max().map_or(0, |m| m + 1))
        .max(to.machine_of.iter().copied().max().unwrap_or(0) + 1);

    // Seed the ledger with every slot that stays put, plus movers at
    // their *source* (they occupy it until their step runs).
    let mut ledger = Ledger::new(problem, machines);
    let mut pending: Vec<Move> = Vec::new();
    for (s, slot) in slots.iter().enumerate() {
        let dst = to.machine_of[s];
        match from[s] {
            Some(src) if src == dst => ledger.apply(slot.workload, src, 1.0),
            src => {
                if let Some(src) = src {
                    ledger.apply(slot.workload, src, 1.0);
                }
                pending.push(Move {
                    workload: problem.workloads[slot.workload].name.clone(),
                    replica: slot.replica,
                    slot: s,
                    from: src,
                    to: dst,
                });
            }
        }
    }

    let headroom = problem.headroom;
    let mut steps = Vec::with_capacity(pending.len());
    while !pending.is_empty() {
        // Pass: schedule every move whose destination currently accepts it.
        let mut scheduled_any = false;
        let mut i = 0;
        while i < pending.len() {
            let mv = &pending[i];
            let wl = slots[mv.slot].workload;
            let peak = ledger.peak_with(wl, mv.to);
            if peak <= headroom {
                if let Some(src) = mv.from {
                    ledger.apply(wl, src, -1.0);
                }
                ledger.apply(wl, mv.to, 1.0);
                steps.push(MigrationStep {
                    mv: pending.remove(i),
                    forced: false,
                    dest_peak_utilization: peak,
                });
                scheduled_any = true;
            } else {
                i += 1;
            }
        }
        if scheduled_any {
            continue;
        }
        // Deadlock: force the least-damaging pending move.
        let (idx, peak) = pending
            .iter()
            .enumerate()
            .map(|(i, mv)| (i, ledger.peak_with(slots[mv.slot].workload, mv.to)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite peaks"))
            .expect("pending is non-empty");
        let mv = pending.remove(idx);
        let wl = slots[mv.slot].workload;
        if let Some(src) = mv.from {
            ledger.apply(wl, src, -1.0);
        }
        ledger.apply(wl, mv.to, 1.0);
        steps.push(MigrationStep {
            mv,
            forced: true,
            dest_peak_utilization: peak,
        });
    }

    let capacity_safe = steps.iter().all(|s| !s.forced);
    MigrationPlan {
        steps,
        capacity_safe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_solver::{evaluate, LinearDiskCombiner, TargetMachine, WorkloadSpec};
    use std::sync::Arc;

    fn problem(cpus: &[f64], max_machines: usize) -> ConsolidationProblem {
        let w = cpus
            .iter()
            .enumerate()
            .map(|(i, &c)| WorkloadSpec::flat(format!("w{i}"), 2, c, 2e9, 2e8, 50.0))
            .collect();
        ConsolidationProblem::new(
            w,
            TargetMachine::paper_target(),
            max_machines,
            Arc::new(LinearDiskCombiner::default()),
        )
    }

    #[test]
    fn no_changes_means_empty_plan() {
        let p = problem(&[1.0, 1.0], 2);
        let from = vec![Some(0), Some(1)];
        let plan = plan_migration(&p, &from, &Assignment::new(vec![0, 1]));
        assert!(plan.is_empty());
        assert!(plan.capacity_safe);
    }

    #[test]
    fn vacate_before_fill_ordering() {
        // Machine 0 holds w0 (6c) + w1 (5c) = 11 of 11.4 usable cores;
        // machine 1 holds w2 (6c); machine 2 is free. Target: w0 → m2,
        // w2 → m0. Moving w2 first would put 11 + 6 = 17 cores on m0 —
        // the planner must vacate w0 to the free machine first.
        let p = problem(&[6.0, 5.0, 6.0], 3);
        let from = vec![Some(0), Some(0), Some(1)];
        let to = Assignment::new(vec![2, 0, 0]);
        assert!(evaluate(&p, &to).feasible);
        let plan = plan_migration(&p, &from, &to);
        assert!(plan.capacity_safe, "safe order exists and must be found");
        assert_eq!(plan.moves(), 2);
        assert_eq!(plan.steps[0].mv.workload, "w0", "vacate first");
        assert_eq!(plan.steps[1].mv.workload, "w2");
    }

    #[test]
    fn provisions_are_separated_from_moves() {
        let p = problem(&[1.0, 1.0, 1.0], 3);
        let from = vec![Some(0), Some(0), None];
        let to = Assignment::new(vec![0, 0, 1]);
        let plan = plan_migration(&p, &from, &to);
        assert_eq!(plan.moves(), 0);
        assert_eq!(plan.provisions(), 1);
        assert!(plan.steps[0].mv.is_provision());
        assert_eq!(plan.steps[0].mv.to, 1);
    }

    #[test]
    fn true_deadlock_forces_a_flagged_step() {
        // Two 6-core workloads swapping machines with nothing else free:
        // each destination already holds 6 + incoming 6 = 12 > 11.4.
        let p = problem(&[6.0, 6.0], 2);
        let from = vec![Some(0), Some(1)];
        let to = Assignment::new(vec![1, 0]);
        let plan = plan_migration(&p, &from, &to);
        assert_eq!(plan.steps.len(), 2);
        assert!(!plan.capacity_safe);
        assert!(plan.steps[0].forced, "first step must break the cycle");
        assert!(!plan.steps[1].forced, "second step is then free");
    }

    #[test]
    fn final_ledger_state_matches_target() {
        let p = problem(&[2.0, 3.0, 1.0, 4.0], 4);
        let from = vec![Some(0), Some(1), Some(2), None];
        let to = Assignment::new(vec![1, 1, 3, 2]);
        let plan = plan_migration(&p, &from, &to);
        // Every pending change appears exactly once.
        assert_eq!(plan.steps.len(), 3); // w0, w2 move; w3 provisions; w1 stays
        let mut seen: Vec<usize> = plan.steps.iter().map(|s| s.mv.slot).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 2, 3]);
        for s in &plan.steps {
            assert_eq!(s.mv.to, to.machine_of[s.mv.slot]);
        }
    }
}
