//! Lower and upper bounds on the minimum feasible server count K′ (§6).
//!
//! "The lower bound is provided by a single-resource fractional solution
//! that optimistically assumes that the workloads can be assigned
//! fractionally to machines, and that each resource can be considered
//! independently. [...] A loose upper-bound is the number of machines
//! currently in use; better upper-bounds can be found by running cheap,
//! greedy workload allocation strategies."

use crate::greedy::greedy_pack;
use crate::problem::{Assignment, ConsolidationProblem};

/// The fractional/idealized lower bound — also Fig 7's "frac./idealized"
/// comparison line.
pub fn fractional_lower_bound(problem: &ConsolidationProblem) -> usize {
    let windows = problem.windows;
    let headroom = problem.headroom.max(1e-9);

    // CPU and RAM: peak-over-time aggregate over per-machine capacity.
    let mut k_cpu = 0.0f64;
    let mut k_ram = 0.0f64;
    for t in 0..windows {
        let cpu: f64 = problem.workloads.iter().map(|w| w.cpu_at(t)).sum();
        let ram: f64 = problem.workloads.iter().map(|w| w.ram_at(t)).sum();
        k_cpu = k_cpu.max(cpu / (problem.machine.cpu_cores * headroom));
        k_ram = k_ram.max(ram / (problem.machine.ram_bytes * headroom));
    }

    // Disk: smallest K such that an even fractional split is feasible in
    // every window (utilization is monotone decreasing in K for any sane
    // combiner, so a linear scan terminates at the first feasible K).
    let mut k_disk = 1usize;
    'disk: while k_disk < problem.max_machines.max(1) * 4 {
        let kf = k_disk as f64;
        let mut ok = true;
        for t in 0..windows {
            let ws: f64 = problem.workloads.iter().map(|w| w.ws_at(t)).sum();
            let rate: f64 = problem.workloads.iter().map(|w| w.rate_at(t)).sum();
            if problem.disk.utilization(ws / kf, rate / kf) > headroom {
                ok = false;
                break;
            }
        }
        if ok {
            break 'disk;
        }
        k_disk += 1;
    }

    // Replication floor: R identical replicas need R distinct machines.
    let k_repl = problem
        .workloads
        .iter()
        .map(|w| w.replicas.max(1) as usize)
        .max()
        .unwrap_or(1);

    (k_cpu.ceil() as usize)
        .max(k_ram.ceil() as usize)
        .max(k_disk)
        .max(k_repl)
        .max(1)
}

/// The no-consolidation reference: each pinned slot on its pin, every
/// other slot alone on the lowest machine no pin names — slot *i* on
/// machine *i* when every pin is its own slot's index, or nothing is pinned.
pub fn identity_assignment(problem: &ConsolidationProblem) -> Assignment {
    let pins: Vec<Option<usize>> = problem
        .slots()
        .into_iter()
        .map(|s| problem.pin_of(s))
        .collect();
    let mut free = (0..).filter(|m| !pins.contains(&Some(*m)));
    Assignment::new(
        pins.iter()
            .map(|pin| pin.unwrap_or_else(|| free.next().expect("unbounded")))
            .collect(),
    )
}

/// Upper bound: greedy if it finds a feasible packing, else the identity
/// (one machine per slot).
pub fn upper_bound(problem: &ConsolidationProblem) -> (Assignment, usize) {
    if let Some(report) = greedy_pack(problem) {
        let used = report.machines_used;
        (report.assignment, used)
    } else {
        let a = identity_assignment(problem);
        let used = a.machines_used();
        (a, used)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::evaluate;
    use crate::problem::{LinearDiskCombiner, TargetMachine, WorkloadSpec};
    use std::sync::Arc;

    fn problem(n: usize, cpu: f64, ram: f64) -> ConsolidationProblem {
        let w = (0..n)
            .map(|i| WorkloadSpec::flat(format!("w{i}"), 2, cpu, ram, 1e8, 10.0))
            .collect();
        ConsolidationProblem::new(
            w,
            TargetMachine::paper_target(),
            n,
            Arc::new(LinearDiskCombiner::default()),
        )
    }

    #[test]
    fn cpu_bound_dominates_when_cpu_heavy() {
        // 10 workloads × 3 cores = 30 cores; 12-core machines at 0.95:
        // ceil(30 / 11.4) = 3.
        let p = problem(10, 3.0, 1e9);
        assert_eq!(fractional_lower_bound(&p), 3);
    }

    #[test]
    fn ram_bound_dominates_when_ram_heavy() {
        // 10 × 30 GB = 300 GB over 96 GB × 0.95: ceil = 4.
        let p = problem(10, 0.1, 30e9);
        assert_eq!(fractional_lower_bound(&p), 4);
    }

    #[test]
    fn replication_floors_the_bound() {
        let mut p = problem(2, 0.1, 1e9);
        p.workloads[0].replicas = 3;
        assert_eq!(fractional_lower_bound(&p), 3);
    }

    #[test]
    fn disk_bound_uses_nonlinear_model() {
        struct Tight;
        impl crate::problem::DiskCombiner for Tight {
            fn utilization(&self, _ws: f64, rate: f64) -> f64 {
                rate / 100.0
            }
        }
        let w = (0..4)
            .map(|i| WorkloadSpec::flat(format!("w{i}"), 1, 0.1, 1e9, 1e8, 60.0))
            .collect();
        let mut p = ConsolidationProblem::new(w, TargetMachine::paper_target(), 4, Arc::new(Tight));
        p.headroom = 0.95;
        // Total rate 240; per machine cap 95: ceil(240/95) = 3.
        assert_eq!(fractional_lower_bound(&p), 3);
    }

    #[test]
    fn bound_never_exceeds_actual_need() {
        // The fractional bound must be ≤ machines used by any feasible
        // integer assignment.
        let p = problem(7, 2.0, 5e9);
        let lb = fractional_lower_bound(&p);
        // Feasible integer packing: 5 per machine on CPU (11.4/2 = 5).
        let assignment = Assignment::new(vec![0, 0, 0, 0, 0, 1, 1]);
        let eval = evaluate(&p, &assignment);
        assert!(eval.feasible);
        assert!(lb <= assignment.machines_used());
    }

    #[test]
    fn identity_reference_is_feasible_for_modest_loads() {
        let p = problem(5, 2.0, 5e9);
        let a = identity_assignment(&p);
        assert_eq!(a.machines_used(), 5);
        assert!(evaluate(&p, &a).feasible);
    }

    #[test]
    fn upper_bound_prefers_greedy_when_it_works() {
        let p = problem(6, 1.0, 1e9);
        let (_, used) = upper_bound(&p);
        assert!(
            used <= 2,
            "greedy should pack 6×1-core tightly, used {used}"
        );
    }
}
