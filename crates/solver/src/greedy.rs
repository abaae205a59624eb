//! The single-resource greedy baseline of §7.3.
//!
//! "This algorithm considers only a single resource, and places each
//! workload in the most loaded server where it will fit using a first-fit
//! bin packer. We then discard final solutions that violate the
//! constraints on the other resources. We repeat this packing once for
//! each resource, then take the solution that requires the fewest
//! servers."

use crate::objective::evaluate;
use crate::problem::{Assignment, ConsolidationProblem};

/// The resource a greedy pass packs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GreedyResource {
    Cpu,
    Ram,
    Disk,
}

impl GreedyResource {
    pub const ALL: [GreedyResource; 3] = [
        GreedyResource::Cpu,
        GreedyResource::Ram,
        GreedyResource::Disk,
    ];
}

/// Result of the greedy strategy.
#[derive(Debug, Clone)]
pub struct GreedyReport {
    pub assignment: Assignment,
    pub resource: GreedyResource,
    pub machines_used: usize,
}

/// Pack on a single resource; returns the assignment even if other
/// resources end up violated (the caller filters).
///
/// Hot path for the fleet balancer's reservation probes
/// (`can_admit`/`pack_estimate` run one greedy pack per candidate): slot
/// series and packing keys come from the problem's structure-of-arrays
/// cache, and per-machine total load is maintained incrementally instead
/// of being re-summed inside every candidate-order comparison.
fn pack_one(problem: &ConsolidationProblem, resource: GreedyResource) -> Assignment {
    let series = problem.slot_series();
    let slots = &series.slots;
    let windows = problem.windows;
    let k_max = problem.max_machines;

    // Per-machine per-window sums of the packed resource, plus occupancy
    // for anti-affinity and a running total for candidate ordering.
    let mut load: Vec<Vec<f64>> = vec![vec![0.0; windows]; k_max];
    let mut ws_sum: Vec<Vec<f64>> = vec![vec![0.0; windows]; k_max];
    let mut load_total: Vec<f64> = vec![0.0; k_max];
    let mut occupants: Vec<Vec<usize>> = vec![Vec::new(); k_max];
    let mut machine_of = vec![usize::MAX; slots.len()];

    let slot_series = |s: usize| -> (&[f64], &[f64]) {
        match resource {
            GreedyResource::Cpu => (series.cpu_of(s), series.ws_of(s)),
            GreedyResource::Ram => (series.ram_of(s), series.ws_of(s)),
            GreedyResource::Disk => (series.rate_of(s), series.ws_of(s)),
        }
    };

    // Sort slots by descending peak demand (first-fit decreasing),
    // keyed by the cached per-slot maxima.
    let peak_of = |s: usize| -> f64 {
        match resource {
            GreedyResource::Cpu => series.cpu_max[s],
            GreedyResource::Ram => series.ram_max[s],
            GreedyResource::Disk => series.rate_max[s],
        }
    };
    let mut order: Vec<usize> = (0..slots.len()).collect();
    order.sort_by(|&a, &b| peak_of(b).partial_cmp(&peak_of(a)).expect("NaN demand"));

    let fits = |problem: &ConsolidationProblem,
                load: &[f64],
                ws_sum: &[f64],
                s: usize,
                resource: GreedyResource|
     -> bool {
        let headroom = problem.headroom;
        let (res, ws) = slot_series(s);
        for t in 0..problem.windows {
            let ok = match resource {
                GreedyResource::Cpu => (load[t] + res[t]) / problem.machine.cpu_cores <= headroom,
                GreedyResource::Ram => (load[t] + res[t]) / problem.machine.ram_bytes <= headroom,
                GreedyResource::Disk => {
                    problem
                        .disk
                        .utilization(ws_sum[t] + ws[t], load[t] + res[t])
                        <= headroom
                }
            };
            if !ok {
                return false;
            }
        }
        true
    };

    for &s in &order {
        let slot = slots[s];
        let w = slot.workload;
        // Candidate machines ordered by current load (most loaded first);
        // pinned replica 0 goes straight to its pin.
        let pinned = problem.pin_of(slot);
        let mut placed = false;
        let pick_list: Vec<usize> = match pinned {
            Some(p) => vec![p],
            None => {
                let mut candidates: Vec<usize> = (0..k_max).collect();
                candidates
                    .sort_by(|&a, &b| load_total[b].partial_cmp(&load_total[a]).expect("NaN load"));
                candidates
            }
        };
        for m in pick_list {
            // Anti-affinity: replicas of the same workload, explicit pairs.
            let conflict = occupants[m].iter().any(|&other| {
                other == w
                    || problem
                        .anti_affinity
                        .iter()
                        .any(|&(x, y)| (x, y) == (w, other) || (y, x) == (w, other))
            });
            if conflict {
                continue;
            }
            if pinned.is_some() || fits(problem, &load[m], &ws_sum[m], s, resource) {
                let (res, ws) = slot_series(s);
                for t in 0..windows {
                    load[m][t] += res[t];
                    ws_sum[m][t] += ws[t];
                    load_total[m] += res[t];
                }
                occupants[m].push(w);
                machine_of[s] = m;
                placed = true;
                break;
            }
        }
        if !placed {
            // No machine fits: dump on the least-loaded machine; the full
            // evaluation will flag the violation.
            let m = (0..k_max)
                .min_by(|&a, &b| load_total[a].partial_cmp(&load_total[b]).expect("NaN load"))
                .expect("at least one machine");
            occupants[m].push(w);
            machine_of[s] = m;
        }
    }

    Assignment::new(machine_of)
}

/// Run the greedy strategy across all three resources; `None` when every
/// single-resource packing violates some other constraint (the paper's
/// "cannot be applied in all scenarios").
pub fn greedy_pack(problem: &ConsolidationProblem) -> Option<GreedyReport> {
    let mut best: Option<GreedyReport> = None;
    for r in GreedyResource::ALL {
        let assignment = pack_one(problem, r);
        let eval = evaluate(problem, &assignment);
        if !eval.feasible {
            continue;
        }
        let used = assignment.machines_used();
        if best.as_ref().is_none_or(|b| used < b.machines_used) {
            best = Some(GreedyReport {
                assignment,
                resource: r,
                machines_used: used,
            });
        }
    }
    best
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
            .map(|(i, &c)| WorkloadSpec::flat(format!("w{i}"), 2, c, 1e9, 1e8, 10.0))
            .collect();
        ConsolidationProblem::new(
            w,
            TargetMachine::paper_target(),
            cpus.len(),
            Arc::new(LinearDiskCombiner::default()),
        )
    }

    #[test]
    fn greedy_packs_cpu_tightly() {
        // 6 × 2-core workloads: 12-core target at 0.95 headroom fits 5.
        let p = problem(&[2.0; 6]);
        let r = greedy_pack(&p).expect("feasible");
        assert!(r.machines_used <= 2);
        let eval = evaluate(&p, &r.assignment);
        assert!(eval.feasible);
    }

    #[test]
    fn greedy_single_workload_uses_one_machine() {
        let p = problem(&[1.0]);
        let r = greedy_pack(&p).unwrap();
        assert_eq!(r.machines_used, 1);
    }

    #[test]
    fn greedy_respects_ram_when_packing_ram() {
        let mut p = problem(&[0.1, 0.1, 0.1]);
        for w in &mut p.workloads {
            w.ram = vec![40e9; 2]; // 96 GB target: only 2 fit per machine
        }
        let r = greedy_pack(&p).unwrap();
        assert_eq!(r.machines_used, 2);
    }

    #[test]
    fn greedy_can_fail_on_cross_resource_constraints() {
        // CPU-tiny but RAM-huge + RAM-tiny but CPU-huge workloads:
        // single-resource packing on either resource overcommits the other
        // when headroom is tight.
        let mut p = problem(&[0.05, 0.05, 11.0, 11.0]);
        p.workloads[0].ram = vec![90e9; 2];
        p.workloads[1].ram = vec![90e9; 2];
        p.workloads[2].ram = vec![1e9; 2];
        p.workloads[3].ram = vec![1e9; 2];
        p.max_machines = 2;
        // CPU packing pairs (2,3)? each 11 cores: 22 > 12×0.95, so CPU
        // packing must separate them, leaving the RAM giants together:
        // 180 GB > 96 GB. RAM packing likewise collides on CPU.
        let r = greedy_pack(&p);
        assert!(r.is_none(), "expected greedy to fail, got {r:?}");
    }

    #[test]
    fn greedy_respects_pinning_and_replicas() {
        let mut p = problem(&[1.0, 1.0]);
        p.workloads[0].pinned = Some(1);
        p.workloads[1].replicas = 2;
        p.max_machines = 3;
        let r = greedy_pack(&p).expect("feasible");
        let eval = evaluate(&p, &r.assignment);
        assert!(eval.feasible);
        assert_eq!(r.assignment.machine_of[0], 1, "pin honoured");
    }

    #[test]
    fn greedy_is_deterministic() {
        let p = problem(&[3.0, 1.0, 2.0, 5.0, 0.5]);
        let a = greedy_pack(&p).unwrap();
        let b = greedy_pack(&p).unwrap();
        assert_eq!(a.assignment, b.assignment);
    }
}
