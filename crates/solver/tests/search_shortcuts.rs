//! What the K′ search skips, and that skipping it changes no answer.
//!
//! * At K = 1 every DIRECT point decodes to the same placement, so the
//!   search at K = 1 polishes that placement, even where DIRECT is kept.
//! * A feasible probe at K whose plan uses fewer than K machines has shown
//!   that count feasible, so the binary search continues below the count,
//!   not just below K — with the K′ and the machine count the `hi = mid`
//!   search reaches through more probes.

use kairos_solver::{
    centre, greedy_pack, polish, solve, ConsolidationProblem, LinearDiskCombiner, SolverConfig,
    TargetMachine, WorkloadSpec,
};
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
fn one_machine_is_scored_not_searched() {
    // Five of the paper pipeline's seven solves end here: one search, the
    // final run at K′ = 1, and no probe.
    let light = solve(&problem(&[1.0; 8]), &SolverConfig::default()).unwrap();
    assert_eq!((light.k_final, light.evals_used), (1, 1));
    assert!(light.probes.is_empty());
    assert_eq!(light.assignment.machines_used(), 1);
}

/// CPU-heavy and RAM-heavy workloads with idle disks: packed by any
/// one resource they overrun another, so greedy gives no upper bound
/// and the binary search starts from one machine per workload.
fn greedy_fails() -> ConsolidationProblem {
    let mut w = Vec::new();
    for i in 0..7 {
        w.push(WorkloadSpec::flat(format!("cpu{i}"), 3, 5.0, 4e9, 1e8, 5.0));
        w.push(WorkloadSpec::flat(
            format!("ram{i}"),
            3,
            0.4,
            40e9,
            1e8,
            5.0,
        ));
    }
    let n = w.len();
    ConsolidationProblem::new(
        w,
        TargetMachine::paper_target(),
        n,
        Arc::new(LinearDiskCombiner::default()),
    )
}

#[test]
fn the_search_uses_what_a_probe_found() {
    let p = greedy_fails();
    let cfg = SolverConfig::default();
    assert!(greedy_pack(&p).is_none());
    let report = solve(&p, &cfg).unwrap();
    assert_eq!(report.k_bounds.1, p.slots().len());
    assert!(report.evaluation.feasible);

    // A probe is a pure function of K (14 free slots: the polished
    // centre): replay each one for the machine count its plan used.
    let probe = |k| polish(&p, &centre(&p, k), k, cfg.polish_rounds.min(40)).evaluation;
    let mut shown_feasible = usize::MAX;
    for &(k, feasible) in &report.probes {
        assert!(k < shown_feasible, "probed {k} in {:?}", report.probes);
        let eval = probe(k);
        assert_eq!(eval.feasible, feasible);
        if feasible {
            assert!(eval.machines_used <= k);
            shown_feasible = eval.machines_used;
        }
    }

    // The search that set `hi = mid`: more probes, the same answer.
    let (mut lo, mut hi) = report.k_bounds;
    let mut probed = 0;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        probed += 1;
        if probe(mid).feasible {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    assert_eq!(report.k_final, lo);
    assert!(report.probes.len() < probed, "{:?}", report.probes);
    assert_eq!(report.assignment.machines_used(), lo);
}
