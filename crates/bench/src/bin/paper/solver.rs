//! §6 — the objective the solver searches (Figure 5), and what the
//! non-linear disk constraint inside it buys (the ablation).

use crate::{min_max, Readings};
use kairos_bench::{print_table, section};
use kairos_core::AnalyticDiskCombiner;
use kairos_solver::{
    evaluate, solve, Assignment, ConsolidationProblem, LinearDiskCombiner, SolverConfig,
    TargetMachine, WorkloadSpec,
};
use kairos_types::SplitMix64;
use std::sync::Arc;

/// Figure 5 — the objective-function landscape: for a scenario whose
/// optimum uses 4 servers, show (i) the constraint-violation spike below 4
/// servers, (ii) local minima at balanced 5- and 6-server solutions, and
/// (iii) the global minimum at the balanced 4-server solution.
pub fn fig05(readings: &mut Readings) {
    // 12 × 3.5-core workloads on 12-core machines with 0.95 headroom:
    // 3 per machine (10.5 cores) fits, 4 (14) does not → K' = 4.
    let workloads: Vec<WorkloadSpec> = (0..12)
        .map(|i| WorkloadSpec::flat(format!("w{i}"), 4, 3.5, 4e9, 5e8, 120.0))
        .collect();
    let problem = ConsolidationProblem::new(
        workloads,
        TargetMachine::paper_target(),
        12,
        Arc::new(LinearDiskCombiner::default()),
    );

    section("Figure 5: objective values across server counts and balance");
    let mut rows = Vec::new();
    let mut row = |servers: &str, shape: &str, digits: usize, asg: Vec<usize>| {
        let e = evaluate(&problem, &Assignment::new(asg));
        let (objective, feasible) = (e.objective, e.feasible);
        rows.push(format!("{servers}|{shape}|{objective:.digits$}|{feasible}"));
        (objective, feasible)
    };
    let over = |k: usize| (0..12).map(|i| i % k).collect::<Vec<usize>>();

    // k = 3: any assignment violates the CPU constraint → penalty spike.
    let k3 = row("3 (infeasible)", "4+4+4 per server", 1, over(3));
    // k = 4: balanced (3+3+3+3) = global minimum; skewed variants higher.
    let balanced4 = row("4 (balanced)", "3+3+3+3", 4, over(4));
    let mut others = vec![k3];
    // k = 5 and 6: feasible but strictly worse (the local minima bands).
    for k in [5usize, 6] {
        let shape = format!("12 workloads over {k}");
        others.push(row(&format!("{k} (balanced)"), &shape, 4, over(k)));
    }
    // Imbalance sweep at k = 4: move workloads onto server 0 until it
    // bursts — the left wall of each Fig 5 band.
    let mut skewed_feasible = 0.0;
    for extra in 1..=2 {
        // server 0 gets 3+extra, donor servers shed one each.
        let mut asg = over(4);
        for donor in 1..=extra {
            let victim = asg.iter().position(|&m| m == donor);
            asg[victim.expect("server occupied")] = 0;
        }
        let shape = format!("{}+...", 3 + extra);
        let skewed = row(&format!("4 (skew +{extra})"), &shape, 4, asg);
        skewed_feasible += f64::from(skewed.1);
        others.push(skewed);
    }
    print_table("servers|shape|objective|feasible", &rows);

    readings.insert("fig05.k3_feasible".into(), f64::from(k3.1));
    readings.insert("fig05.k3_objective".into(), k3.0);
    readings.insert("fig05.balanced4_feasible".into(), f64::from(balanced4.1));
    let next_best = min_max(others.iter().map(|o| o.0)).0 / balanced4.0;
    readings.insert("fig05.next_best_over_balanced4".into(), next_best);
    readings.insert("fig05.skewed4_feasible_rows".into(), skewed_feasible);
}

fn fleet(seed: u64, n: usize) -> Vec<WorkloadSpec> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let ws = rng.next_in(2e9, 8e9);
            WorkloadSpec::flat(
                format!("w{i}"),
                12,
                rng.next_in(0.2, 1.5),
                ws * 1.4,
                ws,
                rng.next_in(300.0, 2_500.0),
            )
        })
        .collect()
}

/// Ablation — pack the same fleet twice, once with the naive linear ("sum
/// of bytes") disk combiner and once with the Kairos saturation-frontier
/// combiner, then judge both plans under the frontier model (the closest
/// thing to ground truth the simulator's checkpoint-stall behaviour
/// validates). A worst disk utilization above 1 is a machine that
/// saturates after deployment; the frontier pays a few machines to stay
/// under it.
pub fn ablation(readings: &mut Readings) {
    section("ablation: linear vs non-linear disk constraint in packing");
    let truth = Arc::new(AnalyticDiskCombiner::default());
    let mut rows = Vec::new();
    let (mut linear_feasible, mut frontier_infeasible) = (0.0, 0.0);
    let mut worst_utils = Vec::new();
    for seed in [1u64, 2, 3, 4, 5] {
        let workloads = fleet(seed, 24);
        let cfg = SolverConfig::default();

        let linear_problem = ConsolidationProblem::new(
            workloads.clone(),
            TargetMachine::paper_target(),
            24,
            Arc::new(LinearDiskCombiner::default()),
        );
        let nonlinear_problem =
            ConsolidationProblem::new(workloads, TargetMachine::paper_target(), 24, truth.clone());

        let linear = solve(&linear_problem, &cfg).expect("linear plan");
        let nonlinear = solve(&nonlinear_problem, &cfg).expect("nonlinear plan");

        // Judge the linear plan under the frontier model.
        let linear_judged = evaluate(&nonlinear_problem, &linear.assignment);
        let max_disk_util = linear_judged
            .loads
            .iter()
            .flat_map(|(_, s)| s.iter().map(|w| w.disk))
            .fold(0.0, f64::max);
        linear_feasible += f64::from(linear_judged.feasible);
        frontier_infeasible += f64::from(!nonlinear.evaluation.feasible);
        worst_utils.push(max_disk_util);

        rows.push(format!(
            "{seed}|{}|{}|{max_disk_util:.2}|{}|{}",
            linear.assignment.machines_used(),
            linear_judged.feasible,
            nonlinear.assignment.machines_used(),
            nonlinear.evaluation.feasible
        ));
    }
    print_table(
        "seed|linear: machines|…actually feasible?|…worst disk util|kairos: machines|feasible",
        &rows,
    );
    readings.insert("ablation.linear_plans_feasible".into(), linear_feasible);
    let least_util = min_max(worst_utils).0;
    readings.insert("ablation.min_linear_worst_disk_util".into(), least_util);
    readings.insert(
        "ablation.frontier_plans_infeasible".into(),
        frontier_infeasible,
    );
}
