//! Figure 7 — consolidation ratios on the four real-world datasets plus
//! ALL, comparing:
//! * reference (current deployment, 1 server per workload),
//! * greedy single-resource first-fit,
//! * Kairos (DIRECT + K' bounding + polish),
//! * the fractional/idealized lower bound.
//!
//! Expected shape: Kairos matches the idealized bound almost everywhere
//! and beats greedy. The bin checks that claim and exits non-zero when it
//! breaks (CI's `check` job runs it): every Kairos plan is feasible, uses
//! no more machines than greedy where greedy finds a plan, and no more
//! than the counts recorded in [`MACHINES_TODAY`]. The paper's 5.5:1–17:1
//! ratio band is reported, not asserted: SecondLife sits at 4.8:1 today
//! (20 machines against a fractional 16).

use kairos_bench::{dataset_profiles, fleet_engine, last_day_profiles, print_table, section};
use kairos_core::PlanStrategy;
use kairos_traces::{generate_all, Dataset, FleetConfig};

/// Machines each Kairos plan uses today (generator seed `0x5EED`): a plan
/// that needs more is a plan-quality regression.
const MACHINES_TODAY: [(&str, usize); 5] = [
    ("Internal", 2),
    ("Wikia", 3),
    ("Wikipedia", 7),
    ("SecondLife", 20),
    ("ALL", 29),
];

fn main() {
    let engine = fleet_engine();
    let mut rows = Vec::new();
    let mut broken: Vec<String> = Vec::new();

    let mut run = |label: &str, profiles: Vec<kairos_types::WorkloadProfile>| {
        let n = profiles.len();
        section(&format!("{label}: {n} servers"));
        let frac = engine.fractional_bound(&profiles).unwrap();
        let kairos = engine
            .consolidate_with(&profiles, PlanStrategy::Kairos)
            .expect("kairos plan");
        let greedy = engine.consolidate_with(&profiles, PlanStrategy::Greedy);
        let greedy_str = match &greedy {
            Ok(plan) => format!("{:.1}", n as f64 / plan.machines_used() as f64),
            Err(_) => "n/a".into(),
        };
        println!(
            "  kairos: {} machines (feasible: {}), greedy: {}, fractional: {}",
            kairos.machines_used(),
            kairos.report.evaluation.feasible,
            greedy
                .as_ref()
                .map(|g| g.machines_used().to_string())
                .unwrap_or_else(|_| "n/a".into()),
            frac
        );
        let used = kairos.machines_used();
        if !kairos.report.evaluation.feasible {
            broken.push(format!("{label}: the kairos plan is infeasible"));
        }
        if let Ok(g) = &greedy {
            if used > g.machines_used() {
                broken.push(format!(
                    "{label}: kairos uses {used} machines, greedy {}",
                    g.machines_used()
                ));
            }
        }
        match MACHINES_TODAY.iter().find(|(l, _)| *l == label) {
            Some(&(_, today)) if used > today => {
                broken.push(format!("{label}: kairos uses {used} machines, was {today}"))
            }
            Some(_) => {}
            None => broken.push(format!("{label}: no recorded machine count")),
        }
        rows.push(vec![
            label.to_string(),
            n.to_string(),
            "1.0".to_string(),
            greedy_str,
            format!("{:.1}", kairos.consolidation_ratio()),
            format!("{:.1}", n as f64 / frac as f64),
        ]);
    };

    for dataset in Dataset::ALL {
        run(dataset.label(), dataset_profiles(dataset, 0x5EED));
    }
    let all_fleet = generate_all(&FleetConfig {
        weeks: 1,
        ..Default::default()
    });
    run("ALL", last_day_profiles(&all_fleet));

    section("Figure 7 summary: consolidation ratio (k:1)");
    print_table(
        &[
            "dataset",
            "servers",
            "reference",
            "greedy",
            "kairos",
            "frac/ideal",
        ],
        &rows,
    );
    println!(
        "\npaper band: 5.5:1 to 17:1 (SecondLife is below it: 20 machines against a \
         fractional 16); checked: every kairos plan feasible, <= greedy, <= recorded count"
    );
    if !broken.is_empty() {
        for line in &broken {
            eprintln!("FAILED {line}");
        }
        std::process::exit(1);
    }
}
