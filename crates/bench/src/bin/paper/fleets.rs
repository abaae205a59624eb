//! §7.3 / §7.6 — the real-world fleets: consolidation ratios (Figure 7),
//! how the ALL plan loads its servers (Figures 8 and 9), and whether last
//! week predicts this one (Figure 13).

use crate::Readings;
use kairos_bench::{dataset_profiles, fleet_engine, last_day_profiles, print_table, section};
use kairos_core::{ConsolidationPlan, PlanStrategy};
use kairos_traces::{
    fleet_total_cpu, generate_all, generate_fleet, predict_last_period, Dataset, FleetConfig,
};
use kairos_types::series::percentile_of_sorted;
use kairos_types::WorkloadProfile;
use std::sync::LazyLock;

/// The ALL fleet's last day and its Kairos plan, solved once for Figure
/// 7's ALL row, Figure 8 and Figure 9.
static ALL: LazyLock<(Vec<WorkloadProfile>, ConsolidationPlan)> = LazyLock::new(|| {
    let fleet = generate_all(&FleetConfig {
        weeks: 1,
        ..Default::default()
    });
    let profiles = last_day_profiles(&fleet);
    let plan = fleet_engine().consolidate(&profiles).expect("kairos plan");
    (profiles, plan)
});

/// Figure 7 — consolidation ratios on the four real-world datasets plus
/// ALL, comparing:
/// * reference (current deployment, 1 server per workload),
/// * greedy single-resource first-fit,
/// * Kairos (K' bounding + seed and polish),
/// * the fractional/idealized lower bound.
///
/// The plan-quality guard for any change to the solver: every Kairos plan
/// feasible, none behind greedy where greedy finds a plan, none using
/// more machines than the claims table records.
pub fn fig07(readings: &mut Readings) {
    let engine = fleet_engine();
    let mut rows = Vec::new();
    let (mut infeasible, mut behind_greedy) = (0.0, 0.0);

    let mut run = |label: &str, profiles: &[WorkloadProfile], kairos: &ConsolidationPlan| {
        let n = profiles.len();
        section(&format!("{label}: {n} servers"));
        let frac = engine.fractional_bound(profiles).unwrap();
        let used = kairos.machines_used();
        let feasible = kairos.report.evaluation.feasible;
        let greedy = engine
            .consolidate_with(profiles, PlanStrategy::Greedy)
            .map(|plan| plan.machines_used());
        let (greedy_ratio, greedy_machines) = match greedy {
            Ok(g) => (format!("{:.1}", n as f64 / g as f64), g.to_string()),
            Err(_) => ("n/a".into(), "n/a".into()),
        };
        println!(
            "  kairos: {used} machines (feasible: {feasible}), greedy: {greedy_machines}, \
             fractional: {frac}"
        );
        infeasible += f64::from(!feasible);
        behind_greedy += f64::from(greedy.is_ok_and(|g| used > g));
        let ratio = kairos.consolidation_ratio();
        readings.insert(format!("fig07.{label}.machines"), used as f64);
        readings.insert(format!("fig07.{label}.ratio"), ratio);
        rows.push(format!(
            "{label}|{n}|1.0|{greedy_ratio}|{ratio:.1}|{:.1}",
            n as f64 / frac as f64
        ));
    };

    for dataset in Dataset::ALL {
        let profiles = dataset_profiles(dataset, 0x5EED);
        let plan = engine.consolidate(&profiles).expect("kairos plan");
        run(dataset.label(), &profiles, &plan);
    }
    run("ALL", &ALL.0, &ALL.1);

    section("Figure 7 summary: consolidation ratio (k:1)");
    print_table("dataset|servers|reference|greedy|kairos|frac/ideal", &rows);
    readings.insert("fig07.infeasible_plans".into(), infeasible);
    readings.insert("fig07.plans_behind_greedy".into(), behind_greedy);
}

/// Figure 8 — aggregate CPU load over time on the consolidated servers of
/// the ALL dataset: mean, 5th and 95th percentile of per-server CPU
/// utilization per time window.
pub fn fig08(readings: &mut Readings) {
    let (profiles, plan) = &*ALL;
    section(&format!(
        "Figure 8: consolidating ALL ({} workloads)",
        profiles.len()
    ));
    let loads = &plan.report.evaluation.loads;
    println!(
        "  {} workloads on {} servers (feasible: {})",
        profiles.len(),
        plan.machines_used(),
        plan.report.evaluation.feasible
    );

    let windows = loads.first().map(|(_, s)| s.len()).unwrap_or(0);
    section("hour of day vs CPU utilization (%) across consolidated servers");
    let mut rows = Vec::new();
    let per_hour = (windows / 24).max(1);
    for h in 0..24 {
        // Collect all server utilizations within the hour.
        let mut vals: Vec<f64> = Vec::new();
        for t in h * per_hour..((h + 1) * per_hour).min(windows) {
            for (_, series) in loads {
                vals.push(series[t].cpu * 100.0);
            }
        }
        if vals.is_empty() {
            continue;
        }
        vals.sort_by(|a, b| a.partial_cmp(b).expect("NaN"));
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        rows.push(format!(
            "{h:02}:00|{mean:.1}|{:.1}|{:.1}",
            percentile_of_sorted(&vals, 5.0),
            percentile_of_sorted(&vals, 95.0)
        ));
    }
    print_table("hour|avg cpu %|5th pct|95th pct", &rows);

    // Balance headline: spread between p95 and average.
    let mut sorted: Vec<f64> = loads
        .iter()
        .flat_map(|(_, s)| s.iter().map(|w| w.cpu * 100.0))
        .collect();
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN"));
    let p95 = percentile_of_sorted(&sorted, 95.0);
    println!(
        "\noverall: mean {mean:.1}%, p95 {p95:.1}%, max {:.1}% (of per-server capacity)",
        sorted.last().copied().unwrap_or(0.0)
    );
    readings.insert("fig08.overall_p95_cpu_pct".into(), p95);
}

/// Figure 9 — per-server CPU box-plot statistics and peak RAM for the
/// ALL consolidation (197→21-class result in the paper): load roughly
/// balanced, and on every server RAM or CPU close enough to the cap that
/// no two servers could still be merged.
pub fn fig09(readings: &mut Readings) {
    let (profiles, plan) = &*ALL;
    section(&format!(
        "Figure 9: {} workloads on {} consolidated servers",
        profiles.len(),
        plan.machines_used()
    ));

    let loads = &plan.report.evaluation.loads;
    let mut rows = Vec::new();
    for (idx, (machine, series)) in loads.iter().enumerate() {
        let mut cpu: Vec<f64> = series.iter().map(|w| w.cpu * 100.0).collect();
        cpu.sort_by(|a, b| a.partial_cmp(b).expect("NaN"));
        let ram_max = series.iter().map(|w| w.ram * 100.0).fold(0.0, f64::max);
        rows.push(format!(
            "{}|{}|{:.1}|{:.1}|{:.1}|{:.1}|{:.1}|{ram_max:.1}",
            idx + 1,
            plan.on_machine(*machine).len(),
            cpu.first().copied().unwrap_or(0.0),
            percentile_of_sorted(&cpu, 25.0),
            percentile_of_sorted(&cpu, 50.0),
            percentile_of_sorted(&cpu, 75.0),
            cpu.last().copied().unwrap_or(0.0),
        ));
    }
    print_table(
        "server|tenants|cpu min|q1|median|q3|cpu max|ram max %",
        &rows,
    );

    // The "no further consolidation" check: for every server pair, adding
    // their peak RAM or CPU would breach the cap.
    let mut mergeable = 0.0;
    for i in 0..loads.len() {
        for j in i + 1..loads.len() {
            let windows = loads[i].1.len().min(loads[j].1.len());
            let fits = (0..windows).all(|t| {
                loads[i].1[t].cpu + loads[j].1[t].cpu <= 0.95
                    && loads[i].1[t].ram + loads[j].1[t].ram <= 0.95
                    && loads[i].1[t].disk + loads[j].1[t].disk <= 0.95
            });
            mergeable += f64::from(fits);
        }
    }
    readings.insert("fig09.mergeable_pairs".into(), mergeable);
}

/// Figure 13 — past load predicts future load: total fleet CPU for the
/// third week predicted as the mean of the first two weeks, for the
/// Wikipedia and Second Life fleets (whose nightly snapshot pool shows as
/// late-night peaks in both actual and predicted curves).
pub fn fig13(readings: &mut Readings) {
    let cfg = FleetConfig::default(); // 3 weeks @ 5 min
    let week_len = (7.0 * 86_400.0 / cfg.interval_secs) as usize;

    for dataset in [Dataset::Wikipedia, Dataset::SecondLife] {
        section(&format!("Figure 13: {}", dataset.label()));
        let fleet = generate_fleet(dataset, &cfg);
        let total = fleet_total_cpu(&fleet);
        let p = predict_last_period(&total, week_len).expect("3 weeks of data");

        let rel_err_pct = p.relative_error * 100.0;
        println!(
            "  RMSE {:.2} standardized cores, relative error {rel_err_pct:.1}% (paper: ~7-8%)",
            p.rmse
        );
        readings.insert(
            format!("fig13.{}.rel_err_pct", dataset.label()),
            rel_err_pct,
        );

        // Print the third week at 6-hour granularity: prediction vs real.
        let stride = (6.0 * 3600.0 / cfg.interval_secs) as usize;
        let mut rows = Vec::new();
        let days = ["Wed", "Thu", "Fri", "Sat", "Sun", "Mon", "Tue"];
        for (i, (pred, act)) in p
            .predicted
            .values()
            .iter()
            .zip(p.actual.values())
            .enumerate()
            .step_by(stride)
        {
            let day = days[(i / (week_len / 7)).min(6)];
            let hour = (i % (week_len / 7)) as f64 * cfg.interval_secs / 3600.0;
            rows.push(format!(
                "{day} {hour:02.0}:00|{act:.1}|{pred:.1}|{:+.1}",
                pred - act
            ));
        }
        print_table("time|real wk3|predicted|error", &rows);
    }
}
