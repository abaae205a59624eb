//! §5 / §7.2 — the combined-load models against a really co-located
//! system (Figure 6), and the recommendations they give (Table 1).

use crate::Readings;
use kairos_bench::{mbps, print_table, section};
use kairos_core::{CombinedLoadEstimator, ConsolidationEngine, Kairos, PipelineConfig};
use kairos_dbsim::{DbmsConfig, DbmsInstance, Host};
use kairos_diskmodel::{run_profiler, DiskModel, ProfilerConfig};
use kairos_monitor::{MonitorSample, ResourceMonitor};
use kairos_types::{Bytes, MachineSpec, TimeSeries};
use kairos_workloads::{synthetic_suite, Driver, TpccWorkload, WikipediaWorkload, Workload};
use std::sync::{Arc, LazyLock};

/// A disk model over the controlled experiments' range (working sets up
/// to ~13 GB, the Table 1 co-location range), fitted once for Figure 6 and
/// Table 1.
static WIDE_MODEL: LazyLock<Arc<DiskModel>> = LazyLock::new(|| {
    let profile = run_profiler(&ProfilerConfig {
        ws_points: (1..=6)
            .map(|i| Bytes::gib(i * 2) + Bytes::mib(256))
            .collect(),
        rate_points: (1..=8).map(|i| i as f64 * 1_800.0).collect(),
        buffer_pool: Bytes::gib(16),
        settle_secs: 60.0,
        measure_secs: 20.0,
        ..ProfilerConfig::paper_like()
    });
    Arc::new(DiskModel::fit(&profile).expect("wide profile fits"))
});

/// Figure 6 — the 5-workload synthetic micro-benchmark: CDFs of combined
/// CPU and disk I/O and RAM totals, comparing
/// * `real`      — measured on the actually co-located system,
/// * `estimate`  — Kairos' combined-load models (gauged RAM, CPU minus
///   per-instance overhead, disk via the fitted model),
/// * `baseline`  — straight sums of the standalone OS statistics.
pub fn fig06(readings: &mut Readings) {
    let intensity = 0.5;
    let observe = 120.0;
    let interval = 5.0;

    section("Figure 6: observing 5 synthetic workloads in isolation (with gauging)");
    let pipeline = Kairos::new(PipelineConfig {
        source_buffer_pool: Bytes::gib(4),
        observe_secs: observe,
        warmup_secs: 15.0,
        monitor_interval_secs: interval,
        gauge: true,
        ..Default::default()
    });
    let observations: Vec<_> = synthetic_suite(intensity)
        .into_iter()
        .map(|w| {
            let name = w.name().to_string();
            let obs = pipeline.observe(Box::new(w));
            println!(
                "  {name}: {:.0} tps, gauged ws {}, OS view {}",
                obs.standalone_tps,
                obs.gauged_working_set
                    .map(|b| b.to_string())
                    .unwrap_or_else(|| "-".into()),
                obs.os_ram_view
            );
            obs
        })
        .collect();

    // Kairos estimate.
    let estimator = CombinedLoadEstimator::with_model(WIDE_MODEL.clone());
    let profiles: Vec<_> = observations.iter().map(|o| o.profile.clone()).collect();
    let estimate = estimator.combine(&profiles);

    // Baseline: straight sums of standalone observations.
    let observed_writes: Vec<_> = observations
        .iter()
        .map(|o| o.observed_write_bytes.clone())
        .collect();
    let baseline_profiles: Vec<_> = observations
        .iter()
        .map(|o| {
            // Baseline RAM = OS view, not the gauged working set.
            let mut p = o.profile.clone();
            p.ram_bytes =
                TimeSeries::constant(p.interval_secs(), o.os_ram_view.as_f64(), p.windows());
            p
        })
        .collect();
    let baseline = CombinedLoadEstimator::baseline_sum(&baseline_profiles, &observed_writes);

    // Real: co-locate all five inside one DBMS and measure.
    section("co-locating all 5 workloads for ground truth");
    let mut host = Host::new(MachineSpec::server1());
    host.add_instance(DbmsInstance::new(DbmsConfig::mysql(Bytes::gib(24))));
    let mut driver = Driver::new();
    let mut true_ws_total = 0.0;
    for w in synthetic_suite(intensity) {
        true_ws_total += w.working_set().as_f64();
        driver.bind(&mut host, 0, Box::new(w));
    }
    driver.warmup(&mut host, 20.0);
    let mut monitor = ResourceMonitor::new(interval, host.instance(0));
    let windows = (observe / interval) as usize;
    for _ in 0..windows {
        driver.run(&mut host, interval);
        monitor.sample(host.instance(0));
    }
    let series = |of: fn(&MonitorSample) -> f64| {
        TimeSeries::new(interval, monitor.samples().iter().map(of).collect())
    };
    let real_cpu = series(|s| s.cpu_cores);
    let real_writes = series(|s| s.write_bytes_per_sec);

    let cdf = |show: fn(f64) -> String, real: &TimeSeries, est: &TimeSeries, base: &TimeSeries| {
        let at = |p: f64| [real, est, base].map(|s| show(s.percentile(p))).join("|");
        let rows = [10.0, 25.0, 50.0, 75.0, 90.0, 100.0].map(|p| format!("p{p:.0}|{}", at(p)));
        print_table("pct|real|estimate|baseline", &rows);
    };

    section("CPU CDF (standardized cores): real vs estimate vs baseline");
    let (est, base) = (&estimate.cpu_cores, &baseline.cpu_cores);
    cdf(|cores| format!("{cores:.3}"), &real_cpu, est, base);
    let cpu_err = |s: &TimeSeries| (s.mean() - real_cpu.mean()).abs() / real_cpu.mean() * 100.0;
    readings.insert("fig06.cpu_err_estimate_pct".into(), cpu_err(est));
    readings.insert("fig06.cpu_err_baseline_pct".into(), cpu_err(base));

    section("disk write CDF (MB/s): real vs estimate vs baseline");
    let (est, base) = (&estimate.disk_write_bytes, &baseline.disk_write_bytes);
    cdf(mbps, &real_writes, est, base);
    let p90_err = |s: &TimeSeries| (s.percentile(90.0) - real_writes.percentile(90.0)).abs() / 1e6;
    readings.insert("fig06.disk_p90_err_estimate_mbps".into(), p90_err(est));
    readings.insert("fig06.disk_p90_err_baseline_mbps".into(), p90_err(base));

    section("RAM totals");
    let (est, base) = (
        estimate.ram_bytes.values()[0],
        baseline.ram_bytes.values()[0],
    );
    let rows = [
        ("actual working sets", true_ws_total),
        ("kairos estimate (gauged)", est),
        ("baseline (OS view sum)", base),
    ]
    .map(|(series, bytes)| format!("{series}|{:.2} GiB", bytes / Bytes::gib(1).as_f64()));
    print_table("series|value", &rows);
    readings.insert("fig06.ram_baseline_over_estimate".into(), base / est);
    readings.insert("fig06.ram_estimate_over_true".into(), est / true_ws_total);
}

/// Table 1's six experiments: TPC-C (10 warehouses) instances, tps of
/// each, and the tps of one Wikipedia (100K pages) beside them (0 = none).
const EXPERIMENTS: [(usize, f64, f64); 6] = [
    (1, 50.0, 100.0),
    (1, 250.0, 500.0),
    (5, 100.0, 0.0),
    (8, 50.0, 50.0),
    (5, 400.0, 0.0),   // disk-bound: the paper refuses it
    (8, 100.0, 100.0), // the paper refuses this one too
];

/// Table 1 — impact of consolidation on performance: six experiments,
/// each measured standalone (w/o consolidation) and co-located (w/
/// consolidation), with the engine's recommendation.
pub fn table1(readings: &mut Readings) {
    section("Table 1: recommendations under the wide disk model");
    let engine = ConsolidationEngine::builder()
        .disk_model(WIDE_MODEL.clone())
        .headroom(0.9)
        .build();

    let pipeline = Kairos::new(PipelineConfig {
        source_buffer_pool: Bytes::gib(8),
        target_buffer_pool: Bytes::gib(24),
        observe_secs: 60.0,
        warmup_secs: 20.0,
        monitor_interval_secs: 5.0,
        gauge: false, // RAM needs come from workload specs; Table 2 covers gauging
        ..Default::default()
    });
    // Co-located verification must outlast the checkpoint-stall transient
    // (a 512 MB redo log fills in ~100 s at the not-recommended rates).
    let verify_pipeline = Kairos::new(PipelineConfig {
        warmup_secs: 150.0,
        ..pipeline.config.clone()
    });

    let mut rows = Vec::new();
    for (i, (n, tpcc_tps, wiki_tps)) in EXPERIMENTS.into_iter().enumerate() {
        let id = i + 1;
        let mut label = format!("tpcc(10w)@{tpcc_tps}");
        if n > 1 {
            label = format!("{n}x {label}");
        }
        if wiki_tps > 0.0 {
            label = format!("{label} + wiki(100Kp)@{wiki_tps}");
        }
        let workloads = || {
            let mut all: Vec<Box<dyn Workload>> = Vec::new();
            for tag in 0..n {
                let name = format!("tpcc-10w-{tag}");
                all.push(Box::new(TpccWorkload::new(10, tpcc_tps).named(name)));
            }
            if wiki_tps > 0.0 {
                all.push(Box::new(WikipediaWorkload::new(100, wiki_tps)));
            }
            all
        };
        section(&format!("experiment {id}: {label}"));
        // Standalone observations (w/o consolidation).
        let mut profiles = Vec::new();
        let mut solo = Vec::new();
        for w in workloads() {
            // Without gauging the OS view would claim the whole pool; use
            // the true working set instead (the gauged value, which Fig 2
            // / Table 2 show gauging recovers accurately).
            let ws = w.working_set();
            let obs = pipeline.observe(w);
            solo.push((obs.standalone_tps, obs.standalone_latency_secs));
            let mut p = obs.profile;
            let (interval, windows) = (p.interval_secs(), p.windows());
            let constant = |v: f64| TimeSeries::constant(interval, v, windows);
            p.ram_bytes = constant((ws + Bytes::mib(190)).as_f64());
            p.disk_working_set_bytes = constant(ws.as_f64());
            profiles.push(p);
        }
        let recommended = engine.fits_together(&profiles).unwrap_or(false);

        // Co-located run (w/ consolidation), regardless of recommendation —
        // the paper does the same to show what happens when ignored.
        let colocated = verify_pipeline.verify_colocated(workloads(), 60.0);

        let solo_tps: f64 = solo.iter().map(|s| s.0).sum();
        let solo_ms = solo.iter().map(|s| s.1).sum::<f64>() / solo.len() as f64 * 1e3;
        let cons_tps: f64 = colocated.iter().map(|v| v.tps).sum();
        let cons_ms = colocated.iter().map(|v| v.mean_latency_secs).sum::<f64>()
            / colocated.len() as f64
            * 1e3;

        println!(
            "  recommended: {recommended}, solo {solo_tps:.0} tps @ {solo_ms:.0} ms, \
             consolidated {cons_tps:.0} tps @ {cons_ms:.0} ms"
        );
        readings.insert(
            format!("table1.exp{id}.recommended"),
            f64::from(recommended),
        );
        readings.insert(format!("table1.exp{id}.tps_ratio"), cons_tps / solo_tps);
        readings.insert(format!("table1.exp{id}.latency_ratio"), cons_ms / solo_ms);
        let verdict = if recommended { "yes" } else { "NO" };
        rows.push(format!(
            "{id}|{label}|{verdict}|{solo_tps:.0}|{cons_tps:.0}|{solo_ms:.0}|{cons_ms:.0}"
        ));
    }

    section("Table 1 summary");
    print_table(
        "id|workloads|recommend|tps w/o|tps w/|lat w/o (ms)|lat w/ (ms)",
        &rows,
    );
}
