//! §3 / §7.1 — buffer-pool gauging: how much memory a database really
//! needs (Figure 2), and what finding out costs its users (Table 2).

use crate::{min_max, Readings};
use kairos_bench::{print_table, section};
use kairos_dbsim::{DbmsConfig, DbmsInstance, Host, InstanceStats};
use kairos_monitor::{BufferGauge, GaugeParams, GaugeStep, SimGaugeEnv};
use kairos_types::{Bytes, MachineSpec};
use kairos_workloads::{Driver, TpccWorkload, WikipediaWorkload, Workload};

/// One DBMS on `server1` running `workload`, warmed up.
fn warm_host(dbms: DbmsConfig, workload: Box<dyn Workload>, warmup_secs: f64) -> (Host, Driver) {
    let mut host = Host::new(MachineSpec::server1());
    host.add_instance(DbmsInstance::new(dbms));
    let mut driver = Driver::new();
    driver.bind(&mut host, 0, workload);
    driver.warmup(&mut host, warmup_secs);
    (host, driver)
}

/// Figure 2 — physical page reads/sec as the probe table steals an
/// increasing share of the buffer pool, for a MySQL-style (O_DIRECT,
/// 953 MB pool) and a PostgreSQL-style (953 MB shared buffers + 1 GB OS
/// cache) configuration running TPC-C at 5 warehouses.
pub fn fig02(readings: &mut Readings) {
    section("Figure 2: buffer-pool gauging, TPC-C 5 warehouses");
    let mut trace = |label: &str, dbms: DbmsConfig| -> Vec<GaugeStep> {
        let (mut host, mut driver) = warm_host(dbms, Box::new(TpccWorkload::new(5, 100.0)), 15.0);
        let db = driver.bindings()[0].handle.db;
        let mut env = SimGaugeEnv::new(&mut host, &mut driver, 0, db);
        let gauge = BufferGauge::new(GaugeParams {
            read_wait_secs: 1.0,
            scans_per_insert: 2,
            ..Default::default()
        });
        let steps = gauge.trace(&mut env, 1024, 0.5);
        println!("[{label}] traced {} probe steps", steps.len());
        // The knee: the last stolen fraction with reads below 25 pages/s.
        let quiet = steps.iter().take_while(|s| s.reads_per_sec < 25.0);
        let knee = quiet.map(|s| s.stolen_fraction).fold(0.0, f64::max);
        readings.insert(format!("fig02.{label}_knee_pct"), knee * 100.0);
        steps
    };
    let mysql = trace("mysql", DbmsConfig::mysql(Bytes::mib(953)));
    let postgres = trace(
        "postgres",
        DbmsConfig::postgres(Bytes::mib(953), Bytes::mib(1024)),
    );

    section("portion of buffer pool stolen (%) vs disk reads (pages/sec)");
    let buckets = 20usize;
    let mut rows = Vec::new();
    for b in 0..buckets {
        let lo = b as f64 * 0.5 / buckets as f64;
        let hi = (b + 1) as f64 * 0.5 / buckets as f64;
        let pick = |steps: &[GaugeStep]| -> String {
            let vals: Vec<f64> = steps
                .iter()
                .filter(|s| s.stolen_fraction >= lo && s.stolen_fraction < hi)
                .map(|s| s.reads_per_sec)
                .collect();
            if vals.is_empty() {
                "-".into()
            } else {
                format!("{:.1}", vals.iter().sum::<f64>() / vals.len() as f64)
            }
        };
        rows.push(format!(
            "{:.0}|{}|{}",
            hi * 100.0,
            pick(&mysql),
            pick(&postgres)
        ));
    }
    print_table("stolen %|mysql reads/s|postgres reads/s", &rows);
}

/// Throughput and mean latency (ms) between two readings of one instance.
fn between(s0: InstanceStats, s1: InstanceStats) -> (f64, f64) {
    let committed = s1.committed_txns - s0.committed_txns;
    let latency = (s1.latency_weighted_secs - s0.latency_weighted_secs) / committed.max(1e-9);
    (committed / (s1.sim_secs - s0.sim_secs), latency * 1e3)
}

/// Table 2 — the Wikipedia benchmark on a 16 GB buffer pool (2.2 GB
/// working set), measured with and without concurrent buffer-pool gauging
/// at several target request rates.
pub fn table2(readings: &mut Readings) {
    let (pool, pages_k) = (Bytes::gib(16), 100);
    section(&format!(
        "Table 2: Wikipedia {pages_k}K pages, {pool} buffer pool, gauging overhead"
    ));
    let wikipedia = |tps: f64| {
        let workload = Box::new(WikipediaWorkload::new(pages_k, tps));
        warm_host(DbmsConfig::mysql(pool), workload, 20.0)
    };

    let mut rows = Vec::new();
    let mut added_latency = Vec::new();
    let rates = [
        ("200 tps", 200.0),
        ("600 tps", 600.0),
        ("1000 tps", 1000.0),
        ("MAX", 3_000.0),
    ];
    for (label, rate) in rates {
        // The workload while the gauge runs beside it…
        let (mut host, mut driver) = wikipedia(rate);
        let db = driver.bindings()[0].handle.db;
        let s0 = host.instance(0).stats();
        let outcome = BufferGauge::new(GaugeParams {
            initial_step_pages: 2048,
            max_step_pages: 8192,
            scans_per_insert: 1,
            read_wait_secs: 3.0,
            window_secs: 6.0,
            ..Default::default()
        })
        .run(&mut SimGaugeEnv::new(&mut host, &mut driver, 0, db));
        let (tps_with, lat_with) = between(s0, host.instance(0).stats());

        // …and alone, for as long (capped at two minutes).
        let (mut host, mut driver) = wikipedia(rate);
        let s0 = host.instance(0).stats();
        driver.warmup(&mut host, outcome.duration_secs.min(120.0));
        let (tps_without, lat_without) = between(s0, host.instance(0).stats());

        println!(
            "  {label}: gauging took {:.0}s sim at {:.1} MB/s probe growth; ws estimate {}",
            outcome.duration_secs,
            outcome.growth_bytes_per_sec() / 1e6,
            outcome.working_set
        );
        readings.insert(
            format!("table2.tps_ratio_at_{rate}"),
            tps_with / tps_without,
        );
        added_latency.push(lat_with - lat_without);
        rows.push(format!(
            "{label}|{tps_without:.0}|{tps_with:.0}|{lat_without:.1}|{lat_with:.1}"
        ));
    }
    let (least, most) = min_max(added_latency);
    readings.insert("table2.min_added_latency_ms".into(), least);
    readings.insert("table2.max_added_latency_ms".into(), most);

    section("Table 2 summary");
    print_table(
        "target rate|tps w/o gauging|tps w/ gauging|lat w/o (ms)|lat w/ (ms)",
        &rows,
    );
}
