//! §4 / §7.4 — the empirical disk model (Figure 4) and what it does not
//! depend on (Figure 12).

use crate::{min_max, Readings};
use kairos_bench::{mbps, print_table, section};
use kairos_dbsim::DbmsConfig;
use kairos_diskmodel::{measure_workload, run_profiler, DiskModel, ProfilerConfig, Quadratic};
use kairos_types::{Bytes, DiskDemand, MachineSpec, Rate};
use kairos_workloads::{ProfileLoad, TpccTxnProfile, TpccWorkload, WikipediaWorkload};

/// Figure 4 — disk write throughput (MB/s) over the (working-set size ×
/// rows-updated/s) plane, plus the quadratic saturation frontier (the
/// dashed line / black circles).
pub fn fig04(readings: &mut Readings) {
    let cfg = ProfilerConfig {
        ws_points: (0..6).map(|i| Bytes::mib(1024 + i * 512)).collect(),
        rate_points: (1..=10).map(|i| i as f64 * 4_000.0).collect(),
        ..ProfilerConfig::paper_like()
    };
    section(&format!(
        "Figure 4: profiling {} (ws, rate) points on {}",
        cfg.ws_points.len() * cfg.rate_points.len(),
        cfg.machine.name
    ));
    let profile = run_profiler(&cfg);

    // The response map: rows = working set, cols = offered rate.
    let cell = |ws: Bytes, rate: f64| {
        profile
            .points
            .iter()
            .filter(|p| (p.ws_bytes - ws.as_f64()).abs() < 1.0)
            .min_by(|a, b| {
                let da = (a.rows_per_sec - rate).abs();
                let db = (b.rows_per_sec - rate).abs();
                da.partial_cmp(&db).expect("NaN")
            })
            .expect("point exists")
    };
    let mut header = "ws MiB".to_string();
    for rate in &cfg.rate_points {
        header += &format!("|{rate:.0}r/s");
    }
    let mut rows = Vec::new();
    for &ws in &cfg.ws_points {
        let mut row = format!("{:.0}", ws.as_mib());
        for &rate in &cfg.rate_points {
            let p = cell(ws, rate);
            let marker = if p.saturated() { "*" } else { "" };
            row += &format!("|{}{marker}", mbps(p.write_bytes_per_sec));
        }
        rows.push(row);
    }
    section("disk writes MB/s (rows: working set, cols: offered update rate; * = saturated)");
    print_table(&header, &rows);
    // Coalescing, along the smallest working set; and the working set's
    // own effect, at the lowest rate, where no row is near saturation.
    let (ws0, ws_n) = (cfg.ws_points[0], cfg.ws_points[cfg.ws_points.len() - 1]);
    let (rate0, rate_n) = (
        cfg.rate_points[0],
        cfg.rate_points[cfg.rate_points.len() - 1],
    );
    let growth =
        |ws, rate| cell(ws, rate).write_bytes_per_sec / cell(ws0, rate0).write_bytes_per_sec;
    readings.insert(
        "fig04.bytes_growth_for_10x_rate".into(),
        growth(ws0, rate_n),
    );
    readings.insert("fig04.bytes_growth_with_ws".into(), growth(ws_n, rate0));

    // Saturation frontier (black circles) + quadratic fit (dashed line).
    section("saturation frontier: max achieved rows/s per working set");
    let sat = profile.saturation_points();
    let q = Quadratic::fit(&sat).expect("frontier fit");
    let rows: Vec<String> = sat
        .iter()
        .map(|&(ws, rate)| format!("{:.0}|{rate:.0}|{:.0}", ws / 1024.0 / 1024.0, q.eval(ws)))
        .collect();
    print_table("ws MiB|max rows/s|quadratic fit", &rows);
    let rises = sat.windows(2).filter(|w| w[1].1 > w[0].1).count();
    readings.insert("fig04.frontier_rises".into(), rises as f64);
    let last_over_first = sat[sat.len() - 1].1 / sat[0].1;
    readings.insert("fig04.frontier_last_over_first".into(), last_over_first);
    let fit_err = sat
        .iter()
        .map(|&(ws, r)| (q.eval(ws) - r).abs() / r * 100.0);
    readings.insert("fig04.quadratic_max_err_pct".into(), min_max(fit_err).1);

    // The fitted LAR polynomial (the contour surface).
    let model = DiskModel::fit(&profile).expect("model fits");
    section("LAR second-order polynomial spot checks (predicted vs measured MB/s)");
    let mut rows = Vec::new();
    let mut errs = Vec::new();
    for p in profile.points.iter().filter(|p| !p.saturated()).step_by(7) {
        let pred = model.predict_write_bytes(DiskDemand::new(
            Bytes(p.ws_bytes as u64),
            Rate(p.rows_per_sec),
        ));
        let err = (pred - p.write_bytes_per_sec).abs() / p.write_bytes_per_sec.max(1.0);
        errs.push(err * 100.0);
        rows.push(format!(
            "{:.0}|{:.0}|{}|{}|{:.1}%",
            p.ws_bytes / 1024.0 / 1024.0,
            p.rows_per_sec,
            mbps(p.write_bytes_per_sec),
            mbps(pred),
            err * 100.0
        ));
    }
    print_table("ws MiB|rows/s|measured|predicted|rel err", &rows);
    readings.insert("fig04.lar_max_err_pct".into(), min_max(errs).1);
}

/// Figure 12 — disk-model generality:
/// (a) total database size does not affect disk write throughput — only
///     the working set does (1/2/5 GB databases, fixed 512 MB hot set);
/// (b) transaction type does not matter — TPC-C and Wikipedia at matched
///     working sets impose the same disk pressure per updated row.
pub fn fig12(readings: &mut Readings) {
    let machine = MachineSpec::server1();
    let (settle, measure) = (40.0, 20.0);

    // (a) Database-size independence.
    section("Figure 12a: database size vs disk writes (512 MB working set)");
    let sizes = [Bytes::gib(1), Bytes::gib(2), Bytes::gib(5)];
    let mut rows = Vec::new();
    let mut spreads = Vec::new();
    for rate in [2_500.0, 5_000.0, 10_000.0, 20_000.0, 40_000.0] {
        let [a, b, c] = sizes.map(|db| {
            let load = ProfileLoad::new(Bytes::mib(512), rate).with_db_size(db);
            let pool = DbmsConfig::mysql(Bytes::gib(2));
            measure_workload(&machine, pool, Box::new(load), settle, measure).write_bytes_per_sec
        });
        let (least, most) = min_max([a, b, c]);
        spreads.push((most - least) / least * 100.0);
        rows.push(format!("{rate:.0}|{}|{}|{}", mbps(a), mbps(b), mbps(c)));
    }
    print_table("rows/s|db 1GB|db 2GB|db 5GB", &rows);
    readings.insert("fig12a.max_column_spread_pct".into(), min_max(spreads).1);

    // (b) Transaction-type independence at matched working sets (~2.2 GB).
    section("Figure 12b: TPC-C vs Wikipedia at matched working set (~2.2 GB)");
    let mut rows = Vec::new();
    let mut wiki_over_tpcc = Vec::new();
    for rate in [250.0, 500.0, 1_000.0, 2_000.0, 4_000.0] {
        let pool = || DbmsConfig::mysql(Bytes::gib(4));
        // TPC-C 18 warehouses: ws = 18 × 125 MB ≈ 2.2 GB; 10 rows/txn.
        let tpcc = TpccWorkload::new(18, rate / 10.0).with_profile(TpccTxnProfile {
            insert_bytes_per_txn: 0.0,
            ..Default::default()
        });
        let m_tpcc = measure_workload(&machine, pool(), Box::new(tpcc), settle, measure);
        // Wikipedia 100K pages with working set pinned to TPC-C's; its
        // write mix averages ~0.32 rows/txn.
        let wiki = WikipediaWorkload::new(100, rate / 0.32).with_working_set(Bytes::mib(18 * 125));
        let m_wiki = measure_workload(&machine, pool(), Box::new(wiki), settle, measure);
        wiki_over_tpcc.push(m_wiki.write_bytes_per_sec / m_tpcc.write_bytes_per_sec);
        rows.push(format!(
            "{rate:.0}|{:.0}|{}|{:.0}|{}",
            m_tpcc.rows_per_sec,
            mbps(m_tpcc.write_bytes_per_sec),
            m_wiki.rows_per_sec,
            mbps(m_wiki.write_bytes_per_sec)
        ));
    }
    print_table(
        "target rows/s|tpcc rows/s|tpcc MB/s|wiki rows/s|wiki MB/s",
        &rows,
    );
    // Wikipedia's tuple-size tail makes it the noisier of the two.
    let (least, most) = min_max(wiki_over_tpcc);
    readings.insert("fig12b.min_wiki_over_tpcc".into(), least);
    readings.insert("fig12b.max_wiki_over_tpcc".into(), most);
}
