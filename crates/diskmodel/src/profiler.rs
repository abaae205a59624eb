//! The disk-profiling tool (§4.1).
//!
//! "Given a DBMS/OS/hardware configuration, our tool tests the disk
//! subsystem with a controlled synthetic workload that sweeps through a
//! range of database working set sizes and user request rates — this
//! testing can be done as an offline process on a similar configuration
//! [...] At each step, the tool records the rows updated per second, the
//! working set size in bytes, and the overall disk throughput in bytes per
//! second."
//!
//! Points are independent, so the sweep fans out over crossbeam scoped
//! threads. The real tool took ~2 hours for 7 000 points on hardware; the
//! simulated sweep takes seconds for a few hundred.

use kairos_dbsim::{DbmsConfig, DbmsInstance, Host};
use kairos_types::{Bytes, MachineSpec};
use kairos_workloads::{Driver, ProfileLoad, Workload};

/// One measured point of the system-response map.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DiskPoint {
    /// Working-set size, bytes.
    pub ws_bytes: f64,
    /// *Achieved* row-update rate, rows/second.
    pub rows_per_sec: f64,
    /// Disk write throughput (log + page write-back), bytes/second.
    pub write_bytes_per_sec: f64,
    /// Fraction of offered updates the system kept up with (1 = not
    /// saturated).
    pub achieved_fraction: f64,
}

impl DiskPoint {
    /// Whether the system kept up with the offered load at this point.
    pub fn saturated(&self) -> bool {
        self.achieved_fraction < 0.97
    }
}

/// A complete profile: the empirical transfer function of one
/// DBMS/OS/hardware configuration.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DiskProfile {
    pub machine: String,
    pub points: Vec<DiskPoint>,
}

impl DiskProfile {
    /// Serialize as CSV (header + one row per point).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("ws_bytes,rows_per_sec,write_bytes_per_sec,achieved_fraction\n");
        for p in &self.points {
            out.push_str(&format!(
                "{},{},{},{}\n",
                p.ws_bytes, p.rows_per_sec, p.write_bytes_per_sec, p.achieved_fraction
            ));
        }
        out
    }

    /// Maximum achieved row rate per working-set size — the black circles
    /// of Fig 4 whose quadratic fit is the saturation frontier.
    pub fn saturation_points(&self) -> Vec<(f64, f64)> {
        let mut per_ws: Vec<(f64, f64)> = Vec::new();
        for p in &self.points {
            match per_ws
                .iter_mut()
                .find(|(ws, _)| (*ws - p.ws_bytes).abs() < 1.0)
            {
                Some((_, max_rate)) => *max_rate = max_rate.max(p.rows_per_sec),
                None => per_ws.push((p.ws_bytes, p.rows_per_sec)),
            }
        }
        per_ws.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN ws"));
        per_ws
    }
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    pub machine: MachineSpec,
    /// Buffer pool for the profiling instance (must hold the largest
    /// working set; the paper keeps working sets in RAM, §4.1).
    pub buffer_pool: Bytes,
    pub ws_points: Vec<Bytes>,
    /// Offered update rates, rows/second.
    pub rate_points: Vec<f64>,
    pub settle_secs: f64,
    pub measure_secs: f64,
    pub threads: usize,
    /// Override the DBMS redo-log capacity (None = MySQL default). A
    /// smaller log reaches checkpoint-stall equilibrium faster, which
    /// shortens the settle time saturation measurements need.
    pub log_capacity_bytes: Option<f64>,
}

impl ProfilerConfig {
    /// The paper's sweep shape at reduced resolution: working sets
    /// 1–3.5 GB, rates up to well past single-disk saturation.
    pub fn paper_like() -> ProfilerConfig {
        ProfilerConfig {
            machine: MachineSpec::server1(),
            buffer_pool: Bytes::gib(8),
            ws_points: (0..6).map(|i| Bytes::mib(1024 + i * 512)).collect(),
            rate_points: (1..=10).map(|i| i as f64 * 4000.0).collect(),
            // Long enough for checkpoint-stall equilibria to establish
            // with the default 512 MB redo log.
            settle_secs: 60.0,
            measure_secs: 20.0,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            log_capacity_bytes: None,
        }
    }

    /// A small, fast grid for tests.
    pub fn smoke() -> ProfilerConfig {
        ProfilerConfig {
            machine: MachineSpec::server1(),
            buffer_pool: Bytes::mib(1536),
            ws_points: vec![Bytes::mib(256), Bytes::mib(512), Bytes::mib(1024)],
            rate_points: vec![2_000.0, 8_000.0, 20_000.0, 40_000.0],
            settle_secs: 15.0,
            measure_secs: 8.0,
            threads: 4,
            log_capacity_bytes: Some(96.0 * 1024.0 * 1024.0),
        }
    }
}

/// Measurement of an arbitrary workload's steady-state disk behaviour —
/// used both by the profiler and by the Fig 12 generality experiments.
#[derive(Debug, Clone, Copy)]
pub struct MeasuredDisk {
    pub rows_per_sec: f64,
    pub write_bytes_per_sec: f64,
    pub achieved_fraction: f64,
}

/// Run `workload` alone on `machine` and measure its steady-state disk
/// write throughput and achieved row rate.
pub fn measure_workload(
    machine: &MachineSpec,
    dbms: DbmsConfig,
    workload: Box<dyn Workload>,
    settle_secs: f64,
    measure_secs: f64,
) -> MeasuredDisk {
    let mut host = Host::new(machine.clone());
    host.add_instance(DbmsInstance::new(dbms));
    let mut driver = Driver::new();
    driver.bind(&mut host, 0, workload);
    driver.warmup(&mut host, settle_secs);

    let page_bytes = host.instance(0).page_size().as_f64();
    let before = host.instance(0).stats();
    let stats = driver.run(&mut host, measure_secs);
    let after = host.instance(0).stats();
    let delta = after.delta(&before);

    let offered = stats[0].offered_txns.max(1e-9);
    let committed = stats[0].committed_txns;
    MeasuredDisk {
        rows_per_sec: delta.rows_updated / delta.sim_secs,
        write_bytes_per_sec: delta.write_bytes_per_sec(page_bytes),
        achieved_fraction: (committed / offered).min(1.0),
    }
}

/// Measure one `(working set, offered rate)` grid point.
fn measure_point(cfg: &ProfilerConfig, ws: Bytes, rate: f64) -> DiskPoint {
    let mut dbms = DbmsConfig::mysql(cfg.buffer_pool);
    dbms.seed = (ws.0 ^ rate as u64).wrapping_mul(0x9E37);
    if let Some(cap) = cfg.log_capacity_bytes {
        dbms.wal.capacity_bytes = cap;
    }
    let m = measure_workload(
        &cfg.machine,
        dbms,
        Box::new(ProfileLoad::new(ws, rate)),
        cfg.settle_secs,
        cfg.measure_secs,
    );
    DiskPoint {
        ws_bytes: ws.as_f64(),
        rows_per_sec: m.rows_per_sec,
        write_bytes_per_sec: m.write_bytes_per_sec,
        achieved_fraction: m.achieved_fraction,
    }
}

/// Run the full sweep, parallelized across worker threads (points are
/// fully independent simulations).
pub fn run_profiler(cfg: &ProfilerConfig) -> DiskProfile {
    let grid: Vec<(Bytes, f64)> = cfg
        .ws_points
        .iter()
        .flat_map(|&ws| cfg.rate_points.iter().map(move |&r| (ws, r)))
        .collect();

    let threads = cfg.threads.max(1);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, DiskPoint)>();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            let grid = &grid;
            let next = &next;
            s.spawn(move || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= grid.len() {
                    break;
                }
                let (ws, rate) = grid[i];
                tx.send((i, measure_point(cfg, ws, rate)))
                    .expect("collector alive");
            });
        }
    });
    drop(tx);

    let mut points = vec![
        DiskPoint {
            ws_bytes: 0.0,
            rows_per_sec: 0.0,
            write_bytes_per_sec: 0.0,
            achieved_fraction: 0.0,
        };
        grid.len()
    ];
    for (i, p) in rx {
        points[i] = p;
    }
    DiskProfile {
        machine: cfg.machine.name.clone(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_has_a_header_and_one_row_per_point() {
        let profile = DiskProfile {
            machine: "m".into(),
            points: vec![
                DiskPoint {
                    ws_bytes: 1e9,
                    rows_per_sec: 5000.0,
                    write_bytes_per_sec: 3e6,
                    achieved_fraction: 1.0,
                },
                DiskPoint {
                    ws_bytes: 2e9,
                    rows_per_sec: 9000.0,
                    write_bytes_per_sec: 9e6,
                    achieved_fraction: 0.8,
                },
            ],
        };
        assert_eq!(
            profile.to_csv(),
            "ws_bytes,rows_per_sec,write_bytes_per_sec,achieved_fraction\n\
             1000000000,5000,3000000,1\n\
             2000000000,9000,9000000,0.8\n"
        );
    }

    #[test]
    fn saturation_points_take_max_per_ws() {
        let profile = DiskProfile {
            machine: "m".into(),
            points: vec![
                DiskPoint {
                    ws_bytes: 1e9,
                    rows_per_sec: 5_000.0,
                    write_bytes_per_sec: 0.0,
                    achieved_fraction: 1.0,
                },
                DiskPoint {
                    ws_bytes: 1e9,
                    rows_per_sec: 9_000.0,
                    write_bytes_per_sec: 0.0,
                    achieved_fraction: 0.9,
                },
                DiskPoint {
                    ws_bytes: 2e9,
                    rows_per_sec: 7_000.0,
                    write_bytes_per_sec: 0.0,
                    achieved_fraction: 1.0,
                },
            ],
        };
        let sat = profile.saturation_points();
        assert_eq!(sat, vec![(1e9, 9_000.0), (2e9, 7_000.0)]);
    }

    #[test]
    fn saturated_flag_thresholds() {
        let p = DiskPoint {
            ws_bytes: 0.0,
            rows_per_sec: 0.0,
            write_bytes_per_sec: 0.0,
            achieved_fraction: 0.5,
        };
        assert!(p.saturated());
        let q = DiskPoint {
            achieved_fraction: 1.0,
            ..p
        };
        assert!(!q.saturated());
    }

    #[test]
    fn single_point_measurement_is_sane() {
        let cfg = ProfilerConfig {
            settle_secs: 2.0,
            measure_secs: 4.0,
            ..ProfilerConfig::smoke()
        };
        let p = measure_point(&cfg, Bytes::mib(128), 3_000.0);
        assert!(p.rows_per_sec > 1_000.0, "rows/s = {}", p.rows_per_sec);
        assert!(p.write_bytes_per_sec > 0.0);
        assert!(p.achieved_fraction > 0.5);
    }
}
