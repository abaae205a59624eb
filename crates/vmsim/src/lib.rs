//! # kairos-vmsim — virtualization baselines (§7.4)
//!
//! Three ways to put N database workloads on one physical machine:
//!
//! * **Consolidated DBMS** (Kairos' recommendation): one DBMS instance,
//!   one shared buffer pool, one log stream, N logical databases.
//! * **OS virtualization**: N DBMS processes on one kernel — no
//!   hypervisor tax, but N buffer pools, N log streams, N × the DBMS
//!   memory overhead.
//! * **Hardware virtualization** (VMware-style): N VMs, each carrying an
//!   OS *and* a DBMS copy, hypervisor CPU tax, and context-switch
//!   overhead on top.
//!
//! The §7.4 performance gaps emerge from exactly the mechanisms the paper
//! names: redundant log forces that no longer share group commit,
//! write-back streams that no longer sort across one big pool, RAM eaten
//! by per-instance OS/DBMS copies (which starves the per-VM buffer pools
//! and turns reads into random disk I/O), and extra CPU burn.

use kairos_dbsim::{DbmsConfig, DbmsInstance, Host, VirtOverheads};
use kairos_types::{Bytes, KairosError, MachineSpec, Result, TimeSeries};
use kairos_workloads::{Driver, TpccWorkload};

/// Memory footprint of one OS copy (§7.4: ≈64 MB).
pub const OS_RAM_OVERHEAD: Bytes = Bytes(64 * 1024 * 1024);
/// Memory footprint of one DBMS copy (§7.4: MySQL ≈190 MB).
pub const DBMS_RAM_OVERHEAD: Bytes = Bytes(190 * 1024 * 1024);
/// Hypervisor's own resident memory.
pub const HYPERVISOR_RAM: Bytes = Bytes(128 * 1024 * 1024);

/// The consolidation strategy under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// One shared DBMS instance hosting all databases.
    ConsolidatedDbms,
    /// One DBMS process per database on a single kernel.
    OsVirtualization,
    /// One VM (OS + DBMS) per database under a hypervisor.
    HardwareVirtualization,
}

impl Strategy {
    pub const ALL: [Strategy; 3] = [
        Strategy::ConsolidatedDbms,
        Strategy::OsVirtualization,
        Strategy::HardwareVirtualization,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Strategy::ConsolidatedDbms => "consolidated-dbms",
            Strategy::OsVirtualization => "os-virtualization",
            Strategy::HardwareVirtualization => "db-in-vm",
        }
    }
}

/// Offered-load shape: uniform across databases, or the paper's skewed
/// case ("19 databases are throttled to one request per second, and 1
/// database runs at maximum speed").
#[derive(Debug, Clone, Copy)]
pub enum LoadShape {
    Uniform { tps_per_db: f64 },
    Skewed { throttled_tps: f64, hot_tps: f64 },
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct ComparisonConfig {
    pub machine: MachineSpec,
    pub databases: usize,
    pub warehouses_per_db: u32,
    pub load: LoadShape,
    pub warmup_secs: f64,
    pub measure_secs: f64,
    /// Granularity of the Fig 10 throughput time series.
    pub series_window_secs: f64,
}

impl ComparisonConfig {
    /// The Fig 10 setup: 20 TPC-C databases at a fixed 20:1 consolidation
    /// level on a machine whose RAM comfortably fits the *shared* pool but
    /// leaves per-VM pools just short of each database's working set once
    /// 20 OS+DBMS copies take their cut — the §7.4 regime where the VM
    /// deployment thrashes while the consolidated DBMS stays in memory.
    pub fn fig10(load: LoadShape) -> ComparisonConfig {
        let mut machine = MachineSpec::server1();
        machine.ram = kairos_types::RamSpec::new(Bytes::mib(9728));
        ComparisonConfig {
            machine,
            databases: 20,
            warehouses_per_db: 2,
            load,
            warmup_secs: 30.0,
            measure_secs: 120.0,
            series_window_secs: 10.0,
        }
    }
}

/// Measured outcome for one strategy.
#[derive(Debug, Clone)]
pub struct StrategyOutcome {
    pub strategy: Strategy,
    /// Total committed tps per series window (Fig 10's curves).
    pub total_tps: TimeSeries,
    pub avg_total_tps: f64,
    pub per_db_tps: Vec<f64>,
    pub mean_latency_secs: f64,
}

impl StrategyOutcome {
    /// Average committed throughput per database.
    pub fn avg_tps_per_db(&self) -> f64 {
        if self.per_db_tps.is_empty() {
            0.0
        } else {
            self.per_db_tps.iter().sum::<f64>() / self.per_db_tps.len() as f64
        }
    }
}

/// Buffer-pool budget per instance for a strategy on a machine.
fn pool_budget(strategy: Strategy, machine: &MachineSpec, k: usize) -> Result<Bytes> {
    let total = machine.ram.total;
    let kf = k as u64;
    let overhead = match strategy {
        Strategy::ConsolidatedDbms => OS_RAM_OVERHEAD + DBMS_RAM_OVERHEAD,
        Strategy::OsVirtualization => OS_RAM_OVERHEAD + Bytes(DBMS_RAM_OVERHEAD.0 * kf),
        Strategy::HardwareVirtualization => {
            HYPERVISOR_RAM + Bytes((OS_RAM_OVERHEAD.0 + DBMS_RAM_OVERHEAD.0) * kf)
        }
    };
    let pool_total = total.saturating_sub(overhead);
    let per_instance = match strategy {
        Strategy::ConsolidatedDbms => pool_total,
        _ => Bytes(pool_total.0 / kf.max(1)),
    };
    if per_instance < Bytes::mib(16) {
        return Err(KairosError::InvalidInput(format!(
            "{} leaves {} per buffer pool on {} — unrunnable",
            strategy.label(),
            per_instance,
            machine.name
        )));
    }
    Ok(per_instance)
}

fn overheads(strategy: Strategy) -> VirtOverheads {
    match strategy {
        Strategy::ConsolidatedDbms => VirtOverheads::none(),
        Strategy::OsVirtualization => VirtOverheads::os_processes(),
        Strategy::HardwareVirtualization => VirtOverheads::hypervisor(),
    }
}

fn offered_tps(load: LoadShape, db_index: usize) -> f64 {
    match load {
        LoadShape::Uniform { tps_per_db } => tps_per_db,
        LoadShape::Skewed {
            throttled_tps,
            hot_tps,
        } => {
            if db_index == 0 {
                hot_tps
            } else {
                throttled_tps
            }
        }
    }
}

/// Run one strategy and measure it.
pub fn run_strategy(strategy: Strategy, cfg: &ComparisonConfig) -> Result<StrategyOutcome> {
    let k = cfg.databases;
    assert!(k >= 1, "need at least one database");
    let n_instances = match strategy {
        Strategy::ConsolidatedDbms => 1,
        _ => k,
    };
    let pool = pool_budget(strategy, &cfg.machine, k)?;

    let mut host = Host::new(cfg.machine.clone()).with_overheads(overheads(strategy));
    for i in 0..n_instances {
        let mut dbms = DbmsConfig::mysql(pool);
        dbms.seed = 0xF1610 ^ i as u64;
        host.add_instance(DbmsInstance::new(dbms));
    }

    let mut driver = Driver::new();
    for db in 0..k {
        let instance = match strategy {
            Strategy::ConsolidatedDbms => 0,
            _ => db,
        };
        let tps = offered_tps(cfg.load, db);
        let workload = TpccWorkload::new(cfg.warehouses_per_db, tps).named(format!("tpcc-db{db}"));
        driver.bind(&mut host, instance, Box::new(workload));
    }

    driver.warmup(&mut host, cfg.warmup_secs);

    let windows = (cfg.measure_secs / cfg.series_window_secs).round().max(1.0) as usize;
    let mut series = Vec::with_capacity(windows);
    let mut per_db = vec![0.0f64; k];
    let mut latency_weighted = 0.0;
    let mut committed_total = 0.0;
    for _ in 0..windows {
        let stats = driver.run(&mut host, cfg.series_window_secs);
        let mut window_tps = 0.0;
        for (i, s) in stats.iter().enumerate() {
            window_tps += s.tps();
            per_db[i] += s.committed_txns;
            latency_weighted += s.mean_latency_secs() * s.committed_txns;
            committed_total += s.committed_txns;
        }
        series.push(window_tps);
    }
    for v in &mut per_db {
        *v /= cfg.measure_secs;
    }

    let total_tps = TimeSeries::new(cfg.series_window_secs, series);
    Ok(StrategyOutcome {
        strategy,
        avg_total_tps: total_tps.mean(),
        per_db_tps: per_db,
        mean_latency_secs: if committed_total > 0.0 {
            latency_weighted / committed_total
        } else {
            0.0
        },
        total_tps,
    })
}

/// The Fig 11 sweep: average per-database throughput at increasing
/// consolidation levels, for one strategy.
pub fn consolidation_sweep(
    strategy: Strategy,
    levels: &[usize],
    tps_per_db: f64,
    cfg_base: &ComparisonConfig,
) -> Vec<(usize, f64)> {
    let mut out = Vec::with_capacity(levels.len());
    for &n in levels {
        let cfg = ComparisonConfig {
            databases: n,
            load: LoadShape::Uniform { tps_per_db },
            ..cfg_base.clone()
        };
        match run_strategy(strategy, &cfg) {
            Ok(outcome) => out.push((n, outcome.avg_tps_per_db())),
            Err(_) => out.push((n, 0.0)), // unrunnable level (no RAM left)
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(databases: usize, tps: f64) -> ComparisonConfig {
        ComparisonConfig {
            warmup_secs: 10.0,
            measure_secs: 30.0,
            series_window_secs: 5.0,
            databases,
            ..ComparisonConfig::fig10(LoadShape::Uniform { tps_per_db: tps })
        }
    }

    /// The scale where isolation hurts: 20 databases on one 8 GB machine.
    /// Per-VM buffer pools (~140 MB) cannot hold the 250 MB working sets,
    /// while the shared pool holds all twenty.
    fn fig10_scale() -> ComparisonConfig {
        quick_cfg(20, 25.0)
    }

    #[test]
    fn pool_budget_shrinks_with_isolation() {
        let m = ComparisonConfig::fig10(LoadShape::Uniform { tps_per_db: 1.0 }).machine;
        let cons = pool_budget(Strategy::ConsolidatedDbms, &m, 20).unwrap();
        let os = pool_budget(Strategy::OsVirtualization, &m, 20).unwrap();
        let vm = pool_budget(Strategy::HardwareVirtualization, &m, 20).unwrap();
        assert!(cons > Bytes(os.0 * 20), "shared pool beats 20 split pools");
        assert!(os > vm, "VM overhead exceeds process overhead");
    }

    #[test]
    fn pool_budget_can_become_unrunnable() {
        let mut m = MachineSpec::server2(); // 2 GB RAM
        m.ram = kairos_types::RamSpec::new(Bytes::gib(2));
        // 2 GB / 40 VMs with 254 MB overhead each: impossible.
        assert!(pool_budget(Strategy::HardwareVirtualization, &m, 40).is_err());
    }

    #[test]
    fn consolidated_beats_hardware_virtualization() {
        let cfg = fig10_scale();
        let cons = run_strategy(Strategy::ConsolidatedDbms, &cfg).unwrap();
        let vm = run_strategy(Strategy::HardwareVirtualization, &cfg).unwrap();
        assert!(
            cons.avg_total_tps > vm.avg_total_tps * 2.0,
            "consolidated {} vs VM {}",
            cons.avg_total_tps,
            vm.avg_total_tps
        );
    }

    #[test]
    fn consolidated_beats_os_virtualization_but_less() {
        let cfg = fig10_scale();
        let cons = run_strategy(Strategy::ConsolidatedDbms, &cfg).unwrap();
        let os = run_strategy(Strategy::OsVirtualization, &cfg).unwrap();
        let vm = run_strategy(Strategy::HardwareVirtualization, &cfg).unwrap();
        assert!(cons.avg_total_tps > os.avg_total_tps);
        assert!(
            os.avg_total_tps >= vm.avg_total_tps * 0.95,
            "OS virt should be no worse than full VMs: {} vs {}",
            os.avg_total_tps,
            vm.avg_total_tps
        );
    }

    #[test]
    fn skewed_load_keeps_consolidated_advantage() {
        let cfg = ComparisonConfig {
            warmup_secs: 10.0,
            measure_secs: 30.0,
            series_window_secs: 5.0,
            ..ComparisonConfig::fig10(LoadShape::Skewed {
                throttled_tps: 1.0,
                hot_tps: 200.0,
            })
        };
        let cons = run_strategy(Strategy::ConsolidatedDbms, &cfg).unwrap();
        let vm = run_strategy(Strategy::HardwareVirtualization, &cfg).unwrap();
        assert!(
            cons.avg_total_tps > vm.avg_total_tps,
            "consolidated {} vs VM {}",
            cons.avg_total_tps,
            vm.avg_total_tps
        );
        // The hot database dominates total throughput under consolidation.
        assert!(cons.per_db_tps[0] > cons.per_db_tps[1] * 10.0);
    }

    #[test]
    fn outcome_series_has_expected_windows() {
        let cfg = quick_cfg(4, 10.0);
        let out = run_strategy(Strategy::ConsolidatedDbms, &cfg).unwrap();
        assert_eq!(out.total_tps.len(), 6); // 30 s / 5 s
        assert_eq!(out.per_db_tps.len(), 4);
        assert!(out.mean_latency_secs > 0.0);
    }

    #[test]
    fn sweep_degrades_with_consolidation_level() {
        let base = quick_cfg(4, 40.0);
        let sweep = consolidation_sweep(Strategy::OsVirtualization, &[4, 16], 40.0, &base);
        assert_eq!(sweep.len(), 2);
        assert!(
            sweep[0].1 > sweep[1].1,
            "per-DB throughput should fall with more tenants: {sweep:?}"
        );
    }
}
