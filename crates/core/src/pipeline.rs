//! The end-to-end Kairos pipeline on the simulated deployment:
//! observe each workload on its dedicated server (resource monitor +
//! buffer-pool gauging), predict the combined load, plan, and verify the
//! plan by actually co-locating the workloads (§7.2's methodology:
//! "first use our monitoring tools to collect load statistics for
//! individual workloads in isolation, then predict their combined load
//! and compute a consolidation strategy [... then] physically co-locating
//! the workloads and running them").

use crate::engine::ConsolidationEngine;
use kairos_dbsim::{DbmsConfig, DbmsInstance, Host};
use kairos_monitor::{BufferGauge, GaugeParams, ResourceMonitor, SimGaugeEnv};
use kairos_types::{Bytes, MachineSpec, TimeSeries, WorkloadProfile};
use kairos_workloads::{Driver, Workload};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The dedicated server each workload currently runs on.
    pub source_machine: MachineSpec,
    /// Buffer pool of each source DBMS instance.
    pub source_buffer_pool: Bytes,
    /// Machine class to consolidate onto / verify against.
    pub target_machine: MachineSpec,
    /// Buffer pool of the consolidated instance.
    pub target_buffer_pool: Bytes,
    /// Monitoring window length.
    pub monitor_interval_secs: f64,
    /// Observation horizon per workload.
    pub observe_secs: f64,
    /// Warm-up before measurements.
    pub warmup_secs: f64,
    /// Run buffer-pool gauging after monitoring (recommended).
    pub gauge: bool,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            source_machine: MachineSpec::server1(),
            source_buffer_pool: Bytes::gib(8),
            target_machine: MachineSpec::server1(),
            target_buffer_pool: Bytes::gib(24),
            monitor_interval_secs: 5.0,
            observe_secs: 60.0,
            warmup_secs: 20.0,
            gauge: true,
        }
    }
}

/// What observing one workload on its dedicated server produced.
#[derive(Debug, Clone)]
pub struct WorkloadObservation {
    pub profile: WorkloadProfile,
    /// Gauged working set, when gauging ran.
    pub gauged_working_set: Option<Bytes>,
    /// What the OS would have claimed (allocated RAM).
    pub os_ram_view: Bytes,
    pub standalone_tps: f64,
    pub standalone_latency_secs: f64,
    pub standalone_p95_latency_secs: f64,
    /// Observed disk write throughput per window (the Fig 6 baseline's
    /// input: what naive iostat-summing would add up).
    pub observed_write_bytes: TimeSeries,
}

/// Per-workload measurement from a co-located verification run.
#[derive(Debug, Clone)]
pub struct VerifiedWorkload {
    pub name: String,
    pub tps: f64,
    pub mean_latency_secs: f64,
    pub p95_latency_secs: f64,
}

/// The pipeline runner.
pub struct Kairos {
    pub config: PipelineConfig,
}

impl Kairos {
    pub fn new(config: PipelineConfig) -> Kairos {
        Kairos { config }
    }

    /// Observe one workload in isolation on a dedicated source server.
    pub fn observe(&self, workload: Box<dyn Workload>) -> WorkloadObservation {
        let cfg = &self.config;
        let name = workload.name().to_string();
        let mut host = Host::new(cfg.source_machine.clone());
        host.add_instance(DbmsInstance::new(DbmsConfig::mysql(cfg.source_buffer_pool)));
        let mut driver = Driver::new();
        driver.bind(&mut host, 0, workload);
        let db = driver.bindings()[0].handle.db;

        driver.warmup(&mut host, cfg.warmup_secs);

        let mut monitor = ResourceMonitor::new(cfg.monitor_interval_secs, host.instance(0));
        let windows = (cfg.observe_secs / cfg.monitor_interval_secs).ceil() as usize;
        let mut committed = 0.0;
        let mut offered = 0.0;
        let mut lat_samples: Vec<(f64, f64)> = Vec::new();
        for _ in 0..windows {
            let stats = driver.run(&mut host, cfg.monitor_interval_secs);
            for s in &stats {
                committed += s.committed_txns;
                offered += s.offered_txns;
                if s.committed_txns > 0.0 {
                    lat_samples.push((s.mean_latency_secs(), s.committed_txns));
                }
            }
            monitor.sample(host.instance(0));
        }
        let _ = offered;

        let os_ram_view = host.instance(0).ram_allocated();
        let observed_write_bytes = TimeSeries::new(
            cfg.monitor_interval_secs,
            monitor
                .samples()
                .iter()
                .map(|s| s.write_bytes_per_sec)
                .collect(),
        );

        let gauged = if cfg.gauge {
            let mut env = SimGaugeEnv::new(&mut host, &mut driver, 0, db);
            let outcome = BufferGauge::new(GaugeParams {
                initial_step_pages: 256,
                max_step_pages: 4096,
                read_wait_secs: 1.0,
                window_secs: 5.0,
                ..Default::default()
            })
            .run(&mut env);
            Some(outcome.working_set)
        } else {
            None
        };

        let dbms_overhead = host.instance(0).config().ram_overhead;
        let profile = monitor.into_profile(&name, gauged, dbms_overhead);

        let mean_lat = {
            let (n, d) = lat_samples
                .iter()
                .fold((0.0, 0.0), |(n, d), &(l, w)| (n + l * w, d + w));
            if d > 0.0 {
                n / d
            } else {
                0.0
            }
        };
        let p95 = {
            let mut ls: Vec<f64> = lat_samples.iter().map(|&(l, _)| l).collect();
            ls.sort_by(|a, b| a.partial_cmp(b).expect("NaN latency"));
            if ls.is_empty() {
                0.0
            } else {
                kairos_types::series::percentile_of_sorted(&ls, 95.0)
            }
        };

        WorkloadObservation {
            profile,
            gauged_working_set: gauged,
            os_ram_view,
            standalone_tps: committed / cfg.observe_secs,
            standalone_latency_secs: mean_lat,
            standalone_p95_latency_secs: p95,
            observed_write_bytes,
        }
    }

    /// Observe several workloads (each on its own dedicated server).
    pub fn observe_all(
        &self,
        workloads: impl IntoIterator<Item = Box<dyn Workload>>,
    ) -> Vec<WorkloadObservation> {
        workloads.into_iter().map(|w| self.observe(w)).collect()
    }

    /// Co-locate workloads in ONE consolidated DBMS instance on the target
    /// machine, run them, and measure each — the §7.2 validation step.
    pub fn verify_colocated(
        &self,
        workloads: Vec<Box<dyn Workload>>,
        measure_secs: f64,
    ) -> Vec<VerifiedWorkload> {
        let cfg = &self.config;
        let mut host = Host::new(cfg.target_machine.clone());
        host.add_instance(DbmsInstance::new(DbmsConfig::mysql(cfg.target_buffer_pool)));
        let mut driver = Driver::new();
        let names: Vec<String> = workloads.iter().map(|w| w.name().to_string()).collect();
        for w in workloads {
            driver.bind(&mut host, 0, w);
        }
        driver.warmup(&mut host, cfg.warmup_secs);
        let stats = driver.run(&mut host, measure_secs);
        names
            .into_iter()
            .zip(stats)
            .map(|(name, s)| VerifiedWorkload {
                name,
                tps: s.tps(),
                mean_latency_secs: s.mean_latency_secs(),
                p95_latency_secs: s.latency_percentile_secs(95.0),
            })
            .collect()
    }

    /// Full pipeline: observe in isolation, then plan with `engine`.
    pub fn plan(
        &self,
        engine: &ConsolidationEngine,
        workloads: impl IntoIterator<Item = Box<dyn Workload>>,
    ) -> kairos_types::Result<(Vec<WorkloadObservation>, crate::engine::ConsolidationPlan)> {
        let observations = self.observe_all(workloads);
        let profiles: Vec<WorkloadProfile> =
            observations.iter().map(|o| o.profile.clone()).collect();
        let plan = engine.consolidate(&profiles)?;
        Ok((observations, plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_workloads::{RatePattern, SyntheticSpec, SyntheticWorkload};

    fn quick_pipeline(gauge: bool) -> Kairos {
        Kairos::new(PipelineConfig {
            source_buffer_pool: Bytes::mib(512),
            target_buffer_pool: Bytes::gib(2),
            observe_secs: 20.0,
            warmup_secs: 10.0,
            monitor_interval_secs: 5.0,
            gauge,
            ..Default::default()
        })
    }

    fn workload(name: &str, ws_mib: u64, tps: f64) -> Box<dyn kairos_workloads::Workload> {
        Box::new(SyntheticWorkload::new(SyntheticSpec::balanced(
            name,
            Bytes::mib(ws_mib),
            RatePattern::Flat { tps },
        )))
    }

    #[test]
    fn observe_produces_calibrated_profile() {
        let kairos = quick_pipeline(false);
        let obs = kairos.observe(workload("w", 64, 50.0));
        assert!(
            (obs.standalone_tps - 50.0).abs() < 3.0,
            "tps {}",
            obs.standalone_tps
        );
        assert!(obs.standalone_latency_secs > 0.0);
        assert!(obs.profile.windows() >= 4);
        // CPU profile reflects real usage, far below the 8-core machine.
        assert!(obs.profile.cpu_cores.max() < 2.0);
        assert!(obs.observed_write_bytes.mean() > 0.0);
    }

    #[test]
    fn gauged_ram_is_much_smaller_than_os_view() {
        let kairos = quick_pipeline(true);
        let obs = kairos.observe(workload("w", 64, 50.0));
        let gauged = obs.gauged_working_set.expect("gauging ran");
        // 64 MiB working set inside a 512 MiB pool: the OS claims the whole
        // pool + overhead; gauging must reclaim most of it.
        assert!(gauged < Bytes::mib(160), "gauged {gauged}");
        assert!(obs.os_ram_view > Bytes::mib(500));
    }

    #[test]
    fn verify_colocated_reports_per_workload() {
        let kairos = quick_pipeline(false);
        let out =
            kairos.verify_colocated(vec![workload("a", 32, 30.0), workload("b", 32, 60.0)], 20.0);
        assert_eq!(out.len(), 2);
        assert!((out[0].tps - 30.0).abs() < 3.0);
        assert!((out[1].tps - 60.0).abs() < 3.0);
        assert!(out[0].p95_latency_secs >= out[0].mean_latency_secs * 0.5);
    }

    #[test]
    fn full_plan_pipeline() {
        let kairos = quick_pipeline(false);
        let engine = ConsolidationEngine::builder().build();
        let (obs, plan) = kairos
            .plan(
                &engine,
                vec![workload("a", 32, 20.0), workload("b", 32, 20.0)],
            )
            .unwrap();
        assert_eq!(obs.len(), 2);
        assert!(plan.report.evaluation.feasible);
        assert_eq!(plan.machines_used(), 1, "two tiny workloads share one box");
    }
}
