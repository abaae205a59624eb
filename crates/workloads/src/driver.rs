//! Simulation driver: binds workloads to instances and runs the clock.
//!
//! The driver is the "client machines" of the paper's testbed: it offers
//! transactions at each workload's scheduled rate, collects per-workload
//! throughput and latency, and leaves all resource arbitration to the
//! [`kairos_dbsim::Host`].

use crate::{Workload, WorkloadHandle};
use kairos_dbsim::{DatabaseId, Host, OpBatch, DEFAULT_TICK_SECS};
use kairos_types::series::percentile_of_sorted;

/// A workload bound to a DBMS instance on the host.
pub struct Binding {
    pub instance: usize,
    pub handle: WorkloadHandle,
    pub workload: Box<dyn Workload>,
}

/// Per-workload measurements from a run.
#[derive(Debug, Clone)]
pub struct WorkloadRunStats {
    pub name: String,
    pub offered_txns: f64,
    pub committed_txns: f64,
    pub secs: f64,
    /// Per-tick mean latency samples (seconds), weighted by commits when
    /// summarized.
    latencies: Vec<(f64, f64)>, // (latency, committed weight)
}

impl WorkloadRunStats {
    fn new(name: String) -> WorkloadRunStats {
        WorkloadRunStats {
            name,
            offered_txns: 0.0,
            committed_txns: 0.0,
            secs: 0.0,
            latencies: Vec::new(),
        }
    }

    /// Committed transactions per second.
    pub fn tps(&self) -> f64 {
        if self.secs == 0.0 {
            0.0
        } else {
            self.committed_txns / self.secs
        }
    }

    /// Offered transactions per second.
    pub fn offered_tps(&self) -> f64 {
        if self.secs == 0.0 {
            0.0
        } else {
            self.offered_txns / self.secs
        }
    }

    /// Commit-weighted mean latency in seconds.
    pub fn mean_latency_secs(&self) -> f64 {
        let (num, den) = self
            .latencies
            .iter()
            .fold((0.0, 0.0), |(n, d), &(l, w)| (n + l * w, d + w));
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// Latency percentile over tick samples (ignores weights below one
    /// commit to avoid idle-tick noise).
    pub fn latency_percentile_secs(&self, p: f64) -> f64 {
        let mut samples: Vec<f64> = self
            .latencies
            .iter()
            .filter(|&&(_, w)| w >= 1.0)
            .map(|&(l, _)| l)
            .collect();
        if samples.is_empty() {
            return 0.0;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN latency"));
        percentile_of_sorted(&samples, p)
    }
}

/// Runs bound workloads against a host.
pub struct Driver {
    bindings: Vec<Binding>,
    now: f64,
}

impl Default for Driver {
    fn default() -> Driver {
        Driver::new()
    }
}

impl Driver {
    pub fn new() -> Driver {
        Driver {
            bindings: Vec::new(),
            now: 0.0,
        }
    }

    pub fn now(&self) -> f64 {
        self.now
    }

    pub fn bindings(&self) -> &[Binding] {
        &self.bindings
    }

    /// Install a workload into instance `instance` of `host` and bind it.
    pub fn bind(&mut self, host: &mut Host, instance: usize, mut workload: Box<dyn Workload>) {
        let handle = workload.install(host.instance_mut(instance));
        self.bindings.push(Binding {
            instance,
            handle,
            workload,
        });
    }

    /// Run for `secs` of simulated time; returns per-binding stats.
    pub fn run(&mut self, host: &mut Host, secs: f64) -> Vec<WorkloadRunStats> {
        let n_inst = host.instances().len();
        let mut stats: Vec<WorkloadRunStats> = self
            .bindings
            .iter()
            .map(|b| WorkloadRunStats::new(b.workload.name().to_string()))
            .collect();

        let ticks = (secs / DEFAULT_TICK_SECS).round() as usize;
        for _ in 0..ticks {
            // Gather batches per instance.
            let mut loads: Vec<Vec<(DatabaseId, OpBatch)>> = vec![Vec::new(); n_inst];
            let mut offered: Vec<f64> = Vec::with_capacity(self.bindings.len());
            for b in self.bindings.iter_mut() {
                let batch = b.workload.batch(&b.handle, self.now, DEFAULT_TICK_SECS);
                offered.push(batch.txns);
                loads[b.instance].push((b.handle.db, batch));
            }
            let report = host.tick(DEFAULT_TICK_SECS, &loads);
            // Attribute per-db commits back to bindings.
            for (bi, b) in self.bindings.iter().enumerate() {
                let inst_result = &report.per_instance[b.instance];
                let committed = inst_result
                    .per_db_committed
                    .iter()
                    .find(|(db, _)| *db == b.handle.db)
                    .map(|(_, c)| *c)
                    .unwrap_or(0.0);
                let s = &mut stats[bi];
                s.offered_txns += offered[bi];
                s.committed_txns += committed;
                s.secs += DEFAULT_TICK_SECS;
                if committed > 0.0 {
                    s.latencies.push((inst_result.mean_latency_secs, committed));
                }
            }
            self.now += DEFAULT_TICK_SECS;
        }
        stats
    }

    /// Run and discard measurements (warm-up).
    pub fn warmup(&mut self, host: &mut Host, secs: f64) {
        let _ = self.run(host, secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{SyntheticSpec, SyntheticWorkload};
    use crate::RatePattern;
    use kairos_dbsim::{DbmsConfig, DbmsInstance};
    use kairos_types::{Bytes, MachineSpec};

    fn small_workload(name: &str, tps: f64) -> Box<dyn Workload> {
        let spec = SyntheticSpec::balanced(name, Bytes::mib(32), RatePattern::Flat { tps });
        Box::new(SyntheticWorkload::new(spec))
    }

    fn host_one_instance() -> Host {
        let mut host = Host::new(MachineSpec::server1());
        host.add_instance(DbmsInstance::new(DbmsConfig::mysql(Bytes::mib(256))));
        host
    }

    #[test]
    fn driver_commits_offered_load_under_capacity() {
        let mut host = host_one_instance();
        let mut driver = Driver::new();
        driver.bind(&mut host, 0, small_workload("a", 50.0));
        let stats = driver.run(&mut host, 20.0);
        assert_eq!(stats.len(), 1);
        assert!(
            (stats[0].tps() - 50.0).abs() < 2.0,
            "tps = {}",
            stats[0].tps()
        );
        assert!(stats[0].mean_latency_secs() > 0.0);
    }

    #[test]
    fn multiple_workloads_share_one_instance() {
        let mut host = host_one_instance();
        let mut driver = Driver::new();
        driver.bind(&mut host, 0, small_workload("a", 30.0));
        driver.bind(&mut host, 0, small_workload("b", 60.0));
        let stats = driver.run(&mut host, 10.0);
        assert!((stats[0].tps() - 30.0).abs() < 2.0);
        assert!((stats[1].tps() - 60.0).abs() < 2.0);
    }

    #[test]
    fn workloads_on_separate_instances() {
        let mut host = Host::new(MachineSpec::server1());
        host.add_instance(DbmsInstance::new(DbmsConfig::mysql(Bytes::mib(128))));
        host.add_instance(DbmsInstance::new(DbmsConfig::mysql(Bytes::mib(128))));
        let mut driver = Driver::new();
        driver.bind(&mut host, 0, small_workload("a", 20.0));
        driver.bind(&mut host, 1, small_workload("b", 20.0));
        let stats = driver.run(&mut host, 10.0);
        assert!((stats[0].tps() - 20.0).abs() < 2.0);
        assert!((stats[1].tps() - 20.0).abs() < 2.0);
    }

    #[test]
    fn latency_percentiles_ordered() {
        let mut host = host_one_instance();
        let mut driver = Driver::new();
        driver.bind(&mut host, 0, small_workload("a", 100.0));
        let stats = driver.run(&mut host, 20.0);
        let p50 = stats[0].latency_percentile_secs(50.0);
        let p95 = stats[0].latency_percentile_secs(95.0);
        assert!(p50 > 0.0);
        assert!(p95 >= p50);
    }

    #[test]
    fn time_advances_across_runs() {
        let mut host = host_one_instance();
        let mut driver = Driver::new();
        driver.bind(&mut host, 0, small_workload("a", 10.0));
        driver.warmup(&mut host, 5.0);
        assert!((driver.now() - 5.0).abs() < 1e-9);
        driver.run(&mut host, 5.0);
        assert!((driver.now() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn overload_reports_lost_throughput() {
        // A 32 MiB-working-set workload with absurd CPU cost per txn.
        let spec = SyntheticSpec {
            cpu_secs_per_txn: 50e-3,
            ..SyntheticSpec::balanced("hog", Bytes::mib(32), RatePattern::Flat { tps: 500.0 })
        };
        let mut host = host_one_instance();
        let mut driver = Driver::new();
        driver.bind(&mut host, 0, Box::new(SyntheticWorkload::new(spec)));
        let stats = driver.run(&mut host, 10.0);
        // 500 tps * 50 ms = 25 core-seconds/sec >> 8 cores.
        assert!(stats[0].tps() < 250.0, "tps = {}", stats[0].tps());
        assert!(stats[0].offered_tps() > 490.0);
    }
}
