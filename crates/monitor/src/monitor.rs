//! Periodic statistics collection.
//!
//! The monitor differences [`kairos_dbsim::InstanceStats`] snapshots at a
//! fixed interval — the simulator's equivalent of polling MySQL's `SHOW
//! STATUS` over JDBC and `iostat`/`/proc` over SSH (§6). Each interval
//! yields a [`MonitorSample`]; a completed run converts into the
//! [`WorkloadProfile`] the consolidation engine consumes.

use kairos_dbsim::{DbmsInstance, InstanceStats};
use kairos_types::{Bytes, TimeSeries, WorkloadProfile};

/// One monitoring interval's derived measurements.
#[derive(Debug, Clone, Copy)]
pub struct MonitorSample {
    /// Interval length (seconds of simulated time).
    pub secs: f64,
    /// Average CPU load in standardized cores.
    pub cpu_cores: f64,
    /// RAM the OS reports allocated/active for the DBMS.
    pub ram_os_view: Bytes,
    /// Committed transactions per second.
    pub tps: f64,
    /// Rows modified per second (the disk model's rate input).
    pub rows_updated_per_sec: f64,
    /// Physical page reads per second.
    pub reads_per_sec: f64,
    /// Disk bytes written per second (log + pages), the iostat view.
    pub write_bytes_per_sec: f64,
    /// Buffer-pool miss ratio over the interval.
    pub bp_miss_ratio: f64,
    /// Mean transaction latency over the interval.
    pub mean_latency_secs: f64,
}

/// Collects interval samples from one DBMS instance.
#[derive(Debug)]
pub struct ResourceMonitor {
    interval_secs: f64,
    last: InstanceStats,
    samples: Vec<MonitorSample>,
}

impl ResourceMonitor {
    /// Start monitoring; the caller samples every `interval_secs` of
    /// simulated time (the paper uses 5-minute windows on production data
    /// and finer windows in the lab).
    pub fn new(interval_secs: f64, inst: &DbmsInstance) -> ResourceMonitor {
        assert!(interval_secs > 0.0);
        ResourceMonitor {
            interval_secs,
            last: inst.stats(),
            samples: Vec::new(),
        }
    }

    pub fn interval_secs(&self) -> f64 {
        self.interval_secs
    }

    /// Record one interval ending now.
    pub fn sample(&mut self, inst: &DbmsInstance) -> MonitorSample {
        let now = inst.stats();
        let delta = now.delta(&self.last);
        self.last = now;
        let page_bytes = inst.page_size().as_f64();
        let secs = if delta.sim_secs > 0.0 {
            delta.sim_secs
        } else {
            self.interval_secs
        };
        let miss_ratio = {
            let total = delta.bp_hits + delta.bp_misses;
            if total > 0.0 {
                delta.bp_misses / total
            } else {
                0.0
            }
        };
        let s = MonitorSample {
            secs,
            cpu_cores: delta.cpu_core_secs / secs,
            ram_os_view: inst.ram_allocated(),
            tps: delta.committed_txns / secs,
            rows_updated_per_sec: delta.rows_updated / secs,
            reads_per_sec: delta.physical_read_pages / secs,
            write_bytes_per_sec: (delta.log_bytes + delta.physical_write_pages * page_bytes) / secs,
            bp_miss_ratio: miss_ratio,
            mean_latency_secs: if delta.committed_txns > 0.0 {
                delta.latency_weighted_secs / delta.committed_txns
            } else {
                0.0
            },
        };
        self.samples.push(s);
        s
    }

    pub fn samples(&self) -> &[MonitorSample] {
        &self.samples
    }

    /// Build the consolidation-engine input. `gauged_working_set` replaces
    /// the OS RAM view when buffer-pool gauging ran (the §3.1 correction);
    /// pass `None` to fall back to the OS view (what the historical
    /// datasets force, cf. §6 "RAM scaling").
    pub fn into_profile(
        self,
        name: impl Into<String>,
        gauged_working_set: Option<Bytes>,
        dbms_overhead: Bytes,
    ) -> WorkloadProfile {
        let iv = self.interval_secs;
        let cpu = TimeSeries::new(iv, self.samples.iter().map(|s| s.cpu_cores).collect());
        let ram = TimeSeries::new(
            iv,
            self.samples
                .iter()
                .map(|s| match gauged_working_set {
                    Some(ws) => (ws + dbms_overhead).as_f64(),
                    None => s.ram_os_view.as_f64(),
                })
                .collect(),
        );
        let ws = TimeSeries::new(
            iv,
            self.samples
                .iter()
                .map(|s| match gauged_working_set {
                    Some(w) => w.as_f64(),
                    None => s.ram_os_view.as_f64(),
                })
                .collect(),
        );
        let rows = TimeSeries::new(
            iv,
            self.samples
                .iter()
                .map(|s| s.rows_updated_per_sec)
                .collect(),
        );
        WorkloadProfile::new(name, cpu, ram, ws, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_dbsim::{DatabaseId, DbmsConfig, DeviceGrant, OpBatch, UpdateSpec};

    fn grant() -> DeviceGrant {
        DeviceGrant {
            fg_fraction: 1.0,
            writeback_pages: 1e9,
            cpu_fraction: 1.0,
            cpu_latency_factor: 1.0,
            read_service_secs: 0.008,
            disk_utilization: 0.1,
        }
    }

    fn busy_instance() -> (DbmsInstance, DatabaseId, kairos_dbsim::TableId) {
        let mut inst = DbmsInstance::new(DbmsConfig::mysql(Bytes::mib(64)));
        let db = inst.create_database();
        let t = inst.create_table(db, 100_000, 164).unwrap();
        inst.prewarm_table(t);
        (inst, db, t)
    }

    #[test]
    fn sample_computes_interval_rates() {
        let (mut inst, db, t) = busy_instance();
        let mut mon = ResourceMonitor::new(1.0, &inst);
        for _ in 0..10 {
            let batch = OpBatch {
                txns: 20.0,
                updates: vec![UpdateSpec {
                    table: t,
                    prefix_pages: 0,
                    rows: 200.0,
                }],
                cpu_core_secs: 0.01,
                ..Default::default()
            };
            inst.prepare_tick(0.1, &[(db, batch)]);
            inst.complete_tick(0.1, grant());
        }
        let s = mon.sample(&inst);
        assert!((s.secs - 1.0).abs() < 1e-9);
        assert!((s.tps - 200.0).abs() < 1.0, "tps = {}", s.tps);
        assert!((s.rows_updated_per_sec - 2000.0).abs() < 10.0);
        assert!(s.write_bytes_per_sec > 0.0);
        assert!(s.cpu_cores > 0.0);
    }

    #[test]
    fn profile_uses_gauged_ws_when_available() {
        let (mut inst, db, t) = busy_instance();
        let mut mon = ResourceMonitor::new(1.0, &inst);
        for _ in 0..20 {
            let batch = OpBatch {
                txns: 5.0,
                updates: vec![UpdateSpec {
                    table: t,
                    prefix_pages: 0,
                    rows: 50.0,
                }],
                ..Default::default()
            };
            inst.prepare_tick(0.1, &[(db, batch)]);
            inst.complete_tick(0.1, grant());
            if inst.stats().sim_secs.rem_euclid(1.0) < 1e-9 {
                mon.sample(&inst);
            }
        }
        let gauged = Bytes::mib(20);
        let overhead = Bytes::mib(190);
        let profile = mon.into_profile("w", Some(gauged), overhead);
        assert!(profile.windows() > 0);
        assert_eq!(profile.window(0).ram, gauged + overhead);
        assert_eq!(profile.window(0).disk.working_set, gauged);
        assert!(profile.window(0).disk.update_rows_per_sec.as_f64() > 0.0);
    }

    #[test]
    fn profile_falls_back_to_os_view() {
        let (mut inst, _db, _t) = busy_instance();
        let mut mon = ResourceMonitor::new(1.0, &inst);
        inst.prepare_tick(0.1, &[]);
        inst.complete_tick(0.1, grant());
        mon.sample(&inst);
        let os_view = inst.ram_allocated();
        let profile = mon.into_profile("w", None, Bytes::ZERO);
        assert_eq!(profile.window(0).ram, os_view);
    }

    #[test]
    fn idle_interval_has_zero_rates() {
        let (mut inst, _db, _t) = busy_instance();
        let mut mon = ResourceMonitor::new(1.0, &inst);
        for _ in 0..10 {
            inst.prepare_tick(0.1, &[]);
            inst.complete_tick(0.1, grant());
        }
        let s = mon.sample(&inst);
        assert_eq!(s.tps, 0.0);
        assert_eq!(s.rows_updated_per_sec, 0.0);
        assert_eq!(s.mean_latency_secs, 0.0);
    }
}
