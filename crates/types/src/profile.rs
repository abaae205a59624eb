//! Workload resource profiles — the monitor's output and the
//! consolidation engine's input.
//!
//! A [`WorkloadProfile`] carries, per workload:
//! * a CPU series in standardized-core units,
//! * a RAM series in bytes (post-gauging working set, not OS RSS),
//! * a disk-demand series as the *(working set, row-update rate)* pairs the
//!   non-linear disk model needs (§4.1: disk I/O of a combined workload is a
//!   function of aggregate working set and aggregate update rate, not the
//!   sum of individual byte rates),
//! * plus placement metadata: replica count and optional pinning (§5).

use crate::series::TimeSeries;
use crate::units::{Bytes, Rate};
use serde::{Deserialize, Serialize};

/// Disk demand at one time window: the two parameters the empirical disk
/// profile is keyed on.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DiskDemand {
    /// Working-set size in bytes.
    pub working_set: Bytes,
    /// Row modification rate (update/insert/delete rows per second).
    pub update_rows_per_sec: Rate,
}

impl DiskDemand {
    pub fn new(working_set: Bytes, update_rows_per_sec: Rate) -> DiskDemand {
        DiskDemand {
            working_set,
            update_rows_per_sec,
        }
    }

    /// Aggregate two demands: working sets and update rates both add (the
    /// central combination property validated in §7.5 / Fig 12).
    pub fn combine(self, other: DiskDemand) -> DiskDemand {
        DiskDemand {
            working_set: self.working_set + other.working_set,
            update_rows_per_sec: self.update_rows_per_sec + other.update_rows_per_sec,
        }
    }
}

impl std::iter::Sum for DiskDemand {
    fn sum<I: Iterator<Item = DiskDemand>>(iter: I) -> DiskDemand {
        iter.fold(DiskDemand::default(), DiskDemand::combine)
    }
}

/// One sampled time window of a workload profile, convenient for iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileWindow {
    /// CPU in standardized cores.
    pub cpu_cores: f64,
    /// Required RAM in bytes.
    pub ram: Bytes,
    /// Disk demand parameters.
    pub disk: DiskDemand,
}

/// Resource utilization of one database workload over time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Stable identifier (e.g. hostname of the source server).
    pub name: String,
    /// CPU series in standardized-core units.
    pub cpu_cores: TimeSeries,
    /// RAM series in bytes (gauged working set + per-database overhead).
    pub ram_bytes: TimeSeries,
    /// Working-set size series in bytes (disk-model input).
    pub disk_working_set_bytes: TimeSeries,
    /// Row-update-rate series in rows/second (disk-model input).
    pub disk_update_rows_per_sec: TimeSeries,
    /// Number of replicas to place (`R_i` in §5); 1 = unreplicated.
    pub replicas: u32,
    /// If set, this workload must be placed on the named machine (§5's
    /// pinning constraint `x_{i'j'} = 1`).
    pub pinned_to: Option<String>,
}

impl WorkloadProfile {
    /// Create a profile with uniform sampling; all four series must share
    /// the interval and the longest defines the horizon.
    pub fn new(
        name: impl Into<String>,
        cpu_cores: TimeSeries,
        ram_bytes: TimeSeries,
        disk_working_set_bytes: TimeSeries,
        disk_update_rows_per_sec: TimeSeries,
    ) -> WorkloadProfile {
        let interval = cpu_cores.interval_secs();
        for s in [
            &ram_bytes,
            &disk_working_set_bytes,
            &disk_update_rows_per_sec,
        ] {
            assert!(
                (s.interval_secs() - interval).abs() < f64::EPSILON,
                "profile series must share one sampling interval"
            );
        }
        WorkloadProfile {
            name: name.into(),
            cpu_cores,
            ram_bytes,
            disk_working_set_bytes,
            disk_update_rows_per_sec,
            replicas: 1,
            pinned_to: None,
        }
    }

    /// A flat profile: constant load over `windows` samples. Useful for
    /// tests and the controlled experiments of §7.2.
    pub fn flat(
        name: impl Into<String>,
        interval_secs: f64,
        windows: usize,
        cpu_cores: f64,
        ram: Bytes,
        disk: DiskDemand,
    ) -> WorkloadProfile {
        WorkloadProfile::new(
            name,
            TimeSeries::constant(interval_secs, cpu_cores, windows),
            TimeSeries::constant(interval_secs, ram.as_f64(), windows),
            TimeSeries::constant(interval_secs, disk.working_set.as_f64(), windows),
            TimeSeries::constant(interval_secs, disk.update_rows_per_sec.as_f64(), windows),
        )
    }

    pub fn pinned(mut self, machine: impl Into<String>) -> WorkloadProfile {
        self.pinned_to = Some(machine.into());
        self
    }

    /// Number of sampled windows (longest series).
    pub fn windows(&self) -> usize {
        self.cpu_cores
            .len()
            .max(self.ram_bytes.len())
            .max(self.disk_working_set_bytes.len())
            .max(self.disk_update_rows_per_sec.len())
    }

    pub fn interval_secs(&self) -> f64 {
        self.cpu_cores.interval_secs()
    }

    /// The profile at window `t` (out-of-range series read as zero).
    pub fn window(&self, t: usize) -> ProfileWindow {
        let get = |s: &TimeSeries| s.values().get(t).copied().unwrap_or(0.0);
        ProfileWindow {
            cpu_cores: get(&self.cpu_cores),
            ram: Bytes(get(&self.ram_bytes).max(0.0) as u64),
            disk: DiskDemand::new(
                Bytes(get(&self.disk_working_set_bytes).max(0.0) as u64),
                Rate(get(&self.disk_update_rows_per_sec)),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> WorkloadProfile {
        WorkloadProfile::new(
            "w0",
            TimeSeries::new(300.0, vec![0.5, 1.5, 1.0]),
            TimeSeries::new(300.0, vec![1e9, 2e9, 1.5e9]),
            TimeSeries::new(300.0, vec![5e8, 5e8, 5e8]),
            TimeSeries::new(300.0, vec![100.0, 400.0, 200.0]),
        )
    }

    #[test]
    fn window_access() {
        let p = demo();
        let w = p.window(1);
        assert_eq!(w.cpu_cores, 1.5);
        assert_eq!(w.ram, Bytes(2_000_000_000));
        assert_eq!(w.disk.update_rows_per_sec, Rate(400.0));
    }

    #[test]
    fn window_out_of_range_is_zero() {
        let p = demo();
        let w = p.window(99);
        assert_eq!(w.cpu_cores, 0.0);
        assert_eq!(w.ram, Bytes::ZERO);
    }

    #[test]
    fn disk_demand_combines_additively() {
        let a = DiskDemand::new(Bytes::mib(100), Rate(50.0));
        let b = DiskDemand::new(Bytes::mib(200), Rate(75.0));
        let c = a.combine(b);
        assert_eq!(c.working_set, Bytes::mib(300));
        assert_eq!(c.update_rows_per_sec, Rate(125.0));
    }

    #[test]
    fn disk_demand_sum() {
        let total: DiskDemand = [
            DiskDemand::new(Bytes::mib(1), Rate(1.0)),
            DiskDemand::new(Bytes::mib(2), Rate(2.0)),
            DiskDemand::new(Bytes::mib(3), Rate(3.0)),
        ]
        .into_iter()
        .sum();
        assert_eq!(total.working_set, Bytes::mib(6));
        assert_eq!(total.update_rows_per_sec, Rate(6.0));
    }

    #[test]
    fn flat_profile_shape() {
        let p = WorkloadProfile::flat(
            "f",
            300.0,
            10,
            0.25,
            Bytes::mib(512),
            DiskDemand::new(Bytes::mib(512), Rate(10.0)),
        );
        assert_eq!(p.windows(), 10);
        assert_eq!(p.window(9).cpu_cores, 0.25);
    }

    #[test]
    fn pinned_builder() {
        let p = demo().pinned("m1");
        assert_eq!(p.pinned_to.as_deref(), Some("m1"));
    }

    #[test]
    #[should_panic(expected = "share one sampling interval")]
    fn mismatched_intervals_rejected() {
        WorkloadProfile::new(
            "bad",
            TimeSeries::new(300.0, vec![1.0]),
            TimeSeries::new(60.0, vec![1.0]),
            TimeSeries::new(300.0, vec![1.0]),
            TimeSeries::new(300.0, vec![1.0]),
        );
    }
}
