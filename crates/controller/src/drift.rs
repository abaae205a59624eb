//! Drift detection: is the live window still the workload the current
//! placement was solved for?
//!
//! The paper's Fig 13 predictability result (weekly periods predict the
//! next week within 7–8 % relative RMSE) justifies planning on a past
//! horizon at all; the same error measure, applied online, tells us when
//! that justification has expired. Each resource series of the live
//! rolling window is compared, phase-aligned, against the planned
//! profile — but *one-sidedly*:
//!
//! * **overload** (live above planned) threatens feasibility and trips
//!   fast;
//! * **slack** (live below planned) only wastes machines, so it trips at
//!   a lazier threshold — scale-up is urgent, scale-down is housekeeping.
//!
//! The split is what lets the loop converge: a re-plan that provisioned a
//! conservative envelope for a new regime sits *above* the live load, and
//! must not itself read as drift.

use kairos_traces::RollingWindow;
use kairos_types::{TimeSeries, WorkloadProfile};
use std::ptr;

/// One resource's one-sided relative errors.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResourceDrift {
    /// Relative RMSE of live *excess* over planned (`max(live−planned,0)`),
    /// over the planned mean. Capacity risk.
    pub overload: f64,
    /// Relative RMSE of live *shortfall* under planned. Wasted headroom.
    pub slack: f64,
}

/// Per-workload drift verdict.
#[derive(Debug, Clone)]
pub struct DriftReport {
    pub workload: String,
    pub cpu: ResourceDrift,
    pub ram: ResourceDrift,
    pub working_set: ResourceDrift,
    pub update_rate: ResourceDrift,
    /// Worst overload error across the four resources.
    pub max_overload: f64,
    /// Worst slack error across the four resources.
    pub max_slack: f64,
    /// Did either side trip its threshold (with enough live samples)?
    pub drifted: bool,
}

/// The detector.
#[derive(Debug, Clone, Copy)]
pub struct DriftDetector {
    /// Overload trip point. The paper's predictable fleets sit at
    /// 0.07–0.08 relative error; the default trips at ~3× that, outside
    /// measurement noise but well before saturation.
    pub overload_threshold: f64,
    /// Slack trip point (lazier: consolidation opportunity, not risk).
    pub slack_threshold: f64,
    /// Minimum live samples before a verdict.
    pub min_windows: usize,
}

impl Default for DriftDetector {
    fn default() -> DriftDetector {
        DriftDetector {
            overload_threshold: 0.25,
            slack_threshold: 0.5,
            min_windows: 4,
        }
    }
}

impl DriftDetector {
    /// Compare `live` (the rolling window, oldest first, ending *now*)
    /// against `planned` (the horizon the current placement was solved
    /// for). `now_index` is the global sample index of the live window's
    /// final sample; it phase-aligns the comparison so periodic planned
    /// profiles (diurnal horizons) are compared against the right part of
    /// their cycle.
    pub fn check(
        &self,
        planned: &WorkloadProfile,
        live: &WorkloadProfile,
        now_index: u64,
    ) -> DriftReport {
        let live_windows = [
            &live.cpu_cores,
            &live.ram_bytes,
            &live.disk_working_set_bytes,
            &live.disk_update_rows_per_sec,
        ]
        .map(RollingWindow::of);
        let mut report = self.check_windows(planned, live_windows, now_index);
        report.workload = live.name.clone();
        report
    }

    /// [`DriftDetector::check`] over live windows read in place, given as
    /// `[cpu, ram, working-set, rate]` — the one drift kernel. The report's
    /// `workload` is left empty (allocated by whoever keeps the report).
    #[inline]
    pub(crate) fn check_windows(
        &self,
        planned: &WorkloadProfile,
        live: [RollingWindow<'_>; 4],
        now_index: u64,
    ) -> DriftReport {
        let horizon = planned.windows().max(1);
        let m = live.iter().map(|w| w.len()).max().unwrap_or(0);
        // Phase of the live window's first sample within the planned cycle.
        let start = ((now_index + 1).saturating_sub(m as u64) % horizon as u64) as usize;
        let drift_of = |planned_s: &TimeSeries, live_s: RollingWindow<'_>| {
            let n = live_s.len();
            if n == 0 {
                return ResourceDrift::default();
            }
            let (mut over_sq, mut under_sq) = (0.0f64, 0.0f64);
            let mut p = start;
            for &v in live_s.older.iter().chain(live_s.newer) {
                let d = v - planned_s.values().get(p).copied().unwrap_or(0.0);
                p = if p + 1 == horizon { 0 } else { p + 1 };
                // Adding +0.0 to a sum of squares keeps its bits: no branch.
                let (over, under) = if d > 0.0 { (d * d, 0.0) } else { (0.0, d * d) };
                over_sq += over;
                under_sq += under;
            }
            let mean = planned_s.mean().abs().max(1e-12);
            ResourceDrift {
                overload: (over_sq / n as f64).sqrt() / mean,
                slack: (under_sq / n as f64).sqrt() / mean,
            }
        };

        let [cpu, ram, working_set, update_rate] = live;
        // The shard reads RAM as the working set and plans the two as one
        // forecast, so the pair scores once: one window against equal plans
        // (`==` equates +0.0 and −0.0, which `drift_of` scores alike).
        let one_pair = ptr::eq(ram.older, working_set.older)
            && ptr::eq(ram.newer, working_set.newer)
            && planned.ram_bytes == planned.disk_working_set_bytes;
        let cpu = drift_of(&planned.cpu_cores, cpu);
        let ram = drift_of(&planned.ram_bytes, ram);
        let working_set = match one_pair {
            true => ram,
            false => drift_of(&planned.disk_working_set_bytes, working_set),
        };
        let update_rate = drift_of(&planned.disk_update_rows_per_sec, update_rate);
        let max_overload = cpu
            .overload
            .max(ram.overload)
            .max(working_set.overload)
            .max(update_rate.overload);
        let max_slack = cpu
            .slack
            .max(ram.slack)
            .max(working_set.slack)
            .max(update_rate.slack);
        DriftReport {
            workload: String::new(),
            cpu,
            ram,
            working_set,
            update_rate,
            max_overload,
            max_slack,
            drifted: m >= self.min_windows
                && (max_overload > self.overload_threshold || max_slack > self.slack_threshold),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_types::{Bytes, DiskDemand, Rate, TimeSeries, WorkloadProfile};

    fn flat(name: &str, windows: usize, cpu: f64, rate: f64) -> WorkloadProfile {
        WorkloadProfile::flat(
            name,
            300.0,
            windows,
            cpu,
            Bytes::gib(4),
            DiskDemand::new(Bytes::gib(1), Rate(rate)),
        )
    }

    #[test]
    fn identical_load_does_not_drift() {
        let planned = flat("w", 12, 1.0, 100.0);
        let live = flat("w", 6, 1.0, 100.0);
        let d = DriftDetector::default().check(&planned, &live, 5);
        assert!(!d.drifted);
        assert!(d.max_overload < 1e-9);
        assert!(d.max_slack < 1e-9);
    }

    #[test]
    fn doubled_cpu_is_overload_drift() {
        let planned = flat("w", 12, 1.0, 100.0);
        let live = flat("w", 6, 2.0, 100.0);
        let d = DriftDetector::default().check(&planned, &live, 5);
        assert!(d.drifted);
        assert!(
            (d.cpu.overload - 1.0).abs() < 1e-9,
            "cpu over {}",
            d.cpu.overload
        );
        assert_eq!(d.cpu.slack, 0.0);
        assert_eq!(d.workload, "w");
    }

    #[test]
    fn mild_slack_is_tolerated_deep_slack_trips() {
        let planned = flat("w", 12, 2.0, 100.0);
        // Live at 1.5 of planned 2.0: slack 0.25 < 0.5 — hold position.
        let mild = DriftDetector::default().check(&planned, &flat("w", 6, 1.5, 100.0), 5);
        assert!(!mild.drifted);
        assert!((mild.cpu.slack - 0.25).abs() < 1e-9);
        // Live at 0.5: slack 0.75 — repack.
        let deep = DriftDetector::default().check(&planned, &flat("w", 6, 0.5, 100.0), 5);
        assert!(deep.drifted);
        assert!(deep.max_slack > 0.5);
        assert_eq!(deep.max_overload, 0.0);
    }

    #[test]
    fn short_window_withholds_verdict() {
        let planned = flat("w", 12, 1.0, 100.0);
        let live = flat("w", 2, 5.0, 100.0); // huge error, 2 samples
        let d = DriftDetector::default().check(&planned, &live, 1);
        assert!(!d.drifted, "needs min_windows before tripping");
        assert!(d.max_overload > 1.0, "error is still reported");
    }

    #[test]
    fn phase_aligned_periodic_profile_matches() {
        // Planned horizon: 8-window ramp 0..7. Live window = phases 2..6
        // (now_index = 29 → start = 26 → phase 2).
        let vals: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let mk = |v: Vec<f64>| TimeSeries::new(300.0, v);
        let planned = WorkloadProfile::new(
            "w",
            mk(vals.clone()),
            mk(vec![1e9; 8]),
            mk(vec![5e8; 8]),
            mk(vec![10.0; 8]),
        );
        let live = WorkloadProfile::new(
            "w",
            mk(vec![2.0, 3.0, 4.0, 5.0]),
            mk(vec![1e9; 4]),
            mk(vec![5e8; 4]),
            mk(vec![10.0; 4]),
        );
        let d = DriftDetector::default().check(&planned, &live, 29);
        assert!(
            d.cpu.overload < 1e-9 && d.cpu.slack < 1e-9,
            "aligned phase must match exactly: {:?}",
            d.cpu
        );
        // The same live window compared at the wrong phase reads as drift.
        let wrong = DriftDetector::default().check(&planned, &live, 33);
        assert!(wrong.cpu.overload > 0.25 || wrong.cpu.slack > 0.25);
    }
}
