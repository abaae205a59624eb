//! Disk device model.
//!
//! Serves three demand classes per tick, mirroring how a DBMS actually
//! drives a single spindle (§4.1 of the paper):
//!
//! * **log writes** — sequential bytes plus one seek-ish settle per group
//!   commit *force*. One consolidated DBMS produces one log stream; the
//!   DB-in-VM baseline produces many independent streams whose forces don't
//!   batch (§7.4's first bullet).
//! * **foreground reads** — random page reads (buffer pool misses). These
//!   block transactions.
//! * **background write-back** — dirty pages in sorted order; the elevator
//!   effect makes effective IOPS grow with batch depth
//!   ([`kairos_types::DiskSpec::sorted_iops`]).
//!
//! Foreground demand (log + reads) is served first; write-back consumes
//! what is left. The returned fractions feed admission control in the
//! engine, which is what caps throughput and inflates latency when the
//! disk saturates.

use kairos_types::DiskSpec;

/// Per-tick demand presented to the device.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiskTickDemand {
    /// Sequential log bytes to persist this tick.
    pub log_bytes: f64,
    /// Number of distinct log forces (group-commit flushes). Each costs a
    /// device settle in addition to transfer time.
    pub log_forces: f64,
    /// Random foreground page reads.
    pub read_pages: f64,
    /// Sorted background page writes requested by the flusher.
    pub writeback_pages: f64,
    /// Average sorted-batch depth of the write-back requests (for elevator
    /// gain).
    pub writeback_batch: f64,
}

/// What the device actually served in a tick.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiskTickServed {
    /// Fraction of foreground demand (log + reads) served, in `[0, 1]`.
    pub foreground_fraction: f64,
    /// Write-back pages actually written.
    pub writeback_pages: f64,
    /// Device utilization this tick, in `[0, 1]`.
    pub utilization: f64,
    /// Bytes written (log + write-back) this tick.
    pub bytes_written: f64,
    /// Bytes read this tick.
    pub bytes_read: f64,
    /// Mean service time for one random read at this utilization, seconds —
    /// a queueing-flavoured latency contribution.
    pub read_service_secs: f64,
}

/// The device: pure capacity model; all state is per-tick.
#[derive(Debug, Clone)]
pub struct DiskDevice {
    spec: DiskSpec,
}

impl DiskDevice {
    pub fn new(spec: DiskSpec) -> DiskDevice {
        DiskDevice { spec }
    }

    pub fn spec(&self) -> &DiskSpec {
        &self.spec
    }

    /// Seconds to serve a foreground bundle of `log_bytes`/`log_forces`/
    /// `read_pages` at full device attention.
    fn foreground_secs(&self, log_bytes: f64, log_forces: f64, read_pages: f64) -> f64 {
        log_bytes / self.spec.seq_bytes_per_sec
            + log_forces * self.spec.force_settle_secs
            + read_pages / self.spec.random_iops
    }

    /// Serve one tick of length `dt` seconds.
    pub fn serve(&self, dt: f64, demand: DiskTickDemand) -> DiskTickServed {
        assert!(dt > 0.0, "tick length must be positive");
        let fg_secs = self.foreground_secs(demand.log_bytes, demand.log_forces, demand.read_pages);

        let fg_fraction = if fg_secs <= dt || fg_secs == 0.0 {
            1.0
        } else {
            dt / fg_secs
        };
        let fg_used = fg_secs.min(dt);

        let remaining = dt - fg_used;
        let sorted_iops = self.spec.sorted_iops(demand.writeback_batch);
        let wb_possible = remaining * sorted_iops;
        let wb_served = demand.writeback_pages.min(wb_possible);
        let wb_used = if sorted_iops > 0.0 {
            wb_served / sorted_iops
        } else {
            0.0
        };

        let used = fg_used + wb_used;
        let utilization = (used / dt).clamp(0.0, 1.0);

        let page_bytes = self.spec.page_size.as_f64();
        let bytes_written = demand.log_bytes * fg_fraction + wb_served * page_bytes;
        let bytes_read = demand.read_pages * fg_fraction * page_bytes;

        // M/M/1-flavoured response time for a random read: service time
        // inflated by 1/(1-rho), capped to keep the model finite at
        // saturation.
        let service = 1.0 / self.spec.random_iops;
        let rho = utilization.min(0.98);
        let read_service_secs = service / (1.0 - rho);

        DiskTickServed {
            foreground_fraction: fg_fraction,
            writeback_pages: wb_served,
            utilization,
            bytes_written,
            bytes_read,
            read_service_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DiskDevice {
        DiskDevice::new(DiskSpec::sata_7200rpm())
    }

    #[test]
    fn idle_tick_serves_everything() {
        let d = dev();
        let served = d.serve(
            1.0,
            DiskTickDemand {
                log_bytes: 1024.0 * 1024.0,
                log_forces: 10.0,
                read_pages: 5.0,
                writeback_pages: 20.0,
                writeback_batch: 20.0,
            },
        );
        assert_eq!(served.foreground_fraction, 1.0);
        assert_eq!(served.writeback_pages, 20.0);
        assert!(served.utilization < 0.5);
    }

    #[test]
    fn foreground_overload_scales_fraction() {
        let d = dev();
        // 10k random reads in one second vastly exceeds 120 IOPS.
        let served = d.serve(
            1.0,
            DiskTickDemand {
                read_pages: 10_000.0,
                ..Default::default()
            },
        );
        assert!(served.foreground_fraction < 0.05);
        assert!((served.utilization - 1.0).abs() < 1e-9);
        assert_eq!(served.writeback_pages, 0.0);
    }

    #[test]
    fn background_yields_to_foreground() {
        let d = dev();
        let quiet = d.serve(
            1.0,
            DiskTickDemand {
                writeback_pages: 100_000.0,
                writeback_batch: 512.0,
                ..Default::default()
            },
        );
        let d2 = dev();
        let busy = d2.serve(
            1.0,
            DiskTickDemand {
                read_pages: 60.0, // ~half the device
                writeback_pages: 100_000.0,
                writeback_batch: 512.0,
                ..Default::default()
            },
        );
        assert!(busy.writeback_pages < quiet.writeback_pages);
        assert!(busy.foreground_fraction == 1.0);
    }

    #[test]
    fn sorted_writeback_beats_random_rate() {
        let d = dev();
        let spec = *d.spec();
        let served = d.serve(
            1.0,
            DiskTickDemand {
                writeback_pages: 1e9,
                writeback_batch: 512.0,
                ..Default::default()
            },
        );
        assert!(served.writeback_pages > spec.random_iops * 2.0);
        assert!(served.writeback_pages <= spec.random_iops * spec.elevator_gain + 1e-6);
    }

    #[test]
    fn log_forces_cost_time() {
        let a = dev();
        let few = a.serve(
            1.0,
            DiskTickDemand {
                log_bytes: 1e6,
                log_forces: 5.0,
                ..Default::default()
            },
        );
        let b = dev();
        let many = b.serve(
            1.0,
            DiskTickDemand {
                log_bytes: 1e6,
                log_forces: 500.0,
                ..Default::default()
            },
        );
        assert!(many.utilization > few.utilization * 2.0);
    }

    #[test]
    fn read_latency_grows_with_utilization() {
        let d = dev();
        let quiet = d.serve(
            1.0,
            DiskTickDemand {
                read_pages: 1.0,
                ..Default::default()
            },
        );
        let busy = d.serve(
            1.0,
            DiskTickDemand {
                read_pages: 115.0,
                ..Default::default()
            },
        );
        assert!(busy.read_service_secs > quiet.read_service_secs * 5.0);
    }

    #[test]
    fn zero_demand_is_free() {
        let d = dev();
        let served = d.serve(0.1, DiskTickDemand::default());
        assert_eq!(served.utilization, 0.0);
        assert_eq!(served.foreground_fraction, 1.0);
    }
}
