//! Cumulative instance statistics — the simulator's `SHOW STATUS` +
//! `iostat`.
//!
//! The resource monitor (in `kairos-monitor`) never looks inside the
//! engine; it periodically snapshots these counters and differences them,
//! exactly as Kairos's Java tool polled MySQL status variables over JDBC
//! and OS counters over SSH (§6).

/// Cumulative counters for one DBMS instance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InstanceStats {
    /// Simulated seconds this instance has run.
    pub sim_secs: f64,
    /// Committed transactions.
    pub committed_txns: f64,
    /// Rows read by queries (logical).
    pub rows_read: f64,
    /// Rows modified (update/insert/delete).
    pub rows_updated: f64,
    /// Logical page accesses that hit the buffer pool.
    pub bp_hits: f64,
    /// Logical page accesses that missed the buffer pool.
    pub bp_misses: f64,
    /// Buffer-pool misses absorbed by the OS file cache (PostgreSQL-style
    /// configurations only).
    pub os_cache_hits: f64,
    /// Pages physically read from disk.
    pub physical_read_pages: f64,
    /// Pages physically written (write-back + dirty evictions).
    pub physical_write_pages: f64,
    /// Log bytes written.
    pub log_bytes: f64,
    /// Log forces (fsyncs).
    pub log_forces: f64,
    /// Bytes of new data inserted.
    pub insert_bytes: f64,
    /// Checkpoints completed.
    pub checkpoints: f64,
    /// CPU consumed, in standardized core-seconds.
    pub cpu_core_secs: f64,
    /// Sum of (latency × txns) for averaging.
    pub latency_weighted_secs: f64,
}

impl InstanceStats {
    /// Mean transaction latency in seconds.
    pub fn mean_latency_secs(&self) -> f64 {
        if self.committed_txns == 0.0 {
            0.0
        } else {
            self.latency_weighted_secs / self.committed_txns
        }
    }

    /// Counter-wise difference `self - earlier` (for interval monitoring).
    pub fn delta(&self, earlier: &InstanceStats) -> InstanceStats {
        InstanceStats {
            sim_secs: self.sim_secs - earlier.sim_secs,
            committed_txns: self.committed_txns - earlier.committed_txns,
            rows_read: self.rows_read - earlier.rows_read,
            rows_updated: self.rows_updated - earlier.rows_updated,
            bp_hits: self.bp_hits - earlier.bp_hits,
            bp_misses: self.bp_misses - earlier.bp_misses,
            os_cache_hits: self.os_cache_hits - earlier.os_cache_hits,
            physical_read_pages: self.physical_read_pages - earlier.physical_read_pages,
            physical_write_pages: self.physical_write_pages - earlier.physical_write_pages,
            log_bytes: self.log_bytes - earlier.log_bytes,
            log_forces: self.log_forces - earlier.log_forces,
            insert_bytes: self.insert_bytes - earlier.insert_bytes,
            checkpoints: self.checkpoints - earlier.checkpoints,
            cpu_core_secs: self.cpu_core_secs - earlier.cpu_core_secs,
            latency_weighted_secs: self.latency_weighted_secs - earlier.latency_weighted_secs,
        }
    }

    /// Disk bytes written per second (log + pages) over a delta interval,
    /// given the page size in bytes.
    pub fn write_bytes_per_sec(&self, page_bytes: f64) -> f64 {
        if self.sim_secs <= 0.0 {
            0.0
        } else {
            (self.log_bytes + self.physical_write_pages * page_bytes) / self.sim_secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_every_counter() {
        let a = InstanceStats {
            sim_secs: 10.0,
            committed_txns: 100.0,
            physical_read_pages: 50.0,
            ..Default::default()
        };
        let b = InstanceStats {
            sim_secs: 4.0,
            committed_txns: 40.0,
            physical_read_pages: 20.0,
            ..Default::default()
        };
        let d = a.delta(&b);
        assert_eq!(d.sim_secs, 6.0);
        assert_eq!(d.committed_txns, 60.0);
        assert_eq!(d.physical_read_pages, 30.0);
    }

    #[test]
    fn rates_are_zero_for_zero_interval() {
        let s = InstanceStats::default();
        assert_eq!(s.write_bytes_per_sec(16384.0), 0.0);
    }

    #[test]
    fn mean_latency_weighted_by_txns() {
        let s = InstanceStats {
            committed_txns: 10.0,
            latency_weighted_secs: 0.5,
            ..Default::default()
        };
        assert!((s.mean_latency_secs() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn write_rate_includes_log_and_pages() {
        let s = InstanceStats {
            sim_secs: 2.0,
            log_bytes: 1000.0,
            physical_write_pages: 2.0,
            ..Default::default()
        };
        assert!((s.write_bytes_per_sec(500.0) - 1000.0).abs() < 1e-12);
    }
}
