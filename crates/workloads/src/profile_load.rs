//! The disk-profiler's controlled load (§4.1).
//!
//! "Given a DBMS/OS/hardware configuration, our tool tests the disk
//! subsystem with a controlled synthetic workload that sweeps through a
//! range of database working set sizes and user request rates. [...] The
//! workload we use for this test is based on TPC-C. [...] Our workload
//! generator allows us to control both the working set size and rate at
//! which rows are updated."
//!
//! [`ProfileLoad`] is exactly that generator: a fixed `(working set,
//! rows-updated/s)` point with negligible read/CPU load, so the measured
//! disk-write throughput isolates the log + write-back response.

use crate::{TxnCarry, Workload, WorkloadHandle};
use kairos_dbsim::{DbmsInstance, OpBatch, UpdateSpec};
use kairos_types::Bytes;

/// Average TPC-C-style row size used by the profiler.
pub const ROW_BYTES: u64 = 164;

/// A single (working-set, update-rate) measurement point.
#[derive(Debug, Clone)]
pub struct ProfileLoad {
    name: String,
    working_set: Bytes,
    db_size: Bytes,
    rows_per_sec: f64,
    carry: TxnCarry,
    /// Rows per transaction (affects only commit/force counts).
    rows_per_txn: f64,
}

impl ProfileLoad {
    pub fn new(working_set: Bytes, rows_per_sec: f64) -> ProfileLoad {
        ProfileLoad {
            name: format!(
                "profile-{:.0}MB-{:.0}rps",
                working_set.as_mib(),
                rows_per_sec
            ),
            working_set,
            db_size: Bytes(working_set.0 * 2),
            rows_per_sec,
            carry: TxnCarry::default(),
            rows_per_txn: 10.0,
        }
    }

    /// Use a database much larger than the working set (the Fig 12a
    /// size-independence experiment).
    pub fn with_db_size(mut self, db_size: Bytes) -> ProfileLoad {
        assert!(db_size >= self.working_set);
        self.db_size = db_size;
        self
    }
}

impl Workload for ProfileLoad {
    fn name(&self) -> &str {
        &self.name
    }

    fn install(&mut self, inst: &mut DbmsInstance) -> WorkloadHandle {
        let db = inst.create_database();
        let rows = self.db_size.0 / ROW_BYTES;
        let table = inst
            .create_table(db, rows, ROW_BYTES)
            .expect("database was just created");
        let ws_pages = self.working_set.pages(inst.page_size());
        inst.prewarm_pages(table, ws_pages);
        WorkloadHandle {
            db,
            table,
            append_table: None,
            ws_pages,
        }
    }

    fn batch(&mut self, handle: &WorkloadHandle, _now: f64, dt: f64) -> OpBatch {
        let rows = self.rows_per_sec * dt;
        let txns = self.carry.take(self.rows_per_sec / self.rows_per_txn, dt);
        if rows <= 0.0 {
            return OpBatch::default();
        }
        OpBatch {
            txns,
            rows_read: 0.0,
            reads: Vec::new(),
            updates: vec![UpdateSpec {
                table: handle.table,
                prefix_pages: handle.ws_pages,
                rows,
            }],
            insert_bytes: 0.0,
            insert_table: None,
            cpu_core_secs: rows * 8e-6,
            base_latency_secs: 0.002,
        }
    }

    fn working_set(&self) -> Bytes {
        self.working_set
    }

    fn mean_rate(&self) -> f64 {
        self.rows_per_sec / self.rows_per_txn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_dbsim::DbmsConfig;

    #[test]
    fn update_rows_match_requested_rate() {
        let mut inst = DbmsInstance::new(DbmsConfig::mysql(Bytes::mib(256)));
        let mut w = ProfileLoad::new(Bytes::mib(64), 5000.0);
        let h = w.install(&mut inst);
        let mut rows = 0.0;
        for i in 0..100 {
            let b = w.batch(&h, i as f64 * 0.1, 0.1);
            rows += b.updates.iter().map(|u| u.rows).sum::<f64>();
        }
        // 5000 rows/s * 10 s.
        assert!((rows - 50_000.0).abs() < 1.0);
    }

    #[test]
    fn db_size_override_keeps_ws() {
        let mut inst = DbmsInstance::new(DbmsConfig::mysql(Bytes::gib(1)));
        let mut w = ProfileLoad::new(Bytes::mib(512), 100.0).with_db_size(Bytes::gib(5));
        let h = w.install(&mut inst);
        assert_eq!(h.ws_pages, Bytes::mib(512).pages(inst.page_size()));
        assert!(inst.table_pages(h.table) >= Bytes::gib(5).pages(inst.page_size()));
    }

    #[test]
    fn zero_rate_is_idle() {
        let mut inst = DbmsInstance::new(DbmsConfig::mysql(Bytes::mib(64)));
        let mut w = ProfileLoad::new(Bytes::mib(16), 0.0);
        let h = w.install(&mut inst);
        let b = w.batch(&h, 0.0, 0.1);
        assert!(b.updates.is_empty());
    }
}
