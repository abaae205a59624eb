//! TPC-C-like OLTP workload.
//!
//! Calibration follows the paper's observations:
//! * working set ≈ 125 MB per warehouse (§3.1: "our expected TPC-C working
//!   set size, which is around 120–150 MB per warehouse");
//! * database ≈ 160 MB per warehouse (§7.5: 30 warehouses ≈ 4.8 GB);
//! * the NewOrder/Payment-dominated mix updates ~10 rows and reads ~14
//!   pages per transaction, plus a small append to a history table.

use crate::{patterns::RatePattern, TxnCarry, Workload, WorkloadHandle};
use kairos_dbsim::{AccessSpec, DbmsInstance, OpBatch, UpdateSpec};
use kairos_types::Bytes;

/// Database bytes per warehouse.
pub const DB_BYTES_PER_WAREHOUSE: u64 = 160 * 1024 * 1024;
/// Working-set bytes per warehouse.
pub const WS_BYTES_PER_WAREHOUSE: u64 = 125 * 1024 * 1024;
/// Average row size across the TPC-C schema (stock/customer dominated).
pub const ROW_BYTES: u64 = 164;

/// Per-transaction costs of the standard mix.
#[derive(Debug, Clone, Copy)]
pub struct TpccTxnProfile {
    /// Logical page accesses per transaction.
    pub reads_per_txn: f64,
    /// Rows modified per transaction.
    pub rows_updated_per_txn: f64,
    /// Standardized core-seconds per transaction.
    pub cpu_secs_per_txn: f64,
    /// Bytes appended to the history table per transaction.
    pub insert_bytes_per_txn: f64,
    /// Intrinsic latency floor (think time inside the txn, lock waits).
    pub base_latency_secs: f64,
}

impl Default for TpccTxnProfile {
    fn default() -> TpccTxnProfile {
        TpccTxnProfile {
            reads_per_txn: 14.0,
            rows_updated_per_txn: 10.0,
            cpu_secs_per_txn: 0.35e-3,
            insert_bytes_per_txn: 92.0,
            base_latency_secs: 0.065,
        }
    }
}

/// The TPC-C-like workload generator.
#[derive(Debug, Clone)]
pub struct TpccWorkload {
    name: String,
    warehouses: u32,
    rate: RatePattern,
    profile: TpccTxnProfile,
    carry: TxnCarry,
}

impl TpccWorkload {
    /// Standard mix at a flat request rate.
    pub fn new(warehouses: u32, tps: f64) -> TpccWorkload {
        TpccWorkload::with_pattern(warehouses, RatePattern::Flat { tps })
    }

    pub fn with_pattern(warehouses: u32, rate: RatePattern) -> TpccWorkload {
        assert!(warehouses > 0, "TPC-C needs at least one warehouse");
        TpccWorkload {
            name: format!("tpcc-{warehouses}w"),
            warehouses,
            rate,
            profile: TpccTxnProfile::default(),
            carry: TxnCarry::default(),
        }
    }

    pub fn named(mut self, name: impl Into<String>) -> TpccWorkload {
        self.name = name.into();
        self
    }

    pub fn with_profile(mut self, profile: TpccTxnProfile) -> TpccWorkload {
        self.profile = profile;
        self
    }

    pub fn db_size(&self) -> Bytes {
        Bytes(self.warehouses as u64 * DB_BYTES_PER_WAREHOUSE)
    }
}

impl Workload for TpccWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn install(&mut self, inst: &mut DbmsInstance) -> WorkloadHandle {
        let db = inst.create_database(self.name.clone());
        let rows = self.db_size().0 / ROW_BYTES;
        let table = inst
            .create_table(db, rows, ROW_BYTES)
            .expect("database was just created");
        let history = inst
            .create_table(db, 1024, 128)
            .expect("database was just created");
        let ws_pages = self.working_set().pages(inst.page_size());
        // Warm only the working set: cold history/cold tail stay on disk.
        inst.prewarm_pages(table, ws_pages);
        WorkloadHandle {
            db,
            table,
            append_table: Some(history),
            ws_pages,
        }
    }

    fn batch(&mut self, handle: &WorkloadHandle, now: f64, dt: f64) -> OpBatch {
        let txns = self.carry.take(self.rate.rate_at(now), dt);
        if txns == 0.0 {
            return OpBatch::default();
        }
        let p = &self.profile;
        OpBatch {
            txns,
            rows_read: txns * p.reads_per_txn * 3.0,
            reads: vec![AccessSpec {
                table: handle.table,
                prefix_pages: handle.ws_pages,
                accesses: txns * p.reads_per_txn,
            }],
            updates: vec![UpdateSpec {
                table: handle.table,
                prefix_pages: handle.ws_pages,
                rows: txns * p.rows_updated_per_txn,
            }],
            insert_bytes: txns * p.insert_bytes_per_txn,
            insert_table: handle.append_table,
            cpu_core_secs: txns * p.cpu_secs_per_txn,
            base_latency_secs: p.base_latency_secs,
        }
    }

    fn working_set(&self) -> Bytes {
        Bytes(self.warehouses as u64 * WS_BYTES_PER_WAREHOUSE)
    }

    fn mean_rate(&self) -> f64 {
        self.rate.mean_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_dbsim::DbmsConfig;

    #[test]
    fn sizes_scale_with_warehouses() {
        let w = TpccWorkload::new(5, 100.0);
        assert_eq!(w.working_set(), Bytes::mib(625));
        assert_eq!(w.db_size(), Bytes::mib(800));
    }

    #[test]
    fn install_creates_tables_and_warms_ws() {
        let mut inst = DbmsInstance::new(DbmsConfig::mysql(Bytes::mib(953)));
        let mut w = TpccWorkload::new(2, 50.0);
        let h = w.install(&mut inst);
        assert!(inst.table_pages(h.table) > 0);
        assert!(h.append_table.is_some());
        // Working set warmed (pool resident at least ws pages).
        assert!(inst.pool_resident_pages() as u64 >= h.ws_pages);
    }

    #[test]
    fn batch_scales_with_rate() {
        let mut inst = DbmsInstance::new(DbmsConfig::mysql(Bytes::mib(512)));
        let mut w = TpccWorkload::new(1, 100.0);
        let h = w.install(&mut inst);
        let b = w.batch(&h, 0.0, 0.1);
        assert_eq!(b.txns, 10.0);
        assert_eq!(b.updates[0].rows, 100.0);
        assert_eq!(b.reads[0].accesses, 140.0);
        assert!(b.cpu_core_secs > 0.0);
    }

    #[test]
    fn zero_rate_produces_empty_batch() {
        let mut inst = DbmsInstance::new(DbmsConfig::mysql(Bytes::mib(512)));
        let mut w = TpccWorkload::new(1, 0.0);
        let h = w.install(&mut inst);
        let b = w.batch(&h, 0.0, 0.1);
        assert_eq!(b.txns, 0.0);
        assert!(b.reads.is_empty());
    }

    #[test]
    fn working_set_is_prefix_of_table() {
        let mut inst = DbmsInstance::new(DbmsConfig::mysql(Bytes::gib(1)));
        let mut w = TpccWorkload::new(3, 10.0);
        let h = w.install(&mut inst);
        assert!(h.ws_pages < inst.table_pages(h.table));
    }

    #[test]
    #[should_panic(expected = "at least one warehouse")]
    fn zero_warehouses_rejected() {
        TpccWorkload::new(0, 10.0);
    }
}
