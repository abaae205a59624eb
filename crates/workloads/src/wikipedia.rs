//! Wikipedia-like read-mostly web workload.
//!
//! Modeled after the benchmark the authors derived from Wikipedia's
//! public source, data, and a 10 % HTTP trace (§7.1):
//! * ~92 % of queries are reads, ~8 % writes;
//! * tuple sizes range from 70 B to 3.6 MB (article text) — we model the
//!   heavy tail with a deterministic per-transaction size mixture plus
//!   multiplicative jitter, which reproduces the *higher disk-write
//!   variance* the paper observed for Wikipedia in Fig 12b;
//! * scaled by article count: 100 K pages ≈ 67 GB of data with a ≈2.2 GB
//!   working set (§7.5), shrinking proportionally for smaller scales.

use crate::{patterns::RatePattern, TxnCarry, Workload, WorkloadHandle};
use kairos_dbsim::{AccessSpec, DbmsInstance, OpBatch, UpdateSpec};
use kairos_types::{Bytes, SplitMix64};

/// Database bytes per 1 K articles (≈67 GB at the paper's 100 K-page scale).
pub const DB_BYTES_PER_K_PAGES: u64 = 670 * 1024 * 1024;
/// Working-set bytes per 1 K articles (2.2 GB / 100 K pages).
pub const WS_BYTES_PER_K_PAGES: u64 = 23 * 1024 * 1024; // ≈2.2 GiB per 100 K
/// Mean row size (articles + revision metadata + links).
pub const ROW_BYTES: u64 = 2048;

/// Fraction of transactions that are writes (edits, watchlist, logins).
pub const WRITE_FRACTION: f64 = 0.08;

/// The Wikipedia-like workload generator.
#[derive(Debug, Clone)]
pub struct WikipediaWorkload {
    name: String,
    /// Scale in thousands of articles (the paper uses 100 K pages).
    pages_k: u64,
    rate: RatePattern,
    carry: TxnCarry,
    rng: SplitMix64,
    /// Override for the working set (used by the Fig 12b generality
    /// experiment to match TPC-C's working set exactly).
    ws_override: Option<Bytes>,
}

impl WikipediaWorkload {
    pub fn new(pages_k: u64, tps: f64) -> WikipediaWorkload {
        WikipediaWorkload::with_pattern(pages_k, RatePattern::Flat { tps })
    }

    pub fn with_pattern(pages_k: u64, rate: RatePattern) -> WikipediaWorkload {
        assert!(pages_k > 0, "need at least 1K articles");
        WikipediaWorkload {
            name: format!("wikipedia-{pages_k}Kp"),
            pages_k,
            rate,
            carry: TxnCarry::default(),
            rng: SplitMix64::new(0x81D1A),
            ws_override: None,
        }
    }

    pub fn named(mut self, name: impl Into<String>) -> WikipediaWorkload {
        self.name = name.into();
        self
    }

    /// Pin the working set to an explicit size (Fig 12b pairing).
    pub fn with_working_set(mut self, ws: Bytes) -> WikipediaWorkload {
        self.ws_override = Some(ws);
        self
    }

    pub fn with_seed(mut self, seed: u64) -> WikipediaWorkload {
        self.rng = SplitMix64::new(seed);
        self
    }

    pub fn db_size(&self) -> Bytes {
        Bytes(self.pages_k * DB_BYTES_PER_K_PAGES)
    }
}

impl Workload for WikipediaWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn install(&mut self, inst: &mut DbmsInstance) -> WorkloadHandle {
        let db = inst.create_database();
        let rows = self.db_size().0 / ROW_BYTES;
        let table = inst
            .create_table(db, rows, ROW_BYTES)
            .expect("database was just created");
        let revisions = inst
            .create_table(db, 1024, ROW_BYTES)
            .expect("database was just created");
        let ws_pages = self.working_set().pages(inst.page_size());
        inst.prewarm_pages(table, ws_pages);
        WorkloadHandle {
            db,
            table,
            append_table: Some(revisions),
            ws_pages,
        }
    }

    fn batch(&mut self, handle: &WorkloadHandle, now: f64, dt: f64) -> OpBatch {
        let txns = self.carry.take(self.rate.rate_at(now), dt);
        if txns == 0.0 {
            return OpBatch::default();
        }
        let writes = txns * WRITE_FRACTION;
        // Heavy-tailed edit sizes: mostly small metadata rows, occasionally
        // a multi-page article body. Jitter gives Fig 12b's variance.
        let size_jitter = 0.4 + 1.2 * self.rng.next_f64();
        // Rows touched per write txn: page row + revision row + links.
        let rows_updated = writes * 4.0 * size_jitter;
        let reads = txns * 3.2;
        OpBatch {
            txns,
            rows_read: txns * 6.0,
            reads: vec![AccessSpec {
                table: handle.table,
                prefix_pages: handle.ws_pages,
                accesses: reads,
            }],
            updates: vec![UpdateSpec {
                table: handle.table,
                prefix_pages: handle.ws_pages,
                rows: rows_updated,
            }],
            insert_bytes: writes * 2048.0 * size_jitter,
            insert_table: handle.append_table,
            cpu_core_secs: txns * 0.22e-3,
            base_latency_secs: 0.011,
        }
    }

    fn working_set(&self) -> Bytes {
        self.ws_override
            .unwrap_or(Bytes(self.pages_k * WS_BYTES_PER_K_PAGES))
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
    fn paper_scale_sizes() {
        let w = WikipediaWorkload::new(100, 500.0);
        // 100 K pages: ≈67 GB database, ≈2.2 GB working set.
        assert!((w.db_size().as_gib() - 65.4).abs() < 1.0);
        assert!((w.working_set().as_gib() - 2.25).abs() < 0.1);
    }

    #[test]
    fn working_set_override() {
        let w = WikipediaWorkload::new(100, 10.0).with_working_set(Bytes::gib(1));
        assert_eq!(w.working_set(), Bytes::gib(1));
    }

    #[test]
    fn read_write_mix_matches_92_8() {
        let mut inst = DbmsInstance::new(DbmsConfig::mysql(Bytes::mib(512)));
        let mut w = WikipediaWorkload::new(1, 1000.0);
        let h = w.install(&mut inst);
        let mut rows_updated = 0.0;
        let mut txns = 0.0;
        for i in 0..100 {
            let b = w.batch(&h, i as f64 * 0.1, 0.1);
            txns += b.txns;
            rows_updated += b.updates.iter().map(|u| u.rows).sum::<f64>();
        }
        // rows/txn ≈ 0.08 * 4 * E[jitter ≈ 1.0] ≈ 0.32.
        let per_txn = rows_updated / txns;
        assert!(per_txn > 0.15 && per_txn < 0.55, "rows/txn = {per_txn}");
    }

    #[test]
    fn writes_have_variance() {
        let mut inst = DbmsInstance::new(DbmsConfig::mysql(Bytes::mib(512)));
        let mut w = WikipediaWorkload::new(1, 1000.0);
        let h = w.install(&mut inst);
        let mut rates: Vec<f64> = Vec::new();
        for i in 0..50 {
            let b = w.batch(&h, i as f64 * 0.1, 0.1);
            rates.push(b.updates.iter().map(|u| u.rows).sum::<f64>());
        }
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        let var = rates.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / rates.len() as f64;
        assert!(var > 0.0, "edit sizes must vary tick to tick");
    }

    #[test]
    fn install_warms_working_set_only() {
        let mut inst = DbmsInstance::new(DbmsConfig::mysql(Bytes::gib(1)));
        let mut w = WikipediaWorkload::new(2, 10.0);
        let h = w.install(&mut inst);
        assert!(inst.table_pages(h.table) > h.ws_pages * 10);
    }
}
