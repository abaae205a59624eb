//! The controllable synthetic micro-benchmark of §7.1/§7.2.
//!
//! "This benchmark contains five independent workloads that each operate
//! on a single table, issuing a mix of updates and CPU-intensive selects
//! (using expensive cryptographic functions). These workloads are designed
//! so we can precisely control the amount of RAM, CPU and disk I/O
//! consumed. [...] Each workload has different time-varying patterns
//! (e.g., sinusoidal, sawtooth, flat with different amplitude and
//! period)."

use crate::{patterns::RatePattern, TxnCarry, Workload, WorkloadHandle};
use kairos_dbsim::{AccessSpec, DbmsInstance, OpBatch, UpdateSpec};
use kairos_types::Bytes;

/// Explicit control knobs for one synthetic workload.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    pub name: String,
    /// Exact working-set size (what gauging must discover).
    pub working_set: Bytes,
    /// Total table size (≥ working set).
    pub db_size: Bytes,
    /// Transaction schedule.
    pub rate: RatePattern,
    /// Page accesses per transaction (selects).
    pub reads_per_txn: f64,
    /// Rows updated per transaction.
    pub rows_updated_per_txn: f64,
    /// CPU per transaction in standardized core-seconds ("expensive
    /// cryptographic functions" make this large for CPU-bound variants).
    pub cpu_secs_per_txn: f64,
    /// Latency floor.
    pub base_latency_secs: f64,
}

impl SyntheticSpec {
    /// A balanced default: moderate reads, writes and CPU.
    pub fn balanced(
        name: impl Into<String>,
        working_set: Bytes,
        rate: RatePattern,
    ) -> SyntheticSpec {
        SyntheticSpec {
            name: name.into(),
            working_set,
            db_size: Bytes(working_set.0 * 2),
            rate,
            reads_per_txn: 8.0,
            rows_updated_per_txn: 4.0,
            cpu_secs_per_txn: 0.5e-3,
            base_latency_secs: 0.004,
        }
    }
}

/// Synthetic workload generator driven by a [`SyntheticSpec`].
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    spec: SyntheticSpec,
    carry: TxnCarry,
}

/// Row size: "a few large tuples" is the probe table's trick; the user
/// tables use small rows so row-update counts map cleanly onto pages.
pub const ROW_BYTES: u64 = 200;

impl SyntheticWorkload {
    pub fn new(spec: SyntheticSpec) -> SyntheticWorkload {
        assert!(
            spec.db_size >= spec.working_set,
            "database must contain its working set"
        );
        SyntheticWorkload {
            spec,
            carry: TxnCarry::default(),
        }
    }

    pub fn spec(&self) -> &SyntheticSpec {
        &self.spec
    }
}

impl Workload for SyntheticWorkload {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn install(&mut self, inst: &mut DbmsInstance) -> WorkloadHandle {
        let db = inst.create_database();
        let rows = self.spec.db_size.0 / ROW_BYTES;
        let table = inst
            .create_table(db, rows, ROW_BYTES)
            .expect("database was just created");
        let ws_pages = self.spec.working_set.pages(inst.page_size());
        inst.prewarm_pages(table, ws_pages);
        WorkloadHandle {
            db,
            table,
            append_table: None,
            ws_pages,
        }
    }

    fn batch(&mut self, handle: &WorkloadHandle, now: f64, dt: f64) -> OpBatch {
        let txns = self.carry.take(self.spec.rate.rate_at(now), dt);
        if txns == 0.0 {
            return OpBatch::default();
        }
        let s = &self.spec;
        OpBatch {
            txns,
            rows_read: txns * s.reads_per_txn,
            reads: vec![AccessSpec {
                table: handle.table,
                prefix_pages: handle.ws_pages,
                accesses: txns * s.reads_per_txn,
            }],
            updates: vec![UpdateSpec {
                table: handle.table,
                prefix_pages: handle.ws_pages,
                rows: txns * s.rows_updated_per_txn,
            }],
            insert_bytes: 0.0,
            insert_table: None,
            cpu_core_secs: txns * s.cpu_secs_per_txn,
            base_latency_secs: s.base_latency_secs,
        }
    }

    fn working_set(&self) -> Bytes {
        self.spec.working_set
    }

    fn mean_rate(&self) -> f64 {
        self.spec.rate.mean_rate()
    }
}

/// The five-workload suite of §7.2: working sets from 512 MB to 2.5 GB,
/// distinct temporal patterns, and resource emphases chosen so that the
/// combination "barely fits within a single physical machine" under
/// multiple simultaneous constraints.
///
/// `intensity` linearly scales every request rate (1.0 = the calibrated
/// barely-fits point for [`kairos_types::MachineSpec::server1`]).
pub fn synthetic_suite(intensity: f64) -> Vec<SyntheticWorkload> {
    let specs = vec![
        // CPU-heavy, sinusoidal diurnal pattern.
        SyntheticSpec {
            name: "synth-1-cpu-sin".into(),
            working_set: Bytes::mib(512),
            db_size: Bytes::gib(1),
            rate: RatePattern::Sinusoid {
                mean: 220.0 * intensity,
                amplitude: 120.0 * intensity,
                period_secs: 600.0,
                phase: 0.0,
            },
            reads_per_txn: 4.0,
            rows_updated_per_txn: 0.5,
            cpu_secs_per_txn: 4.0e-3,
            base_latency_secs: 0.004,
        },
        // Update-heavy, sawtooth.
        SyntheticSpec {
            name: "synth-2-disk-saw".into(),
            working_set: Bytes::gib(1),
            db_size: Bytes::gib(2),
            rate: RatePattern::Sawtooth {
                min: 40.0 * intensity,
                max: 400.0 * intensity,
                period_secs: 450.0,
            },
            reads_per_txn: 3.0,
            rows_updated_per_txn: 12.0,
            cpu_secs_per_txn: 0.25e-3,
            base_latency_secs: 0.004,
        },
        // RAM-dominant (big working set), flat low rate.
        SyntheticSpec {
            name: "synth-3-ram-flat".into(),
            working_set: Bytes::mib(2560),
            db_size: Bytes::gib(5),
            rate: RatePattern::Flat {
                tps: 90.0 * intensity,
            },
            reads_per_txn: 10.0,
            rows_updated_per_txn: 2.0,
            cpu_secs_per_txn: 0.4e-3,
            base_latency_secs: 0.004,
        },
        // Square wave alternating load (anti-correlated with #1's phase).
        SyntheticSpec {
            name: "synth-4-mixed-square".into(),
            working_set: Bytes::mib(1536),
            db_size: Bytes::gib(3),
            rate: RatePattern::Square {
                low: 60.0 * intensity,
                high: 300.0 * intensity,
                period_secs: 700.0,
            },
            reads_per_txn: 6.0,
            rows_updated_per_txn: 5.0,
            cpu_secs_per_txn: 0.9e-3,
            base_latency_secs: 0.004,
        },
        // Bursty spikes over a quiet base.
        SyntheticSpec {
            name: "synth-5-bursty".into(),
            working_set: Bytes::gib(2),
            db_size: Bytes::gib(4),
            rate: RatePattern::Bursty {
                base: 50.0 * intensity,
                peak: 450.0 * intensity,
                burst_secs: 60.0,
                period_secs: 500.0,
            },
            reads_per_txn: 5.0,
            rows_updated_per_txn: 6.0,
            cpu_secs_per_txn: 0.6e-3,
            base_latency_secs: 0.004,
        },
    ];
    specs.into_iter().map(SyntheticWorkload::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_dbsim::DbmsConfig;

    #[test]
    fn suite_has_five_distinct_workloads() {
        let suite = synthetic_suite(1.0);
        assert_eq!(suite.len(), 5);
        let names: std::collections::HashSet<_> =
            suite.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names.len(), 5);
        // Working sets span 512 MB – 2.5 GB as in §7.2.
        let min_ws = suite.iter().map(|w| w.working_set().0).min().unwrap();
        let max_ws = suite.iter().map(|w| w.working_set().0).max().unwrap();
        assert_eq!(min_ws, Bytes::mib(512).0);
        assert_eq!(max_ws, Bytes::mib(2560).0);
    }

    #[test]
    fn intensity_scales_rates() {
        let one = synthetic_suite(1.0);
        let two = synthetic_suite(2.0);
        for (a, b) in one.iter().zip(two.iter()) {
            assert!((b.mean_rate() - 2.0 * a.mean_rate()).abs() < 1e-9);
        }
    }

    #[test]
    fn batch_respects_spec() {
        let spec = SyntheticSpec::balanced("s", Bytes::mib(64), RatePattern::Flat { tps: 100.0 });
        let mut w = SyntheticWorkload::new(spec);
        let mut inst = DbmsInstance::new(DbmsConfig::mysql(Bytes::mib(256)));
        let h = w.install(&mut inst);
        let b = w.batch(&h, 0.0, 0.1);
        assert_eq!(b.txns, 10.0);
        assert_eq!(b.updates[0].rows, 40.0);
        assert!(b.insert_table.is_none());
    }

    #[test]
    #[should_panic(expected = "must contain its working set")]
    fn db_smaller_than_ws_rejected() {
        let mut spec =
            SyntheticSpec::balanced("bad", Bytes::gib(1), RatePattern::Flat { tps: 1.0 });
        spec.db_size = Bytes::mib(100);
        SyntheticWorkload::new(spec);
    }

    #[test]
    fn install_warms_exactly_the_working_set() {
        let spec = SyntheticSpec::balanced("s", Bytes::mib(32), RatePattern::Flat { tps: 1.0 });
        let mut w = SyntheticWorkload::new(spec);
        let mut inst = DbmsInstance::new(DbmsConfig::mysql(Bytes::mib(128)));
        let h = w.install(&mut inst);
        assert_eq!(inst.pool_resident_pages() as u64, h.ws_pages);
    }
}
