//! An rrdtool-style round-robin time-series store.
//!
//! §7.1: "The statistics were stored in the rrdtool format, used by open
//! source monitoring tools such as Cacti, Ganglia, and Munin [...] CPU,
//! RAM, and disk I/O numbers as reported by Linux, averaged over different
//! time intervals — ranging from every 15 seconds for the last hour to
//! every 24 hours for the last year."
//!
//! A [`Rrd`] holds several fixed-capacity archives at coarsening
//! resolutions; pushing a base-resolution sample updates them all through
//! their consolidation functions.

use kairos_types::TimeSeries;
use serde::{Deserialize, Serialize};

/// Consolidation function applied when folding base samples into a
/// coarser archive bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Consolidation {
    Average,
    Max,
    Min,
}

/// Declares one archive: every `step` base samples become one stored
/// point; the archive keeps the most recent `capacity` points.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ArchiveSpec {
    pub step: usize,
    pub capacity: usize,
    pub cf: Consolidation,
}

impl ArchiveSpec {
    /// The invariants [`Archive::new`] asserts, as a decode-time check
    /// (restored snapshots must error, not panic, on nonsense specs).
    fn valid(&self) -> bool {
        self.step >= 1 && self.capacity >= 1
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Archive {
    spec: ArchiveSpec,
    /// Ring of consolidated points (oldest first after unrolling).
    ring: std::collections::VecDeque<f64>,
    /// Accumulator over the current (incomplete) bucket.
    acc: f64,
    acc_n: usize,
}

impl Archive {
    fn new(spec: ArchiveSpec) -> Archive {
        assert!(spec.step >= 1 && spec.capacity >= 1);
        Archive {
            spec,
            ring: std::collections::VecDeque::with_capacity(spec.capacity),
            acc: initial_acc(spec.cf),
            acc_n: 0,
        }
    }

    fn push(&mut self, v: f64) {
        match self.spec.cf {
            Consolidation::Average => self.acc += v,
            Consolidation::Max => self.acc = self.acc.max(v),
            Consolidation::Min => self.acc = self.acc.min(v),
        }
        self.acc_n += 1;
        if self.acc_n == self.spec.step {
            let point = match self.spec.cf {
                Consolidation::Average => self.acc / self.spec.step as f64,
                _ => self.acc,
            };
            if self.ring.len() == self.spec.capacity {
                self.ring.pop_front();
            }
            self.ring.push_back(point);
            self.acc = initial_acc(self.spec.cf);
            self.acc_n = 0;
        }
    }
}

fn initial_acc(cf: Consolidation) -> f64 {
    match cf {
        Consolidation::Average => 0.0,
        Consolidation::Max => f64::NEG_INFINITY,
        Consolidation::Min => f64::INFINITY,
    }
}

/// A run of consecutive samples borrowed in place, oldest first: an
/// [`Rrd`] ring's two contiguous halves (`newer` is empty when the ring
/// has not wrapped, or for a window over one [`TimeSeries`]). Readers
/// walk `older` then `newer`, so every sum runs in the order a copied
/// series would have and yields the same bits.
#[derive(Debug, Clone, Copy)]
pub struct RollingWindow<'a> {
    pub interval_secs: f64,
    pub older: &'a [f64],
    pub newer: &'a [f64],
}

impl<'a> RollingWindow<'a> {
    /// The whole of `series`.
    pub fn of(series: &'a TimeSeries) -> RollingWindow<'a> {
        RollingWindow {
            interval_secs: series.interval_secs(),
            older: series.values(),
            newer: &[],
        }
    }

    pub fn len(&self) -> usize {
        self.older.len() + self.newer.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = f64> + 'a {
        self.older.iter().chain(self.newer).copied()
    }

    /// The most recent `n` samples (all of them if fewer).
    pub fn last(self, n: usize) -> RollingWindow<'a> {
        let skip = self.len() - n.min(self.len());
        let (older, newer) = match skip.checked_sub(self.older.len()) {
            Some(past_older) => (&self.newer[past_older..], &[][..]),
            None => (&self.older[skip..], self.newer),
        };
        RollingWindow {
            older,
            newer,
            ..self
        }
    }

    /// Copy out as a [`TimeSeries`].
    pub fn to_series(&self) -> TimeSeries {
        TimeSeries::new(self.interval_secs, self.iter().collect())
    }
}

/// The multi-archive store.
#[derive(Debug, Clone, Serialize)]
pub struct Rrd {
    base_interval_secs: f64,
    archives: Vec<Archive>,
    samples_pushed: u64,
}

/// Decoding validates what [`Rrd::new`]/[`Archive::new`] would assert —
/// a corrupt or hand-built byte stream must surface as an error, never
/// as a store that panics on its first push.
impl Deserialize for Rrd {
    fn decode_from(input: &mut &[u8]) -> Result<Rrd, serde::Error> {
        let base_interval_secs = f64::decode_from(input)?;
        let archives = Vec::<Archive>::decode_from(input)?;
        let samples_pushed = u64::decode_from(input)?;
        if !(base_interval_secs.is_finite() && base_interval_secs > 0.0) {
            return Err(serde::Error::msg("rrd: non-positive base interval"));
        }
        if archives.is_empty() {
            return Err(serde::Error::msg("rrd: no archives"));
        }
        for a in &archives {
            if !a.spec.valid() {
                return Err(serde::Error::msg("rrd: invalid archive spec"));
            }
            if a.ring.len() > a.spec.capacity {
                return Err(serde::Error::msg("rrd: archive ring exceeds capacity"));
            }
            if a.acc_n >= a.spec.step {
                return Err(serde::Error::msg("rrd: archive accumulator past bucket"));
            }
        }
        Ok(Rrd {
            base_interval_secs,
            archives,
            samples_pushed,
        })
    }
}

impl Rrd {
    /// Create with a base sampling interval and archive layout.
    ///
    /// # Panics
    /// Panics if no archives are declared.
    pub fn new(base_interval_secs: f64, specs: Vec<ArchiveSpec>) -> Rrd {
        assert!(base_interval_secs > 0.0);
        assert!(!specs.is_empty(), "need at least one archive");
        Rrd {
            base_interval_secs,
            archives: specs.into_iter().map(Archive::new).collect(),
            samples_pushed: 0,
        }
    }

    /// A paper-like layout on a 5-minute base: 5-min averages for a day,
    /// hourly for two weeks, daily maxima for a year.
    pub fn monitoring_default() -> Rrd {
        Rrd::new(
            300.0,
            vec![
                ArchiveSpec {
                    step: 1,
                    capacity: 288,
                    cf: Consolidation::Average,
                },
                ArchiveSpec {
                    step: 12,
                    capacity: 336,
                    cf: Consolidation::Average,
                },
                ArchiveSpec {
                    step: 288,
                    capacity: 365,
                    cf: Consolidation::Max,
                },
            ],
        )
    }

    pub fn base_interval_secs(&self) -> f64 {
        self.base_interval_secs
    }

    pub fn archives(&self) -> usize {
        self.archives.len()
    }

    pub fn samples_pushed(&self) -> u64 {
        self.samples_pushed
    }

    /// Serialize the whole store — ring contents, in-flight accumulator
    /// state and sample counter — to the workspace wire format. The
    /// restored store continues exactly where this one stops:
    /// `decode(encode(r))` then `push(v)` equals `r.push(v)`.
    pub fn encode(&self) -> Vec<u8> {
        serde::to_bytes(self)
    }

    /// Inverse of [`Rrd::encode`], with full validation: truncated or
    /// invariant-breaking bytes yield an error, never a panicking store.
    pub fn decode(bytes: &[u8]) -> Result<Rrd, serde::Error> {
        serde::from_bytes(bytes)
    }

    /// Push one base-resolution sample into every archive.
    pub fn push(&mut self, v: f64) {
        for a in &mut self.archives {
            a.push(v);
        }
        self.samples_pushed += 1;
    }

    /// Append a batch of base-resolution samples (streaming-ingest path:
    /// one call per monitoring flush instead of one per sample).
    pub fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        for v in values {
            self.push(v);
        }
    }

    /// Index of the finest (smallest-step) archive.
    fn finest_idx(&self) -> usize {
        (0..self.archives.len())
            .min_by_key(|&i| self.archives[i].spec.step)
            .expect("non-empty archives")
    }

    /// The most recent `n` base-resolution points (fewer if the finest
    /// archive holds less history), read in place — the *rolling window*
    /// the drift detector, the forecasts and the summary roll-up read.
    pub fn window(&self, n: usize) -> RollingWindow<'_> {
        let a = &self.archives[self.finest_idx()];
        let (older, newer) = a.ring.as_slices();
        RollingWindow {
            interval_secs: self.base_interval_secs * a.spec.step as f64,
            older,
            newer,
        }
        .last(n)
    }

    /// Number of points currently held by the finest archive — how much
    /// rolling-window history is available right now.
    pub fn rolling_len(&self) -> usize {
        self.archives[self.finest_idx()].ring.len()
    }

    /// Materialize archive `idx` as a [`TimeSeries`] (oldest first;
    /// incomplete buckets excluded).
    pub fn series(&self, idx: usize) -> TimeSeries {
        let a = &self.archives[idx];
        TimeSeries::new(
            self.base_interval_secs * a.spec.step as f64,
            a.ring.iter().copied().collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn avg_archive(step: usize, capacity: usize) -> ArchiveSpec {
        ArchiveSpec {
            step,
            capacity,
            cf: Consolidation::Average,
        }
    }

    #[test]
    fn base_archive_stores_raw_samples() {
        let mut rrd = Rrd::new(1.0, vec![avg_archive(1, 5)]);
        for i in 0..3 {
            rrd.push(i as f64);
        }
        assert_eq!(rrd.series(0).values(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let mut rrd = Rrd::new(1.0, vec![avg_archive(1, 3)]);
        for i in 0..5 {
            rrd.push(i as f64);
        }
        assert_eq!(rrd.series(0).values(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn average_consolidation() {
        let mut rrd = Rrd::new(1.0, vec![avg_archive(4, 10)]);
        for v in [1.0, 2.0, 3.0, 4.0, 10.0, 10.0] {
            rrd.push(v);
        }
        // One complete bucket (mean 2.5); the 10s are still accumulating.
        assert_eq!(rrd.series(0).values(), &[2.5]);
        assert_eq!(rrd.series(0).interval_secs(), 4.0);
    }

    #[test]
    fn max_consolidation() {
        let mut rrd = Rrd::new(
            1.0,
            vec![ArchiveSpec {
                step: 3,
                capacity: 4,
                cf: Consolidation::Max,
            }],
        );
        for v in [1.0, 5.0, 2.0, 0.0, 0.5, 0.25] {
            rrd.push(v);
        }
        assert_eq!(rrd.series(0).values(), &[5.0, 0.5]);
    }

    #[test]
    fn min_consolidation() {
        let mut rrd = Rrd::new(
            1.0,
            vec![ArchiveSpec {
                step: 2,
                capacity: 4,
                cf: Consolidation::Min,
            }],
        );
        for v in [3.0, 1.0, 8.0, 9.0] {
            rrd.push(v);
        }
        assert_eq!(rrd.series(0).values(), &[1.0, 8.0]);
    }

    #[test]
    fn multiple_archives_consistent() {
        let mut rrd = Rrd::new(1.0, vec![avg_archive(1, 100), avg_archive(10, 10)]);
        for i in 0..100 {
            rrd.push(i as f64);
        }
        let fine = rrd.series(0);
        let coarse = rrd.series(1);
        assert_eq!(fine.len(), 100);
        assert_eq!(coarse.len(), 10);
        // Consolidation preserves the overall mean.
        assert!((fine.mean() - coarse.mean()).abs() < 1e-9);
    }

    #[test]
    fn monitoring_default_layout() {
        let rrd = Rrd::monitoring_default();
        assert_eq!(rrd.archives(), 3);
        assert_eq!(rrd.base_interval_secs(), 300.0);
    }

    #[test]
    fn extend_matches_repeated_push() {
        let mut a = Rrd::new(1.0, vec![avg_archive(1, 10), avg_archive(3, 5)]);
        let mut b = a.clone();
        for i in 0..9 {
            a.push(i as f64);
        }
        b.extend((0..9).map(|i| i as f64));
        assert_eq!(a.series(0).values(), b.series(0).values());
        assert_eq!(a.series(1).values(), b.series(1).values());
        assert_eq!(b.samples_pushed(), 9);
    }

    #[test]
    fn rolling_window_returns_most_recent_points() {
        let mut rrd = Rrd::new(1.0, vec![avg_archive(1, 5), avg_archive(10, 10)]);
        rrd.extend((0..8).map(|i| i as f64));
        // Finest archive caps at 5 points: values 3..8.
        assert_eq!(rrd.rolling_len(), 5);
        assert_eq!(rrd.window(3).to_series().values(), &[5.0, 6.0, 7.0]);
        // Asking for more than held returns what exists.
        let all = rrd.window(99).to_series();
        assert_eq!(all.values(), &[3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(rrd.window(3).interval_secs, 1.0);
    }

    #[test]
    fn window_reads_a_wrapped_ring_in_order_at_every_length() {
        for pushed in 0..12usize {
            let mut rrd = Rrd::new(1.0, vec![avg_archive(1, 5)]);
            rrd.extend((0..pushed).map(|i| i as f64));
            let held: Vec<f64> = (pushed.saturating_sub(5)..pushed)
                .map(|i| i as f64)
                .collect();
            for n in 0..=7 {
                let w = rrd.window(n);
                assert_eq!(w.len(), n.min(held.len()));
                assert_eq!(w.iter().collect::<Vec<_>>(), held[held.len() - w.len()..]);
            }
        }
    }

    #[test]
    fn encode_decode_resumes_mid_bucket() {
        // 5 samples into step-3 archives leaves a half-full accumulator;
        // the restored store must finish that bucket identically.
        let mut original = Rrd::new(
            2.0,
            vec![
                avg_archive(1, 4),
                ArchiveSpec {
                    step: 3,
                    capacity: 4,
                    cf: Consolidation::Max,
                },
            ],
        );
        original.extend((0..5).map(|i| i as f64));
        let mut restored = Rrd::decode(&original.encode()).expect("clean bytes decode");
        assert_eq!(restored.samples_pushed(), original.samples_pushed());
        for v in [9.0, 1.0, 7.0, 2.0] {
            original.push(v);
            restored.push(v);
        }
        for idx in 0..original.archives() {
            assert_eq!(restored.series(idx).values(), original.series(idx).values());
        }
        // Byte-level determinism: same state, same encoding.
        assert_eq!(restored.encode(), original.encode());
    }

    #[test]
    fn decode_rejects_corrupt_invariants() {
        let mut rrd = Rrd::new(1.0, vec![avg_archive(2, 3)]);
        rrd.extend([1.0, 2.0, 3.0]);
        let bytes = rrd.encode();
        // Truncations at every byte boundary fail cleanly.
        for cut in 0..bytes.len() {
            assert!(Rrd::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // A zero-length interval violates the constructor invariant.
        let mut bad = bytes.clone();
        bad[..8].copy_from_slice(&0.0f64.to_bits().to_le_bytes());
        assert!(Rrd::decode(&bad).is_err(), "zero interval must be rejected");
    }

    #[test]
    fn rolling_window_uses_finest_archive_regardless_of_order() {
        // Coarse archive listed first: the window must still read the
        // fine one.
        let mut rrd = Rrd::new(1.0, vec![avg_archive(10, 10), avg_archive(1, 5)]);
        rrd.extend((0..20).map(|i| i as f64));
        assert_eq!(rrd.window(2).to_series().values(), &[18.0, 19.0]);
    }
}
