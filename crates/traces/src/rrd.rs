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
//!
//! A [`WindowRing`] is what the online control plane keeps instead: only
//! the rolling window at base resolution, for several series pushed
//! together, in one flat ring. It checkpoints as one single-archive
//! [`Rrd`] per series, so the bytes are those of the per-series stores
//! it replaced.

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

/// A run of consecutive samples borrowed in place, oldest first: one
/// series' two contiguous halves of a [`WindowRing`] (`newer` is empty
/// when the ring has not wrapped, or for a window over one
/// [`TimeSeries`]). Readers
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
}

/// `N` series pushed together, each keeping its most recent `capacity`
/// samples: one allocation of `N × capacity` values, series after
/// series, with one shared write position, length and push count. Each
/// series reads in place as a [`RollingWindow`].
///
/// It checkpoints as `N` [`Rrd`]s back to back, each holding the one
/// step-1 `Average` archive the window is, with no bucket in flight: the
/// bytes `N` single-archive stores fed the same samples would write.
/// Decoding takes each store's finest archive, which must be step 1 with
/// no bucket in flight (coarser archives are dropped), requires the `N`
/// to agree on interval, capacity, length and push count, and rejects
/// whatever [`Rrd`]'s own decoder rejects.
#[derive(Debug, Clone)]
pub struct WindowRing<const N: usize> {
    interval_secs: f64,
    capacity: usize,
    /// Series `s` is `values[s * capacity..(s + 1) * capacity]`.
    values: Vec<f64>,
    /// Where every series' next sample lands; the oldest sample's slot
    /// once the ring is full.
    head: usize,
    len: usize,
    /// Samples pushed since the ring was made. Checkpointed: a ring
    /// rebuilt from a sketch has pushed a different count than its
    /// tenant has been seen for.
    pushed: u64,
}

impl<const N: usize> WindowRing<N> {
    /// An empty ring of `capacity` samples per series.
    ///
    /// # Panics
    /// Panics unless the interval is positive and the capacity at least 1.
    pub fn new(interval_secs: f64, capacity: usize) -> WindowRing<N> {
        assert!(interval_secs > 0.0);
        assert!(capacity >= 1, "need room for one sample");
        WindowRing {
            interval_secs,
            capacity,
            values: vec![0.0; N * capacity],
            head: 0,
            len: 0,
            pushed: 0,
        }
    }

    /// Push one sample of every series. Each stores `0.0 + v`, as a
    /// step-1 `Average` archive does, so −0.0 lands as +0.0.
    pub fn push(&mut self, sample: [f64; N]) {
        let head = self.head;
        for (series, v) in self.values.chunks_exact_mut(self.capacity).zip(sample) {
            series[head] = 0.0 + v;
        }
        self.head = if head + 1 == self.capacity {
            0
        } else {
            head + 1
        };
        self.len = self.capacity.min(self.len + 1);
        self.pushed += 1;
    }

    /// Samples held per series.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The most recent `n` samples of every series (all held if fewer),
    /// read in place.
    pub fn windows(&self, n: usize) -> [RollingWindow<'_>; N] {
        // Before the first wrap a series runs from slot 0; after it, from
        // `head` round to the slot before it.
        let wrap = if self.len == self.capacity {
            self.head
        } else {
            0
        };
        std::array::from_fn(|s| {
            let series = &self.values[s * self.capacity..][..self.len];
            let (newer, older) = series.split_at(wrap);
            RollingWindow {
                interval_secs: self.interval_secs,
                older,
                newer,
            }
            .last(n)
        })
    }
}

impl<const N: usize> Serialize for WindowRing<N> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        let spec = ArchiveSpec {
            step: 1,
            capacity: self.capacity,
            cf: Consolidation::Average,
        };
        for window in self.windows(self.capacity) {
            // An `Rrd`'s fields in order: the base interval, its one
            // archive (spec, ring, empty accumulator), the push count.
            self.interval_secs.encode_to(out);
            1usize.encode_to(out);
            spec.encode_to(out);
            window.len().encode_to(out);
            f64::encode_all(window.older, out);
            f64::encode_all(window.newer, out);
            0.0f64.encode_to(out);
            0usize.encode_to(out);
            self.pushed.encode_to(out);
        }
    }
}

impl<const N: usize> Deserialize for WindowRing<N> {
    fn decode_from(input: &mut &[u8]) -> Result<WindowRing<N>, serde::Error> {
        let mut stores = Vec::with_capacity(N);
        for _ in 0..N {
            let mut rrd = Rrd::decode_from(input)?;
            let window = rrd.archives.swap_remove(rrd.finest_idx());
            let plain = (window.spec.step, window.spec.cf, window.acc.to_bits())
                == (1, Consolidation::Average, 0);
            if !plain {
                return Err(serde::Error::msg(
                    "window ring: finest archive is not a plain step-1 window",
                ));
            }
            stores.push((rrd.base_interval_secs, rrd.samples_pushed, window));
        }
        let Some(&(interval_secs, pushed, ref first)) = stores.first() else {
            return Err(serde::Error::msg("window ring: no series"));
        };
        let (capacity, len) = (first.spec.capacity, first.ring.len());
        let in_step = |&(interval, count, ref w): &(f64, u64, Archive)| {
            (interval.to_bits(), count, w.spec.capacity, w.ring.len())
                == (interval_secs.to_bits(), pushed, capacity, len)
        };
        if !stores.iter().all(in_step) {
            return Err(serde::Error::msg("window ring: series out of step"));
        }
        let mut values = Vec::new();
        N.checked_mul(capacity)
            .and_then(|total| values.try_reserve_exact(total).ok())
            .ok_or(serde::Error::msg("window ring: capacity too large"))?;
        for (_, _, window) in &stores {
            values.extend(&window.ring);
            values.resize(values.len() + capacity - len, 0.0);
        }
        Ok(WindowRing {
            interval_secs,
            capacity,
            values,
            head: len % capacity,
            len,
            pushed,
        })
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

    /// Archive `idx`'s stored points, oldest first, at its resolution.
    fn series(rrd: &Rrd, idx: usize) -> TimeSeries {
        let a = &rrd.archives[idx];
        TimeSeries::new(
            rrd.base_interval_secs * a.spec.step as f64,
            a.ring.iter().copied().collect(),
        )
    }

    #[test]
    fn base_archive_stores_raw_samples() {
        let mut rrd = Rrd::new(1.0, vec![avg_archive(1, 5)]);
        for i in 0..3 {
            rrd.push(i as f64);
        }
        assert_eq!(series(&rrd, 0).values(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let mut rrd = Rrd::new(1.0, vec![avg_archive(1, 3)]);
        for i in 0..5 {
            rrd.push(i as f64);
        }
        assert_eq!(series(&rrd, 0).values(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn average_consolidation() {
        let mut rrd = Rrd::new(1.0, vec![avg_archive(4, 10)]);
        for v in [1.0, 2.0, 3.0, 4.0, 10.0, 10.0] {
            rrd.push(v);
        }
        // One complete bucket (mean 2.5); the 10s are still accumulating.
        assert_eq!(series(&rrd, 0).values(), &[2.5]);
        assert_eq!(series(&rrd, 0).interval_secs(), 4.0);
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
        assert_eq!(series(&rrd, 0).values(), &[5.0, 0.5]);
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
        assert_eq!(series(&rrd, 0).values(), &[1.0, 8.0]);
    }

    #[test]
    fn multiple_archives_consistent() {
        let mut rrd = Rrd::new(1.0, vec![avg_archive(1, 100), avg_archive(10, 10)]);
        for i in 0..100 {
            rrd.push(i as f64);
        }
        let fine = series(&rrd, 0);
        let coarse = series(&rrd, 1);
        assert_eq!(fine.len(), 100);
        assert_eq!(coarse.len(), 10);
        // Consolidation preserves the overall mean.
        assert!((fine.mean() - coarse.mean()).abs() < 1e-9);
    }

    #[test]
    fn monitoring_default_layout() {
        let rrd = Rrd::monitoring_default();
        assert_eq!(rrd.archives.len(), 3);
        assert_eq!(rrd.base_interval_secs, 300.0);
    }

    #[test]
    fn extend_matches_repeated_push() {
        let mut a = Rrd::new(1.0, vec![avg_archive(1, 10), avg_archive(3, 5)]);
        let mut b = a.clone();
        for i in 0..9 {
            a.push(i as f64);
        }
        b.extend((0..9).map(|i| i as f64));
        assert_eq!(series(&a, 0).values(), series(&b, 0).values());
        assert_eq!(series(&a, 1).values(), series(&b, 1).values());
        assert_eq!(b.samples_pushed, 9);
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
        let mut restored: Rrd =
            serde::from_bytes(&serde::to_bytes(&original)).expect("clean bytes decode");
        assert_eq!(restored.samples_pushed, original.samples_pushed);
        for v in [9.0, 1.0, 7.0, 2.0] {
            original.push(v);
            restored.push(v);
        }
        for idx in 0..original.archives.len() {
            assert_eq!(
                series(&restored, idx).values(),
                series(&original, idx).values()
            );
        }
        // Byte-level determinism: same state, same encoding.
        assert_eq!(serde::to_bytes(&restored), serde::to_bytes(&original));
    }

    #[test]
    fn decode_rejects_corrupt_invariants() {
        let mut rrd = Rrd::new(1.0, vec![avg_archive(2, 3)]);
        rrd.extend([1.0, 2.0, 3.0]);
        let bytes = serde::to_bytes(&rrd);
        // Truncations at every byte boundary fail cleanly.
        for cut in 0..bytes.len() {
            assert!(
                serde::from_bytes::<Rrd>(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        // A zero-length interval violates the constructor invariant.
        let mut bad = bytes.clone();
        bad[..8].copy_from_slice(&0.0f64.to_bits().to_le_bytes());
        assert!(
            serde::from_bytes::<Rrd>(&bad).is_err(),
            "zero interval must be rejected"
        );
    }

    /// Each series of `ring`, copied oldest first.
    fn held<const N: usize>(ring: &WindowRing<N>, n: usize) -> [Vec<f64>; N] {
        ring.windows(n).map(|w| w.iter().collect())
    }

    #[test]
    fn a_window_ring_reads_a_wrapped_ring_in_order_at_every_length() {
        for pushed in 0..12usize {
            let mut ring = WindowRing::<2>::new(1.0, 5);
            for i in 0..pushed {
                ring.push([i as f64, -(i as f64) - 1.0]);
            }
            let first = pushed.saturating_sub(5);
            assert_eq!(ring.len(), pushed - first);
            for n in 0..=7 {
                let [a, b] = held(&ring, n);
                let from = pushed - n.min(pushed - first);
                let want: Vec<f64> = (from..pushed).map(|i| i as f64).collect();
                assert_eq!(a, want, "pushed {pushed} n {n}");
                assert_eq!(b, want.iter().map(|v| -v - 1.0).collect::<Vec<_>>());
            }
            assert!(ring.windows(3).iter().all(|w| w.interval_secs == 1.0));
        }
    }

    #[test]
    fn a_window_ring_stores_what_a_step_1_average_archive_stores() {
        let mut ring = WindowRing::<1>::new(1.0, 2);
        ring.push([-0.0]);
        let [w] = ring.windows(1);
        assert_eq!(
            w.iter().next().map(f64::to_bits),
            Some(0),
            "−0.0 lands as +0.0"
        );
    }

    /// `N` single-archive stores fed what `ring` was fed.
    fn stores<const N: usize>(samples: &[[f64; N]], cap: usize) -> Vec<u8> {
        let mut rrds: [Rrd; N] = std::array::from_fn(|_| Rrd::new(2.0, vec![avg_archive(1, cap)]));
        for sample in samples {
            rrds.iter_mut().zip(sample).for_each(|(r, &v)| r.push(v));
        }
        rrds.iter().flat_map(serde::to_bytes).collect()
    }

    #[test]
    fn a_window_ring_encodes_and_decodes_as_single_archive_stores() {
        let samples: Vec<[f64; 3]> = (0..11)
            .map(|i| [i as f64 * 0.5, -0.0, 1e9 + i as f64])
            .collect();
        let mut ring = WindowRing::<3>::new(2.0, 4);
        for (i, &sample) in samples.iter().enumerate() {
            ring.push(sample);
            let bytes = serde::to_bytes(&ring);
            assert_eq!(bytes, stores(&samples[..=i], 4), "after {} pushes", i + 1);
            let back: WindowRing<3> = serde::from_bytes(&bytes).expect("clean bytes decode");
            assert_eq!(held(&back, 9), held(&ring, 9));
            assert_eq!(serde::to_bytes(&back), bytes);
        }
    }

    #[test]
    fn a_window_ring_decodes_from_the_finest_archive_of_each_store() {
        // Coarse archives listed first and part-filled buckets in them.
        let layout = || vec![avg_archive(10, 10), avg_archive(1, 5), avg_archive(3, 2)];
        let mut rrds = [Rrd::new(1.0, layout()), Rrd::new(1.0, layout())];
        for i in 0..20 {
            rrds[0].push(i as f64);
            rrds[1].push(100.0 + i as f64);
        }
        let bytes: Vec<u8> = rrds.iter().flat_map(serde::to_bytes).collect();
        let mut ring: WindowRing<2> = serde::from_bytes(&bytes).expect("old layout decodes");
        assert_eq!(held(&ring, 2), [vec![18.0, 19.0], vec![118.0, 119.0]]);
        ring.push([20.0, 120.0]);
        assert_eq!(held(&ring, 9)[0], vec![16.0, 17.0, 18.0, 19.0, 20.0]);
    }

    #[test]
    fn a_window_ring_decode_rejects_what_it_cannot_hold() {
        let one = |interval: f64, spec: ArchiveSpec, pushes: usize| {
            let mut rrd = Rrd::new(1.0, vec![avg_archive(1, 1)]);
            rrd.base_interval_secs = interval;
            rrd.archives[0].spec = spec;
            (0..pushes).for_each(|i| rrd.archives[0].ring.push_back(i as f64));
            rrd.samples_pushed = pushes as u64;
            serde::to_bytes(&rrd)
        };
        let decode = |parts: &[Vec<u8>]| serde::from_bytes::<WindowRing<2>>(&parts.concat());
        let good = one(1.0, avg_archive(1, 3), 2);
        assert!(decode(&[good.clone(), good.clone()]).is_ok());
        let both = [good.clone(), good.clone()].concat();
        for cut in 0..both.len() {
            assert!(
                serde::from_bytes::<WindowRing<2>>(&both[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        let bad = [
            ("a zero interval", one(0.0, avg_archive(1, 3), 2)),
            ("a NaN interval", one(f64::NAN, avg_archive(1, 3), 2)),
            ("zero capacity", one(1.0, avg_archive(1, 0), 0)),
            ("a ring past its capacity", one(1.0, avg_archive(1, 3), 4)),
            ("a coarse finest archive", one(1.0, avg_archive(2, 3), 2)),
            (
                "a step-1 Max archive",
                one(
                    1.0,
                    ArchiveSpec {
                        cf: Consolidation::Max,
                        ..avg_archive(1, 3)
                    },
                    2,
                ),
            ),
            ("another capacity", one(1.0, avg_archive(1, 4), 2)),
            ("another length", one(1.0, avg_archive(1, 3), 1)),
            ("another interval", one(2.0, avg_archive(1, 3), 2)),
        ];
        for (what, second) in bad {
            assert!(decode(&[good.clone(), second]).is_err(), "{what}");
        }
        // Rings too large to allocate fail before any allocation.
        let huge = one(1.0, avg_archive(1, usize::MAX / 2), 2);
        assert!(
            decode(&[huge.clone(), huge]).is_err(),
            "an unallocatable capacity"
        );
    }
}
