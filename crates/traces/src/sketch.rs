//! Fixed-size, peak-preserving sketches of rolling telemetry windows.
//!
//! The balancer's decision inputs — shard summaries and handoff frames —
//! used to carry full RRD-backed series, so their wire size grew with the
//! monitoring window. A [`SeriesSketch`] compresses one series to a
//! constant-size triple of (exact extrema + evenly spaced quantile
//! marks, arithmetic mean, short verbatim tail): enough to preserve every
//! peak-driven balancing decision exactly and to reconstruct a
//! decision-equivalent window on the receiving side, while making
//! summary/handoff size independent of window length.
//!
//! Compression invariants (the "bounded objective gap" contract the
//! property suite pins):
//!
//! * **Peaks are exact.** `marks` always ends at the true series maximum
//!   and starts at the true minimum, and [`SeriesSketch::reconstruct`]
//!   re-emits the maximum verbatim — so capacity checks and
//!   heaviest-first candidate ordering see the same numbers with or
//!   without sketching.
//! * **The recent past is verbatim.** The last `tail` samples travel
//!   untouched; forecasts over the live window read real data.
//! * **Only the deep past is lossy.** Older samples are replayed from the
//!   quantile staircase, which preserves the distribution (and therefore
//!   envelope/mean statistics) but not sample order.
//!
//! Sketches are plain `serde` data; on the wire they ride the same
//! CRC-framed `kairos-store` envelope as every other kairos frame
//! (`SKETCH_WIRE_VERSION` gates layout changes).

use crate::aggregate::ShardAggregate;
use kairos_types::{percentile_of_sorted, TimeSeries};
use serde::{Deserialize, Serialize};

/// Frame version for standalone sketch frames
/// (`kairos_store::encode_frame(SKETCH_WIRE_VERSION, ..)`). Embedded
/// sketches (shard summaries, handoff frames) are covered by their
/// container's version instead.
pub const SKETCH_WIRE_VERSION: u32 = 1;

/// Hard ceiling on quantile marks a decoded sketch may carry — anything
/// larger is a corrupt or adversarial frame, not a real config.
pub const MAX_SKETCH_MARKS: u32 = 1024;
/// Hard ceiling on verbatim tail samples a decoded sketch may carry.
pub const MAX_SKETCH_TAIL: u32 = 65_536;

/// Sketch shape: how many evenly spaced quantile marks summarize the
/// distribution and how many most-recent samples travel verbatim.
///
/// The config is part of the balancer's decision surface: the shard
/// summary cache must be invalidated when it changes (see
/// `ShardController::set_sketch_config`), which is what
/// [`SketchConfig::digest`] keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SketchConfig {
    /// Evenly spaced quantile marks (first = min, last = max). At least 2.
    pub marks: u32,
    /// Most-recent samples preserved exactly.
    pub tail: u32,
}

impl Default for SketchConfig {
    fn default() -> SketchConfig {
        SketchConfig { marks: 9, tail: 32 }
    }
}

impl SketchConfig {
    /// A config whose verbatim tail covers `window` samples entirely —
    /// sketching under it is lossless for windows up to that length (the
    /// reference side of the sketched-vs-full equivalence property).
    pub fn lossless_for(window: usize) -> SketchConfig {
        SketchConfig {
            marks: SketchConfig::default().marks,
            tail: (window as u32).min(MAX_SKETCH_TAIL),
        }
    }

    fn valid(&self) -> bool {
        (2..=MAX_SKETCH_MARKS).contains(&self.marks) && self.tail <= MAX_SKETCH_TAIL
    }

    /// Stable fingerprint of the quantile set + tail size (SplitMix64
    /// finalizer over both fields). Summary caches key on it so a config
    /// change — not just a state change — invalidates cached roll-ups.
    pub fn digest(&self) -> u64 {
        let mut z =
            ((self.marks as u64) << 32 | self.tail as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Decoding re-checks what the constructors guarantee: a frame carrying
/// a degenerate mark count (or an absurd one) must surface as a decode
/// error, not as a panic when the quantile grid is next rebuilt.
impl Deserialize for SketchConfig {
    fn decode_from(input: &mut &[u8]) -> Result<SketchConfig, serde::Error> {
        let cfg = SketchConfig {
            marks: u32::decode_from(input)?,
            tail: u32::decode_from(input)?,
        };
        if !cfg.valid() {
            return Err(serde::Error::msg("sketch config: marks/tail out of range"));
        }
        Ok(cfg)
    }
}

/// Constant-size summary of one uniformly sampled series. See the module
/// docs for what is exact and what is lossy.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SeriesSketch {
    interval_secs: f64,
    /// Original series length in samples (reconstruction re-emits it).
    len: u64,
    /// Arithmetic mean of the original series.
    mean: f64,
    /// Ascending quantile marks; `marks[0]` = exact min, last = exact
    /// max. Empty iff `len == 0`.
    marks: Vec<f64>,
    /// Most-recent samples, verbatim. Never longer than `len`.
    tail: Vec<f64>,
}

/// Decode-time validation mirrors [`TimeSeries`]'s: reject anything a
/// constructor could not have produced (corrupt frames must fail here,
/// not poison balancing arithmetic downstream).
impl Deserialize for SeriesSketch {
    fn decode_from(input: &mut &[u8]) -> Result<SeriesSketch, serde::Error> {
        let interval_secs = f64::decode_from(input)?;
        let len = u64::decode_from(input)?;
        let mean = f64::decode_from(input)?;
        let marks = Vec::<f64>::decode_from(input)?;
        let tail = Vec::<f64>::decode_from(input)?;
        if !(interval_secs.is_finite() && interval_secs > 0.0) {
            return Err(serde::Error::msg("series sketch: non-positive interval"));
        }
        if !mean.is_finite() {
            return Err(serde::Error::msg("series sketch: non-finite mean"));
        }
        if marks.len() > MAX_SKETCH_MARKS as usize || tail.len() > MAX_SKETCH_TAIL as usize {
            return Err(serde::Error::msg("series sketch: oversized mark/tail set"));
        }
        if marks.is_empty() != (len == 0) || tail.len() as u64 > len {
            return Err(serde::Error::msg(
                "series sketch: length bookkeeping broken",
            ));
        }
        if marks.windows(2).any(|w| w[0] > w[1]) || marks.iter().any(|m| !m.is_finite()) {
            return Err(serde::Error::msg(
                "series sketch: marks not finite ascending",
            ));
        }
        if tail.iter().any(|v| !v.is_finite()) {
            return Err(serde::Error::msg("series sketch: non-finite tail sample"));
        }
        Ok(SeriesSketch {
            interval_secs,
            len,
            mean,
            marks,
            tail,
        })
    }
}

impl SeriesSketch {
    /// Sketch one series under `cfg`. Size is `cfg.marks + min(cfg.tail,
    /// series.len())` floats regardless of window length.
    pub fn of(series: &TimeSeries, cfg: &SketchConfig) -> SeriesSketch {
        assert!(cfg.valid(), "sketch config out of range");
        let values = series.values();
        if values.is_empty() {
            return SeriesSketch::empty(series.interval_secs());
        }
        let mut sorted = values.to_vec();
        sort_as_stable(&mut sorted, values);
        let m = cfg.marks as usize;
        let mut marks = Vec::with_capacity(m);
        for i in 0..m {
            marks.push(percentile_of_sorted(
                &sorted,
                100.0 * i as f64 / (m - 1) as f64,
            ));
        }
        // Interpolation is monotone up to rounding, but the wire format's
        // "finite ascending" invariant is *hard* (decoders reject
        // violations), so enforce it structurally: clamp every mark into
        // the exact extrema, then sweep a running max so one rounding
        // wobble can't produce a descending pair.
        let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
        let mut prev = min;
        for mark in marks.iter_mut() {
            *mark = mark.clamp(min, max).max(prev);
            prev = *mark;
        }
        marks[0] = min;
        marks[m - 1] = max;
        let tail_len = (cfg.tail as usize).min(values.len());
        SeriesSketch {
            interval_secs: series.interval_secs(),
            len: values.len() as u64,
            mean: series.mean(),
            marks,
            tail: values[values.len() - tail_len..].to_vec(),
        }
    }

    /// The sketch of an empty window.
    pub fn empty(interval_secs: f64) -> SeriesSketch {
        assert!(
            interval_secs.is_finite() && interval_secs > 0.0,
            "sketch interval must be positive"
        );
        SeriesSketch {
            interval_secs,
            len: 0,
            mean: 0.0,
            marks: Vec::new(),
            tail: Vec::new(),
        }
    }

    pub fn interval_secs(&self) -> f64 {
        self.interval_secs
    }

    /// Original window length in samples.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Exact series maximum (0.0 when empty — matching
    /// [`TimeSeries::max`]).
    pub fn peak(&self) -> f64 {
        self.marks.last().copied().unwrap_or(0.0).max(0.0)
    }

    /// Exact series minimum (0.0 when empty).
    pub fn min(&self) -> f64 {
        self.marks.first().copied().unwrap_or(0.0)
    }

    /// Exact arithmetic mean of the original series.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Ascending quantile marks (empty iff the window was empty).
    pub fn marks(&self) -> &[f64] {
        &self.marks
    }

    /// Rebuild a same-length window: the tail verbatim at the end, the
    /// older prefix replayed from the quantile staircase with the exact
    /// maximum re-emitted first — so the reconstruction's peak always
    /// equals the original's (when the tail covers the whole window the
    /// reconstruction is the original, bit for bit).
    pub fn reconstruct(&self) -> TimeSeries {
        let n = self.len as usize;
        let mut out = Vec::with_capacity(n);
        let prefix = n - self.tail.len();
        for i in 0..prefix {
            if i == 0 {
                out.push(*self.marks.last().expect("non-empty sketch has marks"));
            } else {
                out.push(self.marks[i % self.marks.len()]);
            }
        }
        out.extend_from_slice(&self.tail);
        TimeSeries::new(self.interval_secs, out)
    }

    /// Elementwise-conservative sum of sketches — the zone roll-up. The
    /// summed peak is the sum of peaks (an upper bound on the true peak
    /// of the summed series: simultaneous worst cases), tails sum
    /// tail-aligned, and quantile staircases add index-mapped. Empty
    /// inputs contribute nothing; an all-empty input yields
    /// [`SeriesSketch::empty`] at `fallback_interval`.
    pub fn sum<'a, I>(sketches: I, fallback_interval: f64) -> SeriesSketch
    where
        I: IntoIterator<Item = &'a SeriesSketch>,
    {
        let live: Vec<&SeriesSketch> = sketches.into_iter().filter(|s| !s.is_empty()).collect();
        if live.is_empty() {
            return SeriesSketch::empty(fallback_interval);
        }
        let interval = live[0].interval_secs;
        let len = live.iter().map(|s| s.len).max().expect("non-empty");
        let mean = live.iter().map(|s| s.mean).sum();
        let m_out = live.iter().map(|s| s.marks.len()).max().expect("non-empty");
        let mut marks = vec![0.0f64; m_out];
        for s in &live {
            for (i, slot) in marks.iter_mut().enumerate() {
                // Index-map this sketch's (possibly smaller) grid onto the
                // output grid; monotone in `i`, so the sum stays ascending.
                let j = if m_out == 1 {
                    0
                } else {
                    (i * (s.marks.len() - 1) + (m_out - 1) / 2) / (m_out - 1)
                };
                *slot += s.marks[j];
            }
        }
        let tail_len = live.iter().map(|s| s.tail.len()).max().expect("non-empty");
        let mut tail = vec![0.0f64; tail_len];
        for s in &live {
            let offset = tail_len - s.tail.len();
            for (i, v) in s.tail.iter().enumerate() {
                tail[offset + i] += v;
            }
        }
        SeriesSketch {
            interval_secs: interval,
            len,
            mean,
            marks,
            tail,
        }
    }
}

/// Sort `sorted` (a copy of `values`) ascending into exactly what a
/// stable sort returns, without a stable sort's scratch buffer (on the
/// heap past 512 samples). Only ±0.0 compare equal with different bits,
/// so an unstable sort can differ only in the order of the zero run,
/// which is refilled in input order.
fn sort_as_stable(sorted: &mut [f64], values: &[f64]) {
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in telemetry series"));
    let zeros = sorted.partition_point(|&v| v < 0.0);
    let in_order = values.iter().filter(|&&v| v == 0.0);
    sorted[zeros..]
        .iter_mut()
        .zip(in_order)
        .for_each(|(slot, &zero)| *slot = zero);
}

/// The sketched counterpart of [`ShardAggregate`]: the four summed
/// per-resource windows a shard summary carries, at constant size. Same
/// series order and [`peaks`](AggregateSketch::peaks) contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateSketch {
    pub cpu_cores: SeriesSketch,
    pub ram_bytes: SeriesSketch,
    pub ws_bytes: SeriesSketch,
    pub rate_rows: SeriesSketch,
    /// Number of tenants rolled up.
    pub tenants: usize,
}

impl AggregateSketch {
    /// Sketch a full shard aggregate under `cfg`.
    pub fn of(aggregate: &ShardAggregate, cfg: &SketchConfig) -> AggregateSketch {
        AggregateSketch {
            cpu_cores: SeriesSketch::of(&aggregate.cpu_cores, cfg),
            ram_bytes: SeriesSketch::of(&aggregate.ram_bytes, cfg),
            ws_bytes: SeriesSketch::of(&aggregate.ws_bytes, cfg),
            rate_rows: SeriesSketch::of(&aggregate.rate_rows, cfg),
            tenants: aggregate.tenants,
        }
    }

    /// The roll-up of an empty shard (no tenants, no samples).
    pub fn empty(interval_secs: f64) -> AggregateSketch {
        AggregateSketch {
            cpu_cores: SeriesSketch::empty(interval_secs),
            ram_bytes: SeriesSketch::empty(interval_secs),
            ws_bytes: SeriesSketch::empty(interval_secs),
            rate_rows: SeriesSketch::empty(interval_secs),
            tenants: 0,
        }
    }

    /// Exact peaks `[cpu cores, ram bytes, working-set bytes, update
    /// rows/sec]` — the same contract as [`ShardAggregate::peaks`].
    pub fn peaks(&self) -> [f64; 4] {
        [
            self.cpu_cores.peak(),
            self.ram_bytes.peak(),
            self.ws_bytes.peak(),
            self.rate_rows.peak(),
        ]
    }

    /// Conservative sum across shards — what a zone presents one level
    /// up. Peaks add (upper bound), tenant counts add.
    pub fn sum<'a, I>(aggregates: I, fallback_interval: f64) -> AggregateSketch
    where
        I: IntoIterator<Item = &'a AggregateSketch>,
    {
        let all: Vec<&AggregateSketch> = aggregates.into_iter().collect();
        AggregateSketch {
            cpu_cores: SeriesSketch::sum(all.iter().map(|a| &a.cpu_cores), fallback_interval),
            ram_bytes: SeriesSketch::sum(all.iter().map(|a| &a.ram_bytes), fallback_interval),
            ws_bytes: SeriesSketch::sum(all.iter().map(|a| &a.ws_bytes), fallback_interval),
            rate_rows: SeriesSketch::sum(all.iter().map(|a| &a.rate_rows), fallback_interval),
            tenants: all.iter().map(|a| a.tenants).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> TimeSeries {
        TimeSeries::new(300.0, (0..n).map(|i| i as f64 * 0.01).collect())
    }

    #[test]
    fn size_is_independent_of_window_length() {
        let cfg = SketchConfig::default();
        let small = serde::to_bytes(&SeriesSketch::of(&ramp(64), &cfg));
        let large = serde::to_bytes(&SeriesSketch::of(&ramp(4096), &cfg));
        assert_eq!(small.len(), large.len());
    }

    #[test]
    fn peak_min_mean_are_exact() {
        let s = TimeSeries::new(300.0, vec![0.2, 3.5, 0.1, 2.0, 0.4]);
        let sk = SeriesSketch::of(&s, &SketchConfig::default());
        assert_eq!(sk.peak(), 3.5);
        assert_eq!(sk.min(), 0.1);
        assert!((sk.mean() - s.mean()).abs() < 1e-12);
    }

    #[test]
    fn reconstruct_preserves_len_interval_and_peak() {
        let cfg = SketchConfig { marks: 5, tail: 8 };
        let s = ramp(200);
        let sk = SeriesSketch::of(&s, &cfg);
        let back = sk.reconstruct();
        assert_eq!(back.len(), 200);
        assert_eq!(back.interval_secs(), 300.0);
        assert_eq!(back.max(), s.max());
        // The verbatim tail survives bit for bit.
        assert_eq!(&back.values()[192..], &s.values()[192..]);
    }

    #[test]
    fn reconstruct_is_exact_when_tail_covers_window() {
        let s = ramp(40);
        let sk = SeriesSketch::of(&s, &SketchConfig::lossless_for(40));
        assert_eq!(sk.reconstruct(), s);
    }

    #[test]
    fn empty_series_roundtrips() {
        let sk = SeriesSketch::of(&TimeSeries::empty(300.0), &SketchConfig::default());
        assert!(sk.is_empty());
        assert_eq!(sk.peak(), 0.0);
        assert_eq!(sk.reconstruct().len(), 0);
    }

    #[test]
    fn sum_is_peak_conservative() {
        let a = SeriesSketch::of(&ramp(100), &SketchConfig::default());
        let b = SeriesSketch::of(
            &TimeSeries::constant(300.0, 2.0, 50),
            &SketchConfig::default(),
        );
        let total = SeriesSketch::sum([&a, &b], 300.0);
        assert!((total.peak() - (a.peak() + b.peak())).abs() < 1e-12);
        assert_eq!(total.len(), 100);
        let empty_sum = SeriesSketch::sum([], 60.0);
        assert!(empty_sum.is_empty());
        assert_eq!(empty_sum.interval_secs(), 60.0);
    }

    #[test]
    fn config_digest_tracks_quantile_set_and_tail() {
        let base = SketchConfig::default();
        assert_eq!(base.digest(), SketchConfig::default().digest());
        assert_ne!(base.digest(), SketchConfig { marks: 17, ..base }.digest());
        assert_ne!(base.digest(), SketchConfig { tail: 64, ..base }.digest());
    }

    #[test]
    fn decode_rejects_degenerate_configs_and_broken_sketches() {
        // marks < 2 could never come from a constructor.
        let bad = serde::to_bytes(&(1u32, 8u32));
        assert!(serde::from_bytes::<SketchConfig>(&bad).is_err());
        // A sketch whose tail claims more samples than the series held.
        let mut sk = SeriesSketch::of(&ramp(10), &SketchConfig::default());
        sk.len = 3;
        assert!(serde::from_bytes::<SeriesSketch>(&serde::to_bytes(&sk)).is_err());
        // Non-ascending marks.
        let mut sk = SeriesSketch::of(&ramp(10), &SketchConfig::default());
        sk.marks.swap(0, 1);
        assert!(serde::from_bytes::<SeriesSketch>(&serde::to_bytes(&sk)).is_err());
    }

    #[test]
    fn constant_series_sketches_to_exactly_constant_marks() {
        // Regression: the two-product lerp formerly used by
        // `percentile_of_sorted` could round an interior mark *below*
        // both bracket endpoints on an all-equal window (seen in the
        // chaos suite as a snapshot-restore decode rejection: "marks not
        // finite ascending"). A constant series must sketch to marks
        // that are bit-identical to the constant, and every sketch must
        // survive a serde round-trip.
        let v = 7.420000000000001_f64;
        for n in 1..=16usize {
            let s = TimeSeries::new(300.0, vec![v; n]);
            let sk = SeriesSketch::of(&s, &SketchConfig::default());
            assert!(
                sk.marks().iter().all(|m| m.to_bits() == v.to_bits()),
                "n={n}: marks {:?} must all equal the constant",
                sk.marks()
            );
            let back = serde::from_bytes::<SeriesSketch>(&serde::to_bytes(&sk))
                .expect("constructor-produced sketch must decode");
            assert_eq!(back, sk);
        }
    }

    #[test]
    fn every_constructed_sketch_satisfies_the_wire_invariant() {
        // Brute monotonicity sweep over rounding-hostile windows: near
        // -equal values differing in the last ulp, mixed signs, tiny and
        // huge magnitudes. Every sketch `of` builds must decode.
        let ulp = f64::EPSILON;
        let cases: Vec<Vec<f64>> = vec![
            vec![1.0 + ulp; 8],
            vec![1.0, 1.0 + ulp, 1.0, 1.0 + ulp, 1.0, 1.0 + ulp, 1.0],
            vec![-7.42, -7.420000000000001, -7.42, -7.420000000000001],
            vec![1e-300; 5],
            vec![1e300, 1e300, 1e300],
            vec![-0.0, 0.0, -0.0, 0.0, -0.0],
        ];
        for (i, values) in cases.into_iter().enumerate() {
            for marks in [2u32, 3, 5, 9, 17] {
                let cfg = SketchConfig { marks, tail: 4 };
                let sk = SeriesSketch::of(&TimeSeries::new(300.0, values.clone()), &cfg);
                assert!(
                    serde::from_bytes::<SeriesSketch>(&serde::to_bytes(&sk)).is_ok(),
                    "case {i} marks={marks}: {:?} violates the wire invariant",
                    sk.marks()
                );
            }
        }
    }

    #[test]
    fn sort_as_stable_is_a_stable_sort_bit_for_bit() {
        let mut rng = kairos_types::SplitMix64::from_env(0x50_27);
        for case in 0..500 {
            let len = rng.next_range(if case % 2 == 0 { 24 } else { 1_500 }) as usize;
            let values: Vec<f64> = (0..len)
                .map(|_| match rng.next_range(6) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::from_bits(1 + rng.next_range(1 << 52)) * [1.0, -1.0][case % 2],
                    _ => rng.next_in(-2.0, 2.0).round(),
                })
                .collect();
            let mut stable = values.clone();
            stable.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            let mut sorted = values.clone();
            sort_as_stable(&mut sorted, &values);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&sorted), bits(&stable), "case {case}");
        }
    }

    #[test]
    fn aggregate_sketch_matches_full_aggregate_peaks() {
        let w1 = [ramp(48), ramp(48), ramp(48), ramp(48)];
        let w2 = [
            TimeSeries::constant(300.0, 1.5, 24),
            TimeSeries::constant(300.0, 2.5, 24),
            TimeSeries::constant(300.0, 2.5, 24),
            TimeSeries::constant(300.0, 9.0, 24),
        ];
        let full = ShardAggregate::from_windows(vec![&w1, &w2], 300.0);
        let sk = AggregateSketch::of(&full, &SketchConfig::default());
        assert_eq!(sk.peaks(), full.peaks());
        assert_eq!(sk.tenants, 2);
    }
}
