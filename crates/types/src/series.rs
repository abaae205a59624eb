//! Uniformly-sampled time series.
//!
//! The consolidation engine evaluates constraints *per time window* (§5:
//! "the combined load imposed on each server will not exceed the available
//! resources at any moment in time"), so resource utilization is carried as
//! a plain sampled series with a fixed interval. The rrd-style
//! multi-resolution store in `kairos-traces` flattens into this type.

use serde::{Deserialize, Serialize};

/// A uniformly-sampled series of `f64` values.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TimeSeries {
    /// Sampling interval in seconds (e.g. 300 for the paper's 5-minute
    /// windows over 24 hours).
    interval_secs: f64,
    values: Vec<f64>,
}

/// Decoding re-checks what [`TimeSeries::new`] asserts: a snapshot (or
/// hand-built byte stream) carrying a non-positive or non-finite
/// interval must surface as a decode error at load time, not as a panic
/// the first time downstream code re-wraps the interval through
/// [`TimeSeries::new`].
impl Deserialize for TimeSeries {
    fn decode_from(input: &mut &[u8]) -> Result<TimeSeries, serde::Error> {
        let interval_secs = f64::decode_from(input)?;
        let values = Vec::<f64>::decode_from(input)?;
        if !(interval_secs.is_finite() && interval_secs > 0.0) {
            return Err(serde::Error::msg("time series: non-positive interval"));
        }
        Ok(TimeSeries {
            interval_secs,
            values,
        })
    }
}

impl TimeSeries {
    /// Create a series from raw samples.
    ///
    /// # Panics
    /// Panics if `interval_secs` is not strictly positive.
    pub fn new(interval_secs: f64, values: Vec<f64>) -> TimeSeries {
        assert!(
            interval_secs > 0.0,
            "sampling interval must be positive, got {interval_secs}"
        );
        TimeSeries {
            interval_secs,
            values,
        }
    }

    /// A constant-valued series of `n` samples.
    pub fn constant(interval_secs: f64, value: f64, n: usize) -> TimeSeries {
        TimeSeries::new(interval_secs, vec![value; n])
    }

    /// An empty series (zero samples).
    pub fn empty(interval_secs: f64) -> TimeSeries {
        TimeSeries::new(interval_secs, Vec::new())
    }

    pub fn interval_secs(&self) -> f64 {
        self.interval_secs
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Largest sample, or 0.0 for an empty series.
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Smallest sample, or 0.0 for an empty series.
    pub fn min(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Arithmetic mean, or 0.0 for an empty series.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Linear-interpolated percentile (`p` in `[0, 100]`), or 0.0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in time series"));
        percentile_of_sorted(&sorted, p)
    }

    /// Element-wise addition of another series.
    ///
    /// Series must share the sampling interval. If lengths differ the
    /// shorter one is treated as zero-padded: combining workloads monitored
    /// for slightly different durations must not truncate load.
    ///
    /// # Panics
    /// Panics if the intervals differ.
    pub fn add_assign(&mut self, other: &TimeSeries) {
        assert!(
            (self.interval_secs - other.interval_secs).abs() < f64::EPSILON,
            "cannot add series with intervals {} and {}",
            self.interval_secs,
            other.interval_secs
        );
        if other.values.len() > self.values.len() {
            self.values.resize(other.values.len(), 0.0);
        }
        for (a, b) in self.values.iter_mut().zip(other.values.iter()) {
            *a += *b;
        }
    }

    /// Element-wise sum of many series (zero-padded to the longest).
    pub fn sum<'a>(
        interval_secs: f64,
        series: impl IntoIterator<Item = &'a TimeSeries>,
    ) -> TimeSeries {
        let mut acc = TimeSeries::empty(interval_secs);
        for s in series {
            acc.add_assign(s);
        }
        acc
    }

    /// Multiply every sample by `factor`.
    pub fn scale(&self, factor: f64) -> TimeSeries {
        TimeSeries::new(
            self.interval_secs,
            self.values.iter().map(|v| v * factor).collect(),
        )
    }

    /// Apply `f` to every sample.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> TimeSeries {
        TimeSeries::new(
            self.interval_secs,
            self.values.iter().map(|&v| f(v)).collect(),
        )
    }

    /// Down-sample by an integer factor, averaging each bucket (rrd `AVG`
    /// consolidation). A trailing partial bucket is averaged over its actual
    /// sample count.
    ///
    /// # Panics
    /// Panics if `factor` is zero.
    pub fn downsample_avg(&self, factor: usize) -> TimeSeries {
        assert!(factor > 0, "downsample factor must be non-zero");
        let vals = self
            .values
            .chunks(factor)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        TimeSeries::new(self.interval_secs * factor as f64, vals)
    }

    /// Down-sample by an integer factor, taking each bucket's maximum (rrd
    /// `MAX` consolidation) — the conservative choice for capacity checks.
    pub fn downsample_max(&self, factor: usize) -> TimeSeries {
        assert!(factor > 0, "downsample factor must be non-zero");
        let vals = self
            .values
            .chunks(factor)
            .map(|c| c.iter().copied().fold(f64::NEG_INFINITY, f64::max))
            .collect();
        TimeSeries::new(self.interval_secs * factor as f64, vals)
    }

    /// Root-mean-square error against another series over the overlapping
    /// prefix. Used by the Fig 13 predictability experiment.
    pub fn rmse(&self, other: &TimeSeries) -> f64 {
        let n = self.values.len().min(other.values.len());
        if n == 0 {
            return 0.0;
        }
        let sum_sq: f64 = self.values[..n]
            .iter()
            .zip(&other.values[..n])
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        (sum_sq / n as f64).sqrt()
    }

    /// Split into consecutive chunks of `chunk_len` samples, dropping a
    /// trailing partial chunk. Used to slice fleet traces into weeks.
    pub fn chunks(&self, chunk_len: usize) -> Vec<TimeSeries> {
        assert!(chunk_len > 0, "chunk length must be non-zero");
        self.values
            .chunks_exact(chunk_len)
            .map(|c| TimeSeries::new(self.interval_secs, c.to_vec()))
            .collect()
    }

    /// Element-wise mean of several equally-shaped series. Series shorter
    /// than the longest are zero-padded before averaging.
    pub fn mean_of(interval_secs: f64, series: &[TimeSeries]) -> TimeSeries {
        if series.is_empty() {
            return TimeSeries::empty(interval_secs);
        }
        let mut acc = TimeSeries::sum(interval_secs, series);
        acc = acc.scale(1.0 / series.len() as f64);
        acc
    }
}

/// Linear-interpolated percentile over an already-sorted slice.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let p = p.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        // Single-product lerp: exact when the bracket endpoints are equal
        // and never outside [sorted[lo], sorted[hi]] by more than one
        // rounding step — the two-product form `lo*(1-frac) + hi*frac`
        // can dip below both endpoints and break monotonicity in `p`.
        sorted[lo] + (sorted[hi] - sorted[lo]) * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(vals: &[f64]) -> TimeSeries {
        TimeSeries::new(1.0, vals.to_vec())
    }

    #[test]
    fn stats_on_simple_series() {
        let ts = s(&[1.0, 3.0, 2.0, 4.0]);
        assert_eq!(ts.max(), 4.0);
        assert_eq!(ts.min(), 1.0);
        assert_eq!(ts.mean(), 2.5);
        assert_eq!(ts.len(), 4);
    }

    #[test]
    fn empty_series_stats_are_zero() {
        let ts = TimeSeries::empty(5.0);
        assert_eq!(ts.max(), 0.0);
        assert_eq!(ts.min(), 0.0);
        assert_eq!(ts.mean(), 0.0);
        assert_eq!(ts.percentile(95.0), 0.0);
        assert!(ts.is_empty());
    }

    #[test]
    fn percentile_interpolates() {
        let ts = s(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(ts.percentile(0.0), 10.0);
        assert_eq!(ts.percentile(100.0), 40.0);
        assert!((ts.percentile(50.0) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn add_assign_zero_pads_shorter() {
        let mut a = s(&[1.0, 1.0]);
        let b = s(&[2.0, 2.0, 2.0]);
        a.add_assign(&b);
        assert_eq!(a.values(), &[3.0, 3.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "cannot add series")]
    fn add_assign_rejects_mismatched_intervals() {
        let mut a = TimeSeries::new(1.0, vec![1.0]);
        let b = TimeSeries::new(2.0, vec![1.0]);
        a.add_assign(&b);
    }

    #[test]
    fn sum_of_many() {
        let parts = [s(&[1.0, 2.0]), s(&[3.0, 4.0]), s(&[5.0])];
        let total = TimeSeries::sum(1.0, parts.iter());
        assert_eq!(total.values(), &[9.0, 6.0]);
    }

    #[test]
    fn downsample_avg_handles_partial_tail() {
        let ts = s(&[1.0, 3.0, 5.0, 7.0, 9.0]);
        let down = ts.downsample_avg(2);
        assert_eq!(down.values(), &[2.0, 6.0, 9.0]);
        assert_eq!(down.interval_secs(), 2.0);
    }

    #[test]
    fn downsample_max_takes_bucket_peak() {
        let ts = s(&[1.0, 3.0, 5.0, 2.0]);
        assert_eq!(ts.downsample_max(2).values(), &[3.0, 5.0]);
    }

    #[test]
    fn downsample_avg_preserves_mean_for_exact_buckets() {
        let ts = s(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let down = ts.downsample_avg(3);
        assert!((down.mean() - ts.mean()).abs() < 1e-12);
    }

    #[test]
    fn rmse_of_identical_series_is_zero() {
        let ts = s(&[1.0, 2.0, 3.0]);
        assert_eq!(ts.rmse(&ts), 0.0);
    }

    #[test]
    fn rmse_known_value() {
        let a = s(&[0.0, 0.0]);
        let b = s(&[3.0, 4.0]);
        let expected = ((9.0 + 16.0) / 2.0f64).sqrt();
        assert!((a.rmse(&b) - expected).abs() < 1e-12);
    }

    #[test]
    fn chunks_drop_partial_tail() {
        let ts = s(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let weeks = ts.chunks(2);
        assert_eq!(weeks.len(), 2);
        assert_eq!(weeks[0].values(), &[1.0, 2.0]);
        assert_eq!(weeks[1].values(), &[3.0, 4.0]);
    }

    #[test]
    fn mean_of_series() {
        let parts = [s(&[2.0, 4.0]), s(&[4.0, 8.0])];
        let m = TimeSeries::mean_of(1.0, &parts);
        assert_eq!(m.values(), &[3.0, 6.0]);
    }

    #[test]
    fn map_and_scale() {
        let ts = s(&[1.0, 2.0]);
        assert_eq!(ts.scale(2.0).values(), &[2.0, 4.0]);
        assert_eq!(ts.map(|v| v + 1.0).values(), &[2.0, 3.0]);
    }
}
