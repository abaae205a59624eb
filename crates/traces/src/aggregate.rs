//! Shard-level telemetry aggregation for the fleet balancer.
//!
//! A sharded control plane plans each shard independently, but the
//! top-level balancer only needs a much coarser signal than per-tenant
//! windows: *how much load does this shard carry, per resource, over the
//! rolling horizon?* This module folds the per-tenant rolling windows a
//! shard's ingester holds into one aggregate series per resource, the
//! same way rrdtool federations roll node series up into cluster series.
//!
//! Series are **tail-aligned**: the most recent sample of every input
//! lines up at the end of the aggregate, because that is how rolling
//! windows relate across tenants with different amounts of history (a
//! newly admitted tenant contributes only to the recent suffix).

use crate::rrd::RollingWindow;
use kairos_types::TimeSeries;
use serde::{Deserialize, Serialize};

/// Element-wise sum of borrowed windows, aligned at the most recent
/// sample — the sharded control plane's summary path aggregates every
/// tenant's rolling window each balance round, reading each `Rrd` ring in
/// place rather than copying it first. Each bucket adds its inputs in
/// iteration order.
///
/// The result has the length of the longest input; a shorter input
/// contributes zero to buckets older than its history. Empty input (or
/// all-empty windows) yields an empty series at `fallback_interval`.
pub fn sum_tail_aligned_refs<'a, I>(windows: I, fallback_interval: f64) -> TimeSeries
where
    I: IntoIterator<Item = RollingWindow<'a>>,
    I::IntoIter: Clone,
{
    let windows = windows.into_iter();
    let len = windows.clone().map(|w| w.len()).max().unwrap_or(0);
    let interval = windows
        .clone()
        .find(|w| !w.is_empty())
        .map_or(fallback_interval, |w| w.interval_secs);
    let mut out = vec![0.0f64; len];
    for w in windows {
        let (older, newer) = out[len - w.len()..].split_at_mut(w.older.len());
        older.iter_mut().zip(w.older).for_each(|(o, v)| *o += v);
        newer.iter_mut().zip(w.newer).for_each(|(o, v)| *o += v);
    }
    TimeSeries::new(interval, out)
}

/// One shard's aggregate load over the rolling horizon: the four profile
/// resources summed across its tenants, tail-aligned.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardAggregate {
    pub cpu_cores: TimeSeries,
    pub ram_bytes: TimeSeries,
    pub ws_bytes: TimeSeries,
    pub rate_rows: TimeSeries,
    /// Tenants folded in.
    pub tenants: usize,
}

impl ShardAggregate {
    /// Aggregate per-tenant windows, each given as
    /// `[cpu, ram, working-set, rate]`.
    pub fn from_windows<'a, I>(windows: I, fallback_interval: f64) -> ShardAggregate
    where
        I: IntoIterator<Item = &'a [TimeSeries; 4]>,
    {
        let windows: Vec<&[TimeSeries; 4]> = windows.into_iter().collect();
        let sum = |r: usize| {
            let series = windows.iter().map(|w| RollingWindow::of(&w[r]));
            sum_tail_aligned_refs(series, fallback_interval)
        };
        ShardAggregate {
            cpu_cores: sum(0),
            ram_bytes: sum(1),
            ws_bytes: sum(2),
            rate_rows: sum(3),
            tenants: windows.len(),
        }
    }

    /// Peak of each aggregate series as `[cpu, ram, ws, rate]` (0.0 for
    /// an empty series) — the balancer's headroom input.
    pub fn peaks(&self) -> [f64; 4] {
        let peak = |s: &TimeSeries| {
            if s.is_empty() {
                0.0
            } else {
                s.max()
            }
        };
        [
            peak(&self.cpu_cores),
            peak(&self.ram_bytes),
            peak(&self.ws_bytes),
            peak(&self.rate_rows),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(vals: &[f64]) -> TimeSeries {
        TimeSeries::new(300.0, vals.to_vec())
    }

    fn sum_tail_aligned(series: &[TimeSeries], fallback_interval: f64) -> TimeSeries {
        sum_tail_aligned_refs(series.iter().map(RollingWindow::of), fallback_interval)
    }

    #[test]
    fn sum_aligns_at_tail() {
        let a = ts(&[1.0, 2.0, 3.0, 4.0]);
        let b = ts(&[10.0, 20.0]); // newer tenant: only recent history
        let sum = sum_tail_aligned(&[a, b], 300.0);
        assert_eq!(sum.values(), &[1.0, 2.0, 13.0, 24.0]);
        assert_eq!(sum.interval_secs(), 300.0);
    }

    #[test]
    fn empty_input_is_empty_series() {
        let sum = sum_tail_aligned(&[], 60.0);
        assert_eq!(sum.len(), 0);
        assert_eq!(sum.interval_secs(), 60.0);
    }

    #[test]
    fn aggregate_peaks_reflect_summed_load() {
        let w1 = [
            ts(&[1.0, 2.0]),
            ts(&[5.0, 5.0]),
            ts(&[3.0, 3.0]),
            ts(&[100.0, 50.0]),
        ];
        let w2 = [
            ts(&[2.0, 1.0]),
            ts(&[5.0, 5.0]),
            ts(&[3.0, 3.0]),
            ts(&[0.0, 200.0]),
        ];
        let agg = ShardAggregate::from_windows(vec![&w1, &w2], 300.0);
        assert_eq!(agg.tenants, 2);
        let [cpu, ram, ws, rate] = agg.peaks();
        assert_eq!(cpu, 3.0); // 1+2 or 2+1 in each bucket
        assert_eq!(ram, 10.0);
        assert_eq!(ws, 6.0);
        assert_eq!(rate, 250.0);
    }
}
