//! Workload predictability (§7.5, Fig 13).
//!
//! "We divided the data into weekly periods, and used the average load of
//! each time interval in the first two weeks to predict the third week.
//! [...] errors in both experiments are low with root mean squared error
//! (RMSE) of about 25 [, meaning] our predictions are 7-8% off from the
//! actual load."

use crate::rrd::RollingWindow;
use kairos_types::TimeSeries;

/// Outcome of a week-ahead prediction.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Predicted series for the target week.
    pub predicted: TimeSeries,
    /// Actual series of the target week.
    pub actual: TimeSeries,
    /// Root mean squared error between them.
    pub rmse: f64,
    /// RMSE relative to the actual week's mean (the paper's "7–8 % off").
    pub relative_error: f64,
}

/// Predict the last chunk of `series` as the element-wise mean of the
/// preceding chunks. `chunk_len` is samples per week.
///
/// Returns `None` when fewer than two full chunks exist.
pub fn predict_last_period(series: &TimeSeries, chunk_len: usize) -> Option<Prediction> {
    let chunks = series.chunks(chunk_len);
    if chunks.len() < 2 {
        return None;
    }
    let (history, target) = chunks.split_at(chunks.len() - 1);
    let predicted = TimeSeries::mean_of(series.interval_secs(), history);
    let actual = target[0].clone();
    let rmse = predicted.rmse(&actual);
    let mean = actual.mean().abs().max(1e-12);
    Some(Prediction {
        rmse,
        relative_error: rmse / mean,
        predicted,
        actual,
    })
}

/// `rmse / max(|mean|, 1e-12) <= threshold` for the mean
/// `Σx / n` of `n` samples as a serial `Iterator::sum` adds them, when
/// the sum `regrouped` (the same samples in another order) settles it:
/// the two sums differ by at most `2(n−1)·ε·Σ|x|` (`sum_abs`, added in
/// any order), and the test is monotone in the mean's magnitude, so it
/// is decided if both ends of that interval agree. `None` when they do
/// not (a near tie) or when a sum is not finite.
pub fn regime_holds(
    rmse: f64,
    n: usize,
    regrouped: f64,
    sum_abs: f64,
    threshold: f64,
) -> Option<bool> {
    let bound = 2.0 * (n - 1) as f64 * f64::EPSILON * sum_abs;
    if !bound.is_finite() {
        return None;
    }
    // The bound carries twice the slack the error analysis needs, which
    // also covers rounding in `±` and `/` below.
    let ratio = |magnitude: f64| rmse / (magnitude / n as f64).max(1e-12);
    let (lo, hi) = ((regrouped.abs() - bound).max(0.0), regrouped.abs() + bound);
    match (ratio(lo) <= threshold, ratio(hi) <= threshold) {
        (true, true) => Some(true),
        (false, false) => Some(false),
        _ => None,
    }
}

/// `Σ|x|` in eight interleaved partial sums: it only scales a bound, so
/// any order serves, and this one vectorizes.
fn sum_abs(values: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 8];
    let chunks = values.chunks_exact(8);
    let rest: f64 = chunks.remainder().iter().map(|v| v.abs()).sum();
    for chunk in chunks {
        lanes.iter_mut().zip(chunk).for_each(|(l, v)| *l += v.abs());
    }
    lanes.iter().sum::<f64>() + rest
}

/// Forecast the next planning horizon of one series from its rolling
/// window, read in place — the one forecasting kernel.
///
/// The forecast is built in *phase space*: `start_index` is the global
/// sample index of `history`'s first value, so element `p` of the result
/// always corresponds to global phase `p` within the horizon — the same
/// convention the drift detector uses for phase alignment.
///
/// * **Stationary** (possibly periodic) series: the per-phase mean of all
///   observed occurrences — the Fig 13 predictor
///   (`kairos_traces::predict`'s model), which averages measurement noise
///   out.
/// * **Regime change** (the most recent horizon deviates from that
///   prediction by a relative RMSE beyond `threshold`): stale history would
///   systematically mislead, and the recent window itself still mixes
///   both regimes. The forecast falls back to a conservative flat
///   envelope at the recent window's *peak* — scale-up provisioning for
///   the regime that is arriving; the lazier slack side of the drift
///   detector repacks later if the envelope proves too generous.
///
/// The flag says whether the forecast fell back to the conservative
/// flat envelope (regime change detected). The online controller uses
/// it to schedule a zero-move horizon refresh: an envelope-planned
/// profile is deliberately loose, and should be tightened once enough
/// post-drift history re-accumulates instead of waiting for slack drift
/// to trip.
///
/// Phases are summed one horizon-sized run at a time (four whole cycles
/// at once), each phase still in sample order, and counts follow from
/// the length. The overall mean is a serial sum only where its bits
/// matter (an unseen phase takes it) or where [`regime_holds`] cannot
/// decide the regime test from the regrouped sum.
pub fn forecast_window(
    history: RollingWindow<'_>,
    horizon: usize,
    start_index: u64,
    threshold: f64,
) -> (TimeSeries, bool) {
    assert!(horizon > 0);
    let (interval, n) = (history.interval_secs, history.len());
    if n == 0 {
        return (TimeSeries::constant(interval, 0.0, horizon), false);
    }
    let first = (start_index % horizon as u64) as usize;
    let mut sum = vec![0.0f64; horizon];
    let mut p = first;
    for mut rest in [history.older, history.newer] {
        while !rest.is_empty() {
            if p == 0 && rest.len() >= 4 * horizon {
                // Four whole cycles in one pass, each phase's four in order.
                let (block, tail) = rest.split_at(4 * horizon);
                let (c01, c23) = block.split_at(2 * horizon);
                let ((c0, c1), (c2, c3)) = (c01.split_at(horizon), c23.split_at(horizon));
                let cycles = c0.iter().zip(c1).zip(c2).zip(c3);
                for (s, (((x0, x1), x2), x3)) in sum.iter_mut().zip(cycles) {
                    *s = *s + x0 + x1 + x2 + x3;
                }
                rest = tail;
                continue;
            }
            let (run, tail) = rest.split_at((horizon - p).min(rest.len()));
            sum[p..].iter_mut().zip(run).for_each(|(s, v)| *s += v);
            p = if p + run.len() == horizon {
                0
            } else {
                p + run.len()
            };
            rest = tail;
        }
    }
    let serial_mean = || history.iter().sum::<f64>() / n as f64;
    // Phase p occurs once per whole cycle, and once more if it is among
    // the first `n % horizon` phases from `first`.
    let (cycles, extra) = (n / horizon, n % horizon);
    let unseen = cycles == 0;
    let overall_mean = if unseen { serial_mean() } else { 0.0 };
    let regrouped = sum.iter().sum::<f64>();
    let sum_abs = sum_abs(history.older) + sum_abs(history.newer);
    let mut d = if first == 0 { 0 } else { horizon - first }; // phase 0's distance from `first`
    for s in sum.iter_mut() {
        let c = cycles + usize::from(d < extra);
        *s = if c > 0 { *s / c as f64 } else { overall_mean };
        d = if d + 1 == horizon { 0 } else { d + 1 };
    }
    let phase_mean = sum;

    // Regime test: the most recent (≤ horizon) samples against the
    // phase-mean prediction.
    let tail = history.last(horizon);
    // The tail is the last cycle, which starts where the sums stopped, or
    // the whole window.
    let mut p = if n >= horizon { p } else { first };
    let sq: f64 = tail
        .iter()
        .map(|v| {
            let d = v - phase_mean[p];
            p = if p + 1 == horizon { 0 } else { p + 1 };
            d * d
        })
        .sum();
    let rmse = (sq / tail.len() as f64).sqrt();
    let serial = |mean: f64| rmse / mean.abs().max(1e-12) <= threshold;
    let stationary = match (unseen, regime_holds(rmse, n, regrouped, sum_abs, threshold)) {
        (false, Some(holds)) => holds,
        (true, _) => serial(overall_mean),
        (false, None) => serial(serial_mean()),
    };
    if stationary {
        (TimeSeries::new(interval, phase_mean), false)
    } else {
        let peak = tail.iter().fold(f64::NEG_INFINITY, f64::max);
        (TimeSeries::constant(interval, peak, horizon), true)
    }
}

/// Aggregate CPU across a fleet (the paper examines "the total CPU
/// utilization across all servers, as this is typically the most volatile
/// measure").
pub fn fleet_total_cpu(fleet: &[crate::fleet::ServerTrace]) -> TimeSeries {
    let interval = fleet
        .first()
        .map(|s| s.cpu.interval_secs())
        .unwrap_or(300.0);
    TimeSeries::sum(interval, fleet.iter().map(|s| &s.cpu))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{generate_fleet, Dataset, FleetConfig};
    use kairos_types::SplitMix64;

    #[test]
    fn regime_holds_decides_only_what_the_serial_mean_would() {
        let mut rng = SplitMix64::from_env(0x9E_61);
        let (mut decided, mut open) = (0, 0);
        for case in 0..2_000 {
            let n = 1 + rng.next_range(300) as usize;
            // Levels from cancelling to one-signed, so the bound is wide
            // on some draws and tight on others.
            let offset = [0.0, 0.01, 1.0, 100.0][case % 4];
            let x: Vec<f64> = (0..n).map(|_| rng.next_in(-1.0, 1.0) + offset).collect();
            let serial = x.iter().sum::<f64>();
            let mut regrouped = x.clone();
            regrouped.reverse();
            let regrouped = regrouped.iter().sum::<f64>();
            let sum_abs = x.iter().map(|v| v.abs()).sum::<f64>();
            let mean = serial / n as f64;
            // An RMSE that puts the serial ratio near the threshold.
            let rmse = 0.25 * mean.abs().max(1e-12) * (1.0 + rng.next_in(-1e-9, 1e-9));
            let truth = rmse / mean.abs().max(1e-12) <= 0.25;
            match regime_holds(rmse, n, regrouped, sum_abs, 0.25) {
                Some(holds) => {
                    assert_eq!(holds, truth, "case {case}");
                    decided += 1;
                }
                None => open += 1,
            }
        }
        assert!(decided > 0 && open > 0, "{decided} decided, {open} open");
        assert_eq!(regime_holds(1.0, 8, 4.0, f64::INFINITY, 0.25), None);
        assert_eq!(regime_holds(1.0, 8, 4.0, f64::NAN, 0.25), None);
        assert_eq!(regime_holds(0.01, 8, 4.0, 4.0, 0.25), Some(true));
        assert_eq!(regime_holds(9.0, 8, 4.0, 4.0, 0.25), Some(false));
    }

    #[test]
    fn perfectly_periodic_series_predicts_exactly() {
        let week: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin() + 2.0).collect();
        let mut vals = Vec::new();
        for _ in 0..3 {
            vals.extend_from_slice(&week);
        }
        let series = TimeSeries::new(300.0, vals);
        let p = predict_last_period(&series, 100).unwrap();
        assert!(p.rmse < 1e-12, "rmse {}", p.rmse);
        assert!(p.relative_error < 1e-12);
    }

    #[test]
    fn too_short_history_returns_none() {
        let series = TimeSeries::new(300.0, vec![1.0; 150]);
        assert!(predict_last_period(&series, 100).is_none());
    }

    #[test]
    fn noisy_periodic_series_has_bounded_error() {
        use kairos_types::SplitMix64;
        let mut rng = SplitMix64::new(3);
        let mut vals = Vec::new();
        for _ in 0..3 {
            for i in 0..200 {
                vals.push(10.0 + 3.0 * (i as f64 * 0.1).sin() + rng.next_gaussian() * 0.5);
            }
        }
        let series = TimeSeries::new(300.0, vals);
        let p = predict_last_period(&series, 200).unwrap();
        // Error should be on the order of the noise, tiny vs the mean.
        assert!(p.relative_error < 0.12, "rel err {}", p.relative_error);
    }

    #[test]
    fn fleet_prediction_matches_paper_band() {
        // The Fig 13 experiment on our synthetic Wikipedia fleet: the
        // paper reports 7–8 % relative error; our fleets should land in
        // a comparable band (strict periodicity + noise).
        let cfg = FleetConfig::default(); // 3 weeks
        let fleet = generate_fleet(Dataset::Wikipedia, &cfg);
        let total = fleet_total_cpu(&fleet);
        let week_len = (7.0 * 86_400.0 / 300.0) as usize;
        let p = predict_last_period(&total, week_len).unwrap();
        assert!(
            p.relative_error < 0.20,
            "relative error {:.3} too high",
            p.relative_error
        );
        assert!(p.rmse > 0.0);
    }

    #[test]
    fn fleet_total_sums_servers() {
        let cfg = FleetConfig {
            weeks: 1,
            ..Default::default()
        };
        let fleet = generate_fleet(Dataset::Internal, &cfg);
        let total = fleet_total_cpu(&fleet);
        let manual: f64 = fleet.iter().map(|s| s.cpu.values()[0]).sum();
        assert!((total.values()[0] - manual).abs() < 1e-9);
    }
}
