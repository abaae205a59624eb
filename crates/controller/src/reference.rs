//! The copy-based window readers the in-place kernels replaced, kept as
//! bit-exact references: the forecast, the drift check and the summary
//! roll-up exactly as they read the rolling window when every reader
//! copied it into a fresh [`TimeSeries`] first. A seeded property test
//! holds the kernels to them `to_bits` for `to_bits`.
//!
//! The references never touch an `Rrd`: the test mirrors every pushed
//! sample in a plain `Vec`, so "the last `n` samples" is a slice of
//! that mirror, independent of how the ring is laid out.

use crate::controller::ControllerConfig;
use crate::drift::{DriftDetector, DriftReport, ResourceDrift};
use crate::ingest::{TelemetryConfig, TelemetryIngester, TelemetrySketch, WorkloadTelemetry};
use crate::resolver::{forecast_profile_flagged, forecast_profile_tail, forecast_series_flagged};
use crate::scenarios::SyntheticSource;
use crate::shard::{ShardController, ShardSummary, TenantHandoff, TenantLoad};
use kairos_core::ConsolidationEngine;
use kairos_monitor::MonitorSample;
use kairos_solver::{evaluate, Assignment};
use kairos_traces::{
    regime_holds, AggregateSketch, RollingWindow, SeriesSketch, ShardAggregate, SketchConfig,
    TailAlignedSums,
};
use kairos_types::{percentile_of_sorted, Bytes, SplitMix64, TimeSeries, WorkloadProfile};
use kairos_workloads::RatePattern;

/// The regime-change trip point the reference forecast was written with.
const REGIME_CHANGE_THRESHOLD: f64 = 0.25;

/// The forecast kernel over one copied series, a `u64 %` per sample.
fn forecast_series_flagged_copy(
    history: &TimeSeries,
    horizon: usize,
    start_index: u64,
) -> (TimeSeries, bool) {
    assert!(horizon > 0);
    let interval = history.interval_secs();
    let vals = history.values();
    if vals.is_empty() {
        return (TimeSeries::constant(interval, 0.0, horizon), false);
    }
    let mut sum = vec![0.0f64; horizon];
    let mut count = vec![0usize; horizon];
    for (i, &v) in vals.iter().enumerate() {
        let p = ((start_index + i as u64) % horizon as u64) as usize;
        sum[p] += v;
        count[p] += 1;
    }
    let overall_mean = vals.iter().sum::<f64>() / vals.len() as f64;
    let phase_mean: Vec<f64> = sum
        .iter()
        .zip(&count)
        .map(|(&s, &c)| if c > 0 { s / c as f64 } else { overall_mean })
        .collect();
    let tail = &vals[vals.len().saturating_sub(horizon)..];
    let tail_start = start_index + (vals.len() - tail.len()) as u64;
    let sq: f64 = tail
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let p = ((tail_start + i as u64) % horizon as u64) as usize;
            let d = v - phase_mean[p];
            d * d
        })
        .sum();
    let rmse = (sq / tail.len() as f64).sqrt();
    let mean_abs = overall_mean.abs().max(1e-12);
    if rmse / mean_abs <= REGIME_CHANGE_THRESHOLD {
        (TimeSeries::new(interval, phase_mean), false)
    } else {
        let peak = tail.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (TimeSeries::constant(interval, peak, horizon), true)
    }
}

/// `forecast_profile_flagged` over copied `[cpu, ram, working-set, rate]`
/// history, each series forecast on its own.
fn forecast_profile_copy(
    history: [TimeSeries; 4],
    samples_seen: u64,
    horizon: usize,
) -> (WorkloadProfile, bool) {
    let start = samples_seen.saturating_sub(history[0].len() as u64);
    let [(cpu, e0), (ram, e1), (ws, e2), (rate, e3)] =
        history.map(|s| forecast_series_flagged_copy(&s, horizon, start));
    (
        WorkloadProfile::new("w", cpu, ram, ws, rate),
        e0 || e1 || e2 || e3,
    )
}

/// `DriftDetector::check` over a copied live profile, a `u64 %` per
/// sample.
fn check_copy(
    detector: &DriftDetector,
    planned: &WorkloadProfile,
    live: &WorkloadProfile,
    now_index: u64,
) -> DriftReport {
    let horizon = planned.windows().max(1);
    let m = live.windows();
    let start = (now_index + 1).saturating_sub(m as u64);
    let planned_at = |series: &TimeSeries, i: usize| {
        let idx = ((start + i as u64) % horizon as u64) as usize;
        series.values().get(idx).copied().unwrap_or(0.0)
    };
    let drift_of = |planned_s: &TimeSeries, live_s: &TimeSeries| {
        let n = live_s.len();
        if n == 0 {
            return ResourceDrift::default();
        }
        let (mut over_sq, mut under_sq) = (0.0f64, 0.0f64);
        for (i, &v) in live_s.values().iter().enumerate() {
            let d = v - planned_at(planned_s, i);
            if d > 0.0 {
                over_sq += d * d;
            } else {
                under_sq += d * d;
            }
        }
        let mean = planned_s.mean().abs().max(1e-12);
        ResourceDrift {
            overload: (over_sq / n as f64).sqrt() / mean,
            slack: (under_sq / n as f64).sqrt() / mean,
        }
    };
    let cpu = drift_of(&planned.cpu_cores, &live.cpu_cores);
    let ram = drift_of(&planned.ram_bytes, &live.ram_bytes);
    let working_set = drift_of(
        &planned.disk_working_set_bytes,
        &live.disk_working_set_bytes,
    );
    let update_rate = drift_of(
        &planned.disk_update_rows_per_sec,
        &live.disk_update_rows_per_sec,
    );
    let max_overload = cpu
        .overload
        .max(ram.overload)
        .max(working_set.overload)
        .max(update_rate.overload);
    let max_slack = cpu
        .slack
        .max(ram.slack)
        .max(working_set.slack)
        .max(update_rate.slack);
    DriftReport {
        workload: live.name.clone(),
        cpu,
        ram,
        working_set,
        update_rate,
        max_overload,
        max_slack,
        drifted: m >= detector.min_windows
            && (max_overload > detector.overload_threshold || max_slack > detector.slack_threshold),
    }
}

/// `sum_tail_aligned_refs` over copied series.
fn sum_copy(series: &[&TimeSeries], fallback_interval: f64) -> TimeSeries {
    let len = series.iter().map(|s| s.len()).max().unwrap_or(0);
    let interval = series
        .iter()
        .find(|s| !s.is_empty())
        .map(|s| s.interval_secs())
        .unwrap_or(fallback_interval);
    let mut out = vec![0.0f64; len];
    for s in series {
        let offset = len - s.len();
        for (i, &v) in s.values().iter().enumerate() {
            out[offset + i] += v;
        }
    }
    TimeSeries::new(interval, out)
}

/// The summary roll-up over copied `[cpu, ram, working-set, rate]`
/// histories: four sums, four sketches.
fn rollup_copy(
    histories: &[[TimeSeries; 4]],
    interval: f64,
    cfg: &SketchConfig,
) -> AggregateSketch {
    let sum = |r: usize| {
        sum_copy(
            &histories.iter().map(|h| &h[r]).collect::<Vec<_>>(),
            interval,
        )
    };
    let full = ShardAggregate {
        cpu_cores: sum(0),
        ram_bytes: sum(1),
        ws_bytes: sum(2),
        rate_rows: sum(3),
        tenants: histories.len(),
    };
    AggregateSketch::of(&full, cfg)
}

/// The roll-up half of `ShardController::summary`'s walk, for the
/// roll-up oracle: every tenant's full window fed to the production
/// `TailAlignedSums` in canonical order, each sum sketched. RAM is the
/// working set, so its sketch serves both.
impl TelemetryIngester {
    fn rollup(&self, fallback_interval: f64, cfg: &SketchConfig) -> AggregateSketch {
        let mut sums = TailAlignedSums::default();
        self.iter().for_each(|(_, t)| sums.add(t.history()));
        let [cpu, ram, rate] = sums
            .finish(fallback_interval)
            .map(|sum| SeriesSketch::of(&sum, cfg));
        AggregateSketch {
            cpu_cores: cpu,
            ram_bytes: ram.clone(),
            ws_bytes: ram,
            rate_rows: rate,
            tenants: self.len(),
        }
    }
}

/// One workload's telemetry plus a plain mirror of every sample pushed.
struct Mirrored {
    telemetry: WorkloadTelemetry,
    cap: usize,
    interval: f64,
    cpu: Vec<f64>,
    ram: Vec<f64>,
    rate: Vec<f64>,
}

impl Mirrored {
    /// Empty rings whose first sample will be global sample `first`.
    fn new(cap: usize, interval: f64, first: u64) -> Mirrored {
        let cfg = TelemetryConfig {
            interval_secs: interval,
            window_capacity: cap,
            gauged_working_set: None,
        };
        let empty = SeriesSketch::empty(interval);
        let telemetry = WorkloadTelemetry::from_sketch(&TelemetrySketch {
            cfg,
            cpu: empty.clone(),
            ram: empty.clone(),
            rate: empty,
            samples_seen: first,
        });
        Mirrored {
            telemetry,
            cap,
            interval,
            cpu: Vec::new(),
            ram: Vec::new(),
            rate: Vec::new(),
        }
    }

    /// Push one sample around `level` (a level that moves makes
    /// regime-change tails). The mirror records what a step-1 `Average`
    /// archive stores, `0.0 + v`, which turns −0.0 into +0.0.
    fn push(&mut self, rng: &mut SplitMix64, level: f64) {
        let (cpu, rate) = (0.0 + value(rng, level), 0.0 + value(rng, 100.0 * level));
        let ram = Bytes((level * rng.next_in(0.5, 1.5) * 1e9) as u64);
        self.telemetry.ingest(&MonitorSample {
            secs: self.interval,
            cpu_cores: cpu,
            ram_os_view: ram,
            tps: 0.0,
            rows_updated_per_sec: rate,
            reads_per_sec: 0.0,
            write_bytes_per_sec: 0.0,
            bp_miss_ratio: 0.0,
            mean_latency_secs: 0.0,
        });
        self.cpu.push(cpu);
        self.ram.push(ram.as_f64());
        self.rate.push(rate);
    }

    /// The last `n` samples (all held if fewer) copied out of the mirror,
    /// as `[cpu, ram, working-set, rate]`.
    fn last(&self, n: usize) -> [TimeSeries; 4] {
        let keep = n.min(self.cap).min(self.cpu.len());
        let tail = |v: &Vec<f64>| TimeSeries::new(self.interval, v[v.len() - keep..].to_vec());
        [
            tail(&self.cpu),
            tail(&self.ram),
            tail(&self.ram),
            tail(&self.rate),
        ]
    }
}

fn series_bits(s: &TimeSeries) -> (u64, Vec<u64>) {
    (
        s.interval_secs().to_bits(),
        s.values().iter().map(|v| v.to_bits()).collect(),
    )
}

fn profile_bits(p: &WorkloadProfile) -> Vec<(u64, Vec<u64>)> {
    [
        &p.cpu_cores,
        &p.ram_bytes,
        &p.disk_working_set_bytes,
        &p.disk_update_rows_per_sec,
    ]
    .map(series_bits)
    .to_vec()
}

fn report_bits(r: &DriftReport) -> (Vec<u64>, bool) {
    let resources = [r.cpu, r.ram, r.working_set, r.update_rate];
    let mut bits: Vec<u64> = resources
        .iter()
        .flat_map(|d| [d.overload.to_bits(), d.slack.to_bits()])
        .collect();
    bits.extend([r.max_overload.to_bits(), r.max_slack.to_bits()]);
    (bits, r.drifted)
}

/// ±0.0 and ± subnormals now and then, otherwise noise around `level`.
fn value(rng: &mut SplitMix64, level: f64) -> f64 {
    match rng.next_range(10) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(1 + rng.next_range(1 << 52)),
        3 => -f64::from_bits(1 + rng.next_range(1 << 52)),
        _ => level * rng.next_in(0.5, 1.5),
    }
}

/// A profile of `len` windows whose series are each, one time in four,
/// shorter — so phases past a planned series' end read as zero, and a
/// live profile's series need not agree on a length.
fn random_profile(rng: &mut SplitMix64, len: usize, level: f64) -> WorkloadProfile {
    let mut series = || {
        let n = match rng.next_range(4) {
            0 => rng.next_range(len as u64 + 1) as usize,
            _ => len,
        };
        TimeSeries::new(300.0, (0..n).map(|_| value(rng, level)).collect())
    };
    WorkloadProfile::new("w", series(), series(), series(), series())
}

fn random_detector(rng: &mut SplitMix64) -> DriftDetector {
    DriftDetector {
        overload_threshold: rng.next_in(0.0, 1.0),
        slack_threshold: rng.next_in(0.0, 1.0),
        min_windows: rng.next_range(8) as usize,
    }
}

/// First global sample index: zero, just short of a multiple of every
/// horizon up to 16, or anywhere up to 2^40.
fn random_first(rng: &mut SplitMix64) -> u64 {
    match rng.next_range(3) {
        0 => 0,
        1 => 720_720 * (1 + rng.next_range(1_000)) - rng.next_range(4),
        _ => rng.next_range(1 << 40),
    }
}

#[test]
fn in_place_readers_match_the_copy_based_references_bit_for_bit() {
    let mut rng = SplitMix64::from_env(0x26_1A_2B);
    for cap in [1usize, 2, 3, 5, 12, 13, 24, 40] {
        for _ in 0..3 {
            let first = random_first(&mut rng);
            let mut m = Mirrored::new(cap, 300.0, first);
            let mut level = 1.0;
            // Not yet full, exactly full, then wrapped at every offset.
            for pushed in 0..=2 * cap + 1 {
                let seen = m.telemetry.samples_seen();
                assert_eq!(seen, first + pushed as u64);
                for _ in 0..2 {
                    let horizon = 1 + rng.next_range(48) as usize;
                    let (new, new_env) = forecast_profile_flagged("w", &m.telemetry, horizon);
                    let (forecast, old_env) =
                        forecast_profile_copy(m.last(usize::MAX), seen, horizon);
                    let at = format!("cap {cap} first {first} pushed {pushed} horizon {horizon}");
                    assert_eq!(profile_bits(&new), profile_bits(&forecast), "{at}");
                    assert_eq!((new.name.as_str(), new_env), ("w", old_env), "{at}");

                    let tail_len = rng.next_range(cap as u64 + 3) as usize;
                    let new = forecast_profile_tail("w", &m.telemetry, horizon, tail_len);
                    let (old, _) = forecast_profile_copy(m.last(tail_len), seen, horizon);
                    assert_eq!(
                        profile_bits(&new),
                        profile_bits(&old),
                        "{at} tail {tail_len}"
                    );

                    // The public wrapper, on raw values (−0.0 included).
                    let start = random_first(&mut rng);
                    let raw = random_profile(&mut rng, pushed, level).cpu_cores;
                    let new = forecast_series_flagged(&raw, horizon, start);
                    let old = forecast_series_flagged_copy(&raw, horizon, start);
                    assert_eq!(
                        (series_bits(&new.0), new.1),
                        (series_bits(&old.0), old.1),
                        "{at} start {start}"
                    );

                    // The shard's drift path: the live window in place
                    // against the forecast or an arbitrary planned profile.
                    let planned = match rng.next_range(2) {
                        0 => forecast,
                        _ => random_profile(&mut rng, horizon, level),
                    };
                    let detector = random_detector(&mut rng);
                    let now = seen.saturating_sub(1);
                    let [cpu, ram, rate] = m.telemetry.windows(horizon);
                    let new = detector.check_windows(&planned, [cpu, ram, ram, rate], now);
                    let [c, r, w, u] = m.last(horizon);
                    let live = WorkloadProfile::new("w", c, r, w, u);
                    let old = check_copy(&detector, &planned, &live, now);
                    assert_eq!(report_bits(&new), report_bits(&old), "{at} drift");

                    // The public wrapper, on a raw live profile whose
                    // series may disagree on length, at an arbitrary `now`.
                    let live = random_profile(&mut rng, pushed.min(horizon), level);
                    let now = now + rng.next_range(3);
                    let new = detector.check(&planned, &live, now);
                    let old = check_copy(&detector, &planned, &live, now);
                    assert_eq!(report_bits(&new), report_bits(&old), "{at} check");
                    assert_eq!(new.workload, old.workload);
                }
                if rng.next_range(8) == 0 {
                    level = [0.1, 1.0, 6.0][rng.next_range(3) as usize];
                }
                m.push(&mut rng, level);
            }
        }
    }
}

#[test]
fn in_place_rollup_encodes_the_same_aggregate_sketch_bytes() {
    let mut rng = SplitMix64::from_env(0x26_3C_4D);
    for case in 0..200 {
        let mut ingester = TelemetryIngester::new();
        let mut histories = Vec::new();
        let tenants = rng.next_range(5);
        for t in 0..tenants {
            let cap = 1 + rng.next_range(40) as usize;
            let interval = [300.0, 60.0][rng.next_range(2) as usize];
            let mut m = Mirrored::new(cap, interval, random_first(&mut rng));
            let level = [0.1, 1.0, 6.0][rng.next_range(3) as usize];
            for _ in 0..rng.next_range(2 * cap as u64 + 2) {
                m.push(&mut rng, level);
            }
            histories.push(m.last(cap));
            ingester.insert(&format!("t{t}"), m.telemetry);
        }
        let cfg = SketchConfig {
            marks: 2 + rng.next_range(16) as u32,
            tail: rng.next_range(48) as u32,
        };
        let fallback = 120.0;
        let old = serde::to_bytes(&rollup_copy(&histories, fallback, &cfg));
        let new = serde::to_bytes(&ingester.rollup(fallback, &cfg));
        assert_eq!(new, old, "case {case}: {tenants} tenants");
        let wrapped =
            AggregateSketch::of(&ShardAggregate::from_windows(&histories, fallback), &cfg);
        assert_eq!(serde::to_bytes(&wrapped), old, "case {case}: from_windows");
    }
}

// ---- The whole summary as `ShardController::summary` filled it before
// one walk over the tenants fed the roll-up, the forecasts and the drift
// count. Each kernel below is the pre-walk code verbatim, adapted only
// to read a shard's snapshot instead of its private fields.

/// `sum_tail_aligned_refs` as it was: one resource at a time.
fn sum_tail_aligned_pre<'a, I>(windows: I, fallback_interval: f64) -> TimeSeries
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

/// `SeriesSketch::of` as it was: the marks of a stable sort (what its
/// `sort_as_stable` reproduces), the sketch built through the codec.
fn sketch_pre(series: &TimeSeries, cfg: &SketchConfig) -> SeriesSketch {
    let values = series.values();
    if values.is_empty() {
        return SeriesSketch::empty(series.interval_secs());
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in telemetry series"));
    let m = cfg.marks as usize;
    let mut marks = Vec::with_capacity(m);
    for i in 0..m {
        marks.push(percentile_of_sorted(
            &sorted,
            100.0 * i as f64 / (m - 1) as f64,
        ));
    }
    let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
    let mut prev = min;
    for mark in marks.iter_mut() {
        *mark = mark.clamp(min, max).max(prev);
        prev = *mark;
    }
    marks[0] = min;
    marks[m - 1] = max;
    let tail_len = (cfg.tail as usize).min(values.len());
    let tail = values[values.len() - tail_len..].to_vec();
    let head = (series.interval_secs(), values.len() as u64, series.mean());
    serde::from_bytes(&serde::to_bytes(&(head, marks, tail))).expect("a sketch's fields")
}

/// `TelemetryIngester::rollup` as it was.
fn rollup_pre(
    telemetry: &[(String, WorkloadTelemetry)],
    fallback_interval: f64,
    cfg: &SketchConfig,
) -> AggregateSketch {
    let sketch_sum = |r: usize| {
        let windows = telemetry.iter().map(move |(_, t)| t.history()[r]);
        sketch_pre(&sum_tail_aligned_pre(windows, fallback_interval), cfg)
    };
    let ram = sketch_sum(1);
    AggregateSketch {
        cpu_cores: sketch_sum(0),
        ram_bytes: ram.clone(),
        ws_bytes: ram,
        rate_rows: sketch_sum(2),
        tenants: telemetry.len(),
    }
}

fn add_by_phase_pre(sum: &mut [f64], count: &mut [usize], values: &[f64], mut p: usize) -> usize {
    let mut rest = values;
    while !rest.is_empty() {
        let (run, tail) = rest.split_at((sum.len() - p).min(rest.len()));
        for ((s, c), v) in sum[p..].iter_mut().zip(&mut count[p..]).zip(run) {
            *s += v;
            *c += 1;
        }
        p = (p + run.len()) % sum.len();
        rest = tail;
    }
    p
}
fn forecast_window_pre(
    history: RollingWindow<'_>,
    horizon: usize,
    start_index: u64,
) -> (TimeSeries, bool) {
    assert!(horizon > 0);
    let interval = history.interval_secs;
    if history.is_empty() {
        return (TimeSeries::constant(interval, 0.0, horizon), false);
    }
    let phase_of = |index: u64| (index % horizon as u64) as usize;

    // Per-phase occurrence means.
    let mut sum = vec![0.0f64; horizon];
    let mut count = vec![0usize; horizon];
    let mut p = phase_of(start_index);
    for half in [history.older, history.newer] {
        p = add_by_phase_pre(&mut sum, &mut count, half, p);
    }
    let overall_mean = history.iter().sum::<f64>() / history.len() as f64;
    for (s, &c) in sum.iter_mut().zip(&count) {
        *s = if c > 0 { *s / c as f64 } else { overall_mean };
    }
    let phase_mean = sum;

    // Regime test: the most recent (≤ horizon) samples against the
    // phase-mean prediction.
    let tail = history.last(horizon);
    let mut p = phase_of(start_index + (history.len() - tail.len()) as u64);
    let sq: f64 = tail
        .iter()
        .map(|v| {
            let d = v - phase_mean[p];
            p = if p + 1 == horizon { 0 } else { p + 1 };
            d * d
        })
        .sum();
    let rmse = (sq / tail.len() as f64).sqrt();
    let mean_abs = overall_mean.abs().max(1e-12);

    if rmse / mean_abs <= REGIME_CHANGE_THRESHOLD {
        (TimeSeries::new(interval, phase_mean), false)
    } else {
        let peak = tail.iter().fold(f64::NEG_INFINITY, f64::max);
        (TimeSeries::constant(interval, peak, horizon), true)
    }
}
fn forecast_windows_pre(
    name: &str,
    [cpu, ram, rate]: [RollingWindow<'_>; 3],
    samples_seen: u64,
    horizon: usize,
) -> (WorkloadProfile, bool) {
    let start = samples_seen.saturating_sub(cpu.len() as u64);
    let (cpu, e_cpu) = forecast_window_pre(cpu, horizon, start);
    let (ram, e_ram) = forecast_window_pre(ram, horizon, start);
    let (rate, e_rate) = forecast_window_pre(rate, horizon, start);
    let profile = WorkloadProfile::new(name, cpu, ram.clone(), ram, rate);
    (profile, e_cpu || e_ram || e_rate)
}

fn check_windows_pre(
    detector: &DriftDetector,
    planned: &WorkloadProfile,
    live: [RollingWindow<'_>; 4],
    now_index: u64,
) -> DriftReport {
    let horizon = planned.windows().max(1);
    let m = live.iter().map(|w| w.len()).max().unwrap_or(0);
    // Phase of the live window's first sample within the planned cycle.
    let start = ((now_index + 1).saturating_sub(m as u64) % horizon as u64) as usize;
    let drift_of = |planned_s: &TimeSeries, live_s: RollingWindow<'_>| {
        let n = live_s.len();
        if n == 0 {
            return ResourceDrift::default();
        }
        let (mut over_sq, mut under_sq) = (0.0f64, 0.0f64);
        let mut p = start;
        for &v in live_s.older.iter().chain(live_s.newer) {
            let d = v - planned_s.values().get(p).copied().unwrap_or(0.0);
            p = if p + 1 == horizon { 0 } else { p + 1 };
            if d > 0.0 {
                over_sq += d * d;
            } else {
                under_sq += d * d;
            }
        }
        let mean = planned_s.mean().abs().max(1e-12);
        ResourceDrift {
            overload: (over_sq / n as f64).sqrt() / mean,
            slack: (under_sq / n as f64).sqrt() / mean,
        }
    };

    let [cpu, ram, working_set, update_rate] = live;
    let cpu = drift_of(&planned.cpu_cores, cpu);
    let ram = drift_of(&planned.ram_bytes, ram);
    let working_set = drift_of(&planned.disk_working_set_bytes, working_set);
    let update_rate = drift_of(&planned.disk_update_rows_per_sec, update_rate);
    let max_overload = cpu
        .overload
        .max(ram.overload)
        .max(working_set.overload)
        .max(update_rate.overload);
    let max_slack = cpu
        .slack
        .max(ram.slack)
        .max(working_set.slack)
        .max(update_rate.slack);
    DriftReport {
        workload: String::new(),
        cpu,
        ram,
        working_set,
        update_rate,
        max_overload,
        max_slack,
        drifted: m >= detector.min_windows
            && (max_overload > detector.overload_threshold || max_slack > detector.slack_threshold),
    }
}

/// `ShardController::summary` as it was, over the shard's snapshot: the
/// roll-up, every tenant's forecast (replica counts applied), the
/// placement check by one lookup per slot, the peaks and the drift count.
fn summary_pre(shard: &ShardController, cfg: &ControllerConfig) -> ShardSummary {
    let snap = shard.snapshot();
    let aggregate = rollup_pre(&snap.telemetry, cfg.telemetry.interval_secs, &cfg.sketch);
    let profiles: Vec<WorkloadProfile> = snap
        .telemetry
        .iter()
        .map(|(name, t)| {
            let (mut profile, _) =
                forecast_windows_pre(name, t.history(), t.samples_seen(), cfg.horizon);
            profile.replicas = snap.replicas.get(name).copied().unwrap_or(1);
            profile
        })
        .collect();
    let verify_with = |profiles: &[WorkloadProfile]| {
        if !snap.planned_once || profiles.is_empty() {
            return None;
        }
        let problem = shard.problem_for(profiles).ok()?;
        let slots = &problem.slot_series().slots;
        let mut machine_of = Vec::with_capacity(slots.len());
        for slot in slots {
            let name = &problem.workloads[slot.workload].name;
            machine_of.push(snap.placement.machine_of(name, slot.replica)?);
        }
        Some(evaluate(&problem, &Assignment::new(machine_of)))
    };
    let (feasible, violation) = match verify_with(&profiles) {
        Some(e) => (e.feasible, e.violation),
        None => (!snap.planned_once, 0.0),
    };
    let peak = |s: &TimeSeries| if s.is_empty() { 0.0 } else { s.max() };
    let tenant_loads = profiles
        .iter()
        .map(|p| TenantLoad {
            name: p.name.clone(),
            replicas: p.replicas,
            cpu_peak: peak(&p.cpu_cores),
            ram_peak: peak(&p.ram_bytes),
            ws_peak: peak(&p.disk_working_set_bytes),
            rate_peak: peak(&p.disk_update_rows_per_sec),
        })
        .collect();
    let drift_reports = snap.telemetry.iter().filter_map(|(name, telemetry)| {
        let planned = snap.planned.get(name)?;
        if telemetry.window_len() == 0 {
            return None;
        }
        let [cpu, ram, rate] = telemetry.windows(cfg.horizon);
        let now = telemetry.samples_seen().saturating_sub(1);
        let live = [cpu, ram, ram, rate];
        Some(check_windows_pre(&cfg.detector, planned, live, now))
    });
    ShardSummary {
        tenants: snap.telemetry.len(),
        planned: snap.planned_once,
        machines_used: snap.placement.machines_used(),
        feasible,
        violation,
        resolve_failed: snap.last_resolve_failed,
        drifting: drift_reports.filter(|d| d.drifted).count(),
        aggregate,
        tenant_loads,
    }
}

/// `shard.summary()` against [`summary_pre`]: every field's bits, the
/// codec bytes and the digest.
fn assert_summary_matches(shard: &ShardController, cfg: &ControllerConfig, at: &str) {
    let (new, old) = (shard.summary(), summary_pre(shard, cfg));
    let loads = |s: &ShardSummary| {
        let bits =
            |l: &TenantLoad| [l.cpu_peak, l.ram_peak, l.ws_peak, l.rate_peak].map(f64::to_bits);
        s.tenant_loads
            .iter()
            .map(|l| (l.name.clone(), l.replicas, bits(l)))
            .collect::<Vec<_>>()
    };
    let head = |s: &ShardSummary| {
        let bits = s.violation.to_bits();
        (
            s.tenants,
            s.planned,
            s.machines_used,
            s.feasible,
            bits,
            s.resolve_failed,
            s.drifting,
        )
    };
    assert_eq!(head(&new), head(&old), "{at}: scalar fields");
    assert_eq!(loads(&new), loads(&old), "{at}: tenant loads");
    let aggregate = |s: &ShardSummary| serde::to_bytes(&s.aggregate);
    assert_eq!(aggregate(&new), aggregate(&old), "{at}: aggregate sketch");
    assert_eq!(
        serde::to_bytes(&new),
        serde::to_bytes(&old),
        "{at}: summary bytes"
    );
    assert_eq!(new.digest(), old.digest(), "{at}: digest");
}

/// A sample of `cpu`, `rate` and `ram`.
fn sample(cpu: f64, rate: f64, ram: Bytes) -> MonitorSample {
    MonitorSample {
        secs: 300.0,
        cpu_cores: cpu,
        ram_os_view: ram,
        tps: 0.0,
        rows_updated_per_sec: rate,
        reads_per_sec: 0.0,
        write_bytes_per_sec: 0.0,
        bp_miss_ratio: 0.0,
        mean_latency_secs: 0.0,
    }
}

/// `value`, or now and then a negative normal sample.
fn signed_value(rng: &mut SplitMix64, level: f64) -> f64 {
    match rng.next_range(6) {
        0 => -level * rng.next_in(0.1, 1.5),
        _ => value(rng, level),
    }
}

/// A tenant handed to `shard` with `telemetry` (its source is never polled).
fn admit(shard: &mut ShardController, name: &str, replicas: u32, telemetry: WorkloadTelemetry) {
    let pattern = RatePattern::Flat { tps: 100.0 };
    shard.admit(TenantHandoff {
        name: name.to_string(),
        replicas,
        source: Box::new(SyntheticSource::new(name, 300.0, Bytes::gib(2), pattern)),
        telemetry,
        sketch: shard.sketch_config(),
    });
}

#[test]
fn the_summary_matches_the_pre_walk_summary_bit_for_bit() {
    let mut rng = SplitMix64::from_env(0x53_A1_7E);
    for case in 0..24 {
        let horizon = 1 + rng.next_range(16) as usize;
        let cfg = ControllerConfig {
            telemetry: TelemetryConfig {
                window_capacity: horizon + rng.next_range(48) as usize,
                ..TelemetryConfig::default()
            },
            horizon,
            check_every: 1 + rng.next_range(4),
            cooldown_ticks: horizon as u64,
            detector: random_detector(&mut rng),
            sketch: SketchConfig {
                marks: 2 + rng.next_range(16) as u32,
                tail: rng.next_range(48) as u32,
            },
            ..ControllerConfig::default()
        };
        let mut shard = ShardController::new(cfg, ConsolidationEngine::builder().build());
        for i in 0..1 + rng.next_range(6) {
            let tps = 50.0 + 400.0 * rng.next_f64();
            let pattern = match rng.next_range(3) {
                0 => RatePattern::Flat { tps },
                _ => RatePattern::Sinusoid {
                    mean: tps,
                    amplitude: 0.5 * tps,
                    period_secs: 300.0 * (2 + rng.next_range(30)) as f64,
                    phase: 0.0,
                },
            };
            let source = SyntheticSource::new(format!("t{i}"), 300.0, Bytes::gib(2), pattern);
            shard.add_workload(Box::new(source.with_noise(0.2 * rng.next_f64())));
        }
        for _ in 0..rng.next_range(3 * cfg.telemetry.window_capacity as u64 + 2) {
            shard.tick();
        }
        let at = format!("case {case} horizon {horizon}");
        assert_summary_matches(&shard, &cfg, &format!("{at} ticked"));

        // Admitted tenants: short histories under other window capacities,
        // ±0.0, subnormal and negative samples, more than one replica.
        for j in 0..1 + rng.next_range(3) {
            let mut telemetry = WorkloadTelemetry::new(TelemetryConfig {
                window_capacity: 1 + rng.next_range(2 * horizon as u64 + 8) as usize,
                ..TelemetryConfig::default()
            });
            let level = [0.1, 1.0, 6.0][rng.next_range(3) as usize];
            for _ in 0..rng.next_range(2 * horizon as u64 + 4) {
                let (cpu, rate) = (signed_value(&mut rng, level), signed_value(&mut rng, 99.0));
                let ram = Bytes((level * rng.next_in(0.5, 1.5) * 1e9) as u64);
                telemetry.ingest(&sample(cpu, rate, ram));
            }
            admit(
                &mut shard,
                &format!("a{j}"),
                1 + rng.next_range(2) as u32,
                telemetry,
            );
        }
        assert_summary_matches(&shard, &cfg, &format!("{at} admitted"));

        // Restored without its sources: every tenant detached.
        let restored = ShardController::restore(
            cfg,
            ConsolidationEngine::builder().build(),
            shard.snapshot(),
        )
        .expect("a snapshot restores");
        assert_eq!(
            restored.detached_workloads().len(),
            restored.workloads().len()
        );
        assert_summary_matches(&restored, &cfg, &format!("{at} detached"));
    }
    assert_a_near_tie_takes_the_serial_mean();
}

/// What `forecast_window` hands [`regime_holds`] for `values`, one
/// unwrapped ring half whose first sample is at phase 0: the tail's RMSE
/// against the phase means, the sample count, the sum of the phase sums
/// (each phase summed in sample order) and `Σ|x|` as the kernel adds it,
/// in eight lanes.
fn regime_inputs(values: &[f64], horizon: usize) -> (f64, usize, f64, f64) {
    let (mut sum, mut count) = (vec![0.0; horizon], vec![0; horizon]);
    for (i, v) in values.iter().enumerate() {
        sum[i % horizon] += v;
        count[i % horizon] += 1;
    }
    let mut lanes = [0.0f64; 8];
    let chunks = values.chunks_exact(8);
    let rest: f64 = chunks.remainder().iter().map(|v| v.abs()).sum();
    for chunk in chunks {
        lanes.iter_mut().zip(chunk).for_each(|(l, v)| *l += v.abs());
    }
    let (regrouped, sum_abs) = (
        sum.iter().sum::<f64>(),
        lanes.iter().sum::<f64>() + rest + 0.0,
    );
    let tail = &values[values.len() - horizon..];
    let first = values.len() - horizon;
    let sq: f64 = tail
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let p = (first + i) % horizon;
            let d = v - sum[p] / count[p] as f64;
            d * d
        })
        .sum();
    (
        (sq / horizon as f64).sqrt(),
        values.len(),
        regrouped,
        sum_abs,
    )
}

/// A near tie: CPU swings ±1e6 around a mean of about zero, with
/// nanocore noise. The phase means fit to within the noise, so the regime
/// ratio sits where the regrouped sum cannot tell which side of the
/// threshold the serial mean lands, and the kernel adds the samples
/// serially; the summary and the forecast still match bit for bit.
fn assert_a_near_tie_takes_the_serial_mean() {
    let (horizon, cycles) = (4, 6);
    let mut rng = SplitMix64::from_env(0x71_E5);
    let cpu = (0..64)
        .map(|_| {
            let swing = [1e6, -1e6, 1e6, -1e6];
            let cpu: Vec<f64> = (0..horizon * cycles)
                .map(|i| swing[i % horizon] + 1e-9 * rng.next_in(-1.0, 1.0))
                .collect();
            cpu
        })
        .find(|cpu| {
            let (rmse, n, regrouped, sum_abs) = regime_inputs(cpu, horizon);
            regime_holds(rmse, n, regrouped, sum_abs, REGIME_CHANGE_THRESHOLD).is_none()
        })
        .expect("a draw the bound cannot decide");
    let cfg = ControllerConfig {
        horizon,
        ..ControllerConfig::default()
    };
    let mut shard = ShardController::new(cfg, ConsolidationEngine::builder().build());
    let mut telemetry = WorkloadTelemetry::new(TelemetryConfig::default());
    for &v in &cpu {
        telemetry.ingest(&sample(v, 10.0, Bytes::gib(1)));
    }
    admit(&mut shard, "tie", 1, telemetry);
    assert_summary_matches(&shard, &cfg, "near tie");
    // The tenant's forecast is the pre-walk kernel's, flag included.
    let snap = shard.snapshot();
    let (_, telemetry) = snap
        .telemetry
        .iter()
        .find(|(n, _)| n == "tie")
        .expect("resident");
    let new = forecast_profile_flagged("tie", telemetry, horizon);
    let (history, seen) = (telemetry.history(), telemetry.samples_seen());
    let old = forecast_windows_pre("tie", history, seen, horizon);
    assert_eq!((profile_bits(&new.0), new.1), (profile_bits(&old.0), old.1));
}
