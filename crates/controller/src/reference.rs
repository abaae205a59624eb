//! The copy-based window readers the in-place kernels replaced, kept as
//! bit-exact references: the forecast, the drift check and the summary
//! roll-up exactly as they read the rolling window when every reader
//! copied it into a fresh [`TimeSeries`] first. A seeded property test
//! holds the kernels to them `to_bits` for `to_bits`.
//!
//! The references never touch an `Rrd`: the test mirrors every pushed
//! sample in a plain `Vec`, so "the last `n` samples" is a slice of
//! that mirror, independent of how the ring is laid out.

use crate::drift::{DriftDetector, DriftReport, ResourceDrift};
use crate::ingest::{TelemetryConfig, TelemetryIngester, TelemetrySketch, WorkloadTelemetry};
use crate::resolver::{forecast_profile_flagged, forecast_profile_tail, forecast_series_flagged};
use kairos_monitor::MonitorSample;
use kairos_traces::{AggregateSketch, SeriesSketch, ShardAggregate, SketchConfig};
use kairos_types::{Bytes, SplitMix64, TimeSeries, WorkloadProfile};

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
