//! Streaming telemetry ingestion.
//!
//! Each workload's [`MonitorSample`] stream lands in one flat
//! [`WindowRing`] holding three series pushed together (CPU cores, RAM
//! bytes — which doubles as the disk working set — and disk row-update
//! rate): the *rolling window* at monitoring resolution, input to the
//! drift detector, the forecasts and the handoff sketches alike.

use kairos_monitor::MonitorSample;
use kairos_traces::{RollingWindow, SeriesSketch, SketchConfig, WindowRing};
use kairos_types::{Bytes, TimeSeries};
use serde::{Deserialize, Serialize};
use std::collections::{btree_map, BTreeMap};

/// Where live samples come from. Implemented by the synthetic drift
/// scenarios ([`crate::scenarios::SyntheticSource`]); a production
/// implementation would poll `SHOW STATUS` / `iostat` like §6 describes.
///
/// `Send` is a supertrait because a shard, sources and all, may be
/// moved to another thread, such as the one that serves it over RPC.
pub trait TelemetrySource: Send {
    /// Stable workload identifier.
    fn name(&self) -> &str;
    /// Advance one monitoring interval and report it.
    fn poll(&mut self) -> MonitorSample;
}

/// Rolling-window shape.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Monitoring interval (seconds of simulated time per sample).
    pub interval_secs: f64,
    /// Capacity of the rolling window, in samples. Must be at least the
    /// planning horizon so a full live horizon is comparable against the
    /// planned profile.
    pub window_capacity: usize,
    /// Optional gauged working set overriding the OS RAM view (§3.1's
    /// correction; `None` = fall back to the OS view, as the historical
    /// datasets force).
    pub gauged_working_set: Option<Bytes>,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            interval_secs: 300.0,
            window_capacity: 288,
            gauged_working_set: None,
        }
    }
}

/// One workload's rolling telemetry: the four profile series in three
/// stored windows.
///
/// Serializable as part of the checkpoint/restore path (and of
/// transport-encoded handoffs): the ring, which encodes each series as
/// a single-archive `Rrd`, and the phase-driving `samples_seen` counter
/// both travel, so a restored copy ingests and forecasts exactly like
/// the original.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadTelemetry {
    cfg: TelemetryConfig,
    /// `[cpu, ram, rate]`, pushed together. RAM bytes also serve as the
    /// disk-model working-set series: without online gauging the two are
    /// the same number (the §6 "RAM scaling" fallback), so storing them
    /// twice would only double ingest cost. A future gauged-ingest path
    /// splits them again.
    series: WindowRing<3>,
    samples_seen: u64,
}

impl WorkloadTelemetry {
    pub fn new(cfg: TelemetryConfig) -> WorkloadTelemetry {
        WorkloadTelemetry {
            cfg,
            series: WindowRing::new(cfg.interval_secs, cfg.window_capacity),
            samples_seen: 0,
        }
    }

    /// Fold one monitoring sample into every series.
    pub fn ingest(&mut self, sample: &MonitorSample) {
        let ram = match self.cfg.gauged_working_set {
            Some(g) => g.as_f64(),
            None => sample.ram_os_view.as_f64(),
        };
        self.series
            .push([sample.cpu_cores, ram, sample.rows_updated_per_sec]);
        self.samples_seen += 1;
    }

    /// Total samples ever ingested (drives phase alignment).
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Samples currently available in the rolling window.
    pub fn window_len(&self) -> usize {
        self.series.len()
    }

    /// The last `n` samples of each stored series, read in place, as
    /// `[cpu, ram, rate]` — the drift detector's live window. RAM is also
    /// the working-set series (see the field note), so a reader that
    /// needs both reads RAM once.
    pub(crate) fn windows(&self, n: usize) -> [RollingWindow<'_>; 3] {
        self.series.windows(n)
    }

    /// [`WorkloadTelemetry::windows`] over the full rolling window — what
    /// the forecasts and the shard summary's roll-up read.
    pub fn history(&self) -> [RollingWindow<'_>; 3] {
        self.windows(self.cfg.window_capacity)
    }

    /// Compress the transportable telemetry to a [`TelemetrySketch`]:
    /// the three stored series at fixed size, however long the rolling
    /// window is. What a sketched handoff frame carries instead of the
    /// full ring.
    pub fn sketch(&self, sketch_cfg: &SketchConfig) -> TelemetrySketch {
        let [cpu, ram, rate] = self
            .history()
            .map(|w| SeriesSketch::of(&w.to_series(), sketch_cfg));
        TelemetrySketch {
            cfg: self.cfg,
            cpu,
            ram,
            rate,
            samples_seen: self.samples_seen,
        }
    }

    /// Rebuild rolling telemetry from a sketch — the admit side of a
    /// sketched handoff. A fresh ring is replayed from each series'
    /// reconstruction (exact recent tail, quantile staircase for the
    /// deeper past, peaks preserved verbatim), and `samples_seen` is
    /// restored exactly so the drift detector's phase alignment
    /// survives the transfer.
    pub fn from_sketch(sketch: &TelemetrySketch) -> WorkloadTelemetry {
        let mut out = WorkloadTelemetry::new(sketch.cfg);
        let cpu = sketch.cpu.reconstruct();
        let ram = sketch.ram.reconstruct();
        let rate = sketch.rate.reconstruct();
        let n = cpu.len().max(ram.len()).max(rate.len());
        let at = |s: &TimeSeries, i: usize| s.values().get(i).copied().unwrap_or(0.0);
        for i in 0..n {
            // Push directly: gauging (if any) was already applied when the
            // samples were first ingested on the donor side.
            out.series.push([at(&cpu, i), at(&ram, i), at(&rate, i)]);
        }
        out.samples_seen = sketch.samples_seen;
        out
    }
}

/// Constant-size image of one workload's rolling telemetry — what a
/// [`crate::TenantHandoff`] wire frame carries. Holds the telemetry
/// shape (so the destination rebuilds an identically-shaped ring), one
/// [`SeriesSketch`] per stored series, and the phase-driving sample
/// counter. Size is independent of `cfg.window_capacity`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySketch {
    pub cfg: TelemetryConfig,
    pub cpu: SeriesSketch,
    /// RAM doubles as the working-set series, mirroring
    /// [`WorkloadTelemetry`]'s storage layout.
    pub ram: SeriesSketch,
    pub rate: SeriesSketch,
    pub samples_seen: u64,
}

/// The fleet-wide ingester: name → rolling telemetry.
#[derive(Debug, Default)]
pub struct TelemetryIngester {
    workloads: BTreeMap<String, WorkloadTelemetry>,
}

impl TelemetryIngester {
    pub fn new() -> TelemetryIngester {
        TelemetryIngester::default()
    }

    /// Register a workload (idempotent).
    pub fn register(&mut self, name: &str, cfg: TelemetryConfig) {
        self.workloads
            .entry(name.to_string())
            .or_insert_with(|| WorkloadTelemetry::new(cfg));
    }

    /// Drop a workload's telemetry (tenant left the fleet).
    pub fn deregister(&mut self, name: &str) {
        self.workloads.remove(name);
    }

    /// Remove and return a workload's telemetry — the cross-shard handoff
    /// path, where the tenant's rolling history travels with it so the
    /// destination shard can replan without a fresh bootstrap.
    pub fn take(&mut self, name: &str) -> Option<WorkloadTelemetry> {
        self.workloads.remove(name)
    }

    /// Install pre-accumulated telemetry under `name` (the admit side of
    /// a handoff). Replaces any existing registration.
    pub fn insert(&mut self, name: &str, telemetry: WorkloadTelemetry) {
        self.workloads.insert(name.to_string(), telemetry);
    }

    pub fn get(&self, name: &str) -> Option<&WorkloadTelemetry> {
        self.workloads.get(name)
    }

    /// Registered workload names, sorted (the canonical fleet order used
    /// to build solver problems deterministically).
    pub fn names(&self) -> Vec<String> {
        self.workloads.keys().cloned().collect()
    }

    /// Iterate telemetry in canonical (sorted-name) order without
    /// allocating — the per-tick readiness checks' accessor.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &WorkloadTelemetry)> + Clone {
        self.workloads.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// [`TelemetryIngester::iter`], mutably — the tick's ingest walk.
    pub fn iter_mut(&mut self) -> btree_map::IterMut<'_, String, WorkloadTelemetry> {
        self.workloads.iter_mut()
    }

    pub fn len(&self) -> usize {
        self.workloads.len()
    }

    pub fn is_empty(&self) -> bool {
        self.workloads.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_traces::{ArchiveSpec, Consolidation, Rrd};

    fn sample(cpu: f64, ram_mib: u64, rate: f64) -> MonitorSample {
        MonitorSample {
            secs: 300.0,
            cpu_cores: cpu,
            ram_os_view: Bytes::mib(ram_mib),
            tps: rate / 2.0,
            rows_updated_per_sec: rate,
            reads_per_sec: 0.0,
            write_bytes_per_sec: rate * 200.0,
            bp_miss_ratio: 0.0,
            mean_latency_secs: 0.002,
        }
    }

    /// `[cpu, ram, rate]` copied out of their rings.
    fn copied(windows: [RollingWindow<'_>; 3]) -> [TimeSeries; 3] {
        windows.map(|w| w.to_series())
    }

    #[test]
    fn ingest_fills_the_live_window() {
        let mut t = WorkloadTelemetry::new(TelemetryConfig::default());
        for i in 0..10 {
            t.ingest(&sample(0.5 + i as f64 * 0.1, 2048, 100.0));
        }
        assert_eq!(t.samples_seen(), 10);
        let [cpu, ram, rate] = copied(t.windows(4));
        assert_eq!((cpu.len(), ram.len(), rate.len()), (4, 4, 4));
        // Last 4 cpu samples: 1.1, 1.2, 1.3, 1.4.
        assert!((cpu.values()[0] - 1.1).abs() < 1e-9);
        assert!((cpu.values()[3] - 1.4).abs() < 1e-9);
        assert_eq!(ram.values()[0], Bytes::mib(2048).as_f64());
        assert!((rate.values()[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn gauged_working_set_overrides_os_view() {
        let cfg = TelemetryConfig {
            gauged_working_set: Some(Bytes::mib(256)),
            ..Default::default()
        };
        let mut t = WorkloadTelemetry::new(cfg);
        t.ingest(&sample(0.2, 8192, 10.0));
        let [_, ram, _] = copied(t.windows(1));
        assert_eq!(ram.values(), &[Bytes::mib(256).as_f64()]);
    }

    #[test]
    fn empty_telemetry_has_an_empty_window() {
        let t = WorkloadTelemetry::new(TelemetryConfig::default());
        assert!(t.windows(4).iter().all(|w| w.is_empty()));
    }

    #[test]
    fn ingester_tracks_fleet_membership() {
        let mut ing = TelemetryIngester::new();
        ing.register("b", TelemetryConfig::default());
        ing.register("a", TelemetryConfig::default());
        ing.register("a", TelemetryConfig::default()); // idempotent
        assert_eq!(ing.names(), vec!["a".to_string(), "b".to_string()]);
        for (_, t) in ing.iter_mut() {
            t.ingest(&sample(1.0, 1024, 50.0));
        }
        assert_eq!(ing.get("a").unwrap().samples_seen(), 1);
        ing.deregister("b");
        assert_eq!(ing.len(), 1);
    }

    #[test]
    fn sketch_roundtrip_preserves_decision_inputs() {
        let mut t = WorkloadTelemetry::new(TelemetryConfig {
            window_capacity: 64,
            ..Default::default()
        });
        for i in 0..200u64 {
            // A spike at i=150 lands inside the window but outside a
            // 16-sample tail — the quantile staircase must carry it.
            let cpu = if i == 150 {
                6.0
            } else {
                0.5 + (i % 7) as f64 * 0.1
            };
            t.ingest(&sample(cpu, 2048, 100.0 + i as f64));
        }
        let sk = t.sketch(&SketchConfig { marks: 9, tail: 16 });
        let back = WorkloadTelemetry::from_sketch(&sk);
        assert_eq!(back.samples_seen(), 200, "phase alignment survives");
        assert_eq!(back.window_len(), t.window_len());
        let [cpu_a, ram_a, rate_a] = copied(t.history());
        let [cpu_b, ram_b, rate_b] = copied(back.history());
        assert_eq!(cpu_b.max(), cpu_a.max(), "peak is exact");
        assert_eq!(ram_b.max(), ram_a.max());
        assert_eq!(rate_b.max(), rate_a.max());
        // The recent tail is verbatim.
        let tail = |s: &kairos_types::TimeSeries| s.values()[s.len() - 16..].to_vec();
        assert_eq!(tail(&cpu_b), tail(&cpu_a));
    }

    #[test]
    fn lossless_sketch_config_reproduces_the_window_exactly() {
        let cfg = TelemetryConfig {
            window_capacity: 48,
            ..Default::default()
        };
        let mut t = WorkloadTelemetry::new(cfg);
        for i in 0..48u64 {
            t.ingest(&sample(0.1 + i as f64 * 0.02, 1024 + i, 10.0 * i as f64));
        }
        let sk = t.sketch(&SketchConfig::lossless_for(cfg.window_capacity));
        let back = WorkloadTelemetry::from_sketch(&sk);
        assert_eq!(copied(back.history()), copied(t.history()));
    }

    #[test]
    fn a_three_archive_checkpoint_restores_to_the_same_plane() {
        // Checkpoints written while the layout still had two coarse
        // archives carry them inside each `Rrd`; restored, they must read
        // and ingest exactly like telemetry that never had them.
        let cfg = TelemetryConfig {
            window_capacity: 32,
            ..Default::default()
        };
        let three_archives = || {
            let spec = |step, cf| ArchiveSpec {
                step,
                capacity: cfg.window_capacity,
                cf,
            };
            let layout = vec![
                spec(1, Consolidation::Average),
                spec(12, Consolidation::Average),
                spec(12, Consolidation::Max),
            ];
            Rrd::new(cfg.interval_secs, layout)
        };
        // The telemetry as it was: one `Rrd` per stored series.
        #[derive(Serialize)]
        struct Old {
            cfg: TelemetryConfig,
            cpu: Rrd,
            ram: Rrd,
            rate: Rrd,
            samples_seen: u64,
        }
        let mut old = Old {
            cfg,
            cpu: three_archives(),
            ram: three_archives(),
            rate: three_archives(),
            samples_seen: 0,
        };
        let mut new = WorkloadTelemetry::new(cfg);
        // 50 samples wrap the 32-slot window and leave the old layout's
        // 12-sample buckets part-filled.
        let nth = |i: u64| sample(0.3 + (i % 11) as f64 * 0.07, 1024 + 3 * i, 20.0 * i as f64);
        for i in 0..50 {
            let s = nth(i);
            old.cpu.push(s.cpu_cores);
            old.ram.push(s.ram_os_view.as_f64());
            old.rate.push(s.rows_updated_per_sec);
            old.samples_seen += 1;
            new.ingest(&s);
        }
        let mut restored: WorkloadTelemetry =
            serde::from_bytes(&serde::to_bytes(&old)).expect("an old checkpoint decodes");
        let sketch_cfg = SketchConfig { marks: 9, tail: 8 };
        for i in 50..53 {
            assert_eq!(restored.samples_seen(), new.samples_seen());
            assert_eq!(restored.window_len(), new.window_len());
            assert_eq!(copied(restored.windows(12)), copied(new.windows(12)));
            assert_eq!(copied(restored.history()), copied(new.history()));
            assert_eq!(restored.sketch(&sketch_cfg), new.sketch(&sketch_cfg));
            restored.ingest(&nth(i));
            new.ingest(&nth(i));
        }
    }
}
