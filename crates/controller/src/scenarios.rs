//! Deterministic drift scenarios shared by the example and the
//! integration tests.
//!
//! Each scenario is a fleet of [`SyntheticSource`]s — analytic telemetry
//! generators built on the workload crate's [`RatePattern`] schedules —
//! plus optional membership events. A [`run_scenario`] call drives a
//! [`ShardController`] through the whole thing and reports what happened:
//! re-solve count, per-re-solve churn, migration traffic, loop latency.

use crate::controller::{ControllerConfig, TickOutcome};
use crate::ingest::TelemetrySource;
use crate::shard::ShardController;
use kairos_core::ConsolidationEngine;
use kairos_monitor::MonitorSample;
use kairos_types::{Bytes, SplitMix64};
use kairos_workloads::RatePattern;
use std::time::Instant;

/// CPU cores consumed per offered transaction/second (calibrated so a
/// few-hundred-TPS tenant uses a few standardized cores).
const CPU_PER_TPS: f64 = 0.01;
/// Rows updated per transaction.
const ROWS_PER_TXN: f64 = 2.0;

/// An analytic telemetry source: a [`RatePattern`] schedule rendered into
/// [`MonitorSample`]s with deterministic multiplicative noise.
pub struct SyntheticSource {
    name: String,
    interval_secs: f64,
    tick: u64,
    /// Piecewise schedule: the pattern starting at each tick (sorted).
    schedule: Vec<(u64, RatePattern)>,
    ram: Bytes,
    noise_frac: f64,
    rng: SplitMix64,
}

impl SyntheticSource {
    pub fn new(
        name: impl Into<String>,
        interval_secs: f64,
        ram: Bytes,
        pattern: RatePattern,
    ) -> SyntheticSource {
        let name = name.into();
        let seed = name.bytes().fold(0x5EED_u64, |a, b| {
            a.wrapping_mul(131).wrapping_add(b as u64)
        });
        SyntheticSource {
            name,
            interval_secs,
            tick: 0,
            schedule: vec![(0, pattern)],
            ram,
            noise_frac: 0.02,
            rng: SplitMix64::new(seed),
        }
    }

    /// Switch to `pattern` from `at_tick` on (drift injection).
    pub fn then_at(mut self, at_tick: u64, pattern: RatePattern) -> SyntheticSource {
        assert!(
            self.schedule.last().is_none_or(|&(t, _)| t < at_tick),
            "schedule must be in increasing tick order"
        );
        self.schedule.push((at_tick, pattern));
        self
    }

    pub fn with_noise(mut self, frac: f64) -> SyntheticSource {
        self.noise_frac = frac;
        self
    }

    /// Advance the generator by `polls` intervals, discarding the
    /// samples. Telemetry sources are the one piece of controller state a
    /// checkpoint cannot carry (they are live processes, not data); a
    /// resumed harness re-creates each synthetic source and fast-forwards
    /// it to the checkpoint tick, after which it emits the exact sample
    /// stream the crashed process would have seen.
    pub fn fast_forward(mut self, polls: u64) -> SyntheticSource {
        use crate::ingest::TelemetrySource as _;
        for _ in 0..polls {
            let _ = self.poll();
        }
        self
    }

    fn pattern_now(&self) -> &RatePattern {
        self.schedule
            .iter()
            .rev()
            .find(|&&(t, _)| t <= self.tick)
            .map(|(_, p)| p)
            .expect("schedule starts at tick 0")
    }
}

impl TelemetrySource for SyntheticSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self) -> MonitorSample {
        let now_secs = self.tick as f64 * self.interval_secs;
        let tps = self.pattern_now().rate_at(now_secs);
        self.tick += 1;
        let noise = 1.0 + self.noise_frac * (self.rng.next_f64() * 2.0 - 1.0);
        let tps = (tps * noise).max(0.0);
        let rows = tps * ROWS_PER_TXN;
        MonitorSample {
            secs: self.interval_secs,
            cpu_cores: tps * CPU_PER_TPS,
            ram_os_view: self.ram,
            tps,
            rows_updated_per_sec: rows,
            reads_per_sec: 0.0,
            write_bytes_per_sec: rows * 200.0,
            bp_miss_ratio: 0.005,
            mean_latency_secs: 0.004,
        }
    }
}

/// A membership change during the run.
pub enum FleetEvent {
    Add {
        at_tick: u64,
        source: SyntheticSource,
    },
    Remove {
        at_tick: u64,
        name: String,
    },
}

/// A self-contained drift scenario.
pub struct Scenario {
    pub label: String,
    pub sources: Vec<SyntheticSource>,
    pub events: Vec<FleetEvent>,
    pub ticks: u64,
}

/// What a scenario run produced.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    pub label: String,
    pub ticks: u64,
    /// Tick at which the initial plan landed (fleet bootstrapped).
    pub initial_plan_tick: Option<u64>,
    pub initial_machines: usize,
    pub final_machines: usize,
    /// Re-solves after the initial plan.
    pub resolves: u64,
    /// Churn (moved fraction of pre-existing slots) of each re-solve.
    pub churns: Vec<f64>,
    pub total_moves: u64,
    pub forced_steps: u64,
    pub bytes_copied: f64,
    /// The final placement re-evaluated against the final forecast.
    pub final_feasible: bool,
    /// Mean wall-clock seconds of ticks that did *not* re-plan.
    pub steady_tick_secs: f64,
    /// Wall-clock seconds of each re-solve (solver only).
    pub resolve_secs: Vec<f64>,
}

impl ScenarioReport {
    pub fn max_churn(&self) -> f64 {
        self.churns.iter().copied().fold(0.0, f64::max)
    }

    pub fn mean_resolve_secs(&self) -> f64 {
        if self.resolve_secs.is_empty() {
            0.0
        } else {
            self.resolve_secs.iter().sum::<f64>() / self.resolve_secs.len() as f64
        }
    }
}

/// Drive a controller through a scenario.
pub fn run_scenario(cfg: &ControllerConfig, scenario: Scenario) -> ScenarioReport {
    let engine = ConsolidationEngine::builder().build();
    let mut controller = ShardController::new(*cfg, engine);
    for s in scenario.sources {
        controller.add_workload(Box::new(s));
    }
    let mut events = scenario.events;

    let mut report = ScenarioReport {
        label: scenario.label,
        ticks: scenario.ticks,
        initial_plan_tick: None,
        initial_machines: 0,
        final_machines: 0,
        resolves: 0,
        churns: Vec::new(),
        total_moves: 0,
        forced_steps: 0,
        bytes_copied: 0.0,
        final_feasible: false,
        steady_tick_secs: 0.0,
        resolve_secs: Vec::new(),
    };
    let mut steady_secs = 0.0;
    let mut steady_ticks = 0u64;

    for tick in 0..scenario.ticks {
        events.retain_mut(|e| match e {
            FleetEvent::Add { at_tick, source } if *at_tick == tick => {
                // `retain_mut` gives us &mut; move the source out via a
                // placeholder pattern swap.
                let taken = std::mem::replace(
                    source,
                    SyntheticSource::new("_", 300.0, Bytes::ZERO, RatePattern::Flat { tps: 0.0 }),
                );
                controller.add_workload(Box::new(taken));
                false
            }
            FleetEvent::Remove { at_tick, name } if *at_tick == tick => {
                controller.remove_workload(name);
                false
            }
            _ => true,
        });

        let t0 = Instant::now();
        let outcome = controller.tick();
        let wall = t0.elapsed().as_secs_f64();
        match outcome {
            TickOutcome::InitialPlan {
                machines,
                solve_secs,
            } => {
                report.initial_plan_tick = Some(tick);
                report.initial_machines = machines;
                report.resolve_secs.push(solve_secs);
            }
            TickOutcome::Replanned(r) => {
                report.resolves += 1;
                report.churns.push(r.churn);
                report.total_moves += r.moves as u64;
                report.forced_steps += r.execution.forced_steps as u64;
                report.bytes_copied += r.execution.bytes_copied;
                report.resolve_secs.push(r.solve_secs);
            }
            _ => {
                steady_secs += wall;
                steady_ticks += 1;
            }
        }
    }

    report.final_machines = controller.placement().machines_used();
    report.final_feasible = controller
        .verify_current()
        .map(|e| e.feasible)
        .unwrap_or(false);
    report.steady_tick_secs = if steady_ticks > 0 {
        steady_secs / steady_ticks as f64
    } else {
        0.0
    };
    report
}

fn flat(name: String, tps: f64) -> SyntheticSource {
    SyntheticSource::new(name, 300.0, Bytes::gib(4), RatePattern::Flat { tps })
}

/// Control scenario: `n` flat workloads, no drift. A correct controller
/// plans once and never re-solves.
pub fn scenario_stationary(n: usize, ticks: u64) -> Scenario {
    Scenario {
        label: "stationary".into(),
        sources: (0..n)
            .map(|i| flat(format!("flat-{i:02}"), 200.0 + 10.0 * (i % 5) as f64))
            .collect(),
        events: Vec::new(),
        ticks,
    }
}

/// Diurnal phase-correlation shift: the fleet's sinusoidal daily cycles
/// start evenly interleaved (peaks cancel, everything packs tight); at
/// `ticks/2` most of the fleet snaps to a common phase, so peaks stack
/// and the old packing transiently overloads at peak windows.
pub fn scenario_diurnal_shift(n: usize, ticks: u64) -> Scenario {
    let period_secs = 24.0 * 300.0; // one planning horizon per "day"
    let shift_at = ticks / 2;
    let sources = (0..n)
        .map(|i| {
            let spread_phase = i as f64 / n as f64 * 2.0 * std::f64::consts::PI;
            let before = RatePattern::Sinusoid {
                mean: 160.0,
                amplitude: 90.0,
                period_secs,
                phase: spread_phase,
            };
            let s = SyntheticSource::new(format!("diurnal-{i:02}"), 300.0, Bytes::gib(4), before);
            if i < (3 * n).div_ceil(4) {
                // Three quarters of the fleet re-aligns to phase 0.
                s.then_at(
                    shift_at,
                    RatePattern::Sinusoid {
                        mean: 160.0,
                        amplitude: 90.0,
                        period_secs,
                        phase: 0.0,
                    },
                )
            } else {
                s
            }
        })
        .collect();
    Scenario {
        label: "diurnal-shift".into(),
        sources,
        events: Vec::new(),
        ticks,
    }
}

/// Flash crowd: a flat fleet; one tenant spikes ~3× for a bounded burst,
/// then subsides. Expect one re-solve into the spike (relieve the hot
/// machine, small churn) and typically one after (repack).
pub fn scenario_flash_crowd(n: usize, ticks: u64) -> Scenario {
    let spike_start = ticks / 3;
    let spike_len = ticks / 4;
    let sources = (0..n)
        .map(|i| {
            let base = 200.0 + 10.0 * (i % 4) as f64;
            let s = flat(format!("crowd-{i:02}"), base);
            if i == 0 {
                s.then_at(spike_start, RatePattern::Flat { tps: 640.0 })
                    .then_at(spike_start + spike_len, RatePattern::Flat { tps: base })
            } else {
                s
            }
        })
        .collect();
    Scenario {
        label: "flash-crowd".into(),
        sources,
        events: Vec::new(),
        ticks,
    }
}

/// Workload churn: a flat fleet; two tenants arrive mid-run and one of
/// the originals later leaves. Arrivals are placements (zero migration
/// churn); the departure triggers an opportunistic repack.
pub fn scenario_churn(n: usize, ticks: u64) -> Scenario {
    let sources = (0..n)
        .map(|i| flat(format!("churn-{i:02}"), 220.0))
        .collect();
    let add_at = ticks / 3;
    let remove_at = (2 * ticks) / 3;
    Scenario {
        label: "workload-churn".into(),
        sources,
        events: vec![
            FleetEvent::Add {
                at_tick: add_at,
                source: flat("churn-new-a".into(), 240.0),
            },
            FleetEvent::Add {
                at_tick: add_at,
                source: flat("churn-new-b".into(), 180.0),
            },
            FleetEvent::Remove {
                at_tick: remove_at,
                name: "churn-00".into(),
            },
        ],
        ticks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_source_is_deterministic() {
        let mut a = flat("x".into(), 100.0);
        let mut b = flat("x".into(), 100.0);
        for _ in 0..20 {
            let (sa, sb) = (a.poll(), b.poll());
            assert_eq!(sa.tps, sb.tps);
            assert_eq!(sa.cpu_cores, sb.cpu_cores);
        }
    }

    #[test]
    fn schedule_switches_pattern() {
        let mut s = flat("x".into(), 100.0)
            .with_noise(0.0)
            .then_at(3, RatePattern::Flat { tps: 500.0 });
        let tps: Vec<f64> = (0..5).map(|_| s.poll().tps).collect();
        assert_eq!(tps[..3], [100.0, 100.0, 100.0]);
        assert_eq!(tps[3..], [500.0, 500.0]);
    }

    #[test]
    fn scenario_constructors_shape() {
        let s = scenario_stationary(6, 100);
        assert_eq!(s.sources.len(), 6);
        assert!(s.events.is_empty());
        let c = scenario_churn(6, 120);
        assert_eq!(c.events.len(), 3);
        let d = scenario_diurnal_shift(8, 200);
        assert_eq!(d.sources.len(), 8);
        let f = scenario_flash_crowd(8, 180);
        assert_eq!(f.sources.len(), 8);
    }
}
