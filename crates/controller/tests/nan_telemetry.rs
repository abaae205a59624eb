//! A monitor that reports NaN must cost a re-plan, not the process.
//!
//! `ConsolidationEngine::problem` rejects a forecast with a NaN or
//! infinite sample as `InvalidInput`; the shard treats that like any
//! failed solve: it keeps the plan it has, sets `resolve_failed` and backs
//! off. (A NaN in an otherwise healthy window is absorbed by the
//! forecaster's envelope fallback, whose peak skips NaN; a window that is
//! NaN throughout forecasts to −∞ and reaches the engine.)

use kairos_controller::{
    ControllerConfig, ShardController, SyntheticSource, TelemetrySource, TickOutcome,
};
use kairos_core::ConsolidationEngine;
use kairos_monitor::MonitorSample;
use kairos_types::Bytes;
use kairos_workloads::RatePattern;

fn flat(name: &str, tps: f64) -> SyntheticSource {
    SyntheticSource::new(
        name.to_string(),
        300.0,
        Bytes::gib(4),
        RatePattern::Flat { tps },
    )
    .with_noise(0.0)
}

/// A tenant whose CPU probe is broken: every interval reports NaN.
struct BrokenCpu(SyntheticSource);

impl TelemetrySource for BrokenCpu {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn poll(&mut self) -> MonitorSample {
        MonitorSample {
            cpu_cores: f64::NAN,
            ..self.0.poll()
        }
    }
}

#[test]
fn nan_reporting_arrival_fails_the_replan_and_keeps_the_old_plan() {
    let cfg = ControllerConfig {
        horizon: 8,
        check_every: 4,
        cooldown_ticks: 8,
        ..ControllerConfig::default()
    };
    let mut shard = ShardController::new(cfg, ConsolidationEngine::builder().build());
    for i in 0..3 {
        shard.add_workload(Box::new(flat(&format!("t{i:02}"), 200.0)));
    }
    let planned = (0..20).any(|_| matches!(shard.tick(), TickOutcome::InitialPlan { .. }));
    assert!(planned, "shard never planned");
    let before = shard.placement().clone();

    shard.add_workload(Box::new(BrokenCpu(flat("broken", 200.0))));
    for _ in 0..40 {
        // The membership re-plan is attempted and refused every check
        // period; none of the attempts may panic or move anything.
        assert!(!matches!(shard.tick(), TickOutcome::Replanned { .. }));
    }
    assert!(shard.snapshot().last_resolve_failed);
    assert_eq!(shard.placement(), &before);

    // Retiring the broken tenant lets the next re-plan through.
    shard.remove_workload("broken");
    for _ in 0..12 {
        shard.tick();
    }
    assert!(!shard.snapshot().last_resolve_failed);
}
