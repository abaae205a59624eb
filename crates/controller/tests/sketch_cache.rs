//! Regression tests for the summary cache's staleness bound and its
//! sketch-config keying.
//!
//! The balancer-facing summary cache is staleness-bounded (24 ticks) and
//! invalidated on state change — but a summary is also a function of the
//! **sketch shape** it was compressed under. A config change (live via `set_sketch_config`, or
//! implicit via a snapshot restored into a differently-configured
//! controller) must invalidate the cache immediately, not after the
//! staleness bound expires: a root balancer reading a 9-mark roll-up
//! from a shard reconfigured to 5 marks would otherwise see frames of
//! the wrong shape for a whole refresh window.

use kairos_controller::{ControllerConfig, ShardController, SyntheticSource, TickOutcome};
use kairos_core::ConsolidationEngine;
use kairos_traces::SketchConfig;
use kairos_types::Bytes;
use kairos_workloads::RatePattern;

/// Six flat tenants, planned. With `noise` > 0 the telemetry moves
/// every tick, which a summary computed afresh shows.
fn planned_shard_with_noise(noise: f64) -> ShardController {
    let cfg = ControllerConfig {
        horizon: 8,
        check_every: 4,
        cooldown_ticks: 8,
        ..ControllerConfig::default()
    };
    let mut shard = ShardController::new(cfg, ConsolidationEngine::builder().build());
    for i in 0..6 {
        shard.add_workload(Box::new(
            SyntheticSource::new(
                format!("t{i:02}"),
                300.0,
                Bytes::gib(4),
                RatePattern::Flat { tps: 210.0 },
            )
            .with_noise(noise),
        ));
    }
    for _ in 0..12 {
        shard.tick();
    }
    shard
}

/// A planned shard with steady telemetry. The summary cache's 24-tick
/// staleness bound means a stale summary would be served for 24 ticks
/// after a config change without sketch-digest keying.
fn planned_shard() -> ShardController {
    planned_shard_with_noise(0.0)
}

fn mark_count(shard: &mut ShardController) -> usize {
    shard.summary_cached().aggregate.cpu_cores.marks().len()
}

#[test]
fn sketch_config_change_invalidates_summary_cache() {
    let mut shard = planned_shard();
    let default_marks = SketchConfig::default().marks as usize;
    assert_eq!(mark_count(&mut shard), default_marks);
    // Second read inside the staleness window: served from cache.
    assert_eq!(mark_count(&mut shard), default_marks);

    // Re-shape the sketch. The cached summary is age-fresh but
    // shape-stale — the very next read must carry the new shape.
    shard.set_sketch_config(SketchConfig { marks: 5, tail: 4 });
    assert_eq!(
        mark_count(&mut shard),
        5,
        "summary cache must invalidate on sketch config change, not only on state change"
    );

    // Setting the same config back and forth is not a spurious
    // invalidation: an identical config keeps the cache warm.
    let before = shard.summary_cached();
    shard.set_sketch_config(SketchConfig { marks: 5, tail: 4 });
    let after = shard.summary_cached();
    assert_eq!(before.aggregate, after.aggregate);
}

#[test]
fn restore_under_different_sketch_config_recomputes_summary() {
    // The snapshot carries the summary cache verbatim (that is the
    // point — a restored shard answers the balancer instantly). But if
    // the restoring process is configured with a different sketch
    // shape, the carried cache is shape-stale and the digest check must
    // catch it without any setter being called.
    let mut shard = planned_shard();
    let default_marks = SketchConfig::default().marks as usize;
    assert_eq!(mark_count(&mut shard), default_marks);
    let snapshot = shard.snapshot();

    let restore_cfg = ControllerConfig {
        horizon: 8,
        check_every: 4,
        cooldown_ticks: 8,
        sketch: SketchConfig { marks: 3, tail: 2 },
        ..ControllerConfig::default()
    };
    let mut restored = ShardController::restore(
        restore_cfg,
        ConsolidationEngine::builder().build(),
        snapshot,
    )
    .expect("snapshot restores");
    assert_eq!(
        mark_count(&mut restored),
        3,
        "a snapshot-carried summary cache under the old sketch shape must not be served"
    );
}

/// One tick that neither re-plans nor refreshes profiles: nothing
/// invalidates the summary cache, so only its staleness bound can.
fn quiet_tick(shard: &mut ShardController) {
    let outcome = shard.tick();
    assert!(
        matches!(outcome, TickOutcome::Stable | TickOutcome::Idle),
        "the shard must stay quiet, got {outcome:?}"
    );
}

#[test]
fn a_quiet_shard_serves_its_cached_summary_for_23_ticks_and_refills_on_the_24th() {
    // Noisy telemetry moves every tick without tripping drift, so each
    // refill shows as a new digest.
    let mut shard = planned_shard_with_noise(0.05);
    let mut filled = shard.summary_digest();
    let mut ticks = 0;
    // Read every tick until a refill lands; from there the age is known.
    loop {
        quiet_tick(&mut shard);
        ticks += 1;
        assert!(ticks <= 24, "no refill within the staleness bound");
        let digest = shard.summary_digest();
        if digest != filled {
            filled = digest;
            break;
        }
    }
    for age in 1..24 {
        quiet_tick(&mut shard);
        assert_eq!(
            shard.summary_digest(),
            filled,
            "a summary {age} ticks old must be served from cache"
        );
        assert_eq!(shard.summary_cached().digest(), filled);
        assert_ne!(
            shard.summary().digest(),
            filled,
            "the telemetry must have moved by age {age}"
        );
    }
    quiet_tick(&mut shard);
    let fresh = shard.summary().digest();
    assert_ne!(fresh, filled);
    assert_eq!(
        shard.summary_digest(),
        fresh,
        "a summary 24 ticks old must be refilled"
    );
    assert_eq!(shard.summary_cached().digest(), fresh);
}
