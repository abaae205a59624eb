//! Replica- and anti-affinity-aware drift handling: the solver has
//! supported replication and anti-affinity since the one-shot pipeline,
//! but the online loop only exercised singleton tenants. This test
//! drives a fleet holding a 2-replica tenant and an anti-affinity pair
//! through a load spike and asserts the constraints hold at every plan —
//! bootstrap, drift re-solve, and the executor's physical routing.

use kairos_controller::{ControllerConfig, ShardController, SyntheticSource, TickOutcome};
use kairos_types::Bytes;
use kairos_workloads::RatePattern;

fn quick_config() -> ControllerConfig {
    ControllerConfig {
        horizon: 12,
        check_every: 4,
        cooldown_ticks: 12,
        ..ControllerConfig::default()
    }
}

/// Both replicas of `name` run, on distinct machines, in both the
/// placement map and the executor's physical routing — and the two views
/// agree.
fn assert_replicas_separated(controller: &ShardController, name: &str) {
    let m0 = controller
        .placement()
        .machine_of(name, 0)
        .expect("replica 0 placed");
    let m1 = controller
        .placement()
        .machine_of(name, 1)
        .expect("replica 1 placed");
    assert_ne!(m0, m1, "replicas of {name} must not share a host");
    assert_eq!(
        controller.executor().machine_of(name, 0),
        Some(m0),
        "executor routing must match the placement map"
    );
    assert_eq!(controller.executor().machine_of(name, 1), Some(m1));
}

fn assert_pair_separated(controller: &ShardController, a: &str, b: &str) {
    let ma = controller.placement().machine_of(a, 0).expect("placed");
    let mb = controller.placement().machine_of(b, 0).expect("placed");
    assert_ne!(ma, mb, "anti-affine pair {a}/{b} must not share a host");
}

#[test]
fn replicas_and_anti_affinity_survive_a_drift_resolve() {
    let engine = kairos_core::ConsolidationEngine::builder().build();
    let mut controller = ShardController::new(quick_config(), engine);

    // Six tenants at ~2 cores each; w0 runs 2 replicas, w1/w2 must stay
    // apart (think: two halves of the same logical service).
    for i in 0..6 {
        let source = SyntheticSource::new(
            format!("w{i}"),
            300.0,
            Bytes::gib(4),
            RatePattern::Flat { tps: 200.0 },
        )
        .with_noise(0.0);
        let source = if i == 0 {
            source.then_at(40, RatePattern::Flat { tps: 640.0 })
        } else {
            source
        };
        if i == 0 {
            controller.add_workload_with_replicas(Box::new(source), 2);
        } else {
            controller.add_workload(Box::new(source));
        }
    }
    controller.add_anti_affinity("w1", "w2");

    let mut initial_plan_tick = None;
    let mut resolve_ticks = Vec::new();
    for tick in 0..96u64 {
        match controller.tick() {
            TickOutcome::InitialPlan { .. } => {
                initial_plan_tick = Some(tick);
                // Constraints hold from the very first plan.
                assert_replicas_separated(&controller, "w0");
                assert_pair_separated(&controller, "w1", "w2");
            }
            TickOutcome::Replanned(summary) => {
                resolve_ticks.push(tick);
                assert!(summary.feasible, "re-solve must stay feasible");
            }
            _ => {}
        }
    }

    assert!(
        initial_plan_tick.is_some_and(|t| t < 40),
        "plan must land before the spike"
    );
    assert!(
        !resolve_ticks.is_empty() && resolve_ticks.iter().all(|&t| t > 40),
        "the spike must force a re-solve: {resolve_ticks:?}"
    );

    // After the drift re-solve: still no co-located replicas, the pair
    // still separated, and the placement replays as feasible under the
    // constraint-carrying problem (replicas + anti-affinity included).
    assert_replicas_separated(&controller, "w0");
    assert_pair_separated(&controller, "w1", "w2");
    let eval = controller.verify_current().expect("planned");
    assert!(eval.feasible);
    assert_eq!(eval.violation, 0.0);

    // The replicated spike really costs capacity: both replicas forecast
    // at the spiked level, so the fleet spreads across > 1 machine.
    assert!(controller.placement().machines_used() >= 2);
}

#[test]
fn anti_affinity_is_enforced_even_when_packing_would_prefer_one_host() {
    // Two tiny tenants that would trivially share one machine — the
    // anti-affinity pair must force a second host from the first plan.
    let engine = kairos_core::ConsolidationEngine::builder().build();
    let mut controller = ShardController::new(quick_config(), engine);
    for i in 0..2 {
        controller.add_workload(Box::new(
            SyntheticSource::new(
                format!("tiny{i}"),
                300.0,
                Bytes::gib(2),
                RatePattern::Flat { tps: 50.0 },
            )
            .with_noise(0.0),
        ));
    }
    controller.add_anti_affinity("tiny0", "tiny1");

    for _ in 0..20 {
        if let TickOutcome::InitialPlan { machines, .. } = controller.tick() {
            assert_eq!(machines, 2, "anti-affinity must force two machines");
        }
    }
    assert_pair_separated(&controller, "tiny0", "tiny1");
}
