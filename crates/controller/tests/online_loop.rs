//! Deterministic integration tests for the online consolidation loop:
//! (a) a stationary fleet never triggers a re-solve; (b) a synthetic load
//! spike triggers exactly one re-solve whose plan is feasible under
//! `kairos_solver::objective::evaluate`, with bounded migration churn.

use kairos_controller::prelude::*;
use kairos_controller::{scenario_stationary, ControllerConfig, TickOutcome};
use kairos_controller::{ShardController, SyntheticSource};
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

#[test]
fn stationary_fleet_never_resolves() {
    let report = run_scenario(&quick_config(), scenario_stationary(6, 80));
    assert!(report.initial_plan_tick.is_some(), "fleet must bootstrap");
    assert_eq!(
        report.resolves, 0,
        "stationary load must not trigger re-solves"
    );
    assert!(report.final_feasible);
    assert!(report.initial_machines >= 1);
    assert_eq!(report.final_machines, report.initial_machines);
    assert_eq!(report.total_moves, 0);
}

#[test]
fn load_spike_triggers_exactly_one_feasible_resolve() {
    // Deterministic single-drift setup driven tick-by-tick (no scenario
    // wrapper) so the test can count and inspect every outcome. Eight
    // 2-core tenants pack two machines; at tick 40 one jumps to ~6.4
    // cores, overloading its machine; the spike persists to the end so
    // exactly one re-solve happens.
    let cfg = quick_config();
    let engine = ConsolidationEngine::builder().build();
    let mut controller = ShardController::new(cfg, engine);
    for i in 0..8 {
        let s = SyntheticSource::new(
            format!("w{i}"),
            300.0,
            Bytes::gib(4),
            RatePattern::Flat { tps: 200.0 },
        )
        .with_noise(0.0);
        let s = if i == 0 {
            s.then_at(40, RatePattern::Flat { tps: 640.0 })
        } else {
            s
        };
        controller.add_workload(Box::new(s));
    }

    let mut resolves = Vec::new();
    let mut initial_plan = None;
    for tick in 0..96u64 {
        match controller.tick() {
            TickOutcome::InitialPlan { machines, .. } => initial_plan = Some((tick, machines)),
            TickOutcome::Replanned(r) => resolves.push((tick, r)),
            _ => {}
        }
    }

    let (plan_tick, _machines) = initial_plan.expect("bootstrap completed");
    assert!(plan_tick < 40, "plan must land before the spike");
    assert_eq!(
        resolves.len(),
        1,
        "one persistent spike must trigger exactly one re-solve, got {:?}",
        resolves.iter().map(|(t, _)| *t).collect::<Vec<_>>()
    );
    let (resolve_tick, summary) = &resolves[0];
    assert!(*resolve_tick > 40, "re-solve must follow the spike");
    assert!(summary.feasible, "re-solved plan must be feasible");
    assert!(
        matches!(summary.reason, kairos_controller::ReplanReason::Drift(ref names) if names.contains(&"w0".to_string())),
        "the spiking workload must be the drift trigger: {:?}",
        summary.reason
    );
    assert!(summary.moves >= 1, "an overload forces at least one move");
    assert!(
        summary.churn <= 0.30,
        "migration cost must bound churn at 30%, got {:.0}%",
        summary.churn * 100.0
    );

    // The placement the controller now runs is feasible when re-evaluated
    // from scratch through solver::objective::evaluate.
    let eval = controller.verify_current().expect("planned");
    assert!(eval.feasible, "current placement must replay as feasible");
    assert_eq!(eval.violation, 0.0);
}

#[test]
fn spike_resolve_outperforms_cold_resolve_on_churn() {
    // Same spike, controller in cold-resolve measurement mode: the
    // baseline-blind solver is free to reshuffle, and on this fleet it
    // demonstrably moves more tenants than the migration-aware path.
    let run = |cold: bool| {
        let mut cfg = quick_config();
        cfg.cold_resolves = cold;
        let engine = ConsolidationEngine::builder().build();
        let mut controller = ShardController::new(cfg, engine);
        for i in 0..8 {
            let s = SyntheticSource::new(
                format!("w{i}"),
                300.0,
                Bytes::gib(4),
                RatePattern::Flat {
                    tps: 200.0 + 7.0 * i as f64,
                },
            )
            .with_noise(0.0);
            let s = if i == 0 {
                s.then_at(40, RatePattern::Flat { tps: 640.0 })
            } else {
                s
            };
            controller.add_workload(Box::new(s));
        }
        let mut moves = 0usize;
        for _ in 0..96u64 {
            if let TickOutcome::Replanned(r) = controller.tick() {
                moves += r.moves;
            }
        }
        moves
    };
    let warm_moves = run(false);
    let cold_moves = run(true);
    assert!(
        warm_moves <= cold_moves,
        "migration-aware re-solve must not out-churn the cold solver: warm {warm_moves} vs cold {cold_moves}"
    );
    assert!(warm_moves >= 1, "the spike still requires movement");
}
