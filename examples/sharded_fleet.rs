//! The sharded control plane end-to-end: a 4-shard, ~200-tenant fleet
//! driven through a regional flash crowd and a membership-churn wave.
//!
//! ```text
//! cargo run --release --example sharded_fleet
//! ```
//!
//! Demonstrates the acceptance properties of `kairos-fleet`:
//!
//! * every shard converges to a placement that re-evaluates as feasible
//!   against the shard-local restriction of one *global* problem
//!   (`FleetController::audit`) — zero capacity violations fleet-wide;
//! * every shard ends within its machine budget, with the cross-shard
//!   balancer moving tenants off the overloaded shard via two-phase
//!   (reserve → evict → admit) handoffs;
//! * every intermediate state is capacity-safe: intra-shard migrations
//!   report zero forced steps, and handoffs only complete after the
//!   destination certified capacity;
//! * the executor's routing ledger matches the placement entry for
//!   entry: no migrated-away or departed tenant leaves a ghost behind.

use kairos::controller::{ControllerConfig, SyntheticSource};
use kairos::fleet::{BalancerConfig, FleetConfig, FleetController};
use kairos::types::Bytes;
use kairos::workloads::RatePattern;
use std::collections::BTreeMap;

const INTERVAL: f64 = 300.0;
const BUDGET: usize = 12;

fn config(shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        shard: ControllerConfig {
            horizon: 12,
            check_every: 4,
            cooldown_ticks: 12,
            ..ControllerConfig::default()
        },
        balancer: BalancerConfig {
            machines_per_shard: BUDGET,
            balance_every: 6,
            max_moves_per_round: 4,
            ..BalancerConfig::default()
        },
        ..FleetConfig::default()
    }
}

fn tenant(name: String, tps: f64) -> SyntheticSource {
    SyntheticSource::new(name, INTERVAL, Bytes::gib(4), RatePattern::Flat { tps })
}

fn show(label: &str, fleet: &FleetController) {
    let audit = fleet.audit();
    let stats = fleet.stats();
    let tenants: usize = fleet.shards().iter().map(|s| s.workloads().len()).sum();
    let forced: u64 = fleet.shards().iter().map(|s| s.stats().forced_steps).sum();
    let resolves: u64 = fleet.shards().iter().map(|s| s.stats().resolves).sum();
    println!(
        "  {label:<22} tenants/shard {:>3?}  machines {:>3?}  re-solves {resolves:<3} \
         handoffs {}✓/{}✗  forced {forced}  violations-free {}",
        fleet.map().counts(),
        audit.machines_used,
        stats.handoffs_completed,
        stats.handoffs_rejected,
        audit.zero_violations(),
    );
    println!(
        "  {:<22} tenants {tenants}  total machines {}  balance rounds {}",
        "",
        audit.total_machines(),
        stats.balance_rounds
    );
}

/// Every shard's executor routes each replica to the machine the
/// placement names, and routes exactly the shard's tenants — no ghosts
/// of migrated-away or departed ones.
fn assert_routing_faithful(fleet: &FleetController) {
    for shard in fleet.shards() {
        let routed: Vec<(String, u32, usize)> = shard
            .executor()
            .routing_snapshot()
            .into_iter()
            .map(|(tenant, replica, machine, _rows)| (tenant, replica, machine))
            .collect();
        let placed: Vec<(String, u32, usize)> = shard
            .placement()
            .iter()
            .map(|((tenant, replica), machine)| (tenant.clone(), *replica, *machine))
            .collect();
        assert_eq!(routed, placed, "routing ledger must match the placement");

        let replicas: BTreeMap<String, u32> = shard.replica_counts().into_iter().collect();
        let owned: Vec<(String, u32)> = shard
            .workloads()
            .into_iter()
            .flat_map(|tenant| {
                let copies = replicas.get(&tenant).copied().unwrap_or(1);
                (0..copies).map(move |replica| (tenant.clone(), replica))
            })
            .collect();
        let routed_keys: Vec<(String, u32)> = routed.into_iter().map(|(t, r, _)| (t, r)).collect();
        assert_eq!(routed_keys, owned, "every replica of every tenant, once");
    }
}

fn flash_crowd() {
    println!("flash crowd (regional spike on shard 0):");
    let mut fleet = FleetController::new(config(4));
    // 50 tenants per shard, ~2 cores each -> ~9 machines (budget 12).
    for shard in 0..4 {
        for i in 0..50 {
            let base = 190.0 + 10.0 * (i % 4) as f64;
            let name = format!("s{shard}-t{i:02}");
            let src = if shard == 0 && i < 20 {
                // A fifth of the fleet's "region" spikes ~3x for ~70
                // monitoring intervals, then subsides.
                tenant(name, base)
                    .then_at(40, RatePattern::Flat { tps: 640.0 })
                    .then_at(110, RatePattern::Flat { tps: base })
            } else {
                tenant(name, base)
            };
            fleet.add_workload_to(shard, Box::new(src));
        }
    }

    for _ in 0..180 {
        fleet.tick();
    }
    show("after spike+subside", &fleet);

    let audit = fleet.audit();
    let stats = fleet.stats();
    assert!(audit.complete(), "all shards planned");
    assert!(
        audit.zero_violations(),
        "fleet must converge to zero capacity violations"
    );
    assert!(
        audit.within_budget(BUDGET),
        "every shard within its machine budget: {:?}",
        audit.machines_used
    );
    assert!(
        stats.handoffs_completed >= 1,
        "the spike must force cross-shard handoffs"
    );
    let forced: u64 = fleet.shards().iter().map(|s| s.stats().forced_steps).sum();
    assert_eq!(
        forced, 0,
        "every intra-shard move order must be capacity-safe"
    );
    // Completed handoffs were all reservation-checked; rejected ones
    // changed nothing.
    for h in fleet.handoffs() {
        assert_eq!(h.completed(), h.to.is_some());
    }
    assert_routing_faithful(&fleet);

    // The observability face of the same run: the decision trace names
    // every balancer choice, and the metrics registry serves both
    // renderings (the `Metrics` RPC exposes the same text per node).
    let trace = fleet.trace_events();
    assert!(!trace.is_empty(), "the spike must leave a decision trace");
    println!(
        "  decision trace ({} fleet events), last three:",
        trace.len()
    );
    for e in trace.iter().rev().take(3).rev() {
        println!("    #{:06} t{:04} {:?}", e.seq, e.tick, e.event);
    }
    let prometheus = fleet.metrics_prometheus();
    println!("  prometheus excerpt:");
    for line in prometheus
        .lines()
        .filter(|l| l.starts_with("kairos_fleet_handoffs") || l.starts_with("kairos_fleet_ticks"))
    {
        println!("    {line}");
    }
    assert!(fleet
        .metrics_json()
        .contains("\"kairos_fleet_ticks_total\""));

    // The audit explanation reads clean after convergence.
    let explanation = fleet.explain_audit(&audit);
    assert!(explanation.contains("audit clean"), "{explanation}");
    println!("  explain_audit: {}", explanation.trim_end());
}

fn churn() {
    println!("\nworkload churn (arrival wave + departures):");
    let mut fleet = FleetController::new(config(4));
    for shard in 0..4 {
        for i in 0..40 {
            fleet.add_workload_to(shard, Box::new(tenant(format!("s{shard}-t{i:02}"), 220.0)));
        }
    }
    for _ in 0..30 {
        fleet.tick();
    }
    // An arrival wave lands on the least-populated shards…
    for i in 0..24 {
        fleet.add_workload(Box::new(tenant(format!("new-{i:02}"), 240.0)));
    }
    for _ in 0..40 {
        fleet.tick();
    }
    // …then a departure wave frees capacity for opportunistic repacks.
    for shard in 0..4 {
        for i in 0..4 {
            fleet.remove_workload(&format!("s{shard}-t{i:02}"));
        }
    }
    for _ in 0..70 {
        fleet.tick();
    }
    show("after churn", &fleet);

    let audit = fleet.audit();
    assert!(audit.complete());
    assert!(audit.zero_violations());
    assert!(audit.within_budget(BUDGET), "{:?}", audit.machines_used);
    // Every arrival is placed somewhere; every departure is gone.
    for i in 0..24 {
        let name = format!("new-{i:02}");
        let shard = fleet.map().shard_of(&name).expect("arrival routed");
        assert!(
            fleet.shards()[shard]
                .placement()
                .machine_of(&name, 0)
                .is_some(),
            "{name} must be placed"
        );
    }
    for shard in 0..4 {
        assert_eq!(fleet.map().shard_of(&format!("s{shard}-t00")), None);
    }
    let forced: u64 = fleet.shards().iter().map(|s| s.stats().forced_steps).sum();
    assert_eq!(forced, 0, "churn must stay capacity-safe");
    assert_routing_faithful(&fleet);
}

fn main() {
    println!("== kairos-fleet: sharded control plane with cross-shard balancing ==\n");
    flash_crowd();
    churn();
    println!("\nall sharded-fleet acceptance scenarios passed.");
}
