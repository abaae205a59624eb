//! Shard summary fills as a work count that can fail.
//!
//! kbench's `online_steady` shape — 32 shards of 24 stationary tenants,
//! a balance round every 6 ticks — reads every shard's summary each
//! round, and a shard refills its summary memo only when the memo is
//! stale: after a change, or once it is 24 ticks old. So a quiet fleet
//! fills each summary once at its first round and then once per 24
//! ticks, and `kairos_shard_summary_fills_total` says so exactly. The
//! counts below were recorded before the summary kernels were rewritten;
//! a second fill per round (a memo that misses, or a round that asks for
//! a fresh summary beside the cached one) doubles them.

use kairos_controller::{ControllerConfig, SyntheticSource};
use kairos_fleet::{BalancerConfig, FleetConfig, FleetController};
use kairos_types::Bytes;
use kairos_workloads::RatePattern;

const SHARDS: usize = 32;
const TENANTS_PER_SHARD: usize = 24;
const TICKS: u64 = 64;

fn fills(fleet: &mut FleetController) -> u64 {
    let name = "kairos_shard_summary_fills_total";
    fleet
        .shards_mut()
        .iter()
        .map(|s| {
            s.metrics_registry()
                .counter_value(name)
                .expect("registered")
        })
        .sum()
}

#[test]
fn a_quiet_fleet_fills_each_summary_once_per_24_ticks() {
    let mut fleet = FleetController::new(FleetConfig {
        shards: SHARDS,
        shard: ControllerConfig {
            horizon: 12,
            check_every: 4,
            cooldown_ticks: 12,
            ..ControllerConfig::default()
        },
        balancer: BalancerConfig {
            machines_per_shard: 11,
            balance_every: 6,
            max_moves_per_round: 4,
            low_watermark: 7,
            ..BalancerConfig::default()
        },
        tick_threads: 1,
    });
    for shard in 0..SHARDS {
        for i in 0..TENANTS_PER_SHARD {
            // Rates spread over 185–225 tps, in a different order per shard.
            let step = (i * 7 + shard) % TENANTS_PER_SHARD;
            let tps = 185.0 + 40.0 * (step as f64 + 0.5) / TENANTS_PER_SHARD as f64;
            let name = format!("s{shard:02}-t{i:02}");
            let pattern = RatePattern::Flat { tps };
            let source = SyntheticSource::new(name, 300.0, Bytes::gib(4), pattern);
            fleet.add_workload_to(shard, Box::new(source));
        }
    }
    let mut filled_at = Vec::new();
    for tick in 1..=TICKS {
        let before = fills(&mut fleet);
        let report = fleet.tick();
        assert!(
            report.handoffs.is_empty(),
            "tick {tick}: the fleet is quiet"
        );
        let filled = fills(&mut fleet) - before;
        if filled > 0 {
            filled_at.push((tick, filled));
        }
    }
    // Every shard plans at tick 12, the first round after it fills every
    // summary, and each refills 24 ticks later.
    assert_eq!(filled_at, [(12, 32), (36, 32), (60, 32)]);
    assert_eq!(fills(&mut fleet), 96);
}
