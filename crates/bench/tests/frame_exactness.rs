//! The frames the wire and the checkpoint carry, pinned byte for byte —
//! the codec's counterpart of `fig07_exactness`: a faster codec or
//! checksum must not change a byte. Each frame is pinned by its length
//! and a 64-bit keyed hash (`AuthKey::from_secret(b"pin")`'s SipHash tag,
//! not the CRC the frames themselves carry).
//!
//! The expected values were recorded by a throw-away run of this test on
//! a clone of the parent commit (d2af591), before the bulk codec paths,
//! slicing-by-8 CRC and in-place frame encoding landed. Do not re-record
//! them to make a change pass. The snapshot pin alone was re-recorded
//! once, when `ControllerStats` stopped carrying wall-clock solver seconds
//! (`FLEET_SNAPSHOT_VERSION` 5): its bytes now repeat, so no field is
//! zeroed before pinning.
//!
//! The first snapshot never fills a ring. The second pin is one shard's
//! checkpoint after 40 ticks on 16-sample windows, so every ring has
//! wrapped, and one tenant rebuilt from its handoff sketch has pushed
//! fewer samples than it has seen. It was recorded the same way on a
//! clone of 2671fac, before the three per-series round-robin stores
//! became one shared ring per tenant.

use kairos_controller::{
    ControllerConfig, ShardController, SyntheticSource, TelemetryConfig, TelemetrySource,
    TenantHandoff, SHARD_SNAPSHOT_VERSION,
};
use kairos_core::ConsolidationEngine;
use kairos_fleet::{
    BalancerConfig, FleetConfig, FleetController, Zone, ZoneSourceBinder, FLEET_SNAPSHOT_VERSION,
};
use kairos_net::{frame, AuthKey, Request, Response};
use kairos_types::Bytes;
use kairos_workloads::RatePattern;

fn source(name: &str, tps: f64) -> Box<dyn TelemetrySource> {
    Box::new(
        SyntheticSource::new(name, 300.0, Bytes::gib(4), RatePattern::Flat { tps }).with_noise(0.0),
    )
}

fn pin(bytes: &[u8]) -> (usize, u64) {
    let hash = u64::from_le_bytes(AuthKey::from_secret(b"pin").tag(bytes));
    (bytes.len(), hash)
}

#[test]
fn frames_are_byte_identical_to_the_recorded_ones() {
    let mut fleet = FleetController::new(FleetConfig {
        shards: 2,
        shard: ControllerConfig {
            horizon: 8,
            check_every: 4,
            cooldown_ticks: 8,
            ..ControllerConfig::default()
        },
        balancer: BalancerConfig::default(),
        tick_threads: 1,
    });
    for i in 0..6 {
        fleet.add_workload(source(&format!("t{i:02}"), 120.0 + 37.0 * i as f64));
    }
    for _ in 0..12 {
        fleet.tick();
    }
    let shard = frame::encode_frame(&Response::Summary(fleet.shards_mut()[0].summary_cached()));
    let snapshot = kairos_store::encode_frame(FLEET_SNAPSHOT_VERSION, &fleet.snapshot());
    let binder: ZoneSourceBinder = Box::new(|name: &str, _| Some(source(name, 100.0)));
    let mut zone = Zone::new(0, fleet, 8, binder);
    let rollup = frame::encode_frame(&Response::Summary(zone.rollup().summary));
    let handoff = zone.fleet_mut().evict_tenant("t00").expect("resident");
    let admit = frame::encode_frame(&Request::Admit { frame: handoff });
    let tick = frame::encode_frame(&Request::Tick);

    assert_eq!(pin(&shard), (1048, 0x2508_a922_b821_202b), "shard summary");
    assert_eq!(pin(&rollup), (1183, 0x3dcc_c14b_6e7f_eda6), "zone roll-up");
    assert_eq!(pin(&admit), (716, 0x9c0b_4719_7edd_ae41), "admit");
    assert_eq!(pin(&tick), (24, 0x4f98_7233_8e3d_be7c), "tick");
    assert_eq!(pin(&snapshot), (8278, 0xe6a4_7055_6673_450e), "snapshot");
}

/// One shard's checkpoint after its rings have wrapped.
#[test]
fn a_wrapped_ring_checkpoints_to_the_recorded_bytes() {
    let mut shard = ShardController::new(
        ControllerConfig {
            horizon: 8,
            check_every: 4,
            cooldown_ticks: 8,
            telemetry: TelemetryConfig {
                window_capacity: 16,
                ..TelemetryConfig::default()
            },
            ..ControllerConfig::default()
        },
        ConsolidationEngine::builder().build(),
    );
    let noisy = |name: &str, tps: f64| -> Box<dyn TelemetrySource> {
        Box::new(
            SyntheticSource::new(name, 300.0, Bytes::gib(4), RatePattern::Flat { tps })
                .with_noise(0.2),
        )
    };
    for i in 0..4 {
        shard.add_workload(noisy(&format!("t{i:02}"), 90.0 + 53.0 * i as f64));
    }
    for tick in 0..40 {
        if tick == 20 {
            // A tenant rebuilt from its handoff sketch: its rings have
            // pushed fewer samples than it has seen.
            let (bytes, source) = shard.evict("t01").expect("resident").into_wire();
            shard.admit(TenantHandoff::from_wire(&bytes, source).expect("a clean frame"));
        }
        shard.tick();
    }
    let snapshot = kairos_store::encode_frame(SHARD_SNAPSHOT_VERSION, &shard.snapshot());
    assert_eq!(
        pin(&snapshot),
        (4462, 0xd0b3_3613_5859_409e),
        "wrapped-ring snapshot"
    );
}
