//! The frames the wire and the checkpoint carry, pinned byte for byte —
//! the codec's counterpart of `fig07_exactness`: a faster codec or
//! checksum must not change a byte. Each frame is pinned by its length
//! and a 64-bit keyed hash (`AuthKey::from_secret(b"pin")`'s SipHash tag,
//! not the CRC the frames themselves carry).
//!
//! The expected values were recorded by a throw-away run of this test on
//! a clone of the parent commit (d2af591), before the bulk codec paths,
//! slicing-by-8 CRC and in-place frame encoding landed. Do not re-record
//! them to make a change pass.

use kairos_controller::{ControllerConfig, SyntheticSource, TelemetrySource};
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
    // The one wall-clock field a checkpoint carries; everything else repeats.
    let mut snap = fleet.snapshot();
    for shard in &mut snap.shards {
        shard.stats.solve_secs_total = 0.0;
    }
    let snapshot = kairos_store::encode_frame(FLEET_SNAPSHOT_VERSION, &snap);
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
    assert_eq!(pin(&snapshot), (8294, 0xc1da_66c0_cc0c_109b), "snapshot");
}
