//! End-to-end frame authentication: a fleet keyed via `KAIROS_NET_KEY`
//! runs its full RPC control plane — connect, registration, ticks,
//! balance rounds, audits — over sealed frames, and an unsealed frame
//! from an unkeyed peer is rejected with zero state change, counted in
//! `kairos_net_auth_failures_total`, and explained in the decision trace
//! of whichever role served the endpoint — shard node, zone node, or a
//! standby's sync endpoint (all four roles share one server envelope).
//!
//! This lives in its own test binary because the process key is read
//! exactly once ([`kairos_net::auth::process_key`] is a `OnceLock`):
//! the variable must be set before the first net call in the process,
//! and no other test in the binary may expect unkeyed frames.

use kairos_controller::{ControllerConfig, SyntheticSource};
use kairos_fleet::{BalancerConfig, FleetConfig, FleetController, Zone};
use kairos_net::{
    BalancerNode, LeaseConfig, LoopbackTransport, ShardNode, SourceEscrow, StandbyBalancer,
    Transport, ZoneNode,
};
use kairos_types::Bytes;
use kairos_workloads::RatePattern;
use std::sync::Arc;

const SHARDS: usize = 2;
const TENANTS_PER_SHARD: usize = 4;

fn quick_cfg() -> ControllerConfig {
    ControllerConfig {
        horizon: 8,
        check_every: 4,
        cooldown_ticks: 8,
        ..ControllerConfig::default()
    }
}

fn fleet_cfg() -> FleetConfig {
    FleetConfig {
        shards: SHARDS,
        shard: quick_cfg(),
        balancer: BalancerConfig {
            machines_per_shard: 4,
            balance_every: 4,
            max_moves_per_round: 2,
            ..BalancerConfig::default()
        },
        tick_threads: 1,
    }
}

#[test]
fn keyed_fleet_runs_sealed_and_rejects_bare_frames_with_zero_state_change() {
    // Key the process before the first net call: every peer below —
    // balancer and both shard nodes — reads this one variable, exactly
    // how a fleet-wide secret reaches every node of a deployment.
    std::env::set_var(kairos_net::auth::KEY_ENV, "keyed-e2e-secret");
    assert!(
        kairos_net::auth::process_key().is_some(),
        "the process key must resolve from the environment"
    );

    let transport = Arc::new(LoopbackTransport::new());
    let escrow = SourceEscrow::new();
    let mut nodes = Vec::new();
    let mut handles = Vec::new();
    for shard in 0..SHARDS {
        let node = ShardNode::new(
            quick_cfg(),
            kairos_core::ConsolidationEngine::builder().build(),
            Box::new(escrow.clone()),
        );
        handles.push(
            node.serve(transport.as_ref(), &format!("shard-{shard}"))
                .expect("serves"),
        );
        nodes.push(node);
    }
    let endpoints: Vec<String> = (0..SHARDS).map(|s| format!("shard-{s}")).collect();
    let lease = LeaseConfig { miss_limit: 3 };
    let mut balancer = BalancerNode::connect(fleet_cfg(), lease, transport.clone(), &endpoints)
        .expect("keyed balancer connects over sealed frames");
    for shard in 0..SHARDS {
        for i in 0..TENANTS_PER_SHARD {
            let name = format!("s{shard}-t{i}");
            escrow.park(Box::new(
                SyntheticSource::new(
                    name.clone(),
                    300.0,
                    Bytes::gib(4),
                    RatePattern::Flat { tps: 200.0 },
                )
                .with_noise(0.0),
            ));
            balancer
                .add_workload_to(shard, &name, 1)
                .expect("registers");
        }
    }

    // The whole keyed control plane works: ticks flow, rounds run, the
    // audit completes — every frame on the wire carried a valid tag.
    for _ in 0..20 {
        let report = balancer.tick();
        assert!(report.down.is_empty(), "keyed traffic must not miss leases");
    }
    let audit = balancer.audit();
    assert!(audit.complete());
    assert!(audit.zero_violations());

    // An unkeyed peer — same frame layout, no tag. The shard must
    // reject it before decoding: an Error response (sealed, like every
    // reply), the failure counter bumped, an AuthRejected trace event,
    // and not one tick of shard state moved.
    let ticks_before = nodes[0].with_shard(|s| s.stats().ticks);
    let failures_before = kairos_net::auth::auth_failures().get();
    let bare = kairos_net::frame::encode_frame(&kairos_net::Request::Stats);
    let mut conn = transport.connect("shard-0").expect("connects");
    let reply = conn
        .call(&bare)
        .expect("delivered; rejected above transport");
    let key = kairos_net::auth::process_key().expect("keyed");
    let base = kairos_net::auth::verify(&reply, Some(key))
        .expect("the rejection itself comes back sealed");
    match kairos_net::frame::decode_frame::<kairos_net::Response>(base) {
        Ok(kairos_net::Response::Error(msg)) => {
            assert!(msg.contains("unauthenticated"), "rejection says why: {msg}")
        }
        other => panic!("bare frame must draw a sealed Error, got {other:?}"),
    }
    assert_eq!(
        kairos_net::auth::auth_failures().get(),
        failures_before + 1,
        "kairos_net_auth_failures_total counts the rejection"
    );
    assert_eq!(
        nodes[0].with_shard(|s| s.stats().ticks),
        ticks_before,
        "zero state change on the rejected frame"
    );
    nodes[0].with_shard(|s| {
        assert!(
            s.trace_events().iter().any(|e| matches!(
                &e.event,
                kairos_obs::DecisionEvent::AuthRejected { endpoint } if endpoint == "shard-0"
            )),
            "the shard's decision trace explains the rejection"
        )
    });

    // A forged tag (right length, wrong key) is rejected the same way.
    let forged = kairos_net::AuthKey::from_secret(b"not-the-secret")
        .seal(kairos_net::frame::encode_frame(&kairos_net::Request::Stats));
    let reply = conn.call(&forged).expect("delivered");
    let base = kairos_net::auth::verify(&reply, Some(key)).expect("sealed rejection");
    assert!(matches!(
        kairos_net::frame::decode_frame::<kairos_net::Response>(base),
        Ok(kairos_net::Response::Error(_))
    ));
    assert_eq!(kairos_net::auth::auth_failures().get(), failures_before + 2);

    // The zone node and the standby sync endpoint sit behind the same
    // envelope, so they trace the rejection too.
    let auth_rejected_at = |events: Vec<kairos_obs::TracedEvent>, served: &str| {
        events.iter().any(|e| {
            matches!(
                &e.event,
                kairos_obs::DecisionEvent::AuthRejected { endpoint } if endpoint == served
            )
        })
    };
    let zone_node = ZoneNode::new(Zone::new(
        0,
        FleetController::new(fleet_cfg()),
        4,
        Box::new(|_: &str, _: u64| None),
    ));
    let zone_handle = zone_node
        .serve(transport.as_ref(), "zone-0")
        .expect("zone serves");
    let mut zone_conn = transport.connect("zone-0").expect("connects");
    zone_conn.call(&bare).expect("delivered");
    assert!(
        zone_node.with_zone(|z| auth_rejected_at(z.fleet().trace_events(), "zone-0")),
        "the zone's decision trace explains the rejection"
    );

    let standby_node = BalancerNode::connect(fleet_cfg(), lease, transport.clone(), &endpoints)
        .expect("standby connects");
    let mut standby = StandbyBalancer::new(standby_node, "no-lease-served", 1);
    standby
        .serve_sync(transport.as_ref(), "sync-0")
        .expect("sync endpoint serves");
    let mut sync_conn = transport.connect("sync-0").expect("connects");
    sync_conn.call(&bare).expect("delivered");
    standby.watch_tick();
    assert!(
        auth_rejected_at(standby.node().trace_events(), "sync-0"),
        "the standby's decision trace explains the rejection"
    );
    assert_eq!(kairos_net::auth::auth_failures().get(), failures_before + 4);

    // And the keyed fleet keeps running clean after the noise.
    for _ in 0..8 {
        let report = balancer.tick();
        assert!(report.down.is_empty());
    }
    drop((handles, zone_handle));
}
