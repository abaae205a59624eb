//! Property tests for the RPC frame codec, mirroring
//! `crates/store/tests/frame_props.rs`: every single-bit flip and every
//! truncation point of a frame is rejected with a clean error (never a
//! panic, never a misdecode), real RPC messages round-trip bit-exactly,
//! and — the handshake-level guarantee — a shard node **never admits a
//! tenant from a damaged handoff frame**, whether the damage hits the
//! transport envelope or the nested handoff bytes, mid-handshake
//! included.
//!
//! Seeded on the workspace SplitMix64 harness; CI sweeps
//! `KAIROS_TEST_SEED`.

use kairos_controller::{ControllerConfig, SyntheticSource, TickOutcome};
use kairos_net::{
    frame, BalancerNode, FaultInjector, FaultedTransport, LeaseConfig, LoopbackTransport, NetError,
    Request, Response, ShardNode, SourceEscrow, Transport,
};
use kairos_types::{Bytes, SplitMix64, WorkloadProfile};
use kairos_workloads::RatePattern;
use std::sync::Arc;

fn sample_request(rng: &mut SplitMix64) -> Request {
    match rng.next_range(7) {
        0 => Request::Ping,
        1 => Request::Tick,
        2 => Request::PackEstimate {
            exclude: (0..rng.next_range(4)).map(|i| format!("t{i}")).collect(),
        },
        3 => Request::CanAdmit {
            profile: WorkloadProfile::flat(
                "w",
                300.0,
                6,
                rng.next_in(0.5, 8.0),
                Bytes::gib(4),
                kairos_types::DiskDemand::new(Bytes::gib(1), kairos_types::Rate(100.0)),
            ),
            budget: rng.next_range(8) as usize,
        },
        4 => Request::Admit {
            frame: (0..rng.next_range(64)).map(|v| v as u8).collect(),
        },
        5 => Request::SummarySince {
            seen: (rng.next_range(2) == 0).then(|| rng.next_u64()),
        },
        _ => Request::Checkpoint {
            path: format!("/tmp/ckpt-{}.ksnp", rng.next_range(1000)),
        },
    }
}

/// A `SummarySince` answer, digest-only or carrying a summary.
fn sample_summary_since(rng: &mut SplitMix64) -> Response {
    let summary = (rng.next_range(2) == 0).then(|| kairos_controller::ShardSummary {
        tenants: rng.next_range(64) as usize,
        planned: rng.next_range(2) == 0,
        machines_used: rng.next_range(16) as usize,
        feasible: rng.next_range(2) == 0,
        violation: rng.next_in(0.0, 2.0),
        resolve_failed: rng.next_range(2) == 0,
        drifting: rng.next_range(8) as usize,
        aggregate: kairos_traces::AggregateSketch::empty(300.0),
        tenant_loads: (0..rng.next_range(4))
            .map(|i| kairos_controller::TenantLoad {
                name: format!("g{i}"),
                replicas: 1 + rng.next_range(3) as u32,
                cpu_peak: rng.next_in(0.0, 8.0),
                ram_peak: rng.next_in(0.0, 1e10),
                ws_peak: rng.next_in(0.0, 1e9),
                rate_peak: rng.next_in(0.0, 500.0),
            })
            .collect(),
    });
    Response::SummarySince {
        digest: rng.next_u64(),
        summary,
    }
}

#[test]
fn every_bit_flip_of_an_rpc_frame_is_rejected() {
    let mut rng = SplitMix64::from_env(0xF1A6_0001);
    let request = sample_request(&mut rng);
    // The sampled request, and a digest ask whatever the sample drew.
    let since = Request::SummarySince {
        seen: Some(rng.next_u64()),
    };
    for request in [request, since] {
        let encoded = frame::encode_frame(&request);
        for byte in 0..encoded.len() {
            for bit in 0..8 {
                let mut bad = encoded.clone();
                bad[byte] ^= 1 << bit;
                let r = frame::decode_frame::<Request>(&bad);
                assert!(
                    r.is_err(),
                    "{request:?}: bit flip at {byte}:{bit} must fail"
                );
            }
        }
    }
}

#[test]
fn every_truncation_of_an_rpc_frame_is_rejected() {
    let mut rng = SplitMix64::from_env(0xF1A6_0002);
    let request = sample_request(&mut rng);
    let since = Request::SummarySince {
        seen: Some(rng.next_u64()),
    };
    for request in [request, since] {
        let encoded = frame::encode_frame(&request);
        for cut in 0..encoded.len() {
            let r = frame::decode_frame::<Request>(&encoded[..cut]);
            assert!(r.is_err(), "{request:?}: truncation at {cut} must fail");
        }
        // Trailing garbage equally so.
        let mut padded = encoded.clone();
        padded.push(0);
        assert!(frame::decode_frame::<Request>(&padded).is_err());
    }
}

#[test]
fn random_messages_roundtrip_and_random_corruption_rejected() {
    let mut rng = SplitMix64::from_env(0xF1A6_0003);
    // Responses draw from their own stream, so the requests are the
    // ones the seed always drew.
    let mut answers = SplitMix64::from_env(0xF1A6_0004);
    let mut shapes = [0usize; 2];
    for round in 0..200 {
        let request = sample_request(&mut rng);
        let encoded = frame::encode_frame(&request);
        let back: Request = frame::decode_frame(&encoded).expect("clean frame decodes");
        assert_eq!(format!("{request:?}"), format!("{back:?}"));

        let mutated = match rng.next_range(3) {
            0 => {
                let cut = rng.next_range(encoded.len() as u64) as usize;
                encoded[..cut].to_vec()
            }
            1 => {
                let mut bad = encoded.clone();
                let byte = rng.next_range(bad.len() as u64) as usize;
                bad[byte] ^= 1 << rng.next_range(8);
                bad
            }
            _ => {
                let mut bad = encoded.clone();
                let byte = rng.next_range(bad.len() as u64) as usize;
                bad[byte] = if bad[byte] == 0 { 0xFF } else { 0 };
                bad
            }
        };
        assert!(
            frame::decode_frame::<Request>(&mutated).is_err(),
            "round {round}: corrupted frame must be rejected"
        );

        // A `SummarySince` answer, with and without a summary.
        let response = sample_summary_since(&mut answers);
        if let Response::SummarySince { summary, .. } = &response {
            shapes[usize::from(summary.is_some())] += 1;
        }
        let encoded = frame::encode_frame(&response);
        let back: Response = frame::decode_frame(&encoded).expect("clean frame decodes");
        assert_eq!(format!("{response:?}"), format!("{back:?}"));
        let mut bad = encoded.clone();
        let byte = answers.next_range(bad.len() as u64) as usize;
        bad[byte] ^= 1 << answers.next_range(8);
        assert!(
            frame::decode_frame::<Response>(&bad).is_err(),
            "round {round}: corrupted answer must be rejected"
        );
    }
    assert!(
        shapes.iter().all(|&n| n > 0),
        "digest-only and full answers both drawn: {shapes:?}"
    );
}

// ----- the handshake-level guarantee ---------------------------------

fn flat(name: &str, tps: f64) -> SyntheticSource {
    SyntheticSource::new(
        name.to_string(),
        300.0,
        Bytes::gib(4),
        RatePattern::Flat { tps },
    )
    .with_noise(0.0)
}

fn quick_cfg() -> ControllerConfig {
    ControllerConfig {
        horizon: 8,
        check_every: 4,
        cooldown_ticks: 8,
        ..ControllerConfig::default()
    }
}

/// Stand up two planned shard nodes over loopback, hand tenants to the
/// donor, and return everything a handshake test needs.
struct Harness {
    transport: LoopbackTransport,
    _handles: Vec<kairos_net::ServerHandle>,
    nodes: Vec<ShardNode>,
    escrow: SourceEscrow,
}

fn harness(tenants: usize) -> Harness {
    let transport = LoopbackTransport::new();
    let escrow = SourceEscrow::new();
    let mut nodes = Vec::new();
    let mut handles = Vec::new();
    for shard in 0..2 {
        let node = ShardNode::new(
            quick_cfg(),
            kairos_core::ConsolidationEngine::builder().build(),
            Box::new(escrow.clone()),
        );
        handles.push(
            node.serve(&transport, &format!("shard-{shard}"))
                .expect("serves"),
        );
        nodes.push(node);
    }
    for i in 0..tenants {
        let name = format!("t{i:02}");
        escrow.park(Box::new(flat(&name, 300.0)));
        nodes[0].with_shard(|s| {
            s.add_workload(Box::new(flat(&name, 300.0)));
        });
        // The escrow copy stands in as the destination-side source.
    }
    // Plan the donor.
    nodes[0].with_shard(|s| {
        for _ in 0..20 {
            if let TickOutcome::InitialPlan { .. } = s.tick() {
                return;
            }
        }
        panic!("donor never planned");
    });
    Harness {
        transport,
        _handles: handles,
        nodes,
        escrow,
    }
}

fn rpc(transport: &LoopbackTransport, endpoint: &str, request: &Request) -> Response {
    let mut conn = transport.connect(endpoint).expect("connects");
    match kairos_net::rpc::call(conn.as_mut(), request) {
        Ok(response) => response,
        Err(NetError::Remote(msg)) => Response::Error(msg),
        Err(e) => panic!("transport-level failure: {e}"),
    }
}

/// Mid-handshake corruption: the eviction succeeded, the admit frame is
/// damaged in flight. The receiver must reject it with zero state
/// change — a shard never admits a tenant from a damaged frame — and
/// the donor-side rollback (re-admitting from the intact copy) must
/// restore single ownership.
#[test]
fn damaged_admit_frame_is_never_admitted_and_rolls_back() {
    let mut rng = SplitMix64::from_env(0xF1A6_0004);
    let h = harness(4);

    let Response::Evicted(Some(wire)) = rpc(
        &h.transport,
        "shard-0",
        &Request::Evict {
            tenant: "t00".into(),
        },
    ) else {
        panic!("eviction must yield a wire frame");
    };
    h.nodes[0].with_shard(|s| assert!(!s.has_workload("t00"), "evicted off the donor"));

    // A seeded batch of corruptions of the *nested handoff frame* —
    // every one must be rejected by the receiver's validation.
    for round in 0..200 {
        let mut bad = wire.clone();
        let byte = rng.next_range(bad.len() as u64) as usize;
        match rng.next_range(2) {
            0 => bad[byte] ^= 1 << rng.next_range(8),
            _ => bad.truncate(byte),
        }
        if bad == wire {
            continue;
        }
        let response = rpc(&h.transport, "shard-1", &Request::Admit { frame: bad });
        assert!(
            matches!(response, Response::Error(_)),
            "round {round}: damaged admit frame must be rejected"
        );
        h.nodes[1].with_shard(|s| {
            assert!(
                !s.has_workload("t00"),
                "round {round}: tenant admitted from a damaged frame"
            );
        });
    }
    // The receiver never bound the escrowed source either — rejection
    // happens before binding.
    assert!(h.escrow.parked().contains(&"t00".to_string()));

    // Rollback: the intact frame re-admits on the donor.
    let response = rpc(&h.transport, "shard-0", &Request::Admit { frame: wire });
    assert!(matches!(response, Response::Done), "rollback re-admits");
    h.nodes[0].with_shard(|s| assert!(s.has_workload("t00")));
    h.nodes[1].with_shard(|s| assert!(!s.has_workload("t00")));
}

/// The same guarantee end-to-end: corruption injected by the transport
/// itself mid-balance-round. The round records a Failed handoff, the
/// donor keeps the tenant, the receiver never sees it.
#[test]
fn transport_corruption_mid_round_records_failed_handoff_and_keeps_ownership() {
    let transport = Arc::new(FaultedTransport::new(
        Arc::new(LoopbackTransport::new()),
        0x100B_BAC4,
    ));
    let escrow = SourceEscrow::new();
    let mut nodes = Vec::new();
    let mut handles = Vec::new();
    for shard in 0..2 {
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
    let cfg = kairos_fleet::FleetConfig {
        shards: 2,
        shard: quick_cfg(),
        balancer: kairos_fleet::BalancerConfig {
            machines_per_shard: 2,
            balance_every: 4,
            max_moves_per_round: 2,
            cooldown_rounds: 0,
            ..Default::default()
        },
        tick_threads: 1,
    };
    let endpoints = vec!["shard-0".to_string(), "shard-1".to_string()];
    let mut balancer =
        BalancerNode::connect(cfg, LeaseConfig::default(), transport.clone(), &endpoints)
            .expect("balancer connects");
    // Shard 0 heavy (must shed), shard 1 light (can admit).
    for i in 0..8 {
        let name = format!("heavy-{i:02}");
        escrow.park(Box::new(flat(&name, 400.0)));
        balancer.add_workload_to(0, &name, 1).expect("registers");
    }
    for i in 0..2 {
        let name = format!("light-{i}");
        escrow.park(Box::new(flat(&name, 100.0)));
        balancer.add_workload_to(1, &name, 1).expect("registers");
    }

    // Arm the targeted fault before anything moves: the next Admit
    // frame reaching shard-1 is damaged in flight. Reservations, ticks
    // and summaries all flow clean — only the handshake's transfer
    // phase breaks, which is exactly the window the rollback protects.
    let admit_tag = kairos_net::rpc::wire_tag(&Request::Admit { frame: Vec::new() });
    transport.corrupt_next_calls_matching("shard-1", admit_tag, 1);

    let mut saw_failed = false;
    for _ in 0..80 {
        let report = balancer.tick();
        for handoff in &report.handoffs {
            if handoff.outcome == kairos_fleet::HandoffOutcome::Failed {
                saw_failed = true;
                assert_eq!(handoff.from, 0);
                assert_eq!(handoff.to, Some(1));
            }
        }
        if saw_failed && balancer.stats().handoffs_completed > 0 {
            break;
        }
    }
    let stats = balancer.stats();
    assert!(
        saw_failed,
        "the corrupted Admit must record a Failed handoff: {stats:?}"
    );
    assert_eq!(stats.handoffs_failed, 1, "exactly one damaged handshake");
    assert!(
        stats.handoffs_completed > 0,
        "later rounds (clean frames) must complete handoffs: {stats:?}"
    );
    // Ownership invariant: every mapped tenant lives on exactly the
    // shard the map says, nobody vanished or got duplicated.
    let owned: Vec<Vec<String>> = balancer
        .shard_workloads()
        .into_iter()
        .map(|w| w.expect("alive"))
        .collect();
    let total: usize = owned.iter().map(|w| w.len()).sum();
    assert_eq!(total, 10, "no tenant stranded or duplicated");
    for (shard, names) in owned.iter().enumerate() {
        for name in names {
            assert_eq!(balancer.map().shard_of(name), Some(shard));
        }
    }
}
