//! Failure handling at both levels of the network control plane, over
//! the deterministic loopback with injected partitions:
//!
//! 1. **Shard-node death + checkpoint rejoin** — a partitioned shard
//!    node misses its lease, the fleet keeps running around it (its
//!    summary reads unplanned: never a donor, never a receiver), and a
//!    replacement node restored from the shard's last checkpoint rejoins
//!    with its telemetry, placement and loop phase intact. Tenants that
//!    moved after the checkpoint are reconciled against the routing map.
//! 2. **Balancer death + deterministic standby promotion** — a standby
//!    watching the primary's lease endpoint promotes after its
//!    rank-scaled miss threshold, rebuilds the routing map from the
//!    shards (ground truth), and keeps balancing; a second standby with
//!    a higher rank stays down longer, so promotions cannot race.
//!
//! Seeded; CI sweeps `KAIROS_TEST_SEED`.

use kairos_controller::{ControllerConfig, SyntheticSource};
use kairos_fleet::{BalancerConfig, FleetConfig};
use kairos_net::{
    BalancerNode, FaultInjector, FaultedTransport, LeaseConfig, LoopbackTransport, ShardNode,
    SourceEscrow, StandbyAction, StandbyBalancer, Transport,
};
use kairos_types::{Bytes, SplitMix64};
use kairos_workloads::RatePattern;
use std::path::PathBuf;
use std::sync::Arc;

const SHARDS: usize = 2;
const TENANTS_PER_SHARD: usize = 6;

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

/// Tenant sources are reconstructible by name — the factory/rejoin
/// contract the whole restore path rests on.
fn make_source(name: &str, rng_tps: f64) -> SyntheticSource {
    SyntheticSource::new(
        name.to_string(),
        300.0,
        Bytes::gib(4),
        RatePattern::Flat { tps: rng_tps },
    )
    .with_noise(0.0)
}

/// `name → tps`, derived from the name so every rebuild agrees.
fn tps_of(name: &str, base: f64) -> f64 {
    let h = name
        .bytes()
        .fold(7u64, |a, b| a.wrapping_mul(31).wrapping_add(b as u64));
    base + (h % 80) as f64
}

struct Cluster {
    transport: Arc<FaultedTransport>,
    escrow: SourceEscrow,
    nodes: Vec<ShardNode>,
    handles: Vec<kairos_net::ServerHandle>,
    balancer: BalancerNode,
}

fn cluster(lease: LeaseConfig) -> Cluster {
    cluster_with(lease, fleet_cfg())
}

fn cluster_with(lease: LeaseConfig, cfg: FleetConfig) -> Cluster {
    let transport = Arc::new(FaultedTransport::new(
        Arc::new(LoopbackTransport::new()),
        0x100B_BAC4,
    ));
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
    let mut balancer = BalancerNode::connect(cfg, lease, transport.clone(), &endpoints)
        .expect("balancer connects");
    for shard in 0..SHARDS {
        for i in 0..TENANTS_PER_SHARD {
            let name = format!("s{shard}-t{i}");
            escrow.park(Box::new(make_source(&name, tps_of(&name, 180.0))));
            balancer
                .add_workload_to(shard, &name, 1)
                .expect("registers");
        }
    }
    Cluster {
        transport,
        escrow,
        nodes,
        handles,
        balancer,
    }
}

fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kairos-net-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("checkpoint dir");
    dir
}

#[test]
fn dead_shard_is_detected_skipped_and_rejoins_from_checkpoint() {
    let _rng = SplitMix64::from_env(0xFA11_0001);
    let lease = LeaseConfig { miss_limit: 3 };
    let mut c = cluster(lease);
    let dir = ckpt_dir("rejoin");
    let dir_str = dir.to_string_lossy().to_string();

    // Run until both shards planned, then checkpoint.
    for _ in 0..20 {
        c.balancer.tick();
    }
    let results = c.balancer.checkpoint_shards(&dir_str);
    let ckpt_path = results[1].as_ref().expect("shard 1 checkpointed").clone();
    let ticks_at_ckpt = c.nodes[1].with_shard(|s| s.stats().ticks);

    // Kill shard 1: partition its endpoint. The lease must expire after
    // exactly miss_limit failed ticks.
    c.transport.partition("shard-1");
    for i in 0..3 {
        let report = c.balancer.tick();
        assert!(
            report.outcomes[1].is_none(),
            "tick {i}: no outcome from a dead node"
        );
    }
    assert_eq!(c.balancer.down_shards(), vec![1], "lease expired");

    // The fleet keeps running around the hole — ticks flow to shard 0,
    // balance rounds treat shard 1 as unplanned (no donor, no receiver).
    for _ in 0..6 {
        let report = c.balancer.tick();
        assert!(report.outcomes[0].is_some());
        assert!(report.outcomes[1].is_none());
        for handoff in &report.handoffs {
            assert_ne!(handoff.to, Some(1), "no handoff may target a dead shard");
            assert_ne!(handoff.from, 1, "no handoff may leave a dead shard");
        }
    }

    // "Restart the process": restore a fresh node from the checkpoint.
    // The escrow has no live sources for it (they died with the node) —
    // park reconstructed, fast-forwarded ones first, exactly what a
    // supervising process does.
    let down_ticks = c.balancer.stats().ticks; // how far the world moved on
    assert!(down_ticks > ticks_at_ckpt);
    let restored_names: Vec<String> = (0..TENANTS_PER_SHARD).map(|i| format!("s1-t{i}")).collect();
    for name in &restored_names {
        let src = make_source(name, tps_of(name, 180.0)).fast_forward(ticks_at_ckpt);
        c.escrow.park(Box::new(src));
    }
    let restored = ShardNode::restore_from(
        quick_cfg(),
        kairos_core::ConsolidationEngine::builder().build(),
        std::path::Path::new(&ckpt_path),
        Box::new(c.escrow.clone()),
    )
    .expect("checkpoint restores");
    restored.with_shard(|s| {
        assert_eq!(s.stats().ticks, ticks_at_ckpt, "loop phase restored");
        assert!(s.planned_once(), "plan survived the death");
        assert!(s.detached_workloads().is_empty(), "all sources re-bound");
    });
    // Serve at a NEW endpoint (the old one is still partitioned — like a
    // process restarted on a new port) and rejoin.
    c.handles.push(
        restored
            .serve(c.transport.as_ref(), "shard-1-reborn")
            .expect("serves"),
    );
    c.balancer.rejoin(1, "shard-1-reborn").expect("rejoins");
    assert!(c.balancer.down_shards().is_empty(), "lease renewed");

    // The rejoined shard participates again: ticks flow, membership is
    // intact, audits complete.
    for _ in 0..8 {
        let report = c.balancer.tick();
        assert!(report.outcomes[1].is_some(), "rejoined shard ticks");
    }
    let workloads = c.balancer.shard_workloads();
    assert_eq!(
        workloads[1].as_ref().expect("alive").len(),
        TENANTS_PER_SHARD,
        "membership preserved across death + rejoin"
    );
    let audit = c.balancer.audit();
    assert!(audit.complete(), "every shard audits after rejoin");
    assert!(audit.zero_violations());

    c.nodes.push(restored);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rejoin_reconciles_tenants_moved_after_the_checkpoint() {
    let lease = LeaseConfig { miss_limit: 2 };
    let mut c = cluster(lease);
    let dir = ckpt_dir("reconcile");
    let dir_str = dir.to_string_lossy().to_string();

    for _ in 0..20 {
        c.balancer.tick();
    }
    // Checkpoint shard 1 while it still owns s1-t0 …
    let results = c.balancer.checkpoint_shards(&dir_str);
    let ckpt_path = results[1].as_ref().expect("checkpointed").clone();
    let ticks_at_ckpt = c.nodes[1].with_shard(|s| s.stats().ticks);

    // … then move s1-t0 to shard 0 through the real two-phase handshake
    // (simulating a post-checkpoint handoff), and kill shard 1.
    {
        let mut donor_conn = c.transport.connect("shard-1").expect("connects");
        let kairos_net::Response::Evicted(Some(wire)) = kairos_net::rpc::call(
            donor_conn.as_mut(),
            &kairos_net::Request::Evict {
                tenant: "s1-t0".into(),
            },
        )
        .expect("evicts") else {
            panic!("eviction must yield a frame");
        };
        let mut recv_conn = c.transport.connect("shard-0").expect("connects");
        let response = kairos_net::rpc::call(
            recv_conn.as_mut(),
            &kairos_net::Request::Admit { frame: wire },
        )
        .expect("admits");
        assert!(matches!(response, kairos_net::Response::Done));
    }
    // Keep the routing truth in step (the balancer would have done this
    // in its own round).
    c.balancer.reroute("s1-t0", 0);

    c.transport.partition("shard-1");
    for _ in 0..2 {
        c.balancer.tick();
    }
    assert_eq!(c.balancer.down_shards(), vec![1]);

    // Restore shard 1 from the PRE-handoff checkpoint: it believes it
    // still owns s1-t0.
    for i in 0..TENANTS_PER_SHARD {
        let name = format!("s1-t{i}");
        let src = make_source(&name, tps_of(&name, 180.0)).fast_forward(ticks_at_ckpt);
        c.escrow.park(Box::new(src));
    }
    let restored = ShardNode::restore_from(
        quick_cfg(),
        kairos_core::ConsolidationEngine::builder().build(),
        std::path::Path::new(&ckpt_path),
        Box::new(c.escrow.clone()),
    )
    .expect("restores");
    restored.with_shard(|s| assert!(s.has_workload("s1-t0"), "stale copy present pre-rejoin"));
    c.handles.push(
        restored
            .serve(c.transport.as_ref(), "shard-1-reborn")
            .expect("serves"),
    );
    c.balancer.rejoin(1, "shard-1-reborn").expect("rejoins");

    // Reconciliation: the map routes s1-t0 to shard 0, so the restored
    // node must have dropped its stale copy — single ownership holds.
    restored.with_shard(|s| {
        assert!(
            !s.has_workload("s1-t0"),
            "rejoin must retire the stale pre-checkpoint copy"
        );
    });
    c.nodes[0].with_shard(|s| assert!(s.has_workload("s1-t0")));
    let workloads = c.balancer.shard_workloads();
    let total: usize = workloads
        .iter()
        .map(|w| w.as_ref().expect("alive").len())
        .sum();
    assert_eq!(
        total,
        SHARDS * TENANTS_PER_SHARD,
        "nobody lost, nobody doubled"
    );

    c.nodes.push(restored);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The parked-lot-survives-promotion regression test (chaos satellite):
/// a double-faulted handoff parks a tenant in the primary's lot; the
/// primary then dies before the next round can resolve it. The old
/// promotion path rebuilt only the routing map from `Workloads`, so the
/// tenant — owned by *no* shard, alive only in the donor's evict outbox
/// — stayed stranded until a manual rejoin. Promotion must instead
/// rebuild the lot probe-first from shard ground truth and recover the
/// tenant where its frame lives.
#[test]
fn promotion_rebuilds_the_parked_lot_from_shard_ground_truth() {
    // A 2-machine budget makes shard 0 a donor the moment the heavies
    // land, so the double fault hits the very next balance round.
    let shed_cfg = || FleetConfig {
        shards: SHARDS,
        shard: quick_cfg(),
        balancer: BalancerConfig {
            machines_per_shard: 2,
            balance_every: 4,
            max_moves_per_round: 2,
            cooldown_rounds: 0,
            ..BalancerConfig::default()
        },
        tick_threads: 1,
    };
    let lease = LeaseConfig { miss_limit: 2 };
    let mut c = cluster_with(lease, shed_cfg());

    let lease_handle = c
        .balancer
        .serve_lease(c.transport.as_ref(), "balancer-0")
        .expect("lease endpoint serves");
    let endpoints: Vec<String> = (0..SHARDS).map(|s| format!("shard-{s}")).collect();
    let standby_node = BalancerNode::connect(shed_cfg(), lease, c.transport.clone(), &endpoints)
        .expect("standby connects");
    let mut standby = StandbyBalancer::new(standby_node, "balancer-0", 1);

    // Both shards plan under a healthy primary.
    for _ in 0..20 {
        c.balancer.tick();
        assert_eq!(standby.watch_tick(), StandbyAction::Watching);
    }

    // Overload shard 0 so the next balance round must shed to shard 1.
    let heavies: Vec<String> = (0..4).map(|i| format!("s0-heavy{i}")).collect();
    for name in &heavies {
        c.escrow
            .park(Box::new(make_source(name, tps_of(name, 600.0))));
        c.balancer.add_workload_to(0, name, 1).expect("registers");
    }

    // Double-fault the upcoming handshake: the receiver's next Admit
    // arrives damaged (rejected with zero state change), and so does
    // the probe-first Owns that follows — the balancer can neither
    // complete nor safely roll back, so the tenant parks. Matching
    // rules queue on the FaultPlan, so both are armed up front.
    let admit_tag = kairos_net::rpc::wire_tag(&kairos_net::Request::Admit { frame: Vec::new() });
    let owns_tag = kairos_net::rpc::wire_tag(&kairos_net::Request::Owns {
        tenant: String::new(),
    });
    c.transport
        .corrupt_next_calls_matching("shard-1", admit_tag, 1);
    c.transport
        .corrupt_next_calls_matching("shard-1", owns_tag, 1);

    let mut parked = Vec::new();
    for _ in 0..16 {
        c.balancer.tick();
        parked = c.balancer.parked_handoffs();
        if !parked.is_empty() {
            break;
        }
        assert_eq!(standby.watch_tick(), StandbyAction::Watching);
    }
    assert!(!parked.is_empty(), "the double fault must park a handoff");
    let (stray, donor, _) = parked[0].clone();
    // The limbo state: evicted at the donor, rejected at the receiver —
    // owned by nobody, alive only as the donor's outbox frame.
    c.nodes[0].with_shard(|s| assert!(!s.has_workload(&stray)));
    c.nodes[1].with_shard(|s| assert!(!s.has_workload(&stray)));

    // The primary dies with the lot in its memory — the triple fault.
    lease_handle.stop();
    drop(c.balancer);
    let mut promoted_at = None;
    for watch in 0..8 {
        if standby.watch_tick() == StandbyAction::Promote {
            promoted_at = Some(watch);
            break;
        }
    }
    assert_eq!(
        promoted_at,
        Some(3),
        "rank 1 promotes after 2 misses + 2 frozen-fleet confirmations"
    );
    let mut promoted = match standby.promote() {
        Ok(promoted) => promoted,
        Err((_, e)) => panic!("all shards reachable, promotion must succeed: {e}"),
    };

    // The regression: promotion found the stray in the donor's evict
    // outbox and re-admitted it there — routed, owned, explained.
    assert_eq!(
        promoted.map().shard_of(&stray),
        Some(donor),
        "stray tenant re-routed at promotion"
    );
    c.nodes[donor].with_shard(|s| {
        assert!(
            s.has_workload(&stray),
            "re-admitted at the shard whose outbox held it"
        )
    });
    assert!(
        promoted.parked_handoffs().is_empty(),
        "recovered outright, not merely re-parked"
    );
    assert!(
        promoted.trace_events().iter().any(|e| matches!(
            &e.event,
            kairos_obs::DecisionEvent::ParkedRetried { tenant, resolution, .. }
                if tenant == &stray && resolution == "recovered-at-promotion"
        )),
        "the decision trace explains the recovery"
    );

    // Ownership conservation across map + nodes: nobody lost, nobody
    // doubled, and the map agrees with every shard's ground truth.
    let workloads = promoted.shard_workloads();
    let mut seen = std::collections::BTreeSet::new();
    let mut total = 0usize;
    for (shard, names) in workloads.iter().enumerate() {
        for name in names.as_ref().expect("alive") {
            assert!(seen.insert(name.clone()), "{name} owned twice");
            assert_eq!(
                promoted.map().shard_of(name),
                Some(shard),
                "map agrees with shard ground truth for {name}"
            );
            total += 1;
        }
    }
    assert_eq!(total, SHARDS * TENANTS_PER_SHARD + heavies.len());

    // And the fleet keeps running clean under the new primary.
    for _ in 0..8 {
        let report = promoted.tick();
        assert!(report.down.is_empty());
    }
    let audit = promoted.audit();
    assert!(audit.complete());
    assert!(audit.zero_violations());
}

/// A fleet config that makes shard 0 shed the moment heavies land, so
/// a double fault can park a handoff on the very next balance round.
fn shed_cfg() -> FleetConfig {
    FleetConfig {
        shards: SHARDS,
        shard: quick_cfg(),
        balancer: BalancerConfig {
            machines_per_shard: 2,
            balance_every: 4,
            max_moves_per_round: 2,
            cooldown_rounds: 2,
            ..BalancerConfig::default()
        },
        tick_threads: 1,
    }
}

/// Drive the primary until a double-faulted handshake parks a tenant:
/// overload shard 0 with heavies, arm one corrupted Admit and one
/// corrupted Owns at the receiver, and tick (watching alongside) until
/// the lot is non-empty. Returns the parked `(tenant, donor)`.
fn park_a_handoff(c: &mut Cluster, standby: &mut StandbyBalancer) -> (String, usize) {
    let heavies: Vec<String> = (0..4).map(|i| format!("s0-heavy{i}")).collect();
    for name in &heavies {
        c.escrow
            .park(Box::new(make_source(name, tps_of(name, 600.0))));
        c.balancer.add_workload_to(0, name, 1).expect("registers");
    }
    let admit_tag = kairos_net::rpc::wire_tag(&kairos_net::Request::Admit { frame: Vec::new() });
    let owns_tag = kairos_net::rpc::wire_tag(&kairos_net::Request::Owns {
        tenant: String::new(),
    });
    c.transport
        .corrupt_next_calls_matching("shard-1", admit_tag, 1);
    c.transport
        .corrupt_next_calls_matching("shard-1", owns_tag, 1);
    let mut parked = Vec::new();
    for _ in 0..16 {
        c.balancer.tick();
        standby.watch_tick();
        parked = c.balancer.parked_handoffs();
        if !parked.is_empty() {
            break;
        }
    }
    assert!(!parked.is_empty(), "the double fault must park a handoff");
    let (stray, donor, _) = parked[0].clone();
    (stray, donor)
}

/// The balancer-state-replication regression (this PR's tentpole): the
/// primary streams its soft state to a synced standby each round; when
/// the primary dies mid-handoff — a tenant parked, cooldowns hot, an
/// audit log accumulated — the promoted standby must resume with
/// cooldown memory, parked lot, audit log and gate **byte-identical**
/// to the dead primary's last capture, not rebuilt approximations.
#[test]
fn promotion_resumes_replicated_soft_state_byte_identical() {
    let lease = LeaseConfig { miss_limit: 2 };
    let mut c = cluster_with(lease, shed_cfg());
    let lease_handle = c
        .balancer
        .serve_lease(c.transport.as_ref(), "balancer-0")
        .expect("lease endpoint serves");
    let endpoints: Vec<String> = (0..SHARDS).map(|s| format!("shard-{s}")).collect();
    let standby_node = BalancerNode::connect(shed_cfg(), lease, c.transport.clone(), &endpoints)
        .expect("standby connects");
    let mut standby = StandbyBalancer::new(standby_node, "balancer-0", 1);
    standby
        .serve_sync(c.transport.as_ref(), "standby-sync")
        .expect("sync endpoint serves");
    c.balancer.add_standby_sync("standby-sync");

    for _ in 0..20 {
        c.balancer.tick();
        assert_eq!(standby.watch_tick(), StandbyAction::Watching);
    }
    let (stray, donor) = park_a_handoff(&mut c, &mut standby);

    // The park happened inside a balance round, and every round syncs:
    // the standby already holds this exact state.
    let expected = c.balancer.soft_state();
    assert_eq!(
        standby.replicated_round(),
        Some(expected.round),
        "standby is current through the parking round"
    );
    let lag = c
        .balancer
        .metrics_registry()
        .gauge("kairos_fleet_sync_lag_rounds")
        .get();
    assert_eq!(lag, 0.0, "no sync lag while the standby acks every round");
    assert!(
        !expected.cooldown.is_empty(),
        "completed handoffs must have left cooldown memory to replicate"
    );
    assert!(!expected.handoffs.is_empty(), "audit log non-empty");

    // Primary dies mid-handoff; rank 1 promotes deterministically.
    lease_handle.stop();
    drop(c.balancer);
    let mut promoted_at = None;
    for watch in 0..8 {
        if standby.watch_tick() == StandbyAction::Promote {
            promoted_at = Some(watch);
            break;
        }
    }
    assert_eq!(promoted_at, Some(3));
    let mut promoted = match standby.promote() {
        Ok(promoted) => promoted,
        Err((_, e)) => panic!("all shards reachable, promotion must succeed: {e}"),
    };

    // Byte-identical resume: same round, same cooldowns, same parked
    // lot (wire frames included), same audit log, same gate. Only the
    // fleet tick moves on (adopted from the most advanced shard).
    let mut resumed = promoted.soft_state();
    assert_eq!(resumed.round, expected.round, "round resumes, not resets");
    assert!(resumed.tick >= expected.tick);
    resumed.tick = expected.tick;
    assert_eq!(
        resumed.to_frame(),
        expected.to_frame(),
        "replicated soft state must survive promotion byte-for-byte"
    );
    assert!(
        promoted
            .trace_events()
            .iter()
            .any(|e| matches!(&e.event, kairos_obs::DecisionEvent::StandbySynced { .. })),
        "the standby's trace explains what it received"
    );
    // The stray is still parked — resumed, not re-probed into a
    // different resolution — and the *next* rounds drain it with its
    // real donor/receiver context, converging clean.
    assert!(promoted
        .parked_handoffs()
        .iter()
        .any(|(tenant, _, _)| tenant == &stray));
    for _ in 0..16 {
        promoted.tick();
        if promoted.parked_handoffs().is_empty() {
            break;
        }
    }
    assert!(
        promoted.parked_handoffs().is_empty(),
        "parked lot drains under the promoted primary"
    );
    assert!(
        promoted.map().shard_of(&stray).is_some(),
        "the parked tenant lands somewhere routed"
    );
    // Settle: a freshly (re-)admitted tenant joins its shard's
    // placement on the next replan, so give the fleet a bounded run
    // before demanding a complete audit — same discipline as the chaos
    // harness's settle phase.
    for _ in 0..24 {
        promoted.tick();
        if promoted.audit().complete() {
            break;
        }
    }
    let audit = promoted.audit();
    assert!(audit.complete());
    assert!(audit.zero_violations());
    let _ = donor;
}

/// The fallback leg: the standby's sync endpoint is partitioned away
/// *before* the round that parks the tenant, so the replicated state
/// is stale — the parked tenant exists only in the donor's evict
/// outbox. Promotion must fall back to the probe-first ground-truth
/// rebuild for exactly the delta the stale frame missed, while still
/// resuming the (older) replicated cooldowns and audit log.
#[test]
fn promotion_falls_back_to_outbox_probe_when_sync_lagged() {
    let lease = LeaseConfig { miss_limit: 2 };
    let mut c = cluster_with(lease, shed_cfg());
    let lease_handle = c
        .balancer
        .serve_lease(c.transport.as_ref(), "balancer-0")
        .expect("lease endpoint serves");
    let endpoints: Vec<String> = (0..SHARDS).map(|s| format!("shard-{s}")).collect();
    let standby_node = BalancerNode::connect(shed_cfg(), lease, c.transport.clone(), &endpoints)
        .expect("standby connects");
    let mut standby = StandbyBalancer::new(standby_node, "balancer-0", 1);
    standby
        .serve_sync(c.transport.as_ref(), "standby-sync")
        .expect("sync endpoint serves");
    c.balancer.add_standby_sync("standby-sync");

    for _ in 0..20 {
        c.balancer.tick();
        assert_eq!(standby.watch_tick(), StandbyAction::Watching);
    }
    let synced_round = standby.replicated_round().expect("synced while healthy");

    // Sync goes dark *before* the parking round: everything from here
    // on is delta the standby never sees.
    c.transport.partition("standby-sync");
    let (stray, donor) = park_a_handoff(&mut c, &mut standby);
    assert_eq!(
        standby.replicated_round(),
        Some(synced_round),
        "the parking round must not have reached the standby"
    );
    let lag = c
        .balancer
        .metrics_registry()
        .gauge("kairos_fleet_sync_lag_rounds")
        .get();
    assert!(lag > 0.0, "the primary's gauge exposes the sync lag");

    lease_handle.stop();
    drop(c.balancer);
    let mut promoted_at = None;
    for watch in 0..8 {
        if standby.watch_tick() == StandbyAction::Promote {
            promoted_at = Some(watch);
            break;
        }
    }
    assert_eq!(promoted_at, Some(3));
    let mut promoted = match standby.promote() {
        Ok(promoted) => promoted,
        Err((_, e)) => panic!("all shards reachable, promotion must succeed: {e}"),
    };

    // The stale frame knew nothing of the stray; the outbox probe did:
    // recovered at the shard whose outbox held the frame, and the
    // trace says so.
    assert_eq!(
        promoted.map().shard_of(&stray),
        Some(donor),
        "stray recovered from the donor's evict outbox despite stale sync"
    );
    c.nodes[donor].with_shard(|s| assert!(s.has_workload(&stray)));
    assert!(
        promoted.trace_events().iter().any(|e| matches!(
            &e.event,
            kairos_obs::DecisionEvent::ParkedRetried { tenant, resolution, .. }
                if tenant == &stray && resolution == "recovered-at-promotion"
        )),
        "the decision trace explains the fallback recovery"
    );
    // Ownership conservation: nobody lost, nobody doubled.
    let workloads = promoted.shard_workloads();
    let mut seen = std::collections::BTreeSet::new();
    for (shard, names) in workloads.iter().enumerate() {
        for name in names.as_ref().expect("alive") {
            assert!(seen.insert(name.clone()), "{name} owned twice");
            assert_eq!(promoted.map().shard_of(name), Some(shard));
        }
    }
    assert_eq!(seen.len(), SHARDS * TENANTS_PER_SHARD + 4);
    // Settle until the recovered tenant is planned into a placement
    // (bounded, same discipline as the chaos harness's settle phase).
    for _ in 0..24 {
        let report = promoted.tick();
        assert!(report.down.is_empty());
        if promoted.audit().complete() {
            break;
        }
    }
    let audit = promoted.audit();
    assert!(audit.complete());
    assert!(audit.zero_violations());
}

#[test]
fn standby_promotes_deterministically_when_the_balancer_dies() {
    let lease = LeaseConfig { miss_limit: 2 };
    let mut c = cluster(lease);

    // Primary serves its lease endpoint; two standbys (ranks 1 and 2)
    // watch it. Rank ordering is the determinism: rank 1's threshold is
    // 2 misses, rank 2's is 4 — rank 1 always takes over first.
    let lease_handle = c
        .balancer
        .serve_lease(c.transport.as_ref(), "balancer-0")
        .expect("lease endpoint serves");
    let endpoints: Vec<String> = (0..SHARDS).map(|s| format!("shard-{s}")).collect();
    let standby_node = BalancerNode::connect(fleet_cfg(), lease, c.transport.clone(), &endpoints)
        .expect("standby connects");
    let mut standby = StandbyBalancer::new(standby_node, "balancer-0", 1);
    let second_node = BalancerNode::connect(fleet_cfg(), lease, c.transport.clone(), &endpoints)
        .expect("second standby connects");
    let mut second = StandbyBalancer::new(second_node, "balancer-0", 2);

    // Healthy primary: standbys watch quietly.
    for _ in 0..20 {
        c.balancer.tick();
        assert_eq!(standby.watch_tick(), StandbyAction::Watching);
        assert_eq!(second.watch_tick(), StandbyAction::Watching);
    }
    let handoffs_before = c.balancer.stats().handoffs_completed;
    let map_before: Vec<Vec<String>> = (0..SHARDS)
        .map(|s| c.balancer.map().tenants_of(s))
        .collect();

    // The primary dies: stop serving its lease (and stop ticking).
    lease_handle.stop();
    drop(c.balancer);

    // Rank 1 reaches its threshold (2 misses) and then needs two
    // consecutive frozen-fleet confirmations — the split-brain guard —
    // so it promotes on its fourth watch; rank 2's threshold alone is
    // 4 misses, so it is still counting.
    let mut promoted_at = None;
    for watch in 0..8 {
        let first = standby.watch_tick();
        let second_action = second.watch_tick();
        if first == StandbyAction::Promote && promoted_at.is_none() {
            promoted_at = Some(watch);
        }
        if promoted_at.is_some() {
            assert_eq!(
                second_action,
                StandbyAction::Watching,
                "rank 2 must still be waiting when rank 1 promotes"
            );
            break;
        }
    }
    assert_eq!(
        promoted_at,
        Some(3),
        "rank 1 promotes after 2 misses + 2 consecutive frozen-fleet confirmations"
    );

    // Promotion rebuilds the map from the shards — ground truth.
    let mut promoted = match standby.promote() {
        Ok(promoted) => promoted,
        Err((_, e)) => panic!("all shards reachable, promotion must succeed: {e}"),
    };
    for (shard, expected) in map_before.iter().enumerate() {
        assert_eq!(
            &promoted.map().tenants_of(shard),
            expected,
            "promoted map must match the shards' actual ownership"
        );
    }

    // The promoted balancer keeps the fleet healthy…
    for _ in 0..12 {
        let report = promoted.tick();
        assert!(report.down.is_empty());
        // …and its activity holds rank 2 back indefinitely: the lease
        // endpoint is still dead, but the fleet is moving — the
        // split-brain guard must never let a second balancer activate.
        assert_eq!(
            second.watch_tick(),
            StandbyAction::Watching,
            "rank 2 must hold while the promoted balancer drives the fleet"
        );
    }
    let audit = promoted.audit();
    assert!(audit.complete());
    assert!(audit.zero_violations());
    // Its stats continue from the shards' tick line, not from zero.
    assert!(promoted.stats().ticks > 20);
    let _ = handoffs_before;
}

/// The health-watchdog regression (observability tentpole): armed with
/// the default rule catalog, the balancer's watchdog must stay silent
/// while the fleet is healthy, flag a **growing standby sync lag**
/// (critical) once the sync endpoint goes dark, flag a **parked
/// handoff aging past its round budget** (critical) when every retry
/// keeps failing, serve both findings over the lease endpoint's
/// `Health` RPC, and clear the lag finding once sync heals.
#[test]
fn watchdog_flags_induced_sync_lag_and_aged_parked_handoffs() {
    let lease = LeaseConfig { miss_limit: 2 };
    let mut c = cluster_with(lease, shed_cfg());
    c.balancer
        .set_health(Some(kairos_obs::HealthMonitor::new()));
    let _lease_handle = c
        .balancer
        .serve_lease(c.transport.as_ref(), "balancer-0")
        .expect("lease endpoint serves");
    let endpoints: Vec<String> = (0..SHARDS).map(|s| format!("shard-{s}")).collect();
    let standby_node = BalancerNode::connect(shed_cfg(), lease, c.transport.clone(), &endpoints)
        .expect("standby connects");
    let mut standby = StandbyBalancer::new(standby_node, "balancer-0", 1);
    standby
        .serve_sync(c.transport.as_ref(), "standby-sync")
        .expect("sync endpoint serves");
    c.balancer.add_standby_sync("standby-sync");

    // Clean leg: synced standby, nothing parked — the watchdog must
    // not page (the two critical rules stay quiet; wall-clock-shaped
    // warnings are tolerated, criticals are not).
    for _ in 0..24 {
        c.balancer.tick();
        assert_eq!(standby.watch_tick(), StandbyAction::Watching);
    }
    let clean = c.balancer.health_report().expect("watchdog armed");
    assert!(
        !clean.has_critical(),
        "healthy fleet must not page critical: {clean:?}"
    );
    assert!(
        clean
            .findings
            .iter()
            .all(|f| f.metric != "kairos_fleet_sync_lag_rounds"
                && f.metric != "kairos_fleet_parked_oldest_rounds"),
        "clean run flagged an induced-condition metric: {clean:?}"
    );

    // Induce sync lag: the standby's sync endpoint goes dark, so the
    // acked round freezes while the primary's round line advances —
    // the lag gauge grows every balance round and the trend rule must
    // fire critical.
    c.transport.partition("standby-sync");
    let mut lag_flagged = false;
    for _ in 0..60 {
        c.balancer.tick();
        let report = c.balancer.health_report().expect("armed");
        if report.findings.iter().any(|f| {
            f.rule == "gauge-growing"
                && f.metric == "kairos_fleet_sync_lag_rounds"
                && f.severity == kairos_obs::Severity::Critical
        }) {
            lag_flagged = true;
            break;
        }
    }
    assert!(lag_flagged, "growing sync lag must page critical");
    assert!(
        c.balancer.trace_events().iter().any(|e| matches!(
            &e.event,
            kairos_obs::DecisionEvent::HealthFlagged { metric, severity, .. }
                if metric == "kairos_fleet_sync_lag_rounds" && severity == "critical"
        )),
        "the flag transition lands in the decision trace"
    );

    // Induce an aged parked handoff: overload shard 0 so it must shed,
    // and corrupt every Admit/Owns at the receiver so each round's
    // retry fails and the tenant stays parked past the 8-round budget.
    let heavies: Vec<String> = (0..4).map(|i| format!("s0-heavy{i}")).collect();
    for name in &heavies {
        c.escrow
            .park(Box::new(make_source(name, tps_of(name, 600.0))));
        c.balancer.add_workload_to(0, name, 1).expect("registers");
    }
    let admit_tag = kairos_net::rpc::wire_tag(&kairos_net::Request::Admit { frame: Vec::new() });
    let owns_tag = kairos_net::rpc::wire_tag(&kairos_net::Request::Owns {
        tenant: String::new(),
    });
    c.transport
        .corrupt_next_calls_matching("shard-1", admit_tag, 500);
    c.transport
        .corrupt_next_calls_matching("shard-1", owns_tag, 500);
    let mut aged_flagged = false;
    for _ in 0..100 {
        c.balancer.tick();
        let report = c.balancer.health_report().expect("armed");
        if report.findings.iter().any(|f| {
            f.rule == "gauge-above"
                && f.metric == "kairos_fleet_parked_oldest_rounds"
                && f.severity == kairos_obs::Severity::Critical
        }) {
            aged_flagged = true;
            break;
        }
    }
    assert!(aged_flagged, "an aged parked handoff must page critical");

    // Both findings answerable over the lease endpoint's Health RPC —
    // what kairos-top scrapes.
    let mut conn = c.transport.connect("balancer-0").expect("connects");
    match kairos_net::rpc::call(conn.as_mut(), &kairos_net::Request::Health) {
        Ok(kairos_net::Response::Health(report)) => {
            assert!(report.has_critical(), "RPC-served report pages: {report:?}");
            assert!(report
                .findings
                .iter()
                .any(|f| f.metric == "kairos_fleet_parked_oldest_rounds"));
        }
        other => panic!("Health RPC answered {other:?}"),
    }

    // Sync heals: the standby catches up, the lag gauge stops growing,
    // and the trend finding clears (the parked lot may still be aging).
    c.transport.heal("standby-sync");
    let mut lag_cleared = false;
    for _ in 0..40 {
        c.balancer.tick();
        standby.watch_tick();
        let report = c.balancer.health_report().expect("armed");
        if !report
            .findings
            .iter()
            .any(|f| f.metric == "kairos_fleet_sync_lag_rounds")
        {
            lag_cleared = true;
            break;
        }
    }
    assert!(lag_cleared, "healed sync must clear the lag finding");
}
