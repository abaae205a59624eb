//! The tentpole property: a fleet run **over the RPC transport** is
//! tick-for-tick identical to the in-process `FleetController`.
//!
//! Two fleets are built from one seeded [`SplitMix64`] stream:
//!
//! * the **reference** — today's in-process `FleetController` (serial
//!   ticks, direct `ShardController` access);
//! * the **networked fleet** — one [`ShardNode`] per shard served over a
//!   transport, a [`BalancerNode`] driving ticks, balance rounds
//!   (through the *shared* `run_balance_round` policy), and audits
//!   purely over RPC, with live sources flowing through a
//!   [`SourceEscrow`].
//!
//! Every tick must agree: outcome signatures, handoff records (tick
//! stamps and all), and — on a cadence — the fleet audit **bit for bit**
//! (objective and violation f64 bit patterns). At the end: same
//! workloads, same placements, same stats.
//!
//! The transport defaults to the deterministic loopback;
//! `KAIROS_NET_TRANSPORT=tcp` reruns the same property over real
//! localhost sockets (CI runs both legs of the matrix), proving the
//! equivalence is a property of the RPC layer, not of the loopback's
//! synchronous dispatch.

use kairos_controller::{ControllerConfig, SyntheticSource, TickOutcome};
use kairos_fleet::{BalancerConfig, FleetConfig, FleetController};
use kairos_net::{BalancerNode, LeaseConfig, ShardNode, SourceEscrow, Transport};
use kairos_types::{Bytes, SplitMix64};
use kairos_workloads::RatePattern;
use std::sync::Arc;

const SHARDS: usize = 3;
const TENANTS_PER_SHARD: usize = 20;
const TICKS: u64 = 70;

fn config() -> FleetConfig {
    FleetConfig {
        shards: SHARDS,
        shard: ControllerConfig {
            horizon: 8,
            check_every: 4,
            cooldown_ticks: 8,
            // Exercise the scheduled refresh inside the equivalence run.
            profile_refresh_ticks: 8,
            ..ControllerConfig::default()
        },
        balancer: BalancerConfig {
            machines_per_shard: 6,
            balance_every: 5,
            max_moves_per_round: 4,
            ..BalancerConfig::default()
        },
        // The reference runs fully serial; the networked fleet is serial
        // by construction (RPC dispatch order = call order).
        tick_threads: 1,
    }
}

struct TenantSpec {
    shard: usize,
    name: String,
    replicas: u32,
    base: f64,
    spike: Option<(u64, f64)>,
}

fn tenant_specs(rng: &mut SplitMix64) -> Vec<TenantSpec> {
    let mut specs = Vec::new();
    for shard in 0..SHARDS {
        for i in 0..TENANTS_PER_SHARD {
            let base = rng.next_in(150.0, 280.0);
            let spike_tps = rng.next_in(520.0, 640.0);
            let spike_at = 22 + rng.next_range(10);
            // Shard 0 takes a regional flash crowd (its first eight
            // tenants always spike ~3×, blowing past the machine
            // budget) so every seed exercises drift re-solves AND
            // cross-shard handoffs — the equality checks are never
            // vacuous. A sprinkling of other tenants drifts too.
            let spikes = (shard == 0 && i < 8) || rng.next_range(6) == 0;
            specs.push(TenantSpec {
                shard,
                name: format!("s{shard}-t{i}"),
                replicas: if i == 0 { 2 } else { 1 },
                base,
                spike: spikes.then_some((spike_at, spike_tps)),
            });
        }
    }
    specs
}

fn make_source(spec: &TenantSpec) -> SyntheticSource {
    let src = SyntheticSource::new(
        spec.name.clone(),
        300.0,
        Bytes::gib(4),
        RatePattern::Flat { tps: spec.base },
    );
    match spec.spike {
        Some((at, tps)) => src.then_at(at, RatePattern::Flat { tps }),
        None => src,
    }
}

fn build_reference(specs: &[TenantSpec]) -> FleetController {
    let mut fleet = FleetController::new(config());
    for spec in specs {
        let src = Box::new(make_source(spec));
        if spec.replicas > 1 {
            fleet.add_workload_with_replicas(spec.shard, src, spec.replicas);
        } else {
            fleet.add_workload_to(spec.shard, src);
        }
    }
    for shard in 0..SHARDS {
        fleet.add_anti_affinity(&format!("s{shard}-t1"), &format!("s{shard}-t2"));
    }
    fleet
}

/// The transport under test: loopback by default, TCP when
/// `KAIROS_NET_TRANSPORT=tcp` (the CI matrix runs both).
fn transport() -> Arc<dyn Transport> {
    match std::env::var("KAIROS_NET_TRANSPORT").as_deref() {
        Ok("tcp") => Arc::new(kairos_net::TcpTransport::new()),
        _ => Arc::new(kairos_net::LoopbackTransport::new()),
    }
}

/// Endpoint name per shard: loopback names are symbolic; TCP binds
/// kernel-assigned localhost ports (the serve handle reports them).
fn bind_endpoint(shard: usize) -> String {
    match std::env::var("KAIROS_NET_TRANSPORT").as_deref() {
        Ok("tcp") => "127.0.0.1:0".to_string(),
        _ => format!("shard-{shard}"),
    }
}

fn outcome_sig(o: &TickOutcome) -> String {
    match o {
        TickOutcome::Bootstrapping => "boot".into(),
        TickOutcome::Idle => "idle".into(),
        TickOutcome::Stable => "stable".into(),
        TickOutcome::ProfileRefreshed { refreshed } => format!("refresh:{refreshed}"),
        TickOutcome::InitialPlan { machines, .. } => format!("init:m{machines}"),
        TickOutcome::Replanned(r) => format!(
            "replan:{:?}:feasible={}:moves={}:churn={:016x}:m{}:exec[{},{},{},{:016x},{}]",
            r.reason,
            r.feasible,
            r.moves,
            r.churn.to_bits(),
            r.machines,
            r.execution.steps,
            r.execution.moves,
            r.execution.provisions,
            r.execution.bytes_copied.to_bits(),
            r.execution.forced_steps,
        ),
    }
}

fn audit_bits(audit: &kairos_fleet::FleetAudit) -> Vec<Option<(u64, u64)>> {
    audit
        .per_shard
        .iter()
        .map(|e| {
            e.as_ref()
                .map(|e| (e.objective.to_bits(), e.violation.to_bits()))
        })
        .collect()
}

#[test]
fn rpc_fleet_is_tick_for_tick_identical_to_in_process() {
    let seed_rng = SplitMix64::from_env(0x4E7F_1EE7);
    let specs = tenant_specs(&mut seed_rng.clone());

    let mut reference = build_reference(&specs);

    // --- the networked fleet: nodes, escrow, balancer -------------------
    let transport = transport();
    let escrow = SourceEscrow::new();
    let mut nodes = Vec::new();
    let mut handles = Vec::new();
    for shard in 0..SHARDS {
        let node = ShardNode::new(
            config().shard,
            kairos_core::ConsolidationEngine::builder().build(),
            Box::new(escrow.clone()),
        );
        let handle = node
            .serve(transport.as_ref(), &bind_endpoint(shard))
            .expect("shard node serves");
        nodes.push(node);
        handles.push(handle);
    }
    let endpoints: Vec<String> = handles.iter().map(|h| h.endpoint.clone()).collect();
    let mut balancer = BalancerNode::connect(
        config(),
        LeaseConfig::default(),
        transport.clone(),
        &endpoints,
    )
    .expect("balancer connects");

    // Tenants reach their nodes through the escrow + AddWorkload RPC —
    // the registration crosses the wire, the live source does not.
    for spec in &specs {
        escrow.park(Box::new(make_source(spec)));
        balancer
            .add_workload_to(spec.shard, &spec.name, spec.replicas)
            .expect("registration");
    }
    for shard in 0..SHARDS {
        balancer
            .add_anti_affinity(&format!("s{shard}-t1"), &format!("s{shard}-t2"))
            .expect("anti-affinity registration");
    }
    assert!(escrow.parked().is_empty(), "every source was bound");

    // --- run both, comparing every tick ---------------------------------
    for tick in 0..TICKS {
        let a = reference.tick();
        let b = balancer.tick();
        assert!(b.down.is_empty(), "no shard may miss a lease here");
        let sig_a: Vec<String> = a.outcomes.iter().map(outcome_sig).collect();
        let sig_b: Vec<String> = b
            .outcomes
            .iter()
            .map(|o| outcome_sig(o.as_ref().expect("all shards alive")))
            .collect();
        assert_eq!(sig_a, sig_b, "tick {tick}: outcomes diverged over RPC");
        assert_eq!(
            a.handoffs, b.handoffs,
            "tick {tick}: balance rounds diverged over RPC"
        );
        if tick % 10 == 9 {
            let audit_a = reference.audit();
            let audit_b = balancer.audit();
            assert_eq!(audit_a.machines_used, audit_b.machines_used);
            assert_eq!(
                audit_bits(&audit_a),
                audit_bits(&audit_b),
                "tick {tick}: audits diverged bit-for-bit"
            );
        }
    }

    // The run must have exercised the interesting paths.
    let resolves: u64 = reference.shards().iter().map(|s| s.stats().resolves).sum();
    assert!(resolves > 0, "no shard ever re-solved; drift too weak");
    assert!(
        reference.stats().handoffs_completed > 0,
        "no handoffs; the two-phase RPC handshake went unexercised"
    );

    // --- end state ------------------------------------------------------
    assert_eq!(reference.handoffs(), balancer.handoffs());
    let (sa, sb) = (reference.stats(), balancer.stats());
    assert_eq!(sa.ticks, sb.ticks);
    assert_eq!(sa.balance_rounds, sb.balance_rounds);
    assert_eq!(sa.handoffs_completed, sb.handoffs_completed);
    assert_eq!(sa.handoffs_rejected, sb.handoffs_rejected);
    assert_eq!(sb.handoffs_failed, 0, "clean transport: no failed handoffs");
    for (shard, (ctrl, net_workloads)) in reference
        .shards()
        .iter()
        .zip(balancer.shard_workloads())
        .enumerate()
    {
        let net_workloads = net_workloads.expect("shard alive");
        assert_eq!(ctrl.workloads(), net_workloads, "shard {shard} membership");
        assert_eq!(
            reference.map().tenants_of(shard),
            balancer.map().tenants_of(shard),
            "shard {shard} routing"
        );
    }
    // Placements byte-for-byte, via the node side (the balancer holds no
    // placement state of its own — that is the point).
    for (shard, node) in nodes.iter().enumerate() {
        node.with_shard(|s| {
            assert_eq!(
                s.placement(),
                reference.shards()[shard].placement(),
                "shard {shard} placement"
            );
            let (na, nb) = (s.stats(), reference.shards()[shard].stats());
            assert_eq!(na.ticks, nb.ticks);
            assert_eq!(na.resolves, nb.resolves);
            assert_eq!(na.profile_refreshes, nb.profile_refreshes);
        });
    }

    // Decision traces: the in-process and RPC fleets must have recorded
    // **byte-identical** event streams — the balancer's donor/receiver
    // choices through the shared `run_balance_round` recorder, and each
    // shard's drift/re-solve history (fetched here over the `Trace`
    // RPC). This is the observability face of the equivalence property.
    assert!(
        !reference.trace_events().is_empty(),
        "reference fleet recorded no decisions; trace equality vacuous"
    );
    assert_eq!(
        reference.trace_bytes(),
        balancer.trace_bytes(),
        "fleet decision traces diverged between in-process and RPC"
    );
    for (shard, ctrl) in reference.shards().iter().enumerate() {
        let remote = balancer
            .shard_trace(shard)
            .expect("shard answers the Trace RPC");
        assert!(!remote.is_empty(), "shard {shard} trace crossed empty");
        assert_eq!(
            ctrl.trace_bytes(),
            remote,
            "shard {shard} decision traces diverged between in-process and RPC"
        );
    }

    // The Metrics RPC serves both renderings, and the balancer's own
    // registry carries the fleet counters the stats view mirrors.
    let (json, prometheus) = balancer
        .shard_metrics(0)
        .expect("shard answers the Metrics RPC");
    assert!(json.contains("\"kairos_shard_ticks_total\""));
    assert!(prometheus.contains("kairos_shard_ticks_total"));
    assert!(balancer
        .metrics_prometheus()
        .contains("kairos_fleet_handoffs_completed_total"));
}

/// The audit is one construction ([`kairos_fleet::BalancePlane::audit`])
/// fed by direct reads in-process and by RPCs over the wire — so the two
/// hosts' audits must agree in **every** field, bit for bit.
#[test]
fn audits_are_bit_identical_across_hosts() {
    fn full_bits(audit: &kairos_fleet::FleetAudit) -> String {
        let per_shard: Vec<String> = audit
            .per_shard
            .iter()
            .map(|e| match e {
                None => "none".to_string(),
                Some(e) => format!(
                    "{:016x}:{}:{:016x}:{}:{}:{:?}",
                    e.objective.to_bits(),
                    e.feasible,
                    e.violation.to_bits(),
                    e.machines_used,
                    e.moves_from_baseline,
                    e.loads
                ),
            })
            .collect();
        format!("{per_shard:?} machines={:?}", audit.machines_used)
    }

    let specs = tenant_specs(&mut SplitMix64::from_env(0x4E7F_1EE7));
    let cfg = config();
    let mut reference = FleetController::new(cfg);
    let transport = transport();
    let escrow = SourceEscrow::new();
    let mut nodes = Vec::new();
    let mut handles = Vec::new();
    for shard in 0..SHARDS {
        let node = ShardNode::new(
            cfg.shard,
            kairos_core::ConsolidationEngine::builder().build(),
            Box::new(escrow.clone()),
        );
        handles.push(
            node.serve(transport.as_ref(), &bind_endpoint(shard))
                .expect("shard node serves"),
        );
        nodes.push(node);
    }
    let endpoints: Vec<String> = handles.iter().map(|h| h.endpoint.clone()).collect();
    let mut balancer =
        BalancerNode::connect(cfg, LeaseConfig::default(), transport.clone(), &endpoints)
            .expect("balancer connects");
    for spec in &specs {
        let src = Box::new(make_source(spec));
        if spec.replicas > 1 {
            reference.add_workload_with_replicas(spec.shard, src, spec.replicas);
        } else {
            reference.add_workload_to(spec.shard, src);
        }
        escrow.park(Box::new(make_source(spec)));
        balancer
            .add_workload_to(spec.shard, &spec.name, spec.replicas)
            .expect("registration");
    }
    for shard in 0..SHARDS {
        let (a, b) = (format!("s{shard}-t1"), format!("s{shard}-t2"));
        reference.add_anti_affinity(&a, &b);
        balancer.add_anti_affinity(&a, &b).expect("anti-affinity");
    }

    let mut audits = Vec::new();
    for tick in 0..40u64 {
        reference.tick();
        balancer.tick();
        // Before the first plan (unevaluated shards), mid flash
        // crowd, and after the handoffs settle.
        if [3, 19, 29, 39].contains(&tick) {
            let (in_process, over_rpc) = (reference.audit(), balancer.audit());
            assert_eq!(
                full_bits(&in_process),
                full_bits(&over_rpc),
                "tick {tick}: the hosts' audits diverged"
            );
            audits.push(full_bits(&in_process));
        }
    }
    assert!(
        audits.iter().any(|a| !a.contains("none")),
        "no audit ever evaluated every shard; the equality is vacuous"
    );
    drop(handles);
}

/// One faulted run of the equivalence fleet: a skipped balance round, a
/// delayed one, and a checkpoint → kill → restore → rejoin of shard 1
/// mid-run — all transport-agnostic, so the property holds on both the
/// loopback and TCP legs of the CI matrix. Returns the behaviour
/// digest: balancer trace, per-shard traces, final membership.
fn faulted_run(tag: &str) -> (Vec<u8>, Vec<Vec<u8>>, Vec<Vec<String>>) {
    static RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "kairos-equiv-chaos-{}-{tag}-{}",
        std::process::id(),
        RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("checkpoint dir");

    let seed_rng = SplitMix64::from_env(0x4E7F_1EE7);
    let specs = tenant_specs(&mut seed_rng.clone());
    let transport = transport();
    let escrow = SourceEscrow::new();
    let mut nodes = Vec::new();
    let mut handles = Vec::new();
    for shard in 0..SHARDS {
        let node = ShardNode::new(
            config().shard,
            kairos_core::ConsolidationEngine::builder().build(),
            Box::new(escrow.clone()),
        );
        let handle = node
            .serve(transport.as_ref(), &bind_endpoint(shard))
            .expect("shard node serves");
        nodes.push(node);
        handles.push(handle);
    }
    let endpoints: Vec<String> = handles.iter().map(|h| h.endpoint.clone()).collect();
    let mut balancer = BalancerNode::connect(
        config(),
        LeaseConfig::default(),
        transport.clone(),
        &endpoints,
    )
    .expect("balancer connects");
    for spec in &specs {
        escrow.park(Box::new(make_source(spec)));
        balancer
            .add_workload_to(spec.shard, &spec.name, spec.replicas)
            .expect("registration");
    }

    let mut ckpt: Option<(String, u64, Vec<String>)> = None;
    for tick in 0..TICKS {
        match tick {
            // Post-round quiet spot (rounds run every 5 ticks): the
            // checkpoint and the kill straddle no handoff, so the
            // restored node needs no reconciliation — determinism of
            // the rejoin events is part of what the rerun asserts.
            26 => {
                let dir_str = dir.to_string_lossy().to_string();
                let results = balancer.checkpoint_shards(&dir_str);
                let path = results[1].as_ref().expect("shard 1 checkpoints").clone();
                let at = nodes[1].with_shard(|s| s.stats().ticks);
                let names = balancer.map().tenants_of(1);
                ckpt = Some((path, at, names));
            }
            28 => {
                // Kill shard 1 and bring it back from the checkpoint in
                // the same breath — no lease arithmetic involved, which
                // is what keeps this leg TCP-safe (an established TCP
                // conn keeps draining after stop(); the rejoin swaps
                // the link to the new endpoint either way).
                let (path, at, names) = ckpt.clone().expect("checkpointed at tick 26");
                handles.remove(1).stop();
                for name in &names {
                    let spec = specs
                        .iter()
                        .find(|s| &s.name == name)
                        .expect("known tenant");
                    escrow.park(Box::new(make_source(spec).fast_forward(at)));
                }
                let restored = ShardNode::restore_from(
                    config().shard,
                    kairos_core::ConsolidationEngine::builder().build(),
                    std::path::Path::new(&path),
                    Box::new(escrow.clone()),
                )
                .expect("checkpoint restores");
                let handle = restored
                    .serve(transport.as_ref(), &bind_endpoint(1))
                    .expect("restored shard serves");
                let endpoint = handle.endpoint.clone();
                nodes[1] = restored;
                handles.insert(1, handle);
                balancer.rejoin(1, &endpoint).expect("rejoins");
            }
            30 => balancer.skip_balance_rounds(1),
            40 => balancer.delay_balance_rounds(1),
            _ => {}
        }
        let report = balancer.tick();
        assert!(report.down.is_empty(), "tick {tick}: no lease may expire");
    }

    // Ownership conservation after the faulted run: every tenant owned
    // exactly once, the map agrees with shard ground truth, the lot is
    // empty, and audits converge.
    let mut seen = std::collections::BTreeSet::new();
    let mut membership = Vec::new();
    for (shard, names) in balancer.shard_workloads().into_iter().enumerate() {
        let names = names.expect("shard alive");
        for name in &names {
            assert!(seen.insert(name.clone()), "{name} owned twice");
            assert_eq!(
                balancer.map().shard_of(name),
                Some(shard),
                "map must agree with shard ground truth for {name}"
            );
        }
        membership.push(names);
    }
    assert_eq!(
        seen.len(),
        SHARDS * TENANTS_PER_SHARD,
        "nobody lost, nobody doubled across skip/delay/kill/restore"
    );
    assert!(
        balancer.parked_handoffs().is_empty(),
        "no handoff may stay parked after a clean-transport run"
    );
    let audit = balancer.audit();
    assert!(audit.complete(), "every shard audits after the rejoin");
    assert!(audit.zero_violations());

    let fleet_trace = balancer.trace_bytes();
    let shard_traces: Vec<Vec<u8>> = (0..SHARDS)
        .map(|s| balancer.shard_trace(s).expect("shard answers Trace RPC"))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (fleet_trace, shard_traces, membership)
}

#[test]
fn faulted_run_conserves_ownership_and_reruns_byte_identical() {
    let first = faulted_run("a");
    let second = faulted_run("b");
    assert_eq!(
        first.0, second.0,
        "fleet decision traces diverged between reruns of the same faulted schedule"
    );
    for (shard, (a, b)) in first.1.iter().zip(&second.1).enumerate() {
        assert_eq!(
            a, b,
            "shard {shard} decision traces diverged between reruns"
        );
    }
    assert_eq!(
        first.2, second.2,
        "final membership diverged between reruns"
    );
}

/// The spans-enabled leg of the equivalence property (observability
/// tentpole): with causal span tracing armed on both fleets, the span
/// logs — balancer roots, handoff children, shard-side evict/admit
/// spans chained through the frame's span section — must be
/// **record-identical** between the in-process reference and the RPC
/// fleet, on loopback and TCP alike (`KAIROS_NET_TRANSPORT=tcp`).
#[test]
fn spans_enabled_fleet_records_identical_trees_over_rpc() {
    let seed_rng = SplitMix64::from_env(0x4E7F_1EE7);
    let specs = tenant_specs(&mut seed_rng.clone());

    let mut reference = build_reference(&specs);
    reference.set_span_tracing(true);

    let transport = transport();
    let escrow = SourceEscrow::new();
    let mut nodes = Vec::new();
    let mut handles = Vec::new();
    for shard in 0..SHARDS {
        let node = ShardNode::new(
            config().shard,
            kairos_core::ConsolidationEngine::builder().build(),
            Box::new(escrow.clone()),
        );
        node.with_shard(|s| s.configure_spans(kairos_obs::span::node_for_shard(shard), true));
        let handle = node
            .serve(transport.as_ref(), &bind_endpoint(shard))
            .expect("shard node serves");
        nodes.push(node);
        handles.push(handle);
    }
    let endpoints: Vec<String> = handles.iter().map(|h| h.endpoint.clone()).collect();
    let mut balancer = BalancerNode::connect(
        config(),
        LeaseConfig::default(),
        transport.clone(),
        &endpoints,
    )
    .expect("balancer connects");
    balancer.set_span_tracing(true);
    for spec in &specs {
        escrow.park(Box::new(make_source(spec)));
        balancer
            .add_workload_to(spec.shard, &spec.name, spec.replicas)
            .expect("registration");
    }
    for shard in 0..SHARDS {
        balancer
            .add_anti_affinity(&format!("s{shard}-t1"), &format!("s{shard}-t2"))
            .expect("anti-affinity registration");
    }

    for _ in 0..TICKS {
        reference.tick();
        let report = balancer.tick();
        assert!(report.down.is_empty());
    }
    assert!(
        reference.stats().handoffs_completed > 0,
        "no handoffs; span chaining across the wire went unexercised"
    );

    // Balancer-side spans byte-identical; each shard's span log fetched
    // over the Spans RPC matches the reference shard's bytes exactly.
    assert!(
        !reference.span_log().is_empty(),
        "armed reference recorded no spans; equality vacuous"
    );
    assert_eq!(
        reference.span_log().span_bytes(),
        balancer.span_bytes(),
        "balancer span logs diverged between in-process and RPC"
    );
    for (shard, ctrl) in reference.shards().iter().enumerate() {
        let remote = balancer
            .shard_spans(shard)
            .expect("shard answers the Spans RPC");
        assert_eq!(
            ctrl.span_bytes(),
            remote,
            "shard {shard} span logs diverged between in-process and RPC"
        );
    }

    // And the handoff trace reconstructs as trees: every handoff span
    // hangs off a balance_round root, with its shard-side evict/admit
    // children chained through the frame's span section.
    let mut all = balancer.span_log().to_vec();
    for shard in 0..SHARDS {
        let bytes = balancer.shard_spans(shard).expect("alive");
        let records: Vec<kairos_obs::SpanRecord> = serde::from_bytes(&bytes).expect("decodes");
        all.extend(records);
    }
    let trees = kairos_obs::assemble_trees(&all);
    assert!(trees.iter().all(|t| t.span.name == "balance_round"));
    let cross_node = trees.iter().flat_map(|t| &t.children).find(|h| {
        h.span.name == "handoff"
            && h.children
                .iter()
                .any(|c| c.span.name == "evict" || c.span.name == "admit")
    });
    assert!(
        cross_node.is_some(),
        "no handoff span carried shard-side children across the transport"
    );
}

/// Wire-compat guard: a frame encoded without a span context is
/// **byte-identical** to the pre-span layout — magic, version word
/// (span flag clear), payload length, payload, CRC — so span-unaware
/// peers and recorded PR-8 traffic decode unchanged, and span frames
/// differ only by the flag bit plus the 28-byte span section.
#[test]
fn spanless_frames_keep_the_pre_span_wire_layout() {
    let request = kairos_net::Request::Owns {
        tenant: "t-wire".to_string(),
    };
    let bytes = kairos_net::frame::encode_frame(&request);
    let payload = serde::to_bytes(&request);

    // Hand-assemble the PR-8 layout.
    let mut expected = Vec::new();
    expected.extend_from_slice(&kairos_net::NET_MAGIC);
    expected.extend_from_slice(&kairos_net::RPC_WIRE_VERSION.to_le_bytes());
    expected.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    expected.extend_from_slice(&payload);
    let crc = kairos_store::crc32(&expected);
    expected.extend_from_slice(&crc.to_le_bytes());
    assert_eq!(bytes, expected, "spanless frame layout drifted");

    // With a span context attached the version word gains only the
    // flag bit and the 28-byte section slots between header and
    // payload; everything else is unchanged.
    let ctx = kairos_obs::SpanContext {
        trace_id: 7,
        span_id: 9,
        origin: 3,
        tick: 41,
    };
    let spanned = kairos_net::frame::encode_frame_with_span(&request, Some(ctx));
    assert_eq!(
        spanned.len(),
        bytes.len() + kairos_net::frame::SPAN_SECTION_LEN
    );
    let version = u32::from_le_bytes(spanned[4..8].try_into().unwrap());
    assert_eq!(
        version & !kairos_net::frame::SPAN_FLAG,
        kairos_net::RPC_WIRE_VERSION
    );
    assert_ne!(version & kairos_net::frame::SPAN_FLAG, 0);
    // Span-tolerant decode of both; the plain frame also decodes with
    // the pre-span decoder.
    let (back, none) =
        kairos_net::frame::decode_frame_with_span::<kairos_net::Request>(&bytes).expect("decodes");
    assert_eq!(format!("{back:?}"), format!("{request:?}"));
    assert!(none.is_none());
    let (back, some) = kairos_net::frame::decode_frame_with_span::<kairos_net::Request>(&spanned)
        .expect("decodes");
    assert_eq!(format!("{back:?}"), format!("{request:?}"));
    assert_eq!(some, Some(ctx));
}
