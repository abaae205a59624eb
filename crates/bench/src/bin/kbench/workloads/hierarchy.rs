//! `rpc_hierarchy`: eight `ZoneNode`s (8 shards × 16 tenants each, 1 024
//! tenants, 512 tenant groups) over keyed localhost TCP under one
//! `RootBalancer`. Zone 0's tenants run hot, about twice the machines of
//! any other zone, and the root budget sits between the two, so
//! `run_round` over `RemoteZone`s must move groups until every zone is
//! within budget.
//!
//! This is the tree hosting with the large frames (multi-KiB roll-ups,
//! bundled group handoffs) and the serial zone fan-out. The group count is
//! part of the workload: a group's aggregate must fit one machine of the
//! receiving zone (`Zone::can_admit`), so at 64 groups nothing moves.

use super::online::ladder;
use super::wire::{self, CountingTransport};
use super::{rep_seed, Layer, Rep, RunCfg, Workload};
use crate::spans::Tracer;
use crate::stats::median;
use kairos_controller::{ControllerConfig, SyntheticSource, TelemetrySource};
use kairos_fleet::balancer::ShardHandle;
use kairos_fleet::{
    default_tick_threads, BalancerConfig, FleetConfig, FleetController, RootBalancer, RootConfig,
    Zone, ZoneSourceBinder,
};
use kairos_net::frame::{decode_frame, encode_frame};
use kairos_net::{RemoteZone, Response, ServerHandle, TcpTransport, Transport, ZoneNode};
use kairos_types::{Bytes, SplitMix64};
use kairos_workloads::RatePattern;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const ZONES: usize = 8;
const SHARDS_PER_ZONE: usize = 8;
const TENANTS_PER_SHARD: usize = 16;
const GROUPS: usize = 512;
/// Zone ticks before the first root round: a forecast horizon plus slack.
const BOOT_TICKS: u64 = 12;
/// Machines a zone may use before the root sheds its groups: between a
/// cool zone's ~31 and the hot zone's ~64.
const ROOT_BUDGET: usize = 42;
/// The hot zone sheds until the greedy estimate of what remains packs
/// into this many machines. Its solver's placement then still runs up to
/// three machines above that estimate (it trades machines for fewer
/// moves), so the budget leaves a gap of four.
const ROOT_LOW_WATERMARK: usize = 38;

fn zone_config() -> FleetConfig {
    FleetConfig {
        shards: SHARDS_PER_ZONE,
        shard: ControllerConfig {
            horizon: 8,
            check_every: 4,
            cooldown_ticks: 8,
            ..ControllerConfig::default()
        },
        balancer: BalancerConfig {
            machines_per_shard: 8,
            balance_every: 6,
            max_moves_per_round: 2,
            ..BalancerConfig::default()
        },
        tick_threads: default_tick_threads(),
    }
}

fn root_balancer() -> RootBalancer {
    RootBalancer::new(RootConfig {
        balancer: BalancerConfig {
            machines_per_shard: ROOT_BUDGET,
            balance_every: 1,
            max_moves_per_round: 2,
            low_watermark: ROOT_LOW_WATERMARK,
            cooldown_rounds: 1,
        },
        groups: GROUPS,
    })
}

fn tenant_name(zone: usize, shard: usize, i: usize) -> String {
    format!("z{zone}s{shard}t{i:02}")
}

/// Every tenant's flat rate: one ladder per zone (see `online::ladder`),
/// the hot zone at about twice the others.
fn tenant_rates(seed: u64) -> BTreeMap<String, f64> {
    let mut rng = SplitMix64::new(seed);
    let per_zone = SHARDS_PER_ZONE * TENANTS_PER_SHARD;
    let mut rates = BTreeMap::new();
    for zone in 0..ZONES {
        let (lo, hi) = if zone == 0 {
            (380.0, 440.0)
        } else {
            (185.0, 225.0)
        };
        for (k, tps) in ladder(zone as u64, &mut rng, per_zone, lo, hi)
            .into_iter()
            .enumerate()
        {
            let name = tenant_name(zone, k / TENANTS_PER_SHARD, k % TENANTS_PER_SHARD);
            rates.insert(name, tps);
        }
    }
    rates
}

/// A noise-free flat source, so any zone rebuilds a moved tenant's exact
/// stream from its name alone.
fn source(name: &str, tps: f64) -> Box<dyn TelemetrySource> {
    Box::new(
        SyntheticSource::new(name, 300.0, Bytes::gib(4), RatePattern::Flat { tps }).with_noise(0.0),
    )
}

fn build_zone(id: usize, rates: &Arc<BTreeMap<String, f64>>) -> Zone {
    let mut fleet = FleetController::new(zone_config());
    fleet.set_tracing(false);
    for shard in 0..SHARDS_PER_ZONE {
        for i in 0..TENANTS_PER_SHARD {
            let name = tenant_name(id, shard, i);
            fleet.add_workload_to(shard, source(&name, rates[&name]));
        }
    }
    let rates = rates.clone();
    let binder: ZoneSourceBinder =
        Box::new(move |name: &str, _tick: u64| rates.get(name).map(|&tps| source(name, tps)));
    Zone::new(id, fleet, GROUPS, binder)
}

struct Tree {
    // Drop order: connections, then servers, then the zones they serve.
    remotes: Vec<RemoteZone>,
    wire: Arc<CountingTransport>,
    handles: Vec<ServerHandle>,
    nodes: Vec<ZoneNode>,
}

pub struct RpcHierarchy {
    seed: u64,
    /// The current repetition's tenant rates.
    rates: Arc<BTreeMap<String, f64>>,
    rounds: u64,
    quick: bool,
    last: Option<Tree>,
}

impl RpcHierarchy {
    fn build(&self, tr: &Tracer) -> Result<Tree, String> {
        let wire = Arc::new(CountingTransport::new(
            Arc::new(TcpTransport::new()),
            tr.clone(),
        ));
        let (mut nodes, mut handles, mut remotes) = (Vec::new(), Vec::new(), Vec::new());
        for z in 0..ZONES {
            let node = ZoneNode::new(build_zone(z, &self.rates));
            let handle = node
                .serve(wire.as_ref(), "127.0.0.1:0")
                .map_err(|e| format!("zone {z} cannot serve on localhost TCP: {e}"))?;
            let remote = RemoteZone::connect(wire.as_ref(), &handle.endpoint, 300.0)
                .map_err(|e| format!("root cannot connect to zone {z}: {e}"))?;
            nodes.push(node);
            handles.push(handle);
            remotes.push(remote);
        }
        Ok(Tree {
            remotes,
            wire,
            handles,
            nodes,
        })
    }
}

fn zone_tenants(tree: &Tree) -> Vec<String> {
    let mut all: Vec<String> = tree
        .nodes
        .iter()
        .flat_map(|n| {
            n.with_zone(|z| {
                z.fleet()
                    .map()
                    .entries()
                    .map(|(t, _)| t.to_string())
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    all.sort();
    all
}

impl Workload for RpcHierarchy {
    const REP_SECONDS: f64 = 1.8;

    fn new(cfg: &RunCfg) -> RpcHierarchy {
        RpcHierarchy {
            seed: cfg.seed,
            rates: Arc::default(),
            rounds: if cfg.quick { 30 } else { 300 },
            quick: cfg.quick,
            last: None,
        }
    }

    fn rep(&mut self, k: u64, tr: &Tracer) -> Rep {
        let mut rep = Rep::default();
        self.last = None;
        self.rates = Arc::new(tenant_rates(rep_seed(self.seed, k)));

        // ---- set-up: zones, servers, connections, bootstrap ----
        let t_setup = Instant::now();
        let mut tree = match self.build(tr) {
            Ok(tree) => tree,
            Err(why) => {
                rep.attempted = 1;
                rep.failures.push(why);
                return rep;
            }
        };
        let mut booted = true;
        for _ in 0..BOOT_TICKS {
            for remote in &mut tree.remotes {
                booted &= tr.timed("bootstrap_tick", || remote.tick()).0.is_ok();
            }
        }
        booted &= tree.remotes.iter_mut().all(|r| r.summary().planned);
        let mut root = root_balancer();
        rep.setup_s = t_setup.elapsed().as_secs_f64();
        if !booted {
            rep.attempted = 1;
            rep.failures
                .push(format!("zones not planned after {BOOT_TICKS} ticks"));
            return rep;
        }

        // ---- timed rounds ----
        let mut on_wire = wire::WireTotals::default();
        let mut balanced_after: Option<(u64, f64)> = None;
        for round in 1..=self.rounds {
            rep.attempted += 1;
            let wire_before = tree.wire.totals();
            // The zone fan-out: every zone advances one interval, then
            // refreshes the roll-up the root is about to read.
            let (ticked, fanout_secs) = tr.timed("zone_fanout", || {
                let mut ok = true;
                for remote in &mut tree.remotes {
                    ok &= tr.timed("RemoteZone::tick", || remote.tick()).0.is_ok();
                }
                for remote in &mut tree.remotes {
                    tr.timed("ShardHandle::summary", || black_box(remote.summary()));
                }
                ok
            });
            rep.slow_ops_s.push(fanout_secs);
            let (_, round_secs) = tr.timed("RootBalancer::run_round", || {
                root.run_round(&mut tree.remotes, BOOT_TICKS + round)
            });
            on_wire.add_since(wire_before, tree.wire.totals());
            rep.fast_ops_s.push(round_secs);
            rep.work_wall_s += fanout_secs + round_secs;
            rep.check(ticked, || format!("round {round}: a zone tick failed"));

            if balanced_after.is_none() {
                // Untimed, and only until the tree first balances.
                let within = tree
                    .remotes
                    .iter_mut()
                    .all(|r| r.summary().machines_used <= ROOT_BUDGET);
                if within {
                    balanced_after = Some((round, rep.work_wall_s));
                }
            }
        }

        // ---- end-state checks and counts ----
        let machines: Vec<usize> = tree
            .remotes
            .iter_mut()
            .map(|r| r.summary().machines_used)
            .collect();
        let moved = root.metrics_registry().counter("root_groups_moved").get();
        let mut expected: Vec<String> = self.rates.keys().cloned().collect();
        expected.sort();
        rep.attempted += 1;
        let ok = moved >= 1
            && machines.iter().all(|&m| m <= ROOT_BUDGET)
            && zone_tenants(&tree) == expected;
        rep.check(ok, || {
            format!("end state: groups_moved={moved} machines_per_zone={machines:?} budget={ROOT_BUDGET}")
        });
        if let Some((rounds, wall)) = balanced_after {
            rep.settles_s.push(wall);
            rep.counts.insert("fleet.rebalance_rounds", rounds);
            rep.layer.insert("fleet.rebalance_rounds", rounds as f64);
        }
        rep.density = self.rates.len() as f64 / machines.iter().sum::<usize>().max(1) as f64;
        rep.counts.insert("fleet.groups_moved", moved);
        rep.counts
            .insert("machines", machines.iter().sum::<usize>() as u64);
        rep.layer.insert("fleet.groups_moved", moved as f64);
        if tr.enabled() {
            wire::wire_share(&mut rep.layer, on_wire, self.rounds, rep.work_wall_s);
        }
        self.last = Some(tree);
        rep
    }

    fn probes(&mut self, tr: &Tracer, layer: &mut Layer) {
        let Some(tree) = self.last.take() else {
            return;
        };
        let quick = self.quick;
        tr.timed("probes", || {
            let iters = if quick { 3 } else { 30 };
            // The roll-up a zone computes per tick, and its frame. The tick
            // that invalidates the memoized roll-up is outside the timing.
            let rollup_us: Vec<f64> = (0..iters)
                .map(|_| {
                    tree.nodes[0].with_zone(|z| {
                        z.tick();
                        let t0 = Instant::now();
                        black_box(z.rollup());
                        t0.elapsed().as_secs_f64() * 1e6
                    })
                })
                .collect();
            layer.insert("fleet.zone_rollup_us", median(&rollup_us));
            let rollup = tree.nodes[0].with_zone(|z| z.rollup());
            layer.insert("fleet.rollup_bytes", rollup.encoded_len() as f64);
            let response = Response::Summary(rollup.summary);
            wire::codec_probe(
                layer,
                [
                    "net.encode_ns.rollup",
                    "net.decode_ns.rollup",
                    "net.frame_bytes.rollup",
                ],
                if quick { 20 } else { 500 },
                || encode_frame(&response),
                |f| decode_frame::<Response>(f).expect("own frame"),
            );
            let endpoint = tree.handles[0].endpoint.clone();
            if let Ok(mut conn) = TcpTransport::new().connect(&endpoint) {
                let summary = kairos_net::Request::Summary;
                if let Some(us) = wire::rpc_probe(conn.as_mut(), &summary, iters * 10) {
                    layer.insert("net.summary_rpc_us", us);
                }
                let tick = kairos_net::Request::Tick;
                if let Some(us) = wire::rpc_probe(conn.as_mut(), &tick, iters * 4) {
                    layer.insert("net.tick_rpc_us", us);
                }
            }
            drop(tree);

            // The same tree with no wire: the wire's share of a root round
            // is the difference to `fast_op_us`.
            let mut zones: Vec<Zone> = (0..ZONES).map(|z| build_zone(z, &self.rates)).collect();
            for _ in 0..BOOT_TICKS {
                for zone in &mut zones {
                    zone.tick();
                }
            }
            let mut root = root_balancer();
            let rounds = if quick { 10 } else { 60 };
            let mut round_us = Vec::with_capacity(rounds as usize);
            for round in 1..=rounds {
                for zone in &mut zones {
                    zone.tick();
                    black_box(ShardHandle::summary(zone));
                }
                let t0 = Instant::now();
                root.run_round(&mut zones, BOOT_TICKS + round);
                round_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            layer.insert("fleet.root_round_inproc_us", median(&round_us));
            wire::transport_probes(layer, quick);
        });
    }
}
