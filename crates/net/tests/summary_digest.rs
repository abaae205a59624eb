//! Summaries asked by digest: a [`MemberLink`] sends the digest of the
//! summary it holds ([`Request::SummarySince`]), and a member whose
//! current summary has that digest answers with the digest alone. The
//! property: whatever the link returns is byte-for-byte the summary a
//! full [`Request::Summary`] would carry — after ticks, evictions,
//! admissions, and a partition the member's state moved under.
//!
//! Seeded schedules (`KAIROS_TEST_SEED`) drive an eight-zone tree of
//! [`ZoneNode`]s and a flat fleet of four [`ShardNode`]s, each over
//! loopback and over localhost TCP, both behind a [`FaultedTransport`]
//! for the partitions. After every link ask, a raw `Summary` on a
//! second connection must encode to the same bytes; the count of
//! digest-only answers (`kairos_net_summary_unchanged_total`) must equal
//! the asks whose answer repeated the link's previous one; a partitioned
//! ask must read as the offline summary; and the first ask after the
//! heal must return the member's current summary.

use kairos_controller::{ControllerConfig, ShardSummary, SyntheticSource, TelemetrySource};
use kairos_fleet::balancer::ShardHandle;
use kairos_fleet::{
    group_name, BalancerConfig, FleetConfig, FleetController, Zone, ZoneSourceBinder,
};
use kairos_net::{
    frame, Conn, Fault, FaultInjector, FaultedTransport, LoopbackTransport, MemberLink, Request,
    Response, ServerHandle, ShardNode, SourceEscrow, Transport, ZoneNode,
};
use kairos_types::{Bytes, SplitMix64};
use kairos_workloads::RatePattern;
use std::sync::{Arc, Mutex};

const INTERVAL_SECS: f64 = 300.0;
const STEPS: usize = 48;

/// The unchanged-answer counter is process-global: the legs run one at
/// a time so each can read its own delta exactly.
static SERIAL: Mutex<()> = Mutex::new(());

fn unchanged_total() -> u64 {
    kairos_obs::global()
        .counter("kairos_net_summary_unchanged_total")
        .get()
}

/// A flat, noise-free source whose rate follows from the name alone, so
/// any zone rebuilds a moved tenant's exact stream.
fn source_for(name: &str) -> Box<dyn TelemetrySource> {
    let digits: u64 = name
        .bytes()
        .filter(u8::is_ascii_digit)
        .fold(0, |acc, b| acc * 10 + u64::from(b - b'0'));
    let tps = 160.0 + 23.0 * (digits % 11) as f64;
    Box::new(
        SyntheticSource::new(
            name,
            INTERVAL_SECS,
            Bytes::gib(4),
            RatePattern::Flat { tps },
        )
        .with_noise(0.0),
    )
}

fn shard_config() -> ControllerConfig {
    ControllerConfig {
        horizon: 8,
        check_every: 4,
        cooldown_ticks: 8,
        ..ControllerConfig::default()
    }
}

/// One member behind the faulted transport: how to drive it directly
/// (the state changes the link must notice) and what it holds.
enum Node {
    Zone(ZoneNode),
    Shard(ShardNode),
}

impl Node {
    fn tick(&self) {
        match self {
            Node::Zone(node) => {
                node.with_zone(|z| z.tick());
            }
            Node::Shard(node) => {
                node.with_shard(|s| s.tick());
            }
        }
    }

    /// A tenant joins on the member side, then one tick: the member's
    /// summary certainly changes (its tenant count does).
    fn grow(&self, name: &str) {
        match self {
            Node::Zone(node) => node.with_zone(|z| {
                z.fleet_mut().add_workload(source_for(name));
            }),
            Node::Shard(node) => node.with_shard(|s| s.add_workload(source_for(name))),
        }
        self.tick();
    }

    /// What the member can evict: resident groups, or tenants.
    fn movable(&self) -> Vec<String> {
        match self {
            Node::Zone(node) => node.with_zone(|z| {
                z.resident_groups()
                    .iter()
                    .map(|g| group_name(g.index))
                    .collect()
            }),
            Node::Shard(node) => node.with_shard(|s| s.workloads()),
        }
    }
}

struct Member {
    endpoint: String,
    node: Node,
    link: MemberLink,
    /// A second connection for the raw `Summary` the link is checked
    /// against.
    raw: Box<dyn Conn>,
    /// Encoded bytes of the link's last successful answer; `None` after
    /// a failed ask (the link dropped what it held).
    last: Option<Vec<u8>>,
}

struct Leg {
    name: String,
    transport: FaultedTransport,
    members: Vec<Member>,
    _servers: Vec<ServerHandle>,
    /// Asks whose answer repeated the link's previous one: each must
    /// have been a digest-only answer.
    expected_unchanged: u64,
    /// Asks on a link that held a summary the member no longer had:
    /// each must have been a full answer.
    changed_since_held: usize,
    partitions: usize,
    changed_in_partition: usize,
    moves: usize,
}

fn faulted(tcp: bool, seed: u64) -> FaultedTransport {
    if tcp {
        FaultedTransport::over_tcp(seed)
    } else {
        FaultedTransport::new(Arc::new(LoopbackTransport::new()), seed)
    }
}

fn leg(name: String, transport: FaultedTransport, nodes: Vec<(String, Node)>) -> Leg {
    let mut members = Vec::new();
    let mut servers = Vec::new();
    for (endpoint, node) in nodes {
        let server = match &node {
            Node::Zone(n) => n.serve(&transport, &endpoint),
            Node::Shard(n) => n.serve(&transport, &endpoint),
        }
        .expect("member serves");
        let link = MemberLink::connect(&transport, &endpoint, INTERVAL_SECS).expect("link dials");
        let raw = transport.connect(&endpoint).expect("raw connection dials");
        servers.push(server);
        members.push(Member {
            endpoint,
            node,
            link,
            raw,
            last: None,
        });
    }
    Leg {
        name,
        transport,
        members,
        _servers: servers,
        expected_unchanged: 0,
        changed_since_held: 0,
        partitions: 0,
        changed_in_partition: 0,
        moves: 0,
    }
}

/// Eight zones of two shards; zone 0 holds most tenants, so evictions
/// always find a group to move.
fn tree_leg(tcp: bool, seed: u64) -> Leg {
    let nodes = (0..8)
        .map(|z| {
            let mut fleet = FleetController::new(FleetConfig {
                shards: 2,
                shard: shard_config(),
                balancer: BalancerConfig {
                    machines_per_shard: 8,
                    balance_every: 5,
                    ..BalancerConfig::default()
                },
                tick_threads: 1,
            });
            let tenants = if z == 0 { 10 } else { 2 };
            for i in 0..tenants {
                fleet.add_workload(source_for(&format!("z{z}t{i:02}")));
            }
            let binder: ZoneSourceBinder = Box::new(|name: &str, _| Some(source_for(name)));
            let zone = Zone::new(z, fleet, 16, binder);
            (format!("zone-{z}"), Node::Zone(ZoneNode::new(zone)))
        })
        .collect();
    let kind = if tcp { "tcp" } else { "loopback" };
    leg(format!("tree/{kind}"), faulted(tcp, seed), nodes)
}

/// Four shard nodes sharing one source escrow, so a tenant evicted from
/// one is admitted on another with its live source.
fn flat_leg(tcp: bool, seed: u64) -> Leg {
    let escrow = SourceEscrow::new();
    let nodes = (0..4)
        .map(|s| {
            let node = ShardNode::new(
                shard_config(),
                kairos_core::ConsolidationEngine::builder().build(),
                Box::new(escrow.clone()),
            );
            node.with_shard(|shard| {
                for i in 0..6 {
                    shard.add_workload(source_for(&format!("s{s}t{i:02}")));
                }
            });
            (format!("shard-{s}"), Node::Shard(node))
        })
        .collect();
    let kind = if tcp { "tcp" } else { "loopback" };
    leg(format!("flat/{kind}"), faulted(tcp, seed), nodes)
}

fn is_offline(summary: &ShardSummary) -> bool {
    !summary.planned
        && summary.tenants == 0
        && summary.machines_used == 0
        && summary.tenant_loads.is_empty()
}

impl Leg {
    /// The member's current summary, asked raw (a full `Summary`).
    fn raw_summary(&mut self, m: usize) -> Vec<u8> {
        let member = &mut self.members[m];
        match kairos_net::rpc::call(member.raw.as_mut(), &Request::Summary) {
            Ok(Response::Summary(summary)) => frame::encode_frame(&summary),
            other => panic!(
                "{}: raw summary of {}: {other:?}",
                self.name, member.endpoint
            ),
        }
    }

    /// One link ask on a reachable member, checked against a raw ask
    /// taken right after it.
    fn ask(&mut self, m: usize, step: usize) {
        let answer = frame::encode_frame(&self.members[m].link.summary());
        let raw = self.raw_summary(m);
        let member = &mut self.members[m];
        assert!(
            answer == raw,
            "{} step {step}: {} answered a summary that differs from its current one",
            self.name,
            member.endpoint
        );
        match &member.last {
            Some(last) if *last == answer => self.expected_unchanged += 1,
            Some(_) => self.changed_since_held += 1,
            None => {}
        }
        member.last = Some(answer);
    }

    /// Partition a member, ask it (the offline summary), optionally grow
    /// it on the member side, heal, and ask again: the first ask after
    /// the heal must be the member's current summary.
    fn partition(&mut self, m: usize, change: bool, step: usize) {
        let endpoint = self.members[m].endpoint.clone();
        let before = self.raw_summary(m);
        self.transport.inject_fault(&endpoint, Fault::Partition);
        let offline = self.members[m].link.summary();
        assert!(
            is_offline(&offline),
            "{} step {step}: partitioned {endpoint} must read offline, got {offline:?}",
            self.name
        );
        self.members[m].last = None;
        self.partitions += 1;
        if change {
            let name = format!("{endpoint}-n{:02}", self.partitions);
            self.members[m].node.grow(&name);
        }
        self.transport.heal(&endpoint);
        let after = self.raw_summary(m);
        if after != before {
            self.changed_in_partition += 1;
        }
        self.ask(m, step);
    }

    /// Evict one movable unit from `from` through its link and admit it
    /// on `to` through that one's; a refused admit goes back home.
    fn move_one(&mut self, from: usize, to: usize, pick: u64) {
        let movable = self.members[from].node.movable();
        if movable.is_empty() || from == to {
            return;
        }
        let unit = &movable[pick as usize % movable.len()];
        let Some(evicted) = ShardHandle::evict(&mut self.members[from].link, unit) else {
            return;
        };
        match ShardHandle::admit(&mut self.members[to].link, evicted) {
            Ok(()) => self.moves += 1,
            Err(back) => {
                ShardHandle::admit(&mut self.members[from].link, back)
                    .unwrap_or_else(|_| panic!("{}: {unit} re-admits on its donor", self.name));
            }
        }
    }

    fn run(&mut self, rng: &mut SplitMix64) {
        let n = self.members.len();
        // Boot: every member plans, and every link holds a summary.
        for _ in 0..10 {
            for member in &self.members {
                member.node.tick();
            }
        }
        for m in 0..n {
            self.ask(m, 0);
        }
        let before = unchanged_total();
        for step in 1..=STEPS {
            let m = rng.next_range(n as u64) as usize;
            match rng.next_range(6) {
                // A tick everywhere, then every link asks.
                0 | 1 => {
                    for member in &self.members {
                        member.node.tick();
                    }
                    for m in 0..n {
                        self.ask(m, step);
                    }
                }
                // One member ticks; every link asks (the others repeat).
                2 => {
                    self.members[m].node.tick();
                    for m in 0..n {
                        self.ask(m, step);
                    }
                }
                // A move between two members, asked from both ends and
                // again (the second ask repeats the first).
                3 => {
                    let to = rng.next_range(n as u64) as usize;
                    self.move_one(m, to, rng.next_u64());
                    for m in [m, to, m, to] {
                        self.ask(m, step);
                    }
                }
                // A move with no ask from the donor before it: the link
                // still holds the pre-move summary.
                4 => {
                    self.ask(m, step);
                    let to = (m + 1) % n;
                    self.move_one(m, to, rng.next_u64());
                    self.ask(m, step);
                }
                _ => {
                    let change = rng.next_range(2) == 0;
                    self.partition(m, change, step);
                }
            }
        }
        // A closing partition whose member always changes while it is
        // cut off.
        self.partition(0, true, STEPS + 1);
        let unchanged = unchanged_total() - before;
        assert_eq!(
            unchanged, self.expected_unchanged,
            "{}: digest-only answers must be exactly the asks that repeated",
            self.name
        );
        assert!(
            unchanged > 0,
            "{}: no ask was answered by digest",
            self.name
        );
        assert!(
            self.changed_in_partition > 0,
            "{}: no member changed during a partition",
            self.name
        );
    }
}

fn run_legs(build: fn(bool, u64) -> Leg, salt: u64) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = SplitMix64::from_env(0x5D16_E570 ^ salt);
    for tcp in [false, true] {
        let mut leg = build(tcp, rng.next_u64());
        leg.run(&mut rng);
        assert!(leg.partitions > 1, "{}: partitions ran", leg.name);
        assert!(
            leg.changed_since_held > 0,
            "{}: no member changed under a held summary",
            leg.name
        );
        assert!(leg.moves > 0, "{}: no move landed", leg.name);
    }
}

#[test]
fn a_tree_of_zone_links_answers_every_summary_ask_exactly() {
    run_legs(tree_leg, 1);
}

#[test]
fn a_flat_fleet_of_shard_links_answers_every_summary_ask_exactly() {
    run_legs(flat_leg, 2);
}
