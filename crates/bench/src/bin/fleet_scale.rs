//! The scale sweep: fleet shapes `kbench` does not run (it fixes its
//! sizes), each checked against its own claim.
//!
//! * **The flat fleet** — the largest flat fleet under a regional spike,
//!   one run, its wall time and decisions reported. The claim: its final
//!   audit is clean.
//! * **The hierarchy** — [`ZONES`] zones behind loopback RPC under one
//!   [`RootBalancer`], shards per zone 10 → 40 (250 → 1,000 shards).
//!   Zone 0 runs hot and the root budget sits between its machine count
//!   and the others', so every timed round moves tenant groups. The
//!   claims: a zone's roll-up frame does not grow with the shards
//!   beneath it, and the root's round costs at most twice as much at
//!   1,000 shards as at 250.
//!
//! Prints the environment line and one table per part, then every
//! finding of [`check`]; exits non-zero when there is one.
//!
//! ```text
//! cargo run --release -p kairos-bench --bin fleet_scale
//! ```

use kairos_bench::{print_table, section};
use kairos_controller::{ControllerConfig, SyntheticSource, TelemetryConfig, TelemetrySource};
use kairos_fleet::balancer::ShardHandle;
use kairos_fleet::{BalancerConfig, FleetConfig, FleetController, RootBalancer, RootConfig, Zone};
use kairos_net::{LoopbackTransport, RemoteZone, ZoneNode};
use kairos_types::Bytes;
use kairos_workloads::RatePattern;
use std::process::ExitCode;
use std::time::Instant;

/// Machines a shard may use, in the flat fleet and inside every zone.
const BUDGET: usize = 8;
const FLAT_SHARDS: usize = 8;
const FLAT_TENANTS_PER_SHARD: usize = 25;
const FLAT_TICKS: u64 = 150;
const ZONES: usize = 25;
/// Few enough groups that every zone hosts all of them at both scales,
/// which is what keeps the roll-up the same size.
const GROUPS: usize = 64;
const SHARDS_PER_ZONE: [usize; 2] = [10, 40];
const HIER_TENANTS_PER_SHARD: usize = 25;
/// Ticks before the root's first round, then its timed rounds.
const HIER_WARMUP_TICKS: u64 = 16;
const HIER_ROUNDS: u64 = 10;
const MAX_ROLLUP_BYTES_RATIO: f64 = 1.10;
const MAX_ROOT_COST_RATIO: f64 = 2.0;

/// One run of the flat fleet.
#[derive(Debug, Clone, Copy)]
struct FlatRun {
    /// Every tick of the run, bootstrap and re-solves included.
    wall_ms: f64,
    /// What the run decided: `(resolves, handoffs_completed,
    /// total_machines)`.
    decisions: (u64, u64, usize),
    /// The final audit found no violation and no shard over [`BUDGET`].
    audit_clean: bool,
}

/// One shard count of the hierarchy.
#[derive(Debug, Clone, Copy)]
struct HierarchyScale {
    shards_per_zone: usize,
    root_round_mean_usecs: f64,
    root_round_max_usecs: f64,
    /// The zones' own per-round roll-up refresh, O(shards beneath each);
    /// zones do it concurrently in a deployment, so it is reported
    /// beside the root's round, not inside it.
    zone_refresh_mean_usecs: f64,
    /// Mean encoded size of one zone's roll-up.
    zone_rollup_bytes: f64,
    groups_moved: u64,
}

struct Report {
    flat: FlatRun,
    hierarchy: Vec<HierarchyScale>,
}

impl Report {
    /// Largest scale over smallest, of `f`; infinite when there is no
    /// base to divide by, so a check on it fails.
    fn hierarchy_ratio(&self, f: impl Fn(&HierarchyScale) -> f64) -> f64 {
        match (self.hierarchy.first(), self.hierarchy.last()) {
            (Some(base), Some(last)) if f(base) > 0.0 => f(last) / f(base),
            _ => f64::INFINITY,
        }
    }

    fn root_cost_ratio(&self) -> f64 {
        self.hierarchy_ratio(|h| h.root_round_mean_usecs)
    }

    fn rollup_bytes_ratio(&self) -> f64 {
        self.hierarchy_ratio(|h| h.zone_rollup_bytes)
    }
}

/// Every claim of the sweep (see the module header) that `report`
/// breaks; empty means it holds.
fn check(report: &Report) -> Vec<String> {
    let mut findings = Vec::new();
    if !report.flat.audit_clean {
        findings.push("audit: the flat fleet is not clean".to_string());
    }
    for h in report.hierarchy.iter().filter(|h| h.groups_moved == 0) {
        findings.push(format!(
            "groups_moved 0 at {} shards per zone",
            h.shards_per_zone
        ));
    }
    let (cost, bytes) = (report.root_cost_ratio(), report.rollup_bytes_ratio());
    if bytes > MAX_ROLLUP_BYTES_RATIO {
        findings.push(format!(
            "rollup_bytes_ratio {bytes:.3} > {MAX_ROLLUP_BYTES_RATIO}"
        ));
    }
    if cost > MAX_ROOT_COST_RATIO {
        findings.push(format!("root_cost_ratio {cost:.3} > {MAX_ROOT_COST_RATIO}"));
    }
    findings
}

/// The one fleet shape of the sweep, flat or inside a zone.
fn fleet_config(shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        shard: ControllerConfig {
            horizon: 6,
            check_every: 4,
            cooldown_ticks: 8,
            // Short windows keep 25k tenants in memory; a roll-up would
            // be the same size at the default 288.
            telemetry: TelemetryConfig {
                window_capacity: 48,
                ..TelemetryConfig::default()
            },
            ..ControllerConfig::default()
        },
        balancer: BalancerConfig {
            machines_per_shard: BUDGET,
            balance_every: 6,
            max_moves_per_round: 2,
            ..BalancerConfig::default()
        },
        ..FleetConfig::default()
    }
}

/// The flat fleet: shard 0 takes a regional spike in the middle third of
/// the run, the rest stay flat, so the run has re-solves and handoffs.
fn run_flat() -> FlatRun {
    let mut fleet = FleetController::new(fleet_config(FLAT_SHARDS));
    for shard in 0..FLAT_SHARDS {
        for i in 0..FLAT_TENANTS_PER_SHARD {
            let base = 190.0 + 10.0 * (i % 4) as f64;
            let flat = RatePattern::Flat { tps: base };
            let mut src =
                SyntheticSource::new(format!("s{shard}-t{i:02}"), 300.0, Bytes::gib(4), flat);
            if shard == 0 && i < FLAT_TENANTS_PER_SHARD * 2 / 5 {
                src = src
                    .then_at(FLAT_TICKS / 3, RatePattern::Flat { tps: 640.0 })
                    .then_at(2 * FLAT_TICKS / 3, RatePattern::Flat { tps: base });
            }
            fleet.add_workload_to(shard, Box::new(src));
        }
    }
    let t0 = Instant::now();
    for _ in 0..FLAT_TICKS {
        fleet.tick();
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let audit = fleet.audit();
    let resolves = fleet.shards().iter().map(|s| s.stats().resolves).sum();
    FlatRun {
        wall_ms,
        decisions: (
            resolves,
            fleet.stats().handoffs_completed,
            audit.total_machines(),
        ),
        audit_clean: audit.zero_violations() && audit.within_budget(BUDGET),
    }
}

/// A hierarchy tenant's source, from its name alone (`z03s07t11`), so
/// whichever zone admits a moved tenant rebuilds the same stream. Zone 0
/// runs at twice the others' rate.
fn hier_source(name: &str) -> Box<dyn TelemetrySource> {
    let digits: u64 = name
        .bytes()
        .filter(u8::is_ascii_digit)
        .fold(0, |acc, b| acc * 10 + u64::from(b - b'0'));
    let heat = if name.starts_with("z00") { 2.0 } else { 1.0 };
    let tps = heat * (23.0 + (digits % 4) as f64);
    Box::new(
        SyntheticSource::new(name, 300.0, Bytes::gib(2), RatePattern::Flat { tps }).with_noise(0.0),
    )
}

fn run_hierarchy(shards_per_zone: usize) -> HierarchyScale {
    let transport = LoopbackTransport::new();
    let (mut nodes, mut handles, mut remotes) = (Vec::new(), Vec::new(), Vec::new());
    for z in 0..ZONES {
        let mut fleet = FleetController::new(fleet_config(shards_per_zone));
        fleet.set_tracing(false);
        for s in 0..shards_per_zone {
            for i in 0..HIER_TENANTS_PER_SHARD {
                fleet.add_workload_to(s, hier_source(&format!("z{z:02}s{s:02}t{i:02}")));
            }
        }
        let binder = Box::new(|name: &str, _tick: u64| Some(hier_source(name)));
        let node = ZoneNode::new(Zone::new(z, fleet, GROUPS, binder));
        let handle = node
            .serve(&transport, &format!("hz-{z}"))
            .expect("zone serves on loopback");
        let remote = RemoteZone::connect(&transport, &handle.endpoint, 300.0);
        remotes.push(remote.expect("root connects"));
        nodes.push(node);
        handles.push(handle);
    }
    for _ in 0..HIER_WARMUP_TICKS {
        for remote in &mut remotes {
            remote.tick().expect("zone ticks over rpc");
        }
    }

    // A cool zone packs one machine per shard and the hot zone two, so
    // the hot zone alone is over the root's budget and sheds groups
    // until what remains packs within the low watermark.
    let mut root = RootBalancer::new(RootConfig {
        balancer: BalancerConfig {
            machines_per_shard: shards_per_zone * 3 / 2,
            balance_every: 1,
            max_moves_per_round: 2,
            low_watermark: shards_per_zone * 5 / 4,
            cooldown_rounds: 1,
        },
        groups: GROUPS,
    });
    let (mut round_usecs, mut refresh_usecs) = (Vec::new(), Vec::new());
    for round in 1..=HIER_ROUNDS {
        for remote in &mut remotes {
            remote.tick().expect("zone ticks over rpc");
        }
        let t0 = Instant::now();
        for remote in &mut remotes {
            let _ = remote.summary();
        }
        refresh_usecs.push(t0.elapsed().as_secs_f64() * 1e6);
        // The root's own round: one summary RPC per zone against the
        // memo just refreshed, the balance decision, and its group moves.
        let t0 = Instant::now();
        root.run_round(&mut remotes, HIER_WARMUP_TICKS + round);
        round_usecs.push(t0.elapsed().as_secs_f64() * 1e6);
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let rollup_bytes: Vec<f64> = nodes
        .iter()
        .map(|n| n.with_zone(|z| z.rollup().encoded_len() as f64))
        .collect();
    HierarchyScale {
        shards_per_zone,
        root_round_mean_usecs: mean(&round_usecs),
        root_round_max_usecs: round_usecs.iter().copied().fold(0.0, f64::max),
        zone_refresh_mean_usecs: mean(&refresh_usecs),
        zone_rollup_bytes: mean(&rollup_bytes),
        groups_moved: root.metrics_registry().counter("root_groups_moved").get(),
    }
}

fn main() -> ExitCode {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = Report {
        flat: run_flat(),
        hierarchy: SHARDS_PER_ZONE
            .iter()
            .map(|&spz| run_hierarchy(spz))
            .collect(),
    };

    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!("env: cores={cores} profile={profile}");
    section(&format!(
        "flat fleet: {FLAT_SHARDS} shards x {FLAT_TENANTS_PER_SHARD} tenants, {FLAT_TICKS} ticks"
    ));
    let FlatRun {
        wall_ms,
        decisions: (resolves, handoffs, machines),
        audit_clean,
    } = report.flat;
    print_table(
        "run_wall_ms|resolves|handoffs_completed|total_machines|audit_clean",
        &[format!(
            "{wall_ms:.1}|{resolves}|{handoffs}|{machines}|{audit_clean}"
        )],
    );

    section(&format!(
        "hierarchy: {ZONES} zones x {GROUPS} groups over loopback RPC, {HIER_TENANTS_PER_SHARD} tenants per shard, {HIER_ROUNDS} rounds"
    ));
    let rows: Vec<String> = report
        .hierarchy
        .iter()
        .map(|h| {
            format!(
                "{}|{:.0}|{:.0}|{:.0}|{:.1}|{}",
                ZONES * h.shards_per_zone,
                h.root_round_mean_usecs,
                h.root_round_max_usecs,
                h.zone_refresh_mean_usecs,
                h.zone_rollup_bytes,
                h.groups_moved,
            )
        })
        .collect();
    let header = "shards|root_round_mean_usecs|root_round_max_usecs|zone_refresh_mean_usecs|zone_rollup_bytes|groups_moved";
    print_table(header, &rows);
    println!(
        "root_cost_ratio {:.3} (<= {MAX_ROOT_COST_RATIO})  rollup_bytes_ratio {:.3} (<= {MAX_ROLLUP_BYTES_RATIO})",
        report.root_cost_ratio(),
        report.rollup_bytes_ratio()
    );

    let findings = check(&report);
    println!();
    for finding in &findings {
        println!("FAIL {finding}");
    }
    if findings.is_empty() {
        println!("ok: every check holds");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passing() -> Report {
        let scale = |shards_per_zone, root_round_mean_usecs, zone_rollup_bytes| HierarchyScale {
            shards_per_zone,
            root_round_mean_usecs,
            root_round_max_usecs: 2.0 * root_round_mean_usecs,
            zone_refresh_mean_usecs: 1_000.0,
            zone_rollup_bytes,
            groups_moved: 8,
        };
        Report {
            flat: FlatRun {
                wall_ms: 40.0,
                decisions: (3, 2, 12),
                audit_clean: true,
            },
            hierarchy: vec![scale(10, 2_000.0, 3_600.0), scale(40, 3_000.0, 3_690.0)],
        }
    }

    #[test]
    fn a_report_within_every_bound_passes() {
        assert_eq!(check(&passing()), Vec::<String>::new());
    }

    #[test]
    fn each_broken_claim_yields_exactly_its_finding() {
        type Break = fn(&mut Report);
        let cases: [(Break, &str); 5] = [
            (|r| r.hierarchy[1].groups_moved = 0, "groups_moved 0 at 40"),
            (
                |r| r.hierarchy[1].zone_rollup_bytes = 4_320.0,
                "rollup_bytes_ratio 1.200 ",
            ),
            (
                |r| r.hierarchy[1].root_round_mean_usecs = 5_000.0,
                "root_cost_ratio 2.500 ",
            ),
            (
                |r| r.hierarchy[0].root_round_mean_usecs = 0.0,
                "root_cost_ratio inf ",
            ),
            (|r| r.flat.audit_clean = false, "audit: the flat"),
        ];
        for (break_it, finding) in cases {
            let mut report = passing();
            break_it(&mut report);
            let findings = check(&report);
            assert_eq!(findings.len(), 1, "{findings:?}");
            assert!(findings[0].starts_with(finding), "{findings:?}");
        }
    }
}
