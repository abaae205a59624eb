//! The names every later change is judged on: end-to-end metrics (with
//! the bound by which each may worsen) and per-layer metrics. One table
//! each; `BENCHMARK.json`, `run` and `compare` all read these.

use crate::json::Json;
use crate::workloads::NAMES;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
}

/// Every workload reports every one of these; what each means on each
/// workload is the table in the README.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "fast_op_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "slow_op_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "slow_op_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "settle_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "density",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.10,
    },
];

const L: Better = Better::Lower;
const H: Better = Better::Higher;

/// `<crate>.<name>`, unit, direction. A workload reports 0 for a layer it
/// does not exercise. Counts are "lower": fewer calls for the same result.
pub const PER_LAYER: [(&str, &str, Better); 103] = [
    ("dbsim.driver_run_s", "s", L),
    ("dbsim.sim_secs_per_wall_s", "ratio", H),
    ("dbsim.verify_colocated_s", "s", L),
    ("monitor.sample_us", "us", L),
    ("monitor.gauge_s", "s", L),
    ("monitor.gauge_sim_secs", "s", L),
    ("monitor.gauge_error_ratio", "ratio", L),
    ("diskmodel.profile_s", "s", L),
    ("diskmodel.grid_points", "count", L),
    ("diskmodel.fit_us", "us", L),
    ("diskmodel.predict_ns", "ns", L),
    ("core.observe_s", "s", L),
    ("core.problem_build_us", "us", L),
    ("core.consolidate_s", "s", L),
    ("traces.generate_fleet_ms", "ms", L),
    ("traces.rrd_extend_ns", "ns", L),
    ("traces.sketch_build_us", "us", L),
    ("traces.sketch_bytes", "bytes", L),
    ("solver.cold_solve_s.internal", "s", L),
    ("solver.cold_solve_s.wikia", "s", L),
    ("solver.cold_solve_s.wikipedia", "s", L),
    ("solver.cold_solve_s.secondlife", "s", L),
    ("solver.evals", "count", L),
    ("solver.probes", "count", L),
    ("solver.evals_per_s", "1/s", H),
    ("solver.bounds_us", "us", L),
    ("solver.greedy_us", "us", L),
    ("solver.evaluate_us", "us", L),
    ("solver.polish_ms", "ms", L),
    ("solver.warm_solve_ms", "ms", L),
    ("solver.warm_fastpath_ratio", "ratio", H),
    ("controller.poll_ns_per_sample", "ns", L),
    ("controller.ingest_ns_per_sample", "ns", L),
    ("controller.drift_check_us_per_tenant", "us", L),
    ("controller.forecast_us_per_tenant", "us", L),
    ("controller.resolve_ms", "ms", L),
    ("controller.plan_migration_us", "us", L),
    ("controller.execute_us", "us", L),
    ("controller.summary_us", "us", L),
    ("controller.summary_cached_us", "us", L),
    ("controller.can_admit_us", "us", L),
    ("controller.evict_admit_us", "us", L),
    ("controller.snapshot_ms", "ms", L),
    ("controller.resolves", "count", L),
    ("controller.moves", "count", L),
    ("controller.forced_steps", "count", L),
    ("controller.drift_checks", "count", L),
    ("controller.drift_trip_ratio", "ratio", L),
    ("fleet.poll_tick_us", "us", L),
    ("fleet.check_tick_us", "us", L),
    ("fleet.round_tick_us", "us", L),
    ("fleet.summaries_us", "us", L),
    ("fleet.audit_ms", "ms", L),
    ("fleet.handoffs_completed", "count", L),
    ("fleet.handoffs_rejected", "count", L),
    ("fleet.handoff_success_ratio", "ratio", H),
    ("fleet.zone_rollup_us", "us", L),
    ("fleet.rollup_bytes", "bytes", L),
    ("fleet.root_round_inproc_us", "us", L),
    ("fleet.groups_moved", "count", L),
    ("fleet.rebalance_rounds", "count", L),
    ("fleet.checkpoint_ms", "ms", L),
    ("fleet.resume_ms", "ms", L),
    ("fleet.snapshot_bytes", "bytes", L),
    ("net.encode_ns.tick", "ns", L),
    ("net.encode_ns.summary", "ns", L),
    ("net.encode_ns.admit", "ns", L),
    ("net.encode_ns.rollup", "ns", L),
    ("net.decode_ns.tick", "ns", L),
    ("net.decode_ns.summary", "ns", L),
    ("net.decode_ns.admit", "ns", L),
    ("net.decode_ns.rollup", "ns", L),
    ("net.frame_bytes.tick", "bytes", L),
    ("net.frame_bytes.summary", "bytes", L),
    ("net.frame_bytes.admit", "bytes", L),
    ("net.frame_bytes.rollup", "bytes", L),
    ("net.auth_tag_ns_per_kib", "ns", L),
    ("net.auth_seal_check_ns", "ns", L),
    ("net.tcp_connect_us", "us", L),
    ("net.loopback_ping_us", "us", L),
    ("net.tcp_ping_us", "us", L),
    ("net.tcp_echo_us.64b", "us", L),
    ("net.tcp_echo_us.4k", "us", L),
    ("net.tcp_echo_us.64k", "us", L),
    ("net.dispatch_us", "us", L),
    ("net.tick_rpc_us", "us", L),
    ("net.summary_rpc_us", "us", L),
    ("net.handoff_rtt_us", "us", L),
    ("net.handoff_rtt_loopback_us", "us", L),
    ("net.calls_per_tick", "count", L),
    ("net.bytes_per_tick", "bytes", L),
    ("net.call_us", "us", L),
    ("net.call_share", "ratio", L),
    ("obs.decision_record_ns", "ns", L),
    ("obs.span_ns", "ns", L),
    ("obs.metrics_render_us", "us", L),
    ("obs.tracing_on_ratio", "ratio", L),
    ("bench.trace_overhead_ratio", "ratio", L),
    ("bench.span_cover_ratio", "ratio", H),
    ("bench.settle_ticks", "count", L),
    ("bench.failed_ops_share", "ratio", L),
    ("bench.bound_violations", "count", L),
    ("bench.strict_audit_failures", "count", L),
];

/// Why each workload exists, one line each.
pub const WHY: [&str; 6] = [
    "one-shot paper pipeline on the Table 1 mix; dbsim, monitor and diskmodel do the work, the solver under 2 %",
    "cold Kairos solves of the four trace datasets; the solver is over 99 % of the wall and density shows plan quality",
    "32 x 24 stationary tenants in process; ingest, untripped drift checks and idle balance rounds, zero solves",
    "16 x 24 tenants in process under a rotating flash crowd; drift, warm re-solve, migration and handoff",
    "the flash-crowd fleet on 8 shards over keyed localhost TCP; quiet ticks are wire, re-plan ticks are solver",
    "8 zones over keyed localhost TCP with one hot zone; the root moves tenant groups until every zone fits",
];

/// `BENCHMARK.json`, generated from the tables so it cannot drift from them.
pub fn manifest() -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::from(*s)).collect());
    Json::obj()
        .with(
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "crates/bench/src/bin/kbench/Cargo.toml",
                "--",
                "run",
            ]),
        )
        .with("paths", strs(&["crates/bench/src/bin/kbench"]))
        .with("run_seconds", RUN_SECONDS as u64)
        .with(
            "workloads",
            NAMES
                .iter()
                .zip(WHY)
                .map(|(name, why)| Json::obj().with("name", *name).with("why", why))
                .collect::<Vec<_>>(),
        )
        .with(
            "end_to_end",
            END_TO_END
                .iter()
                .map(|m| {
                    Json::obj()
                        .with("name", m.name)
                        .with("unit", m.unit)
                        .with("better", m.better.word())
                        .with("bound", m.bound)
                })
                .collect::<Vec<_>>(),
        )
        .with(
            "per_layer",
            PER_LAYER
                .iter()
                .map(|(name, unit, better)| {
                    Json::obj()
                        .with("name", *name)
                        .with("unit", *unit)
                        .with("better", better.word())
                })
                .collect::<Vec<_>>(),
        )
}

/// Timed work one run aims for, in seconds (`--seconds` default).
pub const RUN_SECONDS: f64 = 6.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_alphabet() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
        names.extend(NAMES);
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128 && WHY.iter().all(|w| w.len() <= 200));
    }

    /// The committed `BENCHMARK.json` is exactly what the tables render.
    #[test]
    fn committed_manifest_matches_the_tables() {
        let mut dir = std::env::current_dir().expect("cwd");
        let path = loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.exists() {
                break candidate;
            }
            assert!(dir.pop(), "BENCHMARK.json not found above the package");
        };
        let text = std::fs::read_to_string(path).expect("readable manifest");
        assert_eq!(Json::parse(&text).expect("manifest parses"), manifest());
    }
}
