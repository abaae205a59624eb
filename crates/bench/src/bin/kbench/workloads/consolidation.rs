//! `dataset_consolidation`: a cold `consolidate_with(.., Kairos)` on each
//! of the four trace datasets (Internal 25, Wikia 34, Wikipedia 40,
//! SecondLife 97 servers; last-day profiles as in `fig07_ratios`).
//!
//! `solver` (bounds → binary search → DIRECT → polish) is > 99 % of the
//! wall, so this is the only workload on which a cold-solve optimisation
//! can claim, and `density` exposes a speed-for-plan-quality trade. ALL
//! (196 servers, one ~20 s sample) is left out: one sample has no spread.

use super::wire;
use super::{rep_seed, Layer, Rep, RunCfg, Workload};
use crate::spans::Tracer;
use kairos_core::{ConsolidationEngine, PlanStrategy};
use kairos_solver::{
    evaluate, fractional_lower_bound, greedy_pack, polish, upper_bound, ConsolidationProblem,
};
use kairos_traces::{generate_fleet, AggregateSketch, Dataset, FleetConfig, SeriesSketch};
use kairos_traces::{ShardAggregate, SketchConfig};
use kairos_types::{SplitMix64, TimeSeries, WorkloadProfile};
use std::hint::black_box;
use std::time::Instant;

/// The §6 RAM scaling factor for un-gaugeable historical statistics.
const RAM_SCALE: f64 = 0.7;

const COLD_SOLVE: [&str; 4] = [
    "solver.cold_solve_s.internal",
    "solver.cold_solve_s.wikia",
    "solver.cold_solve_s.wikipedia",
    "solver.cold_solve_s.secondlife",
];

pub struct DatasetConsolidation {
    seed: u64,
    quick: bool,
    /// The last repetition's inputs, kept for the probes.
    captured: Vec<Vec<WorkloadProfile>>,
}

impl DatasetConsolidation {
    fn datasets(&self) -> &'static [Dataset] {
        if self.quick {
            &Dataset::ALL[..2]
        } else {
            &Dataset::ALL
        }
    }
}

/// The generator seed `fig07_ratios` uses: the four datasets are fixed,
/// as the paper's are.
const DATASET_SEED: u64 = 0x5EED;

/// How far a draw moves any one server's load, either way. A cold solve's
/// search path follows its inputs: at ±3 % the four solves took 3.8–4.7 s
/// from one seed to the next (spread 12–20 %), at ±1 % 3.6–4.0 s (6 %), at
/// ±0.3 % they barely differ at all (2 %).
const LOAD_JITTER: f64 = 0.01;

/// Each server's profile restricted to its final day. The draw scales
/// every server's load by up to ±[`LOAD_JITTER`]: the same fleets, measured
/// on another day.
fn last_day_profiles(dataset: Dataset, seed: u64) -> Vec<WorkloadProfile> {
    let fleet = generate_fleet(
        dataset,
        &FleetConfig {
            weeks: 1,
            seed: DATASET_SEED,
            ..Default::default()
        },
    );
    let mut rng = SplitMix64::new(seed ^ dataset.server_count() as u64);
    fleet
        .iter()
        .map(|server| {
            let scale = 1.0 + LOAD_JITTER * (2.0 * rng.next_f64() - 1.0);
            let p = server.to_profile(RAM_SCALE);
            let day = (86_400.0 / p.interval_secs()) as usize;
            let last = |series: &TimeSeries| {
                let v = series.values();
                TimeSeries::new(
                    series.interval_secs(),
                    v[v.len().saturating_sub(day)..].to_vec(),
                )
            };
            WorkloadProfile::new(
                p.name.clone(),
                last(&p.cpu_cores).scale(scale),
                last(&p.ram_bytes),
                last(&p.disk_working_set_bytes),
                last(&p.disk_update_rows_per_sec).scale(scale),
            )
        })
        .collect()
}

fn engine() -> ConsolidationEngine {
    ConsolidationEngine::builder().headroom(0.95).build()
}

impl Workload for DatasetConsolidation {
    const REP_SECONDS: f64 = 3.6;

    fn new(cfg: &RunCfg) -> DatasetConsolidation {
        DatasetConsolidation {
            seed: cfg.seed,
            quick: cfg.quick,
            captured: Vec::new(),
        }
    }

    fn rep(&mut self, k: u64, tr: &Tracer) -> Rep {
        let mut rep = Rep::default();
        let engine = engine();
        let seed = rep_seed(self.seed, k);

        let (inputs, secs) = tr.timed("generate_fleet", || {
            self.datasets()
                .iter()
                .map(|&d| last_day_profiles(d, seed))
                .collect::<Vec<_>>()
        });
        rep.setup_s = secs;
        rep.layer.insert("traces.generate_fleet_ms", secs * 1e3);

        let (mut servers, mut machines, mut evals, mut probes) = (0usize, 0usize, 0u64, 0u64);
        let mut bound_violations = 0u64;
        let t_pass = Instant::now();
        {
            for (i, profiles) in inputs.iter().enumerate() {
                let label = self.datasets()[i].label();
                rep.attempted += 1;
                let (plan, secs) = tr.timed("ConsolidationEngine::consolidate_with", || {
                    engine.consolidate_with(profiles, PlanStrategy::Kairos)
                });
                rep.slow_ops_s.push(secs);
                rep.layer.insert(COLD_SOLVE[i], secs);
                // The cheap planner the plan is held against.
                let (greedy, secs) = tr.timed("greedy_plan", || {
                    engine.consolidate_with(profiles, PlanStrategy::Greedy)
                });
                rep.fast_ops_s.push(secs);
                let Ok(plan) = plan else {
                    rep.failures.push(format!("{label}: no plan"));
                    continue;
                };
                let used = plan.machines_used();
                // `fractional_bound` splits the disk load evenly, which is
                // no lower bound under a non-convex disk model: a feasible
                // plan can use fewer machines than it says. That stays
                // counted, next to the checks, and does not fail the plan.
                let bound = engine.fractional_bound(profiles).unwrap_or(0);
                bound_violations += u64::from(used < bound);
                let ok = plan.report.evaluation.feasible
                    && greedy.as_ref().map_or(true, |g| used <= g.machines_used());
                rep.check(ok, || {
                    format!(
                        "{label}: feasible={} machines={used} greedy={:?}",
                        plan.report.evaluation.feasible,
                        greedy.as_ref().map(|g| g.machines_used()).ok()
                    )
                });
                servers += profiles.len();
                machines += used;
                evals += plan.report.evals_used as u64;
                probes += plan.report.probes.len() as u64;
            }
        }
        let pass_secs = t_pass.elapsed().as_secs_f64();
        rep.work_wall_s = pass_secs;
        rep.settles_s.push(pass_secs);
        rep.density = servers as f64 / machines.max(1) as f64;
        rep.counts.insert("machines", machines as u64);
        rep.counts.insert("solver.evals", evals);
        rep.counts
            .insert("bench.bound_violations", bound_violations);
        rep.layer
            .insert("bench.bound_violations", bound_violations as f64);
        rep.layer.insert("solver.evals", evals as f64);
        rep.layer.insert("solver.probes", probes as f64);
        let solve_secs: f64 = rep.slow_ops_s.iter().sum();
        rep.layer
            .insert("solver.evals_per_s", evals as f64 / solve_secs);
        rep.layer.insert("core.consolidate_s", solve_secs);
        self.captured = inputs;
        rep
    }

    fn probes(&mut self, tr: &Tracer, layer: &mut Layer) {
        let Some(profiles) = self.captured.last() else {
            return;
        };
        tr.timed("probes", || {
            let engine = engine();
            let per_call_us = |iters: usize, f: &mut dyn FnMut()| wire::mean_ns(iters, f) / 1e3;
            let iters = if self.quick { 3 } else { 20 };

            layer.insert(
                "core.problem_build_us",
                per_call_us(iters, &mut || {
                    black_box(engine.problem(black_box(profiles)).expect("non-empty"));
                }),
            );
            let problem: ConsolidationProblem = engine.problem(profiles).expect("non-empty");
            layer.insert(
                "solver.bounds_us",
                per_call_us(iters, &mut || {
                    black_box(fractional_lower_bound(&problem));
                    black_box(upper_bound(&problem));
                }),
            );
            layer.insert(
                "solver.greedy_us",
                per_call_us(iters, &mut || {
                    black_box(greedy_pack(&problem));
                }),
            );
            let (start, k) = upper_bound(&problem);
            layer.insert(
                "solver.evaluate_us",
                per_call_us(iters * 10, &mut || {
                    black_box(evaluate(&problem, black_box(&start)));
                }),
            );
            let rounds = engine.solver_config().polish_rounds;
            let t0 = Instant::now();
            black_box(polish(&problem, &start, k, rounds));
            layer.insert("solver.polish_ms", t0.elapsed().as_secs_f64() * 1e3);

            // traces: the sketches a balance round builds from such series.
            let cfg = SketchConfig::default();
            let cpu: Vec<&TimeSeries> = profiles.iter().map(|p| &p.cpu_cores).collect();
            layer.insert(
                "traces.sketch_build_us",
                per_call_us(iters, &mut || {
                    for series in &cpu {
                        black_box(SeriesSketch::of(series, &cfg));
                    }
                }) / cpu.len() as f64,
            );
            let windows: Vec<[TimeSeries; 4]> = profiles
                .iter()
                .map(|p| {
                    [
                        p.cpu_cores.clone(),
                        p.ram_bytes.clone(),
                        p.disk_working_set_bytes.clone(),
                        p.disk_update_rows_per_sec.clone(),
                    ]
                })
                .collect();
            let sketch = AggregateSketch::of(&ShardAggregate::from_windows(&windows, 300.0), &cfg);
            layer.insert(
                "traces.sketch_bytes",
                kairos_net::frame::encode_frame(&sketch).len() as f64,
            );
            let mut rrd = kairos_traces::Rrd::monitoring_default();
            let values = profiles[0].cpu_cores.values();
            layer.insert(
                "traces.rrd_extend_ns",
                wire::mean_ns(iters, || rrd.extend(black_box(values).iter().copied()))
                    / values.len() as f64,
            );
        });
    }
}
