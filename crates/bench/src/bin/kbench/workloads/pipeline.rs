//! `paper_pipeline`: the one-shot pipeline on the Table 1 mix — disk
//! profiling of the target machine, `Kairos::observe` of the six
//! experiments, buffer-pool gauging, `consolidate`, and `verify_colocated`
//! of every machine the plan shares.
//!
//! `dbsim` + `workloads` + `monitor` + `diskmodel` do > 95 % of the work
//! and `solver` < 2 %, so a solver change must show *no change* here.

use super::{rep_seed, Layer, Rep, RunCfg, Workload};
use crate::spans::Tracer;
use kairos_core::{ConsolidationEngine, Kairos, PipelineConfig};
use kairos_dbsim::{DbmsConfig, DbmsInstance, Host};
use kairos_diskmodel::{run_profiler, DiskModel, ProfilerConfig};
use kairos_monitor::{BufferGauge, GaugeParams, ResourceMonitor, SimGaugeEnv};
use kairos_types::{Bytes, DiskDemand, MachineSpec, Rate, SplitMix64, TimeSeries};
use kairos_workloads::{Driver, TpccWorkload, WikipediaWorkload, Workload as DbWorkload};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One tenant database of an experiment.
#[derive(Debug, Clone, Copy)]
enum Tenant {
    Tpcc { tag: usize, tps: f64 },
    Wiki { tps: f64, seed: u64 },
}

impl Tenant {
    fn build(self) -> Box<dyn DbWorkload> {
        match self {
            Tenant::Tpcc { tag, tps } => {
                Box::new(TpccWorkload::new(10, tps).named(format!("tpcc-10w-{tag}")))
            }
            Tenant::Wiki { tps, seed } => {
                Box::new(WikipediaWorkload::new(100, tps).with_seed(seed))
            }
        }
    }
}

/// The six Table 1 experiments. A draw moves every offered rate by up to
/// ±1 % and reseeds the Wikipedia page choice: enough to change the
/// simulated work, not enough to change which co-locations are sound. (At
/// ±4 % a table in the simulator doubled on about every second draw, and
/// the process peaked at 85 or at 105 MiB.)
fn experiments(seed: u64) -> Vec<Vec<Tenant>> {
    let mut rng = SplitMix64::new(seed);
    let mut tpcc = |n: usize, tps: f64| -> Vec<Tenant> {
        (0..n)
            .map(|tag| Tenant::Tpcc {
                tag,
                tps: tps * rng.next_in(0.99, 1.01),
            })
            .collect()
    };
    let mut mix = vec![
        tpcc(1, 50.0),
        tpcc(1, 250.0),
        tpcc(5, 100.0),
        tpcc(8, 50.0),
        tpcc(5, 400.0),
        tpcc(8, 100.0),
    ];
    for (i, wiki_tps) in [(0, 100.0), (1, 500.0), (3, 50.0), (5, 100.0)] {
        mix[i].push(Tenant::Wiki {
            tps: wiki_tps * rng.next_in(0.99, 1.01),
            seed: rng.next_u64(),
        });
    }
    mix
}

pub struct PaperPipeline {
    seed: u64,
    quick: bool,
}

impl PaperPipeline {
    fn profiler_config(&self) -> ProfilerConfig {
        // A 4 x 6 grid over the Table 1 co-location range (working sets to
        // ~13 GB, rates past single-disk saturation); the smoke run only
        // co-locates up to ~7 GB.
        let (ws, rates, settle, measure): (Vec<u64>, usize, f64, f64) = if self.quick {
            (vec![2, 4, 7], 4, 8.0, 4.0)
        } else {
            (vec![2, 5, 9, 13], 6, 15.0, 5.0)
        };
        ProfilerConfig {
            ws_points: ws
                .into_iter()
                .map(|g| Bytes::gib(g) + Bytes::mib(256))
                .collect(),
            rate_points: (1..=rates)
                .map(|i| i as f64 * 14_400.0 / rates as f64)
                .collect(),
            buffer_pool: Bytes::gib(if self.quick { 8 } else { 16 }),
            settle_secs: settle,
            measure_secs: measure,
            ..ProfilerConfig::paper_like()
        }
    }

    fn pipeline_config(&self) -> PipelineConfig {
        PipelineConfig {
            source_buffer_pool: Bytes::gib(8),
            target_buffer_pool: Bytes::gib(24),
            observe_secs: if self.quick { 10.0 } else { 40.0 },
            warmup_secs: if self.quick { 5.0 } else { 20.0 },
            monitor_interval_secs: 5.0,
            gauge: false,
            ..Default::default()
        }
    }

    /// Gauge one workload's buffer pool the way `Kairos::observe` does and
    /// check the estimate against the workload's true working set.
    fn gauge(&self, tr: &Tracer, workload: Box<dyn DbWorkload>, rep: &mut Rep) {
        let name = workload.name().to_string();
        let truth = workload.working_set().as_f64();
        let mut host = Host::new(MachineSpec::server1());
        host.add_instance(DbmsInstance::new(DbmsConfig::mysql(Bytes::gib(
            if self.quick { 3 } else { 4 },
        ))));
        let mut driver = Driver::new();
        driver.bind(&mut host, 0, workload);
        let db = driver.bindings()[0].handle.db;
        let warm = self.pipeline_config().warmup_secs;
        let (_, secs) = tr.timed("Driver::warmup", || driver.warmup(&mut host, warm));
        *rep.layer.entry("dbsim.driver_run_s").or_default() += secs;
        *rep.layer.entry("dbsim.sim_secs").or_default() += warm;

        let mut env = SimGaugeEnv::new(&mut host, &mut driver, 0, db);
        let gauge = BufferGauge::new(GaugeParams {
            initial_step_pages: 256,
            max_step_pages: 4096,
            read_wait_secs: 1.0,
            window_secs: 5.0,
            ..Default::default()
        });
        let (outcome, secs) = tr.timed("BufferGauge::run", || gauge.run(&mut env));
        *rep.layer.entry("monitor.gauge_s").or_default() += secs;
        *rep.layer.entry("monitor.gauge_sim_secs").or_default() += outcome.duration_secs;
        let ratio = outcome.working_set.as_f64() / truth;
        let worst = rep.layer.entry("monitor.gauge_error_ratio").or_default();
        *worst = worst.max((ratio - 1.0).abs());
        rep.attempted += 1;
        rep.check((0.75..=1.25).contains(&ratio), || {
            format!("gauge {name}: estimate is {ratio:.3} of the true working set")
        });
    }
}

impl Workload for PaperPipeline {
    const REP_SECONDS: f64 = 5.0;

    fn new(cfg: &RunCfg) -> PaperPipeline {
        PaperPipeline {
            seed: cfg.seed,
            quick: cfg.quick,
        }
    }

    fn rep(&mut self, k: u64, tr: &Tracer) -> Rep {
        let mut rep = Rep::default();
        let experiments = experiments(rep_seed(self.seed, k));

        // Set-up: the target machine's disk model. The paper builds it
        // once per hardware configuration, before any consolidation
        // request, so it is this workload's set-up and not its timed pass.
        let t0 = Instant::now();
        let profiler = self.profiler_config();
        let (profile, secs) = tr.timed("run_profiler", || run_profiler(&profiler));
        rep.layer.insert("diskmodel.profile_s", secs);
        rep.layer
            .insert("diskmodel.grid_points", profile.points.len() as f64);
        let (model, secs) = tr.timed("DiskModel::fit", || DiskModel::fit(&profile));
        rep.layer.insert("diskmodel.fit_us", secs * 1e6);
        let model = match model {
            Ok(model) => Arc::new(model),
            Err(e) => {
                rep.attempted = 1;
                rep.failures.push(format!("disk model does not fit: {e}"));
                return rep;
            }
        };
        let engine = ConsolidationEngine::builder()
            .disk_model(model)
            .headroom(0.9)
            .build();
        let kairos = Kairos::new(self.pipeline_config());
        // Co-located verification must outlast the checkpoint-stall
        // transient (a 512 MB redo log fills in ~100 s at unsound rates).
        let verifier = Kairos::new(PipelineConfig {
            warmup_secs: if self.quick { 20.0 } else { 80.0 },
            ..self.pipeline_config()
        });
        let verify_secs = if self.quick { 10.0 } else { 20.0 };
        rep.setup_s = t0.elapsed().as_secs_f64();

        let t_pass = Instant::now();
        {
            self.gauge(tr, experiments[2][0].build(), &mut rep);
            self.gauge(tr, experiments[0][1].build(), &mut rep);

            let (mut tenants, mut machines) = (0usize, 0usize);
            // The smoke run keeps experiments 1, 3 and 5.
            let stride = if self.quick { 2 } else { 1 };
            for (idx, tenants_of) in experiments.iter().enumerate().step_by(stride) {
                let exp = idx + 1;
                rep.attempted += 1;
                let t_exp = Instant::now();

                let mut profiles = Vec::new();
                let mut solo_tps = Vec::new();
                for tenant in tenants_of {
                    let (obs, secs) =
                        tr.timed("Kairos::observe", || kairos.observe(tenant.build()));
                    rep.fast_ops_s.push(secs);
                    *rep.layer.entry("core.observe_s").or_default() += secs;
                    solo_tps.push(obs.standalone_tps);
                    // Ungauged, the OS view claims the whole pool; plan on
                    // the true working set, which gauging recovers.
                    let ws = tenant.build().working_set();
                    let mut p = obs.profile;
                    let (dt, n) = (p.interval_secs(), p.windows());
                    p.ram_bytes = TimeSeries::constant(dt, (ws + Bytes::mib(190)).as_f64(), n);
                    p.disk_working_set_bytes = TimeSeries::constant(dt, ws.as_f64(), n);
                    profiles.push(p);
                }

                let (plan, secs) = tr.timed("ConsolidationEngine::consolidate", || {
                    engine.consolidate(&profiles)
                });
                *rep.layer.entry("core.consolidate_s").or_default() += secs;
                let Ok(plan) = plan else {
                    rep.failures.push(format!("experiment {exp}: no plan"));
                    continue;
                };
                let problem = engine.problem(&profiles).expect("profiles are non-empty");
                let feasible = kairos_solver::evaluate(&problem, &plan.report.assignment).feasible;
                let (fits, _) = tr.timed("ConsolidationEngine::fits_together", || {
                    engine.fits_together(&profiles).unwrap_or(false)
                });
                let mut ok = feasible && (fits == (plan.machines_used() == 1));
                tenants += tenants_of.len();
                machines += plan.machines_used();

                // The verified plan: run every machine the plan shares and
                // hold each tenant to 95 % of its standalone throughput. A
                // tenant alone on a machine is its own standalone run.
                for (_, slots) in plan.report.assignment.by_machine() {
                    if slots.len() < 2 {
                        continue;
                    }
                    let group = slots.iter().map(|&s| tenants_of[s].build()).collect();
                    let (verified, secs) = tr.timed("Kairos::verify_colocated", || {
                        verifier.verify_colocated(group, verify_secs)
                    });
                    *rep.layer.entry("dbsim.verify_colocated_s").or_default() += secs;
                    ok &= slots
                        .iter()
                        .zip(&verified)
                        .all(|(&s, v)| v.tps >= 0.95 * solo_tps[s]);
                }
                rep.check(ok, || {
                    format!(
                        "experiment {exp}: feasible={feasible} fits_together={fits} machines={}",
                        plan.machines_used()
                    )
                });
                rep.slow_ops_s.push(t_exp.elapsed().as_secs_f64());
            }
            rep.density = tenants as f64 / machines.max(1) as f64;
            rep.counts.insert("machines", machines as u64);
        }
        let pass_secs = t_pass.elapsed().as_secs_f64();
        rep.work_wall_s = pass_secs;
        rep.settles_s.push(pass_secs);
        if let Some(sim) = rep.layer.remove("dbsim.sim_secs") {
            let wall = rep.layer["dbsim.driver_run_s"];
            rep.layer.insert("dbsim.sim_secs_per_wall_s", sim / wall);
        }
        rep
    }

    fn probes(&mut self, tr: &Tracer, layer: &mut Layer) {
        tr.timed("probes", || {
            // monitor: one sample per 5 s monitoring window of a live TPC-C.
            let mut host = Host::new(MachineSpec::server1());
            host.add_instance(DbmsInstance::new(DbmsConfig::mysql(Bytes::gib(8))));
            let mut driver = Driver::new();
            driver.bind(&mut host, 0, experiments(self.seed)[2][0].build());
            driver.warmup(&mut host, 10.0);
            let mut monitor = ResourceMonitor::new(5.0, host.instance(0));
            let windows = if self.quick { 4 } else { 24 };
            let mut sample_secs = 0.0;
            for _ in 0..windows {
                driver.run(&mut host, 5.0);
                let t0 = Instant::now();
                black_box(monitor.sample(host.instance(0)));
                sample_secs += t0.elapsed().as_secs_f64();
            }
            layer.insert("monitor.sample_us", sample_secs * 1e6 / windows as f64);

            // diskmodel: prediction cost on a model fitted to a smoke grid.
            let model = DiskModel::fit(&run_profiler(&ProfilerConfig::smoke()))
                .expect("the smoke grid fits");
            let iters = 200_000u32;
            let t0 = Instant::now();
            for i in 0..iters {
                let demand = DiskDemand::new(
                    Bytes::mib(256 + u64::from(i % 700)),
                    Rate(2_000.0 + f64::from(i % 1_000) * 30.0),
                );
                black_box(model.predict_write_bytes(black_box(demand)));
            }
            layer.insert(
                "diskmodel.predict_ns",
                t0.elapsed().as_secs_f64() * 1e9 / f64::from(iters),
            );
        });
    }
}
