//! One workload, one process: a smoke-size warm-up, then as many
//! repetitions as bring the timed work to `--seconds` (never fewer than
//! three), each on fresh state and on its own draw of inputs, then — in
//! the traced pass — the first draw once more with spans on, and the layer
//! probes.

use crate::env::{output_dir, peak_rss_mib};
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::{self, Tracer};
use crate::stats::{median, percentile, quartiles};
use crate::workloads::consolidation::DatasetConsolidation;
use crate::workloads::hierarchy::RpcHierarchy;
use crate::workloads::online::{OnlineDrift, OnlineSteady, RpcFleetLoop};
use crate::workloads::pipeline::PaperPipeline;
use crate::workloads::{Layer, Rep, RunCfg, Workload, NAMES};

const MIN_REPS: usize = 3;
const MAX_REPS: usize = 12;

/// Which passes an invocation runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Passes {
    Untraced,
    Traced,
    Both,
}

pub fn run_named(name: &str, cfg: &RunCfg, passes: Passes) -> Option<Json> {
    let index = NAMES.iter().position(|n| *n == name)?;
    Some(match index {
        0 => run::<PaperPipeline>(name, cfg, passes),
        1 => run::<DatasetConsolidation>(name, cfg, passes),
        2 => run::<OnlineSteady>(name, cfg, passes),
        3 => run::<OnlineDrift>(name, cfg, passes),
        4 => run::<RpcFleetLoop>(name, cfg, passes),
        _ => run::<RpcHierarchy>(name, cfg, passes),
    })
}

fn metric(value: f64, unit: &str, samples: &[f64]) -> Json {
    let (q1, q3) = quartiles(samples);
    Json::obj()
        .with("value", value)
        .with("unit", unit)
        .with("q1", q1)
        .with("q3", q3)
        .with("n", samples.len())
        .with(
            "samples",
            samples.iter().copied().map(Json::from).collect::<Vec<_>>(),
        )
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// The slow class's tail over the repetitions' pooled operations, in
/// seconds, and what it is: the highest of p95, p90 and p75 that has at
/// least ten pooled samples beyond it, and otherwise (six experiments,
/// four datasets: no percentile qualifies) the median across repetitions
/// of a repetition's slowest operation.
fn slow_tail(reps: &[Rep]) -> (f64, &'static str) {
    let pooled: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.slow_ops_s.iter().copied())
        .collect();
    let ladder = [(95.0, "p95"), (90.0, "p90"), (75.0, "p75")];
    if let Some(tail) = ladder
        .iter()
        .find_map(|&(p, name)| Some((percentile(&pooled, p)?, name)))
    {
        return tail;
    }
    let slowest = |r: &Rep| r.slow_ops_s.iter().copied().fold(0.0, f64::max);
    (median(&reps.iter().map(slowest).collect::<Vec<_>>()), "max")
}

fn end_to_end(reps: &[Rep], rss_mib: f64, fast_op: fn(&[f64]) -> f64) -> Json {
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    // A repetition's typical slow operation is the mean: the slow classes
    // are multi-modal (a warm re-solve either accepts the incumbent
    // outright or runs the full search), and which mode holds the p50
    // flips with the seed, while the mean follows the class's total time.
    let samples: [Vec<f64>; 8] = [
        per_rep(&|r| r.setup_s),
        vec![rss_mib],
        per_rep(&|r| r.work_wall_s),
        per_rep(&|r| fast_op(&r.fast_ops_s) * 1e6),
        per_rep(&|r| mean(&r.slow_ops_s) * 1e3),
        vec![slow_tail(reps).0 * 1e3],
        per_rep(&|r| mean(&r.settles_s) * 1e3),
        per_rep(&|r| r.density),
    ];
    let mut out = Json::obj();
    for (m, samples) in END_TO_END.iter().zip(&samples) {
        out = out.with(m.name, metric(median(samples), m.unit, samples));
    }
    out
}

/// The first draw's counts. They repeat exactly whenever that draw is
/// re-run: by the traced repetition of this run, and by any other run of
/// the same seed (`compare` holds two result files to that).
fn counts(first: &Rep, rerun: Option<&Rep>, failures: &mut Vec<String>) -> Json {
    let mut out = Json::obj();
    for (name, value) in &first.counts {
        if let Some(again) = rerun.filter(|r| r.counts.get(name) != Some(value)) {
            failures.push(format!(
                "count {name} did not repeat: {value} then {:?}",
                again.counts.get(name)
            ));
        }
        out = out.with(name, *value);
    }
    out
}

fn run<W: Workload>(name: &str, cfg: &RunCfg, passes: Passes) -> Json {
    let mut workload = W::new(cfg);
    let mut out = Json::obj().with("name", name).with("seed", cfg.seed);

    // Warm-up at smoke size: code paths, lazy statics and allocator
    // arenas, not a full repetition the time budget cannot afford. The
    // median of three or more repetitions absorbs what it leaves cold.
    if !cfg.quick {
        let quick = RunCfg {
            quick: true,
            ..*cfg
        };
        W::new(&quick).rep(0, &Tracer::off());
    }

    // The traced pass and the smoke run need one untraced repetition; a
    // measurement makes as many, each on the next draw of inputs, as bring
    // the timed work to `--seconds` on the reference box.
    let wanted = if passes == Passes::Traced || cfg.quick {
        1
    } else {
        ((cfg.seconds / W::REP_SECONDS).ceil() as usize).clamp(MIN_REPS, MAX_REPS)
    };
    let off = Tracer::off();
    let reps: Vec<Rep> = (0..wanted).map(|k| workload.rep(k as u64, &off)).collect();
    let rss_mib = peak_rss_mib();
    let mut attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.failures.clone()).collect();

    // The traced repetition re-runs the first draw.
    let traced = (passes != Passes::Untraced).then(|| {
        let tracer = Tracer::on();
        tracer.set_rep(reps.len() as u32);
        let t0 = tracer.now_ns();
        let rep = workload.rep(0, &tracer);
        let t1 = tracer.now_ns();
        (tracer, rep, t0, t1)
    });
    let counts = counts(&reps[0], traced.as_ref().map(|t| &t.1), &mut failures);

    if passes != Passes::Traced {
        let fast_op: fn(&[f64]) -> f64 = if W::FAST_OP_IS_MEAN { mean } else { median };
        let slow_pooled: usize = reps.iter().map(|r| r.slow_ops_s.len()).sum();
        out = out
            .with("reps", reps.len())
            .with("end_to_end", end_to_end(&reps, rss_mib, fast_op))
            .with("slow_op_tail_is", slow_tail(&reps).1)
            .with("slow_ops_pooled", slow_pooled)
            .with("counts", counts);
    }

    if let Some((tracer, traced, t0, t1)) = traced {
        attempted += traced.attempted;
        failures.extend(traced.failures);

        let mut layer: Layer = traced.layer;
        workload.probes(&tracer, &mut layer);
        let all = tracer.spans();
        layer.insert(
            "bench.span_cover_ratio",
            spans::top_level_cover(&all, t0, t1),
        );
        // Traced over untraced wall of the same draw.
        if reps[0].work_wall_s > 0.0 {
            layer.insert(
                "bench.trace_overhead_ratio",
                traced.work_wall_s / reps[0].work_wall_s,
            );
        }
        layer.insert(
            "bench.failed_ops_share",
            failures.len() as f64 / attempted.max(1) as f64,
        );

        let path = output_dir().join(format!("{name}.spans.json"));
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, spans::spans_json(name, &all).render()));
        match written {
            Ok(()) => out = out.with("spans_file", path.display().to_string()),
            Err(e) => eprintln!("kbench: cannot write {}: {e}", path.display()),
        }

        let mut per_layer = Json::obj();
        for (metric_name, unit, _) in PER_LAYER {
            let value = layer.remove(metric_name).unwrap_or(0.0);
            per_layer = per_layer.with(
                metric_name,
                Json::obj().with("value", value).with("unit", unit),
            );
        }
        debug_assert!(
            layer
                .keys()
                .all(|k| PER_LAYER.iter().any(|(n, _, _)| n == k)),
            "a workload reported a layer name the table does not list: {layer:?}"
        );
        out = out.with("per_layer", per_layer);
    }

    let failed = (failures.len() as u64).min(attempted.max(1));
    failures.truncate(20);
    out.with("attempted", attempted.max(1))
        .with("failed", failed)
        .with(
            "failures",
            failures.into_iter().map(Json::from).collect::<Vec<_>>(),
        )
}

/// `{name: {value, unit}}` for the last line the driver reads.
pub fn contract_line(result: &Json, passes: Passes) -> Json {
    let section = if passes == Passes::Traced {
        "per_layer"
    } else {
        "end_to_end"
    };
    let mut metrics = Json::obj();
    for (name, m) in result.get(section).map_or(&[][..], Json::fields) {
        metrics = metrics.with(
            name,
            Json::obj()
                .with("value", m.get("value").cloned().unwrap_or(Json::Null))
                .with("unit", m.get("unit").cloned().unwrap_or(Json::Null)),
        );
    }
    let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
    Json::obj()
        .with("correct", failed == 0.0)
        .with(
            "attempted",
            result.get("attempted").cloned().unwrap_or(Json::Num(1.0)),
        )
        .with("failed", failed)
        .with("metrics", metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: RunCfg = RunCfg {
        seed: 7,
        seconds: 1.0,
        quick: true,
    };

    /// Quick mode on one workload: its checks pass and every end-to-end
    /// metric is a positive number.
    fn smoke(name: &str) -> Json {
        let result = run_named(name, &SMOKE, Passes::Untraced).expect("a workload name");
        assert_eq!(
            result.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{name}: {:?}",
            result.get("failures")
        );
        for m in &END_TO_END {
            let value = result
                .get("end_to_end")
                .and_then(|e| e.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64);
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{name}.{}: {value:?}",
                m.name
            );
        }
        result
    }

    #[test]
    fn smoke_paper_pipeline() {
        smoke("paper_pipeline");
    }

    #[test]
    fn smoke_dataset_consolidation() {
        smoke("dataset_consolidation");
    }

    #[test]
    fn smoke_online_steady() {
        let result = smoke("online_steady");
        let resolves = result
            .get("counts")
            .and_then(|c| c.get("controller.resolves"));
        assert_eq!(resolves.and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn smoke_online_drift() {
        smoke("online_drift");
    }

    #[test]
    fn smoke_rpc_fleet() {
        smoke("rpc_fleet");
    }

    #[test]
    fn smoke_rpc_hierarchy() {
        let result = smoke("rpc_hierarchy");
        let moved = result
            .get("counts")
            .and_then(|c| c.get("fleet.groups_moved"));
        assert!(moved.and_then(Json::as_f64).is_some_and(|m| m >= 1.0));
    }

    /// The traced pass names every per-layer metric, writes the spans
    /// file, and the driver's line carries exactly the contract's keys.
    #[test]
    fn traced_pass_reports_every_layer_name() {
        let result = run_named("dataset_consolidation", &SMOKE, Passes::Traced).expect("a name");
        let layers = result.get("per_layer").expect("per_layer section");
        assert_eq!(layers.fields().len(), PER_LAYER.len());
        let value = |n: &str| {
            layers
                .get(n)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert!(value("solver.evals").is_some_and(|v| v > 0.0));
        assert!(value("bench.span_cover_ratio").is_some_and(|v| v > 0.9));
        assert_eq!(
            value("net.call_share"),
            Some(0.0),
            "no wire in this workload"
        );
        let spans = result
            .get("spans_file")
            .and_then(Json::as_str)
            .expect("spans written");
        let doc = Json::parse(&std::fs::read_to_string(spans).expect("spans file")).expect("json");
        assert!(!doc.get("spans").expect("spans").items().is_empty());

        let line = contract_line(&result, Passes::Traced);
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(Json::parse(&line.render()).expect("round trip"), line);
    }
}
