//! Criterion micro-benchmarks for the consolidation optimizer: DIRECT
//! iterations, objective evaluation, local-search polish, and the full
//! bounded pipeline at fleet scale.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use kairos_solver::{
    direct_minimize, evaluate, greedy_pack, polish, solve, Assignment, ConsolidationProblem,
    DirectConfig, LinearDiskCombiner, SolverConfig, TargetMachine, WorkloadSpec,
};
use std::hint::black_box;
use std::sync::Arc;

fn problem(n: usize, windows: usize) -> ConsolidationProblem {
    let w = (0..n)
        .map(|i| {
            WorkloadSpec::flat(
                format!("w{i}"),
                windows,
                0.3 + (i % 7) as f64 * 0.4,
                (2 + (i % 5)) as f64 * 3e9,
                1e9,
                100.0 + (i % 11) as f64 * 90.0,
            )
        })
        .collect();
    ConsolidationProblem::new(
        w,
        TargetMachine::paper_target(),
        n,
        Arc::new(LinearDiskCombiner::default()),
    )
}

fn bench_objective(c: &mut Criterion) {
    let p = problem(100, 288);
    let a = Assignment::new((0..100).map(|i| i % 12).collect());
    c.bench_function("objective/evaluate_100w_288win", |b| {
        b.iter(|| black_box(evaluate(&p, &a).objective))
    });
}

fn bench_direct(c: &mut Criterion) {
    c.bench_function("direct/rastrigin_2d_2000evals", |b| {
        b.iter(|| {
            let r = direct_minimize(
                2,
                &DirectConfig {
                    max_evals: 2000,
                    ..Default::default()
                },
                |x| {
                    let mut s = 20.0;
                    for &xi in x {
                        let z = (xi - 0.5) * 8.0;
                        s += z * z - 10.0 * (2.0 * std::f64::consts::PI * z).cos();
                    }
                    s
                },
            );
            black_box(r.best_f)
        })
    });
}

fn bench_polish(c: &mut Criterion) {
    // The probe shape that dominated a cold SecondLife solve: 97 slots
    // over a day of 5-minute windows, spread across far more machines
    // than the plan ends on, so most destinations start or become empty.
    let p = problem(97, 288);
    let start = Assignment::new((0..97).map(|i| i % 56).collect());
    c.bench_function("local/polish_97w_288win_k56", |b| {
        b.iter_batched(
            || start.clone(),
            |s| black_box(polish(&p, &s, 56, 20).assignment),
            BatchSize::SmallInput,
        )
    });
}

fn bench_greedy(c: &mut Criterion) {
    let p = problem(100, 48);
    c.bench_function("greedy/pack_100w_48win", |b| {
        b.iter(|| black_box(greedy_pack(&p).map(|g| g.machines_used)))
    });
}

fn bench_full_solve(c: &mut Criterion) {
    let p = problem(50, 24);
    let cfg = SolverConfig {
        probe_evals: 500,
        final_evals: 2000,
        polish_rounds: 20,
        ..Default::default()
    };
    let mut group = c.benchmark_group("solve");
    group.sample_size(10);
    group.bench_function("bounded_50w_24win", |b| {
        b.iter(|| black_box(solve(&p, &cfg).unwrap().assignment.machines_used()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_objective,
    bench_direct,
    bench_polish,
    bench_greedy,
    bench_full_solve
);
criterion_main!(benches);
