//! Coherence of the structure-of-arrays slot-series cache.
//!
//! The solver hot path evaluates through [`SlotSeries`] — per-slot
//! series flattened once per problem — instead of re-deriving demands
//! from the workload specs on every call. These property tests pin the
//! cache to the ground truth:
//!
//! * on randomized problems (replicas, anti-affinity, migration
//!   baselines), `evaluate` (cached) must equal `evaluate_reference`
//!   (cache-free) **bit-for-bit**, including after warm re-solves whose
//!   problems carry migration terms;
//! * fault injection: corrupting any cached series must be caught by
//!   [`SlotSeries::coherent_with`], and a corrupted cache fed through
//!   `evaluate_with_series` must actually change the objective (i.e. the
//!   check guards something real).
//!
//! Cases are generated from a seeded [`SplitMix64`] stream
//! ([`SplitMix64::from_env`]; CI sweeps `KAIROS_TEST_SEED`).

use kairos_solver::{
    evaluate, evaluate_reference, evaluate_with_series, solve_warm, Assignment,
    ConsolidationProblem, LinearDiskCombiner, SlotSeries, SolverConfig, TargetMachine,
    WorkloadSpec,
};
use kairos_types::SplitMix64;
use std::sync::Arc;

/// A random problem: 2–9 workloads, 1–6 windows of varying (per-window)
/// load, occasional replicas and one anti-affinity pair.
fn random_problem(rng: &mut SplitMix64) -> ConsolidationProblem {
    let n = 2 + rng.next_range(8) as usize;
    let windows = 1 + rng.next_range(6) as usize;
    let workloads: Vec<WorkloadSpec> = (0..n)
        .map(|i| {
            let mut w = WorkloadSpec::flat(format!("w{i}"), windows, 0.0, 0.0, 0.0, 0.0);
            w.cpu = (0..windows).map(|_| rng.next_in(0.1, 5.0)).collect();
            w.ram = (0..windows).map(|_| rng.next_in(1e9, 24e9)).collect();
            w.ws = w.ram.iter().map(|r| r * 0.3).collect();
            w.rate = (0..windows).map(|_| rng.next_in(10.0, 1_500.0)).collect();
            if rng.next_range(5) == 0 {
                w.replicas = 2;
            }
            w
        })
        .collect();
    let mut p = ConsolidationProblem::new(
        workloads,
        TargetMachine::paper_target(),
        n + 2,
        Arc::new(LinearDiskCombiner::default()),
    );
    if rng.next_range(2) == 0 {
        p = p.with_anti_affinity(vec![(0, 1)]);
    }
    p
}

fn random_assignment(rng: &mut SplitMix64, problem: &ConsolidationProblem) -> Assignment {
    let slots = problem.slots().len();
    Assignment::new(
        (0..slots)
            .map(|_| rng.next_range(problem.max_machines as u64) as usize)
            .collect(),
    )
}

fn assert_bit_identical(p: &ConsolidationProblem, a: &Assignment, case: usize) {
    let cached = evaluate(p, a);
    let reference = evaluate_reference(p, a);
    assert_eq!(
        cached.objective.to_bits(),
        reference.objective.to_bits(),
        "case {case}: objective diverged: cached {} vs reference {}",
        cached.objective,
        reference.objective
    );
    assert_eq!(cached.violation.to_bits(), reference.violation.to_bits());
    assert_eq!(cached.feasible, reference.feasible);
    assert_eq!(cached.machines_used, reference.machines_used);
    assert_eq!(cached.moves_from_baseline, reference.moves_from_baseline);
    assert_eq!(cached.loads, reference.loads, "case {case}: load series");
}

#[test]
fn cached_evaluate_matches_reference_on_random_problems() {
    let mut rng = SplitMix64::from_env(0xCAC4E);
    // Both sides of feasibility: an infeasible objective is where the two
    // paths' excess arithmetic (a subtotal per machine, those summed from
    // zero) could part ways.
    let (mut feasible, mut infeasible) = (0, 0);
    for case in 0..40 {
        let p = random_problem(&mut rng);
        for _ in 0..4 {
            let a = random_assignment(&mut rng, &p);
            assert_bit_identical(&p, &a, case);
            if evaluate(&p, &a).feasible {
                feasible += 1;
            } else {
                infeasible += 1;
            }
        }
    }
    assert!(
        feasible >= 10 && infeasible >= 10,
        "one-sided: {feasible} feasible, {infeasible} infeasible"
    );
}

#[test]
fn cache_stays_coherent_across_warm_resolves() {
    // After any warm re-solve — whose problem carries a migration
    // baseline and whose caches have been exercised by the search —
    // a cached evaluation of the returned plan must equal the
    // from-scratch one bit-for-bit, and the cache must still verify.
    let mut rng = SplitMix64::from_env(0x5EED_CAFE);
    let cfg = SolverConfig { polish_rounds: 20 };
    for case in 0..8 {
        let base = random_problem(&mut rng);
        let start = random_assignment(&mut rng, &base);
        let baseline = start.machine_of.iter().map(|&m| Some(m)).collect();
        let warm_p = base.clone().with_migration(baseline, 0.25);
        let Ok(report) = solve_warm(&warm_p, &cfg, &start) else {
            continue; // some random fleets are simply unplaceable
        };
        assert_bit_identical(&warm_p, &report.assignment, case);
        assert!(
            warm_p.slot_series().coherent_with(&warm_p),
            "case {case}: cache incoherent after warm re-solve"
        );
        // Random post-solve evaluations reuse the same cache.
        for _ in 0..3 {
            let a = random_assignment(&mut rng, &warm_p);
            assert_bit_identical(&warm_p, &a, case);
        }
    }
}

#[test]
fn corrupted_cache_is_caught() {
    let mut rng = SplitMix64::from_env(0xBADCAC4E);
    for case in 0..20 {
        let p = random_problem(&mut rng);
        let good = p.slot_series();
        assert!(good.coherent_with(&p), "fresh cache must verify");

        // Fault injection: corrupt one cached value in one random series.
        // The working-set series only feeds the (non-linear) disk
        // combiner — the linear test combiner ignores it — so the
        // objective-divergence check below corrupts cpu/ram/rate; ws
        // corruption is still exercised against the coherence check.
        let mut ws_bad: SlotSeries = good.as_ref().clone();
        let ws_idx = rng.next_range(ws_bad.ws.len() as u64) as usize;
        ws_bad.ws[ws_idx] += 1e9;
        assert!(
            !ws_bad.coherent_with(&p),
            "case {case}: ws corruption must fail the coherence check"
        );

        let mut bad: SlotSeries = good.as_ref().clone();
        let idx = rng.next_range(bad.cpu.len() as u64) as usize;
        let bump = 1.0 + rng.next_in(0.5, 2.0);
        match rng.next_range(3) {
            0 => bad.cpu[idx] += bump,
            1 => bad.ram[idx] += bump * 1e9,
            _ => bad.rate[idx] += bump * 100.0,
        }
        assert!(
            !bad.coherent_with(&p),
            "case {case}: corruption must fail the coherence check"
        );

        // The corruption is load-bearing: evaluating through the
        // corrupted cache diverges from the reference on an assignment
        // that uses the corrupted slot.
        let a = random_assignment(&mut rng, &p);
        let corrupted = evaluate_with_series(&p, &bad, &a);
        let reference = evaluate_reference(&p, &a);
        assert_ne!(
            corrupted.objective.to_bits(),
            reference.objective.to_bits(),
            "case {case}: corrupted cache evaluated identically — check is vacuous"
        );
    }
}
