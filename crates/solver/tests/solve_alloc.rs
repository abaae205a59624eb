//! Allocation as a gate that can fail: a counting global allocator (std
//! only) holds a solve to a count that does not follow its budget.
//!
//! A solve through a reused `SolveScratch` runs the §6 pipeline — bounds,
//! probes, the final DIRECT run — and DIRECT's storage and the score memo
//! grow by doubling, so quadrupling `final_evals` may add a few allocations
//! but never one per rectangle or per evaluation: the count at 8,000
//! evaluations stays within 1.25× the count at 2,000. Planting a `Vec` per
//! rectangle, or a boxed memo key per miss on a problem of at most 128
//! slots, fails this. The solve is cold on the online re-solver's
//! migration-priced problem: a warm one whose polished start beats greedy
//! ends before the final run, so it would spend no `final_evals` at all.
//!
//! Polish is held to the same rule on its own: sixty rounds from a stacked
//! start allocate what one round does, give or take a slot list outgrowing
//! its capacity. A copy of a machine's slot list per merge candidate fails
//! this.
//!
//! Counts are per thread, so the harness's parallel tests do not see
//! each other's allocations.

use kairos_solver::{
    polish, solve_with, Assignment, ConsolidationProblem, LinearDiskCombiner, SolveReport,
    SolveScratch, SolverConfig, TargetMachine, WorkloadSpec,
};
use kairos_types::SplitMix64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// `System`, counting every allocation. Each method hands its caller's
/// arguments to `System` unchanged, and `count` neither allocates nor
/// touches the memory, so `System` sees exactly the calls it would have.
struct Counting;

// SAFETY: every method forwards to `System`, itself a `GlobalAlloc`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`, returning its result and how many allocations it made.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// 24 tenants over a 12-window horizon, priced against a plan that packed
/// them onto four machines before their CPU rose.
fn drifted() -> ConsolidationProblem {
    let mut rng = SplitMix64::new(0xA110C);
    let workloads = (0..24)
        .map(|i| {
            let mut w = WorkloadSpec::flat(format!("t{i:02}"), 0, 0.0, 0.0, 0.0, 0.0);
            let cpu = rng.next_in(0.8, 3.0);
            w.cpu = (0..12).map(|_| cpu * rng.next_in(0.7, 1.3)).collect();
            w.ram = vec![rng.next_in(2e9, 9e9); 12];
            w.ws = w.ram.iter().map(|r| 0.3 * r).collect();
            w.rate = (0..12).map(|_| rng.next_in(40.0, 900.0)).collect();
            w
        })
        .collect();
    ConsolidationProblem::new(
        workloads,
        TargetMachine::paper_target(),
        24,
        Arc::new(LinearDiskCombiner::default()),
    )
    .with_migration((0..24).map(|i| Some(i % 4)).collect(), 0.25)
}

#[test]
fn a_solves_allocations_do_not_follow_its_budget() {
    let problem = drifted();
    let mut scratch = SolveScratch::default();
    let mut solve = |final_evals: usize| -> (SolveReport, u64) {
        let cfg = SolverConfig {
            probe_evals: 400,
            final_evals,
            polish_rounds: 60,
            ..Default::default()
        };
        let (report, allocs) = allocations(|| solve_with(&problem, &cfg, &mut scratch));
        let report = report.expect("a feasible plan");
        assert!(
            report.evals_used >= final_evals - 1,
            "the final DIRECT run spends its budget: {} evaluations",
            report.evals_used
        );
        (report, allocs)
    };
    // The first solve sizes the scratch.
    solve(2_000);
    let (_, small) = solve(2_000);
    let (_, large) = solve(8_000);
    assert!(
        large * 4 <= small * 5,
        "allocations follow the budget: {small} at 2,000 evaluations, {large} at 8,000"
    );
}

/// 60 tenants over a 288-window day, each with its own diurnal peak, all
/// stacked on machine k/2 — DIRECT's first centre decodes every slot there
/// — so polish has everything to spread.
fn stacked(k: usize) -> (ConsolidationProblem, Assignment) {
    let mut rng = SplitMix64::new(0x57AC);
    let workloads = (0..60)
        .map(|i| {
            let mut w = WorkloadSpec::flat(format!("t{i:02}"), 0, 0.0, 0.0, 0.0, 0.0);
            let (cpu, peak) = (rng.next_in(0.3, 3.0), rng.next_in(0.0, 288.0));
            let day = |t: usize| 1.0 + (std::f64::consts::TAU * (t as f64 - peak) / 288.0).cos();
            w.cpu = (0..288)
                .map(|t| cpu * day(t) * rng.next_in(0.8, 1.2))
                .collect();
            w.ram = vec![rng.next_in(2e9, 12e9); 288];
            w.ws = w.ram.iter().map(|r| 0.3 * r).collect();
            w.rate = (0..288)
                .map(|t| rng.next_in(40.0, 900.0) * day(t))
                .collect();
            w
        })
        .collect();
    let problem = ConsolidationProblem::new(
        workloads,
        TargetMachine::paper_target(),
        60,
        Arc::new(LinearDiskCombiner::default()),
    );
    (problem, Assignment::new(vec![k / 2; 60]))
}

#[test]
fn a_polishs_allocations_do_not_follow_its_work() {
    for k in [12, 18, 40] {
        let (problem, start) = stacked(k);
        // The slot cache is built once per problem, by whoever asks first.
        problem.slot_series();
        let (one, few) = allocations(|| polish(&problem, &start, k, 1));
        let (all, many) = allocations(|| polish(&problem, &start, k, 60));
        assert!(
            all.rounds >= 4 && all.moves > one.moves,
            "k {k}: the long polish did no more work ({} rounds)",
            all.rounds
        );
        // A slot list or the merge buffer may outgrow its capacity once or
        // twice more; nothing may allocate per round, machine or candidate.
        assert!(
            many <= few + 4,
            "k {k}: {few} allocations in one round, {many} in {}",
            all.rounds
        );
    }
}
