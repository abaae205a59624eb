//! Allocation as a gate that can fail: a counting global allocator (std
//! only) holds a solve to a count that does not follow its work.
//!
//! A solve runs the §6 pipeline — bounds, the probes, the final run — and
//! each search at a K polishes one seed. Polishing more rounds may make a
//! slot list outgrow its capacity once or twice more, but allocates
//! nothing per round: a solve whose searches polish up to 60 rounds
//! allocates within 4 of one whose searches polish one round each, at the
//! same probes and K′. An allocation planted in polish's round loop fails
//! this.
//!
//! Polish is held to the same rule on its own: sixty rounds from a stacked
//! start allocate what one round does, give or take a slot list outgrowing
//! its capacity. A copy of a machine's slot list per merge candidate fails
//! this.
//!
//! DIRECT, which seeds the searches of problems of at most a dozen free
//! slots, allocates nothing per point either: its rectangles and the
//! memo of machine shares grow by doubling, so 8,000 evaluations may
//! allocate at most 1.25× what 2,000 do. A decode into a fresh assignment
//! per point, or a memo key allocated per new machine set, fails this.
//!
//! Counts are per thread, so the harness's parallel tests do not see
//! each other's allocations.

use kairos_solver::{
    centre, free_dims, polish, solve, solve_at_k, Assignment, ConsolidationProblem,
    LinearDiskCombiner, SolverConfig, TargetMachine, WorkloadSpec,
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

#[test]
fn a_solves_allocations_do_not_follow_its_rounds() {
    // 60 free slots: every search polishes the centre.
    let problem = stacked(0).0;
    problem.slot_series();
    let solve = |polish_rounds| {
        let (report, allocs) = allocations(|| solve(&problem, &SolverConfig { polish_rounds }));
        (report.expect("a feasible plan"), allocs)
    };
    let (one, few) = solve(1);
    let (all, many) = solve(60);
    assert_eq!(
        (&all.probes, all.k_final, all.evals_used),
        (&one.probes, one.k_final, one.evals_used),
        "the same searches at every K"
    );
    let k = all.k_final;
    let rounds = polish(&problem, &centre(&problem, k), k, 60).rounds;
    assert!(rounds >= 4, "the final run polished only {rounds} rounds");
    // A slot list may outgrow its capacity once or twice more; nothing may
    // allocate per round, machine or candidate.
    assert!(
        many <= few + 4,
        "{few} allocations with one round per search, {many} with up to {rounds}"
    );
}

#[test]
fn directs_allocations_do_not_follow_its_budget() {
    // 12 free slots: the class whose searches DIRECT seeds.
    let problem = tenants(12, 4).0;
    assert_eq!(free_dims(&problem), 12);
    problem.slot_series();
    let run = |evals| allocations(|| solve_at_k(&problem, 4, evals, 0));
    let (_, few) = run(2_000);
    let ((_, _, evals), many) = run(8_000);
    assert!(evals >= 7_999, "DIRECT spent {evals} of 8,000 evaluations");
    assert!(
        many as f64 <= 1.25 * few as f64,
        "{few} allocations at 2,000 evaluations, {many} at 8,000"
    );
    // A solve whose final run is DIRECT's 8,000 points: a few hundred
    // allocations (482 when this was written), not one per point.
    let (report, allocs) = allocations(|| solve(&problem, &SolverConfig::default()));
    let report = report.expect("a feasible plan");
    assert!(
        report.k_final > 1 && report.evals_used >= 1,
        "DIRECT ran no search"
    );
    assert!(allocs < 1_000, "{allocs} allocations in one solve");
}

/// 60 tenants over a 288-window day, each with its own diurnal peak, all
/// stacked on machine k/2 — the centre every search polishes puts every
/// slot there — so polish has everything to spread.
fn stacked(k: usize) -> (ConsolidationProblem, Assignment) {
    tenants(60, k)
}

/// `n` such tenants, stacked on machine k/2.
fn tenants(n: usize, k: usize) -> (ConsolidationProblem, Assignment) {
    let mut rng = SplitMix64::new(0x57AC);
    let workloads = (0..n)
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
        n,
        Arc::new(LinearDiskCombiner::default()),
    );
    (problem, Assignment::new(vec![k / 2; n]))
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
