//! Allocation as a gate that can fail: a counting global allocator
//! (std only) holds the shard's quiet paths to what they claim.
//!
//! * After warm-up, a stable shard's tick allocates nothing — neither an
//!   idle tick nor a drift check that finds nothing (`Stable`). Planting
//!   a `Vec` push or a `names()` call in `check_drift` fails this.
//! * An uncached `summary()` allocates as many times at a 1,024-sample
//!   window as at 288: it reads each ring in place, so only the sizes of
//!   its outputs and sort copies follow the window, never the count.
//!
//! Counts are per thread, so the harness's parallel tests do not see
//! each other's allocations.

use kairos_controller::{
    ControllerConfig, ShardController, SyntheticSource, TelemetryConfig, TickOutcome,
};
use kairos_core::ConsolidationEngine;
use kairos_types::Bytes;
use kairos_workloads::RatePattern;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Eight stationary tenants on a small horizon, ticked `warmup` times.
fn stable_shard(window_capacity: usize, warmup: usize) -> ShardController {
    let cfg = ControllerConfig {
        telemetry: TelemetryConfig {
            window_capacity,
            ..TelemetryConfig::default()
        },
        horizon: 8,
        check_every: 4,
        cooldown_ticks: 8,
        ..ControllerConfig::default()
    };
    let mut shard = ShardController::new(cfg, ConsolidationEngine::builder().build());
    for i in 0..8 {
        let pattern = RatePattern::Flat {
            tps: 100.0 + 20.0 * i as f64,
        };
        let source = SyntheticSource::new(format!("t{i:02}"), 300.0, Bytes::gib(2), pattern);
        shard.add_workload(Box::new(source));
    }
    for _ in 0..warmup {
        shard.tick();
    }
    assert!(shard.planned_once(), "the shard planned during warm-up");
    shard
}

#[test]
fn a_stable_shards_quiet_ticks_allocate_nothing() {
    // 48 warm-up ticks wrap the 32-sample rings.
    let mut shard = stable_shard(32, 48);
    let (mut stable, mut idle) = (0, 0);
    for _ in 0..24 {
        let (outcome, allocs) = allocations(|| shard.tick());
        match outcome {
            TickOutcome::Stable => stable += 1,
            TickOutcome::Idle => idle += 1,
            other => panic!("a stationary shard should stay quiet, got {other:?}"),
        }
        assert_eq!(
            allocs, 0,
            "a quiet {outcome:?} tick allocated {allocs} times"
        );
    }
    assert_eq!((stable, idle), (6, 18), "every fourth tick checks drift");
}

#[test]
fn an_uncached_summary_allocates_the_same_count_at_any_window() {
    // 1,100 ticks: the 288-sample rings wrap, the 1,024-sample ones fill.
    let short = stable_shard(288, 1_100);
    let long = stable_shard(1_024, 1_100);
    let (a, short_allocs) = allocations(|| short.summary());
    let (b, long_allocs) = allocations(|| long.summary());
    assert_eq!((a.tenants, b.tenants), (8, 8));
    assert_eq!(a.aggregate.cpu_cores.len(), 288);
    assert_eq!(b.aggregate.cpu_cores.len(), 1_024);
    assert_eq!(
        short_allocs, long_allocs,
        "summary allocations follow the window: {short_allocs} at 288, {long_allocs} at 1,024"
    );
}
