//! The profiler's regime, pinned bit for bit.
//!
//! `golden_stats` (kairos-workloads) pins a pool smaller than its working
//! set. The §4.1 profiler runs the other regime: a pool larger than every
//! working set, filled by prewarm, and flush-bound at the high rates.
//! Each point of `ProfilerConfig::smoke()`'s 3 × 4 grid is compared
//! `to_bits()` with the values recorded at 94a72b7, before the buffer
//! pool's frames were packed. Do not re-record them to make a change
//! pass; a change that means to move the simulation says why it does.

use kairos_diskmodel::{run_profiler, ProfilerConfig};

/// `[ws_bytes, rows_per_sec, write_bytes_per_sec, achieved_fraction]` of
/// each grid point as `f64::to_bits`, in grid order.
#[rustfmt::skip]
const GOLDEN: [[u64; 4]; 12] = [
    [0x41b0000000000000, 0x409f3fffffffff98, 0x4165909fffffffb9, 0x3ff0000000000000], // 256 MiB, 2000 rows/s offered
    [0x41b0000000000000, 0x40bf3fffffffff98, 0x416a927fffffffa8, 0x3ff0000000000000], // 256 MiB, 8000 rows/s offered
    [0x41b0000000000000, 0x40d387ffffffffbf, 0x4170931fffffffc9, 0x3ff0000000000000], // 256 MiB, 20000 rows/s offered
    [0x41b0000000000000, 0x40e1b7ad630fb65b, 0x417d798548eb7cb7, 0x3fed0740f0f20357], // 256 MiB, 40000 rows/s offered
    [0x41c0000000000000, 0x409f3fffffffff98, 0x4168059fffffffb0, 0x3ff0000000000000], // 512 MiB, 2000 rows/s offered
    [0x41c0000000000000, 0x40bf3fffffffff98, 0x417704bfffffffb4, 0x3ff0000000000000], // 512 MiB, 8000 rows/s offered
    [0x41c0000000000000, 0x40d387ffffffffbf, 0x417abb1fffffffa7, 0x3ff0000000000000], // 512 MiB, 20000 rows/s offered
    [0x41c0000000000000, 0x40d1b7995478cee1, 0x417a86a8086d3d74, 0x3fdd0720146f1947], // 512 MiB, 40000 rows/s offered
    [0x41d0000000000000, 0x409f3fffffffff98, 0x416d719fffffff9e, 0x3ff0000000000000], // 1024 MiB, 2000 rows/s offered
    [0x41d0000000000000, 0x40bf3fffffffff98, 0x4178d93fffffffae, 0x3ff0000000000000], // 1024 MiB, 8000 rows/s offered
    [0x41d0000000000000, 0x40d387ffffffffbf, 0x417abb1fffffffa7, 0x3ff0000000000000], // 1024 MiB, 20000 rows/s offered
    [0x41d0000000000000, 0x40c35f3e3cb25224, 0x41792ed077bac4d3, 0x3fcfbd3952a6d2f3], // 1024 MiB, 40000 rows/s offered
];

#[test]
fn the_smoke_profile_matches_the_recorded_bits() {
    let profile = run_profiler(&ProfilerConfig::smoke());
    assert_eq!(profile.points.len(), GOLDEN.len(), "grid size");
    for (i, (p, want)) in profile.points.iter().zip(&GOLDEN).enumerate() {
        let got = [
            p.ws_bytes,
            p.rows_per_sec,
            p.write_bytes_per_sec,
            p.achieved_fraction,
        ];
        assert_eq!(got.map(f64::to_bits), *want, "point {i}: {got:?}");
    }
}
