//! The seed-sweep runner CI drives: generate N schedules, interpret
//! each against a fresh fleet, and fail loudly — with a shrunk,
//! reproducible schedule and its why-chain — on the first broken
//! invariant. A slice of seeds is also rerun to prove byte-identical
//! decision-trace fingerprints (the determinism oracle). The last line —
//! `sweep digest: crc32=<hex> schedules=<n> transport=<t>`, the CRC-32 of
//! every schedule's fingerprint concatenated in seed order — is the
//! *cross-commit* oracle: run the same sweep at a parent commit and at a
//! change and compare the two lines. (No golden is committed: libm
//! last-ulp differences across runners would make one brittle.)
//!
//! Environment:
//! * `KAIROS_CHAOS_SCHEDULES` — how many seeded schedules (default 25;
//!   CI runs ≥200);
//! * `KAIROS_CHAOS_SEED` — base seed, decimal or `0x…` hex (default
//!   `0xC4A05EED`); schedule `i` uses `base + i`;
//! * `KAIROS_CHAOS_TRANSPORT` — `loopback` (default) or `tcp`: the
//!   backend under the fault-injecting decorator.
//!
//! On failure the minimal schedule and the violation report are also
//! written to `target/chaos/` so CI can upload them as artifacts.

use kairos_chaos::{generate, run_on, shrink, ChaosBackend, ChaosConfig, Schedule};

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => {
            let v = v.trim();
            let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("{name}={v} is not a u64"))
        }
        Err(_) => default,
    }
}

fn dump(seed: u64, body: &str) {
    let dir = std::path::Path::new("target/chaos");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("seed-0x{seed:016x}.txt"));
        if std::fs::write(&path, body).is_ok() {
            eprintln!("wrote {}", path.display());
        }
    }
}

fn fail(schedule: &Schedule, cfg: &ChaosConfig, backend: ChaosBackend) -> ! {
    // Shrink to a 1-minimal failing schedule before reporting: the
    // rerun inside the predicate is the reproduction CI asks for.
    eprintln!(
        "shrinking failing schedule (seed 0x{:016x})…",
        schedule.seed
    );
    let minimal = shrink(schedule, |s| run_on(cfg, s, backend).violation.is_some());
    let outcome = run_on(cfg, &minimal, backend);
    let violation = outcome
        .violation
        .expect("shrink keeps the schedule failing");
    let body = format!(
        "chaos sweep failure ({} backend)\n\nminimal failing {}\n{}\nreproduce with:\n  \
         KAIROS_CHAOS_SCHEDULES=1 KAIROS_CHAOS_SEED=0x{:016x} KAIROS_CHAOS_TRANSPORT={} \
         cargo run --release -p kairos-chaos --bin chaos_sweep\n",
        backend.label(),
        minimal.render(),
        violation.render(),
        minimal.seed,
        backend.label(),
    );
    eprintln!("{body}");
    dump(minimal.seed, &body);
    std::process::exit(1);
}

fn main() {
    let schedules = env_u64("KAIROS_CHAOS_SCHEDULES", 25);
    let base = env_u64("KAIROS_CHAOS_SEED", 0xC4A0_5EED);
    let backend = ChaosBackend::from_env();
    let cfg = ChaosConfig::default();
    let bounds = cfg.bounds();

    let mut total_faults = 0usize;
    let mut fingerprints: Vec<u8> = Vec::new();
    for i in 0..schedules {
        let seed = base.wrapping_add(i);
        let schedule = generate(seed, &bounds);
        let outcome = run_on(&cfg, &schedule, backend);
        total_faults += outcome.report.faults_applied;
        if outcome.violation.is_some() {
            fail(&schedule, &cfg, backend);
        }
        fingerprints.extend_from_slice(&outcome.fingerprint);
        // Determinism spot-check: every 10th schedule reruns and must
        // fingerprint byte-identically.
        if i % 10 == 0 {
            let again = run_on(&cfg, &schedule, backend);
            if again.fingerprint != outcome.fingerprint {
                let body = format!(
                    "chaos sweep failure: NON-DETERMINISTIC RUN\n\n{}\nthe same schedule produced \
                     two different decision-trace fingerprints ({} vs {} bytes)\n",
                    schedule.render(),
                    outcome.fingerprint.len(),
                    again.fingerprint.len(),
                );
                eprintln!("{body}");
                dump(seed, &body);
                std::process::exit(1);
            }
        }
        if (i + 1) % 25 == 0 {
            eprintln!(
                "chaos sweep: {}/{} schedules green ({} faults applied so far)",
                i + 1,
                schedules,
                total_faults
            );
        }
    }
    println!(
        "chaos sweep ({}): {schedules} schedules green, {total_faults} faults applied, \
         invariants held on every tick",
        backend.label()
    );
    println!(
        "sweep digest: crc32={:08x} schedules={schedules} transport={}",
        kairos_store::crc32(&fingerprints),
        backend.label()
    );
}
