//! Crash-recovery for the fleet control plane, end to end.
//!
//! ```text
//! cargo run --release --example crash_recovery
//! KAIROS_TEST_SEED=7 cargo run --release --example crash_recovery
//! ```
//!
//! The scenario: a sharded fleet rides out a regional flash crowd while
//! checkpointing (`FleetController::checkpoint`). Mid-run — at a seeded
//! random tick — the controller process "crashes" (the in-memory fleet is
//! dropped on the floor). A fresh process resumes from the snapshot file
//! (`FleetController::resume_from`), re-binds its telemetry sources, and
//! finishes the run.
//!
//! Acceptance properties asserted here:
//!
//! * the resumed fleet converges to the **same final placement** as an
//!   uninterrupted control run — audit objectives compared **bit for
//!   bit** per shard;
//! * recovery costs **zero spurious re-solves**: total re-solves equal
//!   the uninterrupted run's (no re-bootstrap, no conservative
//!   flat-envelope replanning — the restored rolling windows carry the
//!   full planning horizon);
//! * the handoff audit log is identical, tick stamps included;
//! * a checkpoint is **deterministic**: a second run of the same seed,
//!   checkpointed at the same tick, writes a byte-identical file;
//! * a **truncated** snapshot and a **bit-flipped** snapshot are both
//!   rejected with a clean error — never a panic, never a silent
//!   partial restore;
//! * the **decision trace does not fork**: the restored fleet carries
//!   the pre-kill trace verbatim (sequence numbers included) and
//!   finishes with a trace byte-identical to the uninterrupted run's.
//!   The traces are dumped as text next to the snapshot
//!   (`trace-prekill.txt`, `trace-restored.txt`, `trace-reference.txt`)
//!   so CI can diff them and upload them on failure.

use kairos::controller::{ControllerConfig, SyntheticSource, TickOutcome};
use kairos::fleet::{BalancerConfig, FleetConfig, FleetController};
use kairos::types::{Bytes, SplitMix64};
use kairos::workloads::RatePattern;
use std::path::{Path, PathBuf};

const SHARDS: usize = 3;
const TENANTS_PER_SHARD: usize = 20;
const TICKS: u64 = 120;
const BUDGET: usize = 6;

fn config() -> FleetConfig {
    FleetConfig {
        shards: SHARDS,
        shard: ControllerConfig {
            horizon: 10,
            check_every: 4,
            cooldown_ticks: 10,
            ..ControllerConfig::default()
        },
        balancer: BalancerConfig {
            machines_per_shard: BUDGET,
            balance_every: 5,
            max_moves_per_round: 4,
            ..BalancerConfig::default()
        },
        ..FleetConfig::default()
    }
}

/// The tenants are reconstructible by name: the same constructor yields
/// the same deterministic sample stream, which is what lets a restarted
/// process fast-forward its sources to the crash tick.
fn make_source(shard: usize, i: usize) -> SyntheticSource {
    let base = 170.0 + 12.0 * (i % 5) as f64;
    let name = format!("s{shard}-t{i:02}");
    let src = SyntheticSource::new(name, 300.0, Bytes::gib(4), RatePattern::Flat { tps: base });
    if shard == 0 && i < 8 {
        // The regional flash crowd: shard 0's hottest tenants spike ~3x
        // mid-run, forcing drift re-solves and cross-shard handoffs.
        src.then_at(35, RatePattern::Flat { tps: 600.0 })
            .then_at(85, RatePattern::Flat { tps: base })
    } else {
        src
    }
}

fn build_fleet() -> FleetController {
    let mut fleet = FleetController::new(config());
    for shard in 0..SHARDS {
        for i in 0..TENANTS_PER_SHARD {
            fleet.add_workload_to(shard, Box::new(make_source(shard, i)));
        }
    }
    fleet
}

fn total_resolves(fleet: &FleetController) -> u64 {
    fleet.shards().iter().map(|s| s.stats().resolves).sum()
}

/// Per-shard audit objective bit patterns — the "same placement" check
/// at full precision.
fn audit_objective_bits(fleet: &FleetController) -> Vec<Option<u64>> {
    fleet
        .audit()
        .per_shard
        .iter()
        .map(|e| e.as_ref().map(|e| e.objective.to_bits()))
        .collect()
}

fn snapshot_dir() -> PathBuf {
    let dir = std::env::var("KAIROS_SNAPSHOT_DIR").unwrap_or_else(|_| "target/ckpt".to_string());
    std::fs::create_dir_all(&dir).expect("snapshot dir is creatable");
    PathBuf::from(dir)
}

/// Human-readable trace rendering, one event per line — what the CI
/// decision-trace job diffs (a fork shows up as a line-level diff, not a
/// binary mismatch).
fn render_trace(events: &[kairos::obs::TracedEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&format!("#{:06} t{:04} {:?}\n", e.seq, e.tick, e.event));
    }
    out
}

fn dump_trace(dir: &Path, name: &str, events: &[kairos::obs::TracedEvent]) {
    std::fs::write(dir.join(name), render_trace(events)).expect("trace dump writes");
}

fn main() {
    println!("== kairos-store: durable checkpoint/restore for the fleet control plane ==\n");
    let dir = snapshot_dir();
    let path = dir.join("fleet.ksnp");
    // The crash lands at a random tick between bootstrap and the end of
    // the run (seeded; sweep with KAIROS_TEST_SEED).
    let mut rng = SplitMix64::from_env(0x00C4_A511);
    let crash_at = 20 + rng.next_range(TICKS - 20 - 10);

    // --- reference: the run nothing interrupts ---------------------------
    let mut reference = build_fleet();
    for _ in 0..TICKS {
        reference.tick();
    }
    let ref_audit = reference.audit();
    assert!(ref_audit.complete() && ref_audit.zero_violations());
    println!(
        "uninterrupted run : {} ticks, {} re-solves, {} handoffs, machines {:?}",
        TICKS,
        total_resolves(&reference),
        reference.stats().handoffs_completed,
        ref_audit.machines_used,
    );
    dump_trace(&dir, "trace-reference.txt", &reference.trace_events());

    // --- interrupted: checkpoint, crash at a random tick ------------------
    let mut doomed = build_fleet();
    for _ in 0..crash_at {
        doomed.tick();
    }
    doomed
        .checkpoint(&path)
        .expect("checkpoint written atomically");
    let file_len = std::fs::metadata(&path).expect("snapshot exists").len();
    println!(
        "crash at tick {crash_at:>3} : checkpoint {} ({file_len} bytes, CRC-trailed)",
        path.display()
    );
    let prekill_trace = doomed.trace_events();
    dump_trace(&dir, "trace-prekill.txt", &prekill_trace);
    drop(doomed); // the crash: every in-memory window, placement and plan is gone

    // A second run of the same seed checkpoints the same bytes.
    let twin_path = dir.join("fleet-twin.ksnp");
    let mut twin = build_fleet();
    for _ in 0..crash_at {
        twin.tick();
    }
    twin.checkpoint(&twin_path)
        .expect("checkpoint written atomically");
    assert!(
        std::fs::read(&path).expect("snapshot readable")
            == std::fs::read(&twin_path).expect("twin snapshot readable"),
        "two runs of one seed must checkpoint byte-identical files"
    );
    println!("determinism       : a second run checkpoints byte-identical bytes");

    // --- restart: restore, re-bind sources, finish the run ----------------
    let mut restored =
        FleetController::resume_from(config(), &path).expect("snapshot restores cleanly");
    assert_eq!(restored.stats().ticks, crash_at);
    assert_eq!(
        restored.trace_events(),
        prekill_trace,
        "restore must carry the pre-kill decision trace verbatim, not fork it"
    );
    for shard in 0..SHARDS {
        for i in 0..TENANTS_PER_SHARD {
            let src = make_source(shard, i).fast_forward(crash_at);
            restored.reattach(Box::new(src)).expect("tenant is mapped");
        }
    }
    assert!(
        restored.missing_sources().is_empty(),
        "every tenant re-bound before ticking"
    );
    let mut post_restore_replans = 0u64;
    for _ in crash_at..TICKS {
        let report = restored.tick();
        post_restore_replans += report
            .outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    TickOutcome::Replanned(_) | TickOutcome::InitialPlan { .. }
                )
            })
            .count() as u64;
    }
    println!(
        "restored run      : resumed at tick {crash_at}, {} re-solves after restore",
        post_restore_replans
    );

    // --- the acceptance properties ----------------------------------------
    let restored_audit = restored.audit();
    assert!(restored_audit.complete() && restored_audit.zero_violations());
    assert!(restored_audit.within_budget(BUDGET));
    assert_eq!(
        audit_objective_bits(&restored),
        audit_objective_bits(&reference),
        "restored fleet must converge to the same placement (bit-identical audit objective)"
    );
    for (a, b) in restored.shards().iter().zip(reference.shards()) {
        assert_eq!(
            a.placement(),
            b.placement(),
            "placements must match exactly"
        );
    }
    assert_eq!(
        restored.handoffs(),
        reference.handoffs(),
        "handoff audit trails must match"
    );
    assert_eq!(
        total_resolves(&restored),
        total_resolves(&reference),
        "recovery must cost zero spurious re-solves"
    );
    println!(
        "equivalence       : placements identical, audit objectives bit-identical, \
         0 spurious re-solves"
    );

    // --- the decision trace must not fork ----------------------------------
    let restored_trace = restored.trace_events();
    dump_trace(&dir, "trace-restored.txt", &restored_trace);
    assert_eq!(
        restored_trace[..prekill_trace.len()],
        prekill_trace[..],
        "the pre-kill trace must be a verbatim prefix of the restored run's"
    );
    assert_eq!(
        restored.trace_bytes(),
        reference.trace_bytes(),
        "restored and uninterrupted decision traces must be byte-identical"
    );
    for (shard, (a, b)) in restored.shards().iter().zip(reference.shards()).enumerate() {
        assert_eq!(
            a.trace_bytes(),
            b.trace_bytes(),
            "shard {shard} traces must be byte-identical"
        );
    }
    println!(
        "decision trace    : {} fleet events, prefix preserved across restore, \
         byte-identical to the uninterrupted run",
        restored_trace.len()
    );
    if let Some(last) = restored_trace.last() {
        println!(
            "  last event      : #{:06} t{:04} {:?}",
            last.seq, last.tick, last.event
        );
    }

    // Metrics, both renderings — the same text the Metrics RPC serves.
    let prometheus = restored.metrics_prometheus();
    let completed_line = prometheus
        .lines()
        .find(|l| l.starts_with("kairos_fleet_handoffs_completed_total"))
        .unwrap_or("kairos_fleet_handoffs_completed_total <missing>");
    println!("  metrics         : {completed_line} (full dump: metrics.prom / metrics.json)");
    std::fs::write(dir.join("metrics.prom"), &prometheus).expect("metrics dump writes");
    std::fs::write(dir.join("metrics.json"), restored.metrics_json()).expect("metrics dump writes");

    // --- corruption injection ---------------------------------------------
    let clean = std::fs::read(&path).expect("snapshot readable");

    let truncated = &clean[..clean.len() / 2];
    std::fs::write(&path, truncated).expect("write truncated snapshot");
    match FleetController::resume_from(config(), &path) {
        Err(e) => println!("truncated snapshot: rejected — {e}"),
        Ok(_) => panic!("a truncated snapshot must never restore"),
    }

    let mut flipped = clean.clone();
    let byte = (rng.next_range(clean.len() as u64)) as usize;
    flipped[byte] ^= 1 << rng.next_range(8);
    std::fs::write(&path, &flipped).expect("write bit-flipped snapshot");
    match FleetController::resume_from(config(), &path) {
        Err(e) => println!("bit-flipped snapshot (byte {byte}): rejected — {e}"),
        Ok(_) => panic!("a bit-flipped snapshot must never restore"),
    }

    // Restore the clean bytes so the uploaded CI artifact (on failure
    // elsewhere) is the real checkpoint.
    std::fs::write(&path, &clean).expect("restore clean snapshot");

    println!("\nall crash-recovery acceptance properties passed.");
}
