//! The incremental scorer *is* the objective, bit for bit.
//!
//! DIRECT's inner loop scores a sample as "the rectangle's centre with one
//! slot moved" through [`CentreScorer`], which re-scores only the two
//! machines the move touches. The search is chaotic in the last ulp of an
//! objective value (a different ulp has changed which K′ the binary search
//! probes), so "close" is not good enough: on random problems, for a random
//! centre and **every** (free slot, destination), the scorer must return
//! exactly `evaluate(..).objective` — feasible and infeasible points alike
//! — and a move to the slot's own machine must return the centre's value.
//!
//! The scorer memoizes machine scores by occupant set for as long as one
//! [`Scoring`](kairos_solver::Scoring) lives, so every sweep below runs
//! twice: once filling the memo, once answered from it. One scorer serves
//! every problem in turn, as one `SolveScratch` serves a shard's solves —
//! the same occupant sets come round again under other loads, and a score
//! that outlived its problem would show as a wrong bit.
//!
//! The memo keys a machine by its occupants' slot bitset, two words kept
//! inline up to 128 slots and boxed beyond, so one sweep runs problems of
//! 60–200 slots and moves the slots either side of each word boundary.
//!
//! Cases come from a seeded [`SplitMix64`] stream
//! ([`SplitMix64::from_env`]; CI sweeps `KAIROS_TEST_SEED`).

use kairos_solver::{
    evaluate, Assignment, CentreScorer, ConsolidationProblem, LinearDiskCombiner, TargetMachine,
    WorkloadSpec,
};
use kairos_types::SplitMix64;
use std::sync::Arc;

/// 3–9 workloads over 1–6 windows with series of uneven length (a short
/// series reads as zero), some replicated, workload 2 pinned, workloads 0
/// and 1 anti-affine, and a migration baseline with `None` entries. Loads
/// are sized so that random centres land on both sides of feasibility.
fn random_problem(rng: &mut SplitMix64) -> ConsolidationProblem {
    let n = 3 + rng.next_range(7) as usize;
    let windows = 1 + rng.next_range(6) as usize;
    let heavy = rng.next_range(2) == 0;
    let workloads: Vec<WorkloadSpec> = (0..n)
        .map(|i| {
            let mut len = || 1 + rng.next_range(windows as u64) as usize;
            let (c, r, q) = (len(), len(), len());
            let cpu_hi = if heavy { 5.0 } else { 1.2 };
            let mut w = WorkloadSpec::flat(format!("w{i}"), 0, 0.0, 0.0, 0.0, 0.0);
            w.cpu = (0..c).map(|_| rng.next_in(0.1, cpu_hi)).collect();
            w.ram = (0..r).map(|_| rng.next_in(1e9, 12e9)).collect();
            w.ws = w.ram.iter().map(|r| r * 0.3).collect();
            w.rate = (0..q).map(|_| rng.next_in(10.0, 1_500.0)).collect();
            if rng.next_range(4) == 0 {
                w.replicas = 2;
            }
            w
        })
        .collect();
    let max_machines = 2 + rng.next_range(n as u64) as usize;
    let mut p = ConsolidationProblem::new(
        workloads,
        TargetMachine::paper_target(),
        max_machines,
        Arc::new(LinearDiskCombiner::default()),
    )
    .with_anti_affinity(vec![(0, 1)]);
    p.workloads[2].pinned = Some(rng.next_range(max_machines as u64) as usize);
    let baseline = (0..p.slots().len())
        .map(|_| match rng.next_range(3) {
            0 => None,
            _ => Some(rng.next_range(max_machines as u64) as usize),
        })
        .collect();
    p.with_migration(baseline, rng.next_in(0.05, 0.5))
}

#[test]
fn every_one_slot_move_scores_exactly_as_evaluate() {
    let mut rng = SplitMix64::from_env(0xD1_4EC7);
    // One scorer throughout, as one `SolveScratch` serves a whole shard.
    let mut scorer = CentreScorer::default();
    let (mut feasible, mut infeasible) = (0usize, 0usize);
    for case in 0..60 {
        let p = random_problem(&mut rng);
        let slots = p.slots();
        // Each centre spreads over `spread` machines and destinations
        // range over `k`: above and below the machines in use, and past
        // `max_machines` so the machine-count term moves too.
        let centres: Vec<(Vec<usize>, usize)> = (0..3)
            .map(|_| {
                let spread = 1 + rng.next_range(p.max_machines as u64 + 2);
                let k = 1 + rng.next_range(p.max_machines as u64 + 3) as usize;
                let centre = slots
                    .iter()
                    .map(|s| match p.workloads[s.workload].pinned {
                        Some(pin) if s.replica == 0 => pin,
                        _ => rng.next_range(spread) as usize,
                    })
                    .collect();
                (centre, k)
            })
            .collect();
        let mut scoring = scorer.on(&p);
        for pass in ["cold", "warm"] {
            for (centre, k) in &centres {
                let at_centre = evaluate(&p, &Assignment::new(centre.clone()));
                let scored = scoring.rebase(centre);
                assert_eq!(
                    scored.to_bits(),
                    at_centre.objective.to_bits(),
                    "case {case} ({pass}): centre {centre:?}: {scored} vs {}",
                    at_centre.objective
                );
                for (slot, s) in slots.iter().enumerate() {
                    if s.replica == 0 && p.workloads[s.workload].pinned.is_some() {
                        continue;
                    }
                    for dst in 0..*k {
                        let mut moved = centre.clone();
                        moved[slot] = dst;
                        let full = evaluate(&p, &Assignment::new(moved));
                        let lean = scoring.moved(slot, dst);
                        assert_eq!(
                            lean.to_bits(),
                            full.objective.to_bits(),
                            "case {case} ({pass}): slot {slot} -> {dst} from {centre:?}: {lean} vs {}",
                            full.objective
                        );
                        if dst == centre[slot] {
                            assert_eq!(lean.to_bits(), scoring.centre().to_bits());
                        }
                        if full.feasible {
                            feasible += 1;
                        } else {
                            infeasible += 1;
                        }
                    }
                }
                // Scoring moves never moved the centre.
                assert_eq!(scoring.centre().to_bits(), at_centre.objective.to_bits());
            }
        }
    }
    assert!(
        feasible > 100 && infeasible > 100,
        "one-sided sweep: {feasible} feasible, {infeasible} infeasible points"
    );
}

#[test]
fn inline_and_boxed_keys_score_exactly_as_evaluate() {
    // Slot counts either side of each word boundary, and moves of the slots
    // that sit on one (63 | 64, 127 | 128) as well as of random ones, into
    // every machine of a random K.
    let mut rng = SplitMix64::from_env(0xB175E7);
    let mut scorer = CentreScorer::default();
    for n in [60, 64, 65, 100, 127, 128, 129, 160, 200] {
        let windows = 1 + rng.next_range(4) as usize;
        let workloads = (0..n)
            .map(|i| {
                let mut w = WorkloadSpec::flat(format!("w{i}"), 0, 0.0, 0.0, 0.0, 0.0);
                w.cpu = (0..windows).map(|_| rng.next_in(0.05, 1.6)).collect();
                w.ram = (0..windows).map(|_| rng.next_in(0.5e9, 6e9)).collect();
                w.ws = w.ram.iter().map(|r| r * 0.3).collect();
                w.rate = (0..windows).map(|_| rng.next_in(10.0, 400.0)).collect();
                w
            })
            .collect();
        let k = 4 + rng.next_range(12) as usize;
        let p = ConsolidationProblem::new(
            workloads,
            TargetMachine::paper_target(),
            k - 1,
            Arc::new(LinearDiskCombiner::default()),
        );
        let baseline = (0..n).map(|_| Some(rng.next_range(k as u64) as usize));
        let p = p.with_migration(baseline.collect(), 0.1);
        let mut slots: Vec<usize> = [0, 63, 64, 127, 128, n - 1]
            .into_iter()
            .filter(|&s| s < n)
            .collect();
        slots.extend((0..6).map(|_| rng.next_range(n as u64) as usize));
        let centres: Vec<Vec<usize>> = (0..2)
            .map(|_| (0..n).map(|_| rng.next_range(k as u64) as usize).collect())
            .collect();
        let mut scoring = scorer.on(&p);
        for pass in ["cold", "warm"] {
            for centre in &centres {
                let exact = |a: &[usize]| evaluate(&p, &Assignment::new(a.to_vec())).objective;
                assert_eq!(scoring.rebase(centre).to_bits(), exact(centre).to_bits());
                for &slot in &slots {
                    for dst in 0..k {
                        let mut moved = centre.clone();
                        moved[slot] = dst;
                        assert_eq!(
                            scoring.moved(slot, dst).to_bits(),
                            exact(&moved).to_bits(),
                            "{n} slots ({pass}): slot {slot} -> {dst}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn the_memo_lives_and_dies_with_its_scoring() {
    // Two problems of one shape under different loads: every occupant set
    // of the first is an occupant set of the second, with another score.
    let shape = |cpu: f64| {
        let w = (0..6)
            .map(|i| WorkloadSpec::flat(format!("w{i}"), 4, cpu, 2e9, 2e8, 40.0))
            .collect();
        ConsolidationProblem::new(
            w,
            TargetMachine::paper_target(),
            6,
            Arc::new(LinearDiskCombiner::default()),
        )
    };
    let centre = [0, 0, 1, 1, 2, 2];
    let mut scorer = CentreScorer::default();
    assert_eq!(scorer.memo_capacity(), 0);
    let mut seen = Vec::new();
    for p in [shape(1.0), shape(5.5)] {
        let mut scoring = scorer.on(&p);
        let exact = |a: &[usize]| evaluate(&p, &Assignment::new(a.to_vec())).objective;
        assert_eq!(scoring.rebase(&centre).to_bits(), exact(&centre).to_bits());
        assert_eq!(
            scoring.moved(4, 0).to_bits(),
            exact(&[0, 0, 1, 1, 0, 2]).to_bits()
        );
        seen.push(scoring.centre());
        drop(scoring);
        // Entries and memory both: a fleet keeps one scorer per shard.
        assert_eq!(scorer.memo_capacity(), 0);
    }
    assert_ne!(seen[0], seen[1]);
}
