//! The polishes a cold solve runs while it searches for K′, pinned.
//!
//! `fig07_exactness.rs` pins the polish after the final DIRECT run. This
//! suite pins the probes' too, from the start where polish works hardest:
//! DIRECT's first centre, `decode(&p, k, &[0.5; dims])`, which stacks every
//! slot on machine k/2 — an infeasible start on both datasets, where most
//! candidates lose and are abandoned part-way through their windows. Per
//! dataset (generator seed `0x5EED`, the engine `fig07_ratios` uses) and
//! per K its solve probes (SecondLife 56, 18, 19 and the final 20;
//! Wikipedia 23 and the final 7), under the solve's round budgets (a probe
//! polishes at most 40 rounds), it pins the moves, the rounds, the plan and
//! the bits of its objective. The values were recorded on the commit
//! before candidates were kept across rounds and abandoned early.

use kairos_bench::{dataset_profiles, fleet_engine};
use kairos_solver::{decode, free_dims, polish};
use kairos_traces::Dataset;

/// FNV-1a over 64-bit words.
fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one polish does.
#[derive(Debug, PartialEq)]
struct Pinned {
    k: usize,
    moves: usize,
    rounds: usize,
    plan: u64,
    objective_bits: u64,
}

fn observed(dataset: Dataset, ks: &[usize]) -> Vec<Pinned> {
    let engine = fleet_engine();
    let cfg = engine.solver_config();
    let problem = engine
        .problem(&dataset_profiles(dataset, 0x5EED))
        .expect("dataset profiles are valid");
    let centre = vec![0.5; free_dims(&problem)];
    ks.iter()
        .enumerate()
        .map(|(i, &k)| {
            // The last K is the final solve's; the ones before it probe.
            let rounds = if i + 1 == ks.len() {
                cfg.polish_rounds
            } else {
                cfg.polish_rounds.min(40)
            };
            let report = polish(&problem, &decode(&problem, k, &centre), k, rounds);
            Pinned {
                k,
                moves: report.moves,
                rounds: report.rounds,
                plan: fnv(report.assignment.machine_of.iter().map(|&m| m as u64)),
                objective_bits: report.evaluation.objective.to_bits(),
            }
        })
        .collect()
}

#[test]
fn secondlife() {
    assert_eq!(
        observed(Dataset::SecondLife, &[56, 18, 19, 20]),
        vec![
            Pinned {
                k: 56,
                moves: 115,
                rounds: 5,
                plan: 6_938_033_547_060_218_150,
                objective_bits: 4_628_990_358_165_378_669,
            },
            Pinned {
                k: 18,
                moves: 106,
                rounds: 5,
                plan: 16_748_728_697_760_384_224,
                objective_bits: 4_678_409_617_610_166_550,
            },
            Pinned {
                k: 19,
                moves: 97,
                rounds: 3,
                plan: 13_807_683_880_217_320_894,
                objective_bits: 4_670_969_966_667_737_649,
            },
            Pinned {
                k: 20,
                moves: 99,
                rounds: 3,
                plan: 6_672_994_368_128_678_426,
                objective_bits: 4_628_774_415_739_410_933,
            },
        ]
    );
}

#[test]
fn wikipedia() {
    assert_eq!(
        observed(Dataset::Wikipedia, &[23, 7]),
        vec![
            Pinned {
                k: 23,
                moves: 40,
                rounds: 4,
                plan: 8_879_218_296_628_217_008,
                objective_bits: 4_622_077_419_053_981_248,
            },
            Pinned {
                k: 7,
                moves: 40,
                rounds: 4,
                plan: 11_411_800_727_636_206_332,
                objective_bits: 4_622_077_419_053_981_248,
            },
        ]
    );
}
