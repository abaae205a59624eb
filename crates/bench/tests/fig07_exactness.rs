//! The cold solve of the four Figure 7 datasets, pinned step by step.
//!
//! Every dataset here has more than a dozen free slots, so each search at
//! a K polishes DIRECT's decoded centre (`kairos_solver::centre`): 40
//! rounds per probe, 60 for the final run at K′. Per dataset (generator
//! seed `0x5EED`, the engine `fig07_ratios` uses) this suite pins the whole
//! `solve`: K′, the probes, the searches run, the plan returned and the
//! bits of its (feasible) objective. A change to polish, to the seed or to
//! the binary search shows here by dataset and value;
//! `polish_exactness.rs` pins the polishes themselves.
//!
//! The values were recorded when the search began to polish the centre
//! instead of DIRECT's best point. K′ and every plan's machine count are
//! what DIRECT's search reached before.

use kairos_bench::{dataset_profiles, fleet_engine};
use kairos_solver::solve;
use kairos_traces::Dataset;

/// FNV-1a over 64-bit words.
fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn plan_hash(machine_of: &[usize]) -> u64 {
    fnv(machine_of.iter().map(|&m| m as u64))
}

/// What one dataset's cold solve does.
#[derive(Debug, PartialEq)]
struct Pinned {
    k_final: usize,
    probes: Vec<(usize, bool)>,
    searches: usize,
    machines: usize,
    plan: u64,
    objective_bits: u64,
}

fn observed(dataset: Dataset) -> Pinned {
    let engine = fleet_engine();
    let problem = engine
        .problem(&dataset_profiles(dataset, 0x5EED))
        .expect("dataset profiles are valid");
    let report = solve(&problem, &engine.solver_config()).expect("every dataset has a plan");
    Pinned {
        k_final: report.k_final,
        probes: report.probes,
        searches: report.evals_used,
        machines: report.assignment.machines_used(),
        plan: plan_hash(&report.assignment.machine_of),
        objective_bits: report.evaluation.objective.to_bits(),
    }
}

fn check(dataset: Dataset, expected: Pinned) {
    assert_eq!(observed(dataset), expected, "{}", dataset.label());
}

#[test]
fn internal() {
    check(
        Dataset::Internal,
        Pinned {
            k_final: 2,
            probes: vec![],
            searches: 1,
            machines: 2,
            plan: 4_208_180_894_332_974_004,
            objective_bits: 4_612_469_091_550_824_646,
        },
    );
}

#[test]
fn wikia() {
    check(
        Dataset::Wikia,
        Pinned {
            k_final: 3,
            probes: vec![],
            searches: 1,
            machines: 3,
            plan: 14_164_819_978_177_049_182,
            objective_bits: 4_616_063_966_139_873_567,
        },
    );
}

#[test]
fn wikipedia() {
    check(
        Dataset::Wikipedia,
        Pinned {
            k_final: 7,
            probes: vec![(23, true)],
            searches: 2,
            machines: 7,
            plan: 8_879_218_296_628_217_008,
            objective_bits: 4_622_077_419_053_981_248,
        },
    );
}

#[test]
fn secondlife() {
    check(
        Dataset::SecondLife,
        Pinned {
            k_final: 20,
            probes: vec![(56, true), (18, false), (20, true), (19, false)],
            searches: 5,
            machines: 20,
            plan: 6_672_994_368_128_678_426,
            objective_bits: 4_628_774_415_739_410_933,
        },
    );
}
