//! The cold solve of the four Figure 7 datasets, pinned step by step.
//!
//! Every speed-up of the search so far has promised to be *exact*: the
//! same DIRECT trajectory, the same polish, the same plan, found sooner.
//! This suite holds the solver to that across commits. Per dataset
//! (generator seed `0x5EED`, the engine `fig07_ratios` uses) it pins
//!
//! * the final DIRECT run at K′ — `best_x`, iterations and evaluations —
//!   driven here through the public [`CentreScorer`], the way `search.rs`
//!   drives it;
//! * the polish of that point: moves applied and the plan reached;
//! * the whole `solve`: K′, the probes, the plan returned and the bits of
//!   its (feasible) objective.
//!
//! Every value but `probes` was recorded at the commit before DIRECT's
//! selection became per-class heaps, machine scores were memoized and a
//! feasible probe's machine count began to bound the K′ search. That
//! commit set `hi = mid` and probed Wikipedia at 23, 15, 11, 9, 8, 7 (all
//! feasible) and SecondLife at 56, 36, 26, 21, 18 (no), 20, 19 (no),
//! although the first probe of each came back holding a 7- / 20-machine
//! plan. (`best_f` is left out: at K′ DIRECT's best point is infeasible on
//! Wikipedia and SecondLife, and an infeasible objective moved in its last
//! ulp when a machine's excess became one subtotal.)

use kairos_bench::{dataset_profiles, fleet_engine};
use kairos_solver::{
    decode, decode_into, direct_minimize_objective, free_dims, polish, solve, CentreScorer,
    ConsolidationProblem, DirectConfig, DirectObjective, Scoring,
};
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

/// `search.rs`'s decoded objective over the public scorer (no slot of
/// these problems is pinned, so axis `i` is slot `i`).
struct Decoded<'a> {
    problem: &'a ConsolidationProblem,
    k: usize,
    scoring: Scoring<'a>,
    buf: Vec<usize>,
}

impl DirectObjective for Decoded<'_> {
    fn eval(&mut self, x: &[f64]) -> f64 {
        self.rebase(x);
        self.scoring.centre()
    }

    fn rebase(&mut self, centre: &[f64]) {
        decode_into(self.problem, self.k, centre, &mut self.buf);
        self.scoring.rebase(&self.buf);
    }

    fn eval_axis(&mut self, x: &[f64], axis: usize) -> f64 {
        let dst = ((x[axis].clamp(0.0, 1.0) * self.k as f64).floor() as usize).min(self.k - 1);
        self.scoring.moved(axis, dst)
    }
}

/// What one dataset's cold solve does.
#[derive(Debug, PartialEq)]
struct Pinned {
    k_final: usize,
    probes: Vec<(usize, bool)>,
    plan: u64,
    objective_bits: u64,
    direct_best_x: u64,
    direct_iterations: usize,
    direct_evals: usize,
    polish_moves: usize,
    polished_plan: u64,
}

fn observed(dataset: Dataset) -> Pinned {
    let engine = fleet_engine();
    let cfg = engine.solver_config();
    let problem = engine
        .problem(&dataset_profiles(dataset, 0x5EED))
        .expect("dataset profiles are valid");
    let report = solve(&problem, &cfg).expect("every dataset has a plan");

    let k = report.k_final;
    let direct = direct_minimize_objective(
        free_dims(&problem),
        &DirectConfig {
            max_evals: cfg.final_evals,
            max_iters: usize::MAX,
            epsilon: cfg.epsilon,
            stop_below: None,
        },
        &mut Decoded {
            problem: &problem,
            k,
            scoring: CentreScorer::default().on(&problem),
            buf: Vec::new(),
        },
    );
    let polished = polish(
        &problem,
        &decode(&problem, k, &direct.best_x),
        k,
        cfg.polish_rounds,
    );
    Pinned {
        k_final: k,
        probes: report.probes,
        plan: plan_hash(&report.assignment.machine_of),
        objective_bits: report.evaluation.objective.to_bits(),
        direct_best_x: fnv(direct.best_x.iter().map(|v| v.to_bits())),
        direct_iterations: direct.iterations,
        direct_evals: direct.evals,
        polish_moves: polished.moves,
        polished_plan: plan_hash(&polished.assignment.machine_of),
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
            plan: 4_884_049_911_555_427_793,
            objective_bits: 4_612_466_169_951_122_918,
            direct_best_x: 17_869_741_307_212_807_801,
            direct_iterations: 33,
            direct_evals: 7_999,
            polish_moves: 0,
            polished_plan: 4_884_049_911_555_427_793,
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
            plan: 9_525_029_929_760_433_096,
            objective_bits: 4_616_057_475_453_684_167,
            direct_best_x: 16_331_551_950_351_963_737,
            direct_iterations: 20,
            direct_evals: 7_999,
            polish_moves: 1,
            polished_plan: 9_525_029_929_760_433_096,
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
            plan: 10_194_939_433_535_558_910,
            objective_bits: 4_622_075_010_172_194_496,
            direct_best_x: 16_565_308_256_553_708_415,
            direct_iterations: 18,
            direct_evals: 7_999,
            polish_moves: 31,
            polished_plan: 12_334_030_141_384_398_998,
        },
    );
}

#[test]
fn secondlife() {
    check(
        Dataset::SecondLife,
        Pinned {
            k_final: 20,
            probes: vec![(56, true), (18, false), (19, false)],
            plan: 17_062_348_896_035_549_118,
            objective_bits: 4_628_766_006_792_081_817,
            direct_best_x: 13_715_031_413_078_633_779,
            direct_iterations: 11,
            direct_evals: 7_999,
            polish_moves: 98,
            polished_plan: 603_558_700_829_498_999,
        },
    );
}
