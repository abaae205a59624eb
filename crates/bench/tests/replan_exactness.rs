//! The warm re-plan, pinned step by step.
//!
//! `fig07_exactness.rs` holds the cold solve to its trajectory; this suite
//! does the same for the solve the online plane runs on every drift trip:
//! `solve_warm` on a migration-priced problem, under the online re-solver's
//! tuning (`ReSolver::new`). In five cases a seeded 24-tenant fleet is
//! planned cold, then drifts, and the drifted problem is re-solved warm
//! from that plan with the plan as its migration baseline; the sixth starts
//! from a plan the drift overloaded. Per case it pins the searches run, the
//! probes, K′, the plan returned and the bits of its objective.
//!
//! A warm re-plan whose polished start beats greedy's bound returns its
//! incumbent once the binary search ends, without the final run at K′.
//! Three cases are there for the path they take, and check it:
//! `mild_rise`'s polished warm plan already sits at the machine-count lower
//! bound, so the binary search has nothing to probe and the solve runs no
//! search; `hot_pair`'s bounds meet, so it too returns the warm plan
//! without a probe; and `overloaded`'s warm polish loses to the greedy
//! upper bound, so the search runs from greedy's incumbent and still ends
//! with the final run.
//!
//! Every search here polishes DIRECT's decoded centre (24 free slots).
//! `what_direct_at_k_prime_would_buy_over_the_seeded_search` runs DIRECT
//! at each solve's K′ by hand, cold and warm, and holds what it would buy
//! to ceilings. Every value was recorded when the search began to polish
//! the centre instead of DIRECT's best point.

use kairos_bench::fleet_engine;
use kairos_solver::{
    evaluate, polish, solve, solve_at_k, solve_warm, upper_bound, Assignment, ConsolidationProblem,
    SolveReport, SolverConfig,
};
use kairos_types::{SplitMix64, TimeSeries, WorkloadProfile};
use std::f64::consts::TAU;

/// FNV-1a over 64-bit words.
fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn plan_hash(machine_of: &[usize]) -> u64 {
    fnv(machine_of.iter().map(|&m| m as u64))
}

const TENANTS: usize = 24;
const WINDOWS: usize = 12;

/// The online re-solver's tuning: the default.
fn online() -> SolverConfig {
    SolverConfig::default()
}

/// DIRECT's evaluations at K′ in the comparison: what the online plane's
/// final run spent before the search polished the centre.
const DIRECT_EVALS: usize = 2_000;

/// `TENANTS` diurnal tenants from `seed`, tenant `i`'s CPU scaled by
/// `scale(i)`, over a 12-window horizon.
fn fleet(seed: u64, scale: impl Fn(usize) -> f64) -> ConsolidationProblem {
    let mut rng = SplitMix64::new(seed);
    let profiles: Vec<WorkloadProfile> = (0..TENANTS)
        .map(|i| {
            let (cpu, ram) = (rng.next_in(0.4, 2.8), rng.next_in(2e9, 9e9));
            let (rate, phase) = (rng.next_in(40.0, 900.0), rng.next_in(0.0, TAU));
            let wave =
                |amp: f64, t: usize| 1.0 + amp * (phase + TAU * t as f64 / WINDOWS as f64).sin();
            let series =
                |f: &dyn Fn(usize) -> f64| TimeSeries::new(300.0, (0..WINDOWS).map(f).collect());
            WorkloadProfile::new(
                format!("t{i:02}"),
                series(&|t| cpu * scale(i) * wave(0.4, t)),
                series(&|_| ram),
                series(&|_| 0.3 * ram),
                series(&|t| rate * wave(0.3, t)),
            )
        })
        .collect();
    fleet_engine().problem(&profiles).expect("finite profiles")
}

/// What one warm re-plan does.
#[derive(Debug, PartialEq)]
struct Pinned {
    searches: usize,
    probes: Vec<(usize, bool)>,
    k_final: usize,
    plan: u64,
    objective_bits: u64,
}

/// Re-plan `drifted` warm from `warm`, priced against it as the baseline.
fn replan_report(
    drifted: ConsolidationProblem,
    warm: &Assignment,
) -> (ConsolidationProblem, SolveReport) {
    let baseline = warm.machine_of.iter().map(|&m| Some(m)).collect();
    let problem = drifted.with_migration(baseline, 0.25);
    let report = solve_warm(&problem, &online(), warm).expect("a feasible plan");
    assert!(report.evaluation.feasible);
    (problem, report)
}

/// [`replan_report`], pinned.
fn replan(drifted: ConsolidationProblem, warm: &Assignment) -> (ConsolidationProblem, Pinned) {
    let (problem, report) = replan_report(drifted, warm);
    let pinned = Pinned {
        searches: report.evals_used,
        probes: report.probes,
        k_final: report.k_final,
        plan: plan_hash(&report.assignment.machine_of),
        objective_bits: report.evaluation.objective.to_bits(),
    };
    (problem, pinned)
}

/// Cold-plan `seed`'s fleet, drift it by `scale`, re-plan warm.
fn drift(seed: u64, scale: impl Fn(usize) -> f64) -> Pinned {
    let cold = solve(&fleet(seed, |_| 1.0), &online()).expect("a cold plan");
    replan(fleet(seed, scale), &cold.assignment).1
}

#[test]
fn stationary() {
    assert_eq!(
        drift(0x5EED, |_| 1.0),
        Pinned {
            searches: 1,
            probes: vec![(3, false)],
            k_final: 4,
            plan: 4_485_778_285_264_257_837,
            objective_bits: 4_618_857_291_839_730_426,
        }
    );
}

#[test]
fn flash_crowd() {
    assert_eq!(
        drift(0x5EED, |i| if (4..8).contains(&i) { 2.5 } else { 1.0 }),
        Pinned {
            searches: 1,
            probes: vec![(4, false)],
            k_final: 5,
            plan: 10_462_626_693_180_909_779,
            objective_bits: 4_620_938_998_866_985_102,
        }
    );
}

#[test]
fn mild_rise() {
    let observed = drift(7, |i| if i % 3 == 0 { 1.4 } else { 1.0 });
    assert_eq!(
        (observed.searches, observed.probes.len()),
        (0, 0),
        "the polished warm plan is accepted on the fast path"
    );
    assert_eq!(
        observed,
        Pinned {
            searches: 0,
            probes: vec![],
            k_final: 5,
            plan: 9_071_229_727_284_850_219,
            objective_bits: 4_621_267_063_083_002_426,
        }
    );
}

#[test]
fn cooling() {
    assert_eq!(
        drift(11, |i| if i < 12 { 0.35 } else { 1.0 }),
        Pinned {
            searches: 1,
            probes: vec![(3, false)],
            k_final: 4,
            plan: 4_540_908_951_365_582_703,
            objective_bits: 4_619_027_744_378_528_338,
        }
    );
}

#[test]
fn hot_pair() {
    assert_eq!(
        drift(23, |i| if i == 3 || i == 17 { 2.5 } else { 1.0 }),
        Pinned {
            searches: 0,
            probes: vec![],
            k_final: 4,
            plan: 10_925_152_270_762_170_378,
            objective_bits: 4_621_007_220_234_751_624,
        }
    );
}

#[test]
fn overloaded() {
    // A six-machine plan under 2.5× the CPU it was packed for: the warm
    // polish repairs it, but into more machines than greedy packs.
    let problem = fleet(7, |_| 2.5);
    let warm = Assignment::new((0..TENANTS).map(|i| i % 6).collect());
    let (priced, observed) = replan(problem, &warm);
    let greedy = evaluate(&priced, &upper_bound(&priced).0);
    let polished = polish(&priced, &warm, priced.max_machines, online().polish_rounds);
    assert!(greedy.feasible);
    assert!(
        !(polished.evaluation.feasible && polished.evaluation.objective < greedy.objective),
        "the greedy bound beats the warm polish"
    );
    assert_eq!(
        observed,
        Pinned {
            searches: 2,
            probes: vec![(10, false)],
            k_final: 11,
            plan: 14_657_905_460_258_280_927,
            objective_bits: 4_627_013_418_379_610_167,
        }
    );
}

/// Whether greedy's bound beats `warm` polished as the warm solve polishes
/// it: the one case in which a warm re-plan still runs the final search.
fn greedy_beats_the_warm_polish(problem: &ConsolidationProblem, warm: &Assignment) -> bool {
    let greedy = evaluate(problem, &upper_bound(problem).0);
    let polished = polish(problem, warm, problem.max_machines, online().polish_rounds);
    greedy.feasible
        && !(polished.evaluation.feasible && polished.evaluation.objective < greedy.objective)
}

/// What DIRECT at K′ would buy over the seeded search. Over seeded drifts
/// (a random share of tenants scaled by one random factor, from a rise of
/// 2.6× to a cooling to 0.3×, and every fourth a round-robin plan under a
/// fleet-wide rise), each fleet is solved cold and re-planned warm, and
/// DIRECT is then run by hand at each solve's K′ with the online budget,
/// and polished as the final run polishes. Its wins, the machines it saves
/// and the worst objective ratio are held to ceilings recorded when the
/// search began to polish the centre, per kind of solve, beside how far a
/// returned warm plan may sit above its K′. A warm solve that also skipped
/// the binary search's probes reports the lower bound as K′, and fails that
/// last ceiling.
#[test]
fn what_direct_at_k_prime_would_buy_over_the_seeded_search() {
    const CASES: u64 = 64;
    let cfg = online();
    let mut rng = SplitMix64::new(0xF1A7);
    // Per kind (cold, warm): wins, most machines saved, worst ratio.
    let mut bought = [(0, 0, 1.0f64); 2];
    let (mut widest_gap, mut ran_final) = (0, 0);
    let mut compare = |kind: usize, problem: &ConsolidationProblem, report: &SolveReport| {
        let used = report.assignment.machines_used();
        let (plan, eval, _) = solve_at_k(problem, report.k_final, DIRECT_EVALS, cfg.polish_rounds);
        if eval.feasible && eval.objective < report.evaluation.objective {
            let (wins, saved, ratio) = &mut bought[kind];
            *wins += 1;
            *saved = (*saved).max(used.saturating_sub(plan.machines_used()));
            *ratio = ratio.max(report.evaluation.objective / eval.objective);
        }
    };
    for case in 0..CASES {
        let seed = 0xD21F7 + case;
        let cold_problem = fleet(seed, |_| 1.0);
        let cold = solve(&cold_problem, &cfg).expect("a cold plan");
        compare(0, &cold_problem, &cold);
        let (warm, drifted): (Assignment, Vec<f64>) = if case % 4 == 3 {
            // As in `overloaded`: a round-robin plan over too few machines
            // under a fleet-wide rise, which greedy's bound may beat.
            let (k, factor) = (4 + rng.next_range(4) as usize, rng.next_in(1.8, 3.0));
            let plan = Assignment::new((0..TENANTS).map(|i| i % k).collect());
            (plan, vec![factor; TENANTS])
        } else {
            let (share, factor) = (rng.next_in(0.05, 0.6), rng.next_in(0.3, 2.6));
            let scales = (0..TENANTS)
                .map(|_| if rng.next_f64() < share { factor } else { 1.0 })
                .collect();
            (cold.assignment, scales)
        };
        let (problem, report) = replan_report(fleet(seed, |i| drifted[i]), &warm);
        let searched = report.evals_used > report.probes.len();
        assert_eq!(
            searched,
            greedy_beats_the_warm_polish(&problem, &warm),
            "case {case}: the final run happens exactly when greedy beats the warm polish"
        );
        ran_final += usize::from(searched);
        if !searched {
            let used = report.assignment.machines_used();
            widest_gap = widest_gap.max(used - report.k_final);
        }
        compare(1, &problem, &report);
    }
    // Ceilings: the values recorded when the search began to polish the centre.
    let ceilings = [(34, 0, 1.008), (2, 0, 1.033)];
    for (kind, (got, ceiling)) in ["cold", "warm"].iter().zip(bought.iter().zip(ceilings)) {
        assert!(
            got.0 <= ceiling.0,
            "{kind}: DIRECT at K′ would have won {} times",
            got.0
        );
        assert!(
            got.1 <= ceiling.1,
            "{kind}: DIRECT at K′ would have saved {} machines",
            got.1
        );
        assert!(
            got.2 <= ceiling.2,
            "{kind}: a returned plan scores {}× DIRECT's at K′",
            got.2
        );
    }
    assert!(
        widest_gap <= 2,
        "a returned warm plan uses {widest_gap} machines more than its K′"
    );
    assert_eq!(ran_final, 3, "re-plans that ran the final search");
}
