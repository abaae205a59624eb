//! `paper` — the paper's evaluation (§7) as one table that checks itself.
//!
//! Each figure is a function that prints the rows and series the paper
//! plots and emits its readings; [`claims::CLAIMS`] bounds every reading
//! the paper makes a claim about, and [`claims::check`] is the only
//! checker. One profile: full grids, ~6 s for everything in release.
//!
//! ```text
//! cargo run --release -p kairos-bench --bin paper               # all figures
//! cargo run --release -p kairos-bench --bin paper fig06 table1  # these two
//! ```
//!
//! The run ends with one row per claim — reading, band, the paper's value,
//! and `holds` or `pinned` (a `deviates` claim: the reproduction is outside
//! the paper's band and the band pins today's reading, so the gap is
//! visible and cannot widen silently) — and exits non-zero on any finding.

mod claims;
mod disk;
mod fleets;
mod gauging;
mod models;
mod solver;
mod virt;

use claims::{check, Claim, Readings, CLAIMS};
use kairos_bench::{print_table, section};
use std::process::ExitCode;

type Figure = fn(&mut Readings);

/// In the paper's order. A claim belongs to the figure its name starts with.
pub const FIGURES: [(&str, Figure); 14] = [
    ("fig02", gauging::fig02),
    ("table2", gauging::table2),
    ("fig04", disk::fig04),
    ("fig05", solver::fig05),
    ("fig06", models::fig06),
    ("table1", models::table1),
    ("fig07", fleets::fig07),
    ("fig08", fleets::fig08),
    ("fig09", fleets::fig09),
    ("fig10", virt::fig10),
    ("fig11", virt::fig11),
    ("fig12", disk::fig12),
    ("fig13", fleets::fig13),
    ("ablation", solver::ablation),
];

/// Smallest and largest of `values`, NaN if any is: `f64::min` would drop
/// it, and a NaN reading must reach [`check`].
pub fn min_max(values: impl IntoIterator<Item = f64>) -> (f64, f64) {
    let start = (f64::INFINITY, f64::NEG_INFINITY);
    values.into_iter().fold(start, |(lo, hi), v| {
        if v.is_nan() || lo.is_nan() {
            (f64::NAN, f64::NAN)
        } else {
            (lo.min(v), hi.max(v))
        }
    })
}

fn main() -> ExitCode {
    let named: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = named.iter().find(|n| FIGURES.iter().all(|(f, _)| f != n)) {
        let known: Vec<&str> = FIGURES.iter().map(|(f, _)| *f).collect();
        eprintln!("paper: no figure {bad:?}; figures: {}", known.join(" "));
        return ExitCode::from(2);
    }
    let selected = |name: &str| named.is_empty() || named.iter().any(|n| n == name);

    let mut readings = Readings::new();
    for (name, run) in FIGURES {
        if selected(name) {
            run(&mut readings);
        }
    }

    let owned = |c: &Claim| {
        FIGURES
            .iter()
            .any(|(f, _)| selected(f) && c.reading.starts_with(f))
    };
    let claims: Vec<Claim> = CLAIMS.into_iter().filter(owned).collect();
    let findings = check(&readings, &claims);
    section("claims: reading against band (pinned = outside the paper's band, held where it is)");
    let rows: Vec<String> = claims
        .iter()
        .map(|c| {
            let verdict = match (findings.iter().any(|f| f.claim == *c), c.deviates) {
                (true, _) => "FAIL",
                (false, true) => "pinned",
                (false, false) => "holds",
            };
            let reading = readings
                .get(c.reading)
                .map_or("-".into(), |v| format!("{v:.3}"));
            let Claim { lo, hi, paper, .. } = c;
            format!("{}|{reading}|[{lo}, {hi}]|{paper}|{verdict}", c.reading)
        })
        .collect();
    print_table("claim|reading|band|paper|verdict", &rows);

    println!();
    for f in &findings {
        let Claim {
            reading, lo, hi, ..
        } = f.claim;
        println!("FAIL {reading}: read {:?}, claimed [{lo}, {hi}]", f.got);
    }
    if findings.is_empty() {
        let pinned = claims.iter().filter(|c| c.deviates).count();
        let hold = claims.len() - pinned;
        println!("ok: {hold} claims hold, {pinned} pinned at a deviation from the paper");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
