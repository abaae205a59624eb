//! `kbench compare a.json b.json`: one row per workload × end-to-end
//! metric with both medians, the change and spread of the paired
//! repetitions, the bound and a verdict. The tool for "two sets of runs of
//! one commit agree" and for judging a change.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread exceeds the bound: no call can be made.
    Unresolved,
}

struct Side {
    value: f64,
    /// One value per repetition; the k-th repetitions of two runs of one
    /// seed ran the same draw of inputs.
    samples: Vec<f64>,
}

fn side(metric: &Json) -> Option<Side> {
    Some(Side {
        value: metric.get("value")?.as_f64()?,
        samples: metric
            .get("samples")?
            .items()
            .iter()
            .map(Json::as_f64)
            .collect::<Option<Vec<f64>>>()?,
    })
}

/// The relative change of each repetition against the one that ran the
/// same draw: their median, and the distance between their quartiles.
/// Pairing takes the draws' own differences out of the spread; what is
/// left is the machine's.
fn paired_change(a: &Side, b: &Side, bound: f64) -> Option<(f64, f64)> {
    if a.samples.is_empty() || a.samples.len() != b.samples.len() {
        return None;
    }
    let changes: Vec<f64> = a
        .samples
        .iter()
        .zip(&b.samples)
        .map(|(x, y)| (y - x) / x.abs().max(f64::MIN_POSITIVE))
        .collect();
    // One or two pairs (a metric taken once per run) have no spread of
    // their own to speak of: take the bound for it, so that only a change
    // beyond the bound reads as one.
    let (q1, q3) = quartiles(&changes);
    let spread = if changes.len() < 3 { bound } else { q3 - q1 };
    Some((median(&changes), spread))
}

fn judge(change: Option<(f64, f64)>, better: Better, bound: f64) -> Verdict {
    let Some((change, spread)) = change else {
        return Verdict::Unresolved;
    };
    if spread > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > spread.max(bound / 3.0) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn check_comparable(a: &Json, b: &Json) -> Result<(), String> {
    for doc in [a, b] {
        let fp = doc
            .get("fingerprint")
            .ok_or("a result has no fingerprint")?;
        if fp.get("quick").and_then(Json::as_bool) != Some(false) {
            return Err("quick results are smoke runs, not measurements".into());
        }
    }
    let (fa, fb) = (a.get("fingerprint"), b.get("fingerprint"));
    // Everything but the commit must match.
    for (key, value) in fa.map_or(&[][..], Json::fields) {
        if key != "commit" && fb.and_then(|f| f.get(key)) != Some(value) {
            return Err(format!(
                "fingerprints differ in {key}: {} vs {}",
                value.render(),
                fb.and_then(|f| f.get(key))
                    .map_or("absent".into(), Json::render)
            ));
        }
    }
    Ok(())
}

fn failed_share(workload: &Json) -> f64 {
    let get = |k| workload.get(k).and_then(Json::as_f64).unwrap_or(1.0);
    get("failed") / get("attempted").max(1.0)
}

/// Print the table; `Ok(true)` when nothing regressed, no workload fails
/// more operations and every count repeated.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    check_comparable(a, b)?;
    let mut clean = true;
    println!(
        "{:<22} {:<15} {:>12} {:>12} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "a (median)", "b (median)", "change", "spread", "bound"
    );
    for wa in a.get("workloads").map_or(&[][..], Json::items) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = b
            .get("workloads")
            .map_or(&[][..], Json::items)
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<22} missing from the second result");
            clean = false;
            continue;
        };
        for m in &END_TO_END {
            let sides = (
                wa.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(side),
                wb.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(side),
            );
            let (Some(sa), Some(sb)) = sides else {
                println!("{name:<22} {:<15} missing", m.name);
                clean = false;
                continue;
            };
            let change = paired_change(&sa, &sb, m.bound);
            let verdict = judge(change, m.better, m.bound);
            clean &= verdict != Verdict::Regressed;
            let (by, spread) = change.unwrap_or((f64::NAN, f64::NAN));
            println!(
                "{name:<22} {:<15} {:>12.4} {:>12.4} {:>+6.1}% {:>6.1}% {:>5.0}%  {verdict:?} {}",
                m.name,
                sa.value,
                sb.value,
                by * 100.0,
                spread * 100.0,
                m.bound * 100.0,
                m.unit,
            );
        }
        let (fa, fb) = (failed_share(wa), failed_share(wb));
        if fb > fa {
            println!("{name:<22} failed_ops_share rose from {fa} to {fb}");
            clean = false;
        }
        for (count, value) in wa.get("counts").map_or(&[][..], Json::fields) {
            let other = wb.get("counts").and_then(|c| c.get(count));
            if other != Some(value) {
                println!(
                    "{name:<22} count {count} did not repeat: {} vs {}",
                    value.render(),
                    other.map_or("absent".into(), Json::render)
                );
                clean = false;
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(samples: &[f64]) -> Side {
        Side {
            value: median(samples),
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_bound_and_paired_spread() {
        // Three draws that differ by far more than the bound: pairing
        // takes that out.
        let a = s(&[100.0, 150.0, 80.0]);
        let lower = |b: &[f64]| judge(paired_change(&a, &s(b), 0.10), Better::Lower, 0.10);
        assert_eq!(lower(&[104.0, 156.0, 83.0]), Verdict::Unchanged);
        assert_eq!(lower(&[111.0, 168.0, 89.0]), Verdict::Regressed);
        assert_eq!(lower(&[90.0, 134.0, 72.0]), Verdict::Improved);
        assert_eq!(lower(&[98.0, 148.0, 79.0]), Verdict::Unchanged);
        assert_eq!(lower(&[100.0, 180.0, 70.0]), Verdict::Unresolved);
        assert_eq!(lower(&[100.0, 150.0]), Verdict::Unresolved);
        // A metric taken once per run: only a change beyond the bound counts.
        let once = s(&[100.0]);
        let single = |b: f64| judge(paired_change(&once, &s(&[b]), 0.10), Better::Lower, 0.10);
        assert_eq!(single(92.0), Verdict::Unchanged);
        assert_eq!(single(88.0), Verdict::Improved);
        assert_eq!(single(111.0), Verdict::Regressed);
        // Higher-is-better flips the direction.
        let higher = |b: &[f64]| judge(paired_change(&a, &s(b), 0.10), Better::Higher, 0.10);
        assert_eq!(higher(&[85.0, 127.0, 68.0]), Verdict::Regressed);
        assert_eq!(higher(&[115.0, 172.0, 92.0]), Verdict::Improved);
    }

    fn doc(commit: &str, quick: bool, wall: f64, machines: u64) -> Json {
        let metric = |v: f64| {
            Json::obj().with("value", v).with("unit", "x").with(
                "samples",
                vec![Json::from(v * 0.99), Json::from(v), Json::from(v * 1.01)],
            )
        };
        let mut e2e = Json::obj();
        for m in &END_TO_END {
            e2e = e2e.with(
                m.name,
                metric(if m.name == "work_wall_s" { wall } else { 5.0 }),
            );
        }
        Json::obj()
            .with(
                "fingerprint",
                Json::obj()
                    .with("nproc", 2usize)
                    .with("quick", quick)
                    .with("commit", commit),
            )
            .with(
                "workloads",
                vec![Json::obj()
                    .with("name", "online_drift")
                    .with("attempted", 10usize)
                    .with("failed", 0usize)
                    .with("end_to_end", e2e)
                    .with("counts", Json::obj().with("machines", machines))],
            )
    }

    #[test]
    fn compare_gates_on_regression_counts_quick_and_fingerprint() {
        let base = doc("aaa", false, 2.0, 96);
        assert_eq!(compare(&base, &doc("bbb", false, 2.05, 96)), Ok(true));
        assert_eq!(compare(&base, &doc("bbb", false, 2.8, 96)), Ok(false));
        assert_eq!(compare(&base, &doc("bbb", false, 2.0, 97)), Ok(false));
        assert!(compare(&base, &doc("bbb", true, 2.0, 96)).is_err());
        let mut other_box = doc("bbb", false, 2.0, 96);
        if let Json::Obj(fields) = &mut other_box {
            fields[0].1 = Json::obj()
                .with("nproc", 8usize)
                .with("quick", false)
                .with("commit", "bbb");
        }
        assert!(compare(&base, &other_box).is_err());
    }
}
