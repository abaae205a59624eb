//! # kairos-bench — the experiment harness
//!
//! Four binaries share these helpers: `paper` regenerates the paper's
//! tables and figures and checks each against the claim the paper makes
//! of it (`src/bin/paper/claims.rs`); `solver_perf` checks §6's claims for
//! the K′-bounded search; `fleet_scale` is the self-checking scale sweep;
//! `kbench` (its own package under `src/bin/kbench/`, declared by
//! `/BENCHMARK.json`) is the one timing benchmark. Run e.g.:
//!
//! ```text
//! cargo run --release -p kairos-bench --bin paper          # every figure
//! cargo run --release -p kairos-bench --bin paper fig04    # one of them
//! ```

use kairos_core::{ConsolidationEngine, EngineBuilder};
use kairos_traces::{generate_fleet, Dataset, FleetConfig, ServerTrace};
use kairos_types::WorkloadProfile;

/// Print a section header.
pub fn section(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Render an aligned text table. The header and every row are one line of
/// `|`-separated cells, so a row is written as one format string.
pub fn print_table(headers: &str, rows: &[String]) {
    let split = |line: &str| line.split('|').map(str::to_string).collect::<Vec<_>>();
    let headers = split(headers);
    let rows: Vec<Vec<String>> = rows.iter().map(|row| split(row)).collect();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (cell, width) in cells.iter().zip(&widths) {
            out.push_str(&format!("{cell:>width$}  "));
        }
        println!("{}", out.trim_end());
    };
    line(&headers);
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    rows.iter().for_each(|row| line(row));
}

/// Format bytes/s as MB/s.
pub fn mbps(bytes_per_sec: f64) -> String {
    format!("{:.2}", bytes_per_sec / 1e6)
}

/// The §6 RAM scaling factor for un-gaugeable historical statistics.
pub const RAM_SCALE: f64 = 0.7;

/// Fleet profiles for a dataset over the last 24 h (Fig 7–9 input).
pub fn dataset_profiles(dataset: Dataset, seed: u64) -> Vec<WorkloadProfile> {
    let cfg = FleetConfig {
        weeks: 1,
        seed,
        ..Default::default()
    };
    let fleet = generate_fleet(dataset, &cfg);
    last_day_profiles(&fleet)
}

/// Convert traces to profiles restricted to their final day.
pub fn last_day_profiles(fleet: &[ServerTrace]) -> Vec<WorkloadProfile> {
    fleet
        .iter()
        .map(|s| {
            let p = s.to_profile(RAM_SCALE);
            let day = (86_400.0 / p.interval_secs()) as usize;
            let take_last = |series: &kairos_types::TimeSeries| {
                let v = series.values();
                let start = v.len().saturating_sub(day);
                kairos_types::TimeSeries::new(series.interval_secs(), v[start..].to_vec())
            };
            WorkloadProfile::new(
                p.name.clone(),
                take_last(&p.cpu_cores),
                take_last(&p.ram_bytes),
                take_last(&p.disk_working_set_bytes),
                take_last(&p.disk_update_rows_per_sec),
            )
        })
        .collect()
}

/// Engine wired the way the real-world experiments use it.
pub fn fleet_engine() -> ConsolidationEngine {
    EngineBuilder::default().headroom(0.95).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_without_panicking() {
        print_table("a|b", &["1|2".to_string(), "333|4".to_string()]);
    }

    #[test]
    fn dataset_profiles_cover_one_day() {
        let profiles = dataset_profiles(Dataset::Internal, 1);
        assert_eq!(profiles.len(), 25);
        assert_eq!(profiles[0].windows(), 288);
    }

    #[test]
    fn mbps_formats() {
        assert_eq!(mbps(12_500_000.0), "12.50");
    }
}
