//! Order statistics for timing samples: medians, quartiles and the
//! percentile rule (a percentile is only reported when at least ten
//! samples lie beyond it).

use kairos_types::percentile_of_sorted;

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median; 0 for no samples (a workload that could not start).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile_of_sorted(&sorted(samples), 50.0)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them, so a spread computed here agrees with
/// one computed outside. Fewer than two samples have no spread.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The `p`-th percentile, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let beyond = (samples.len() as f64 * (1.0 - p / 100.0)).floor() as usize;
    (beyond >= MIN_BEYOND).then(|| percentile_of_sorted(&sorted(samples), p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert!(percentile(&v, 95.0).is_none(), "199 × 5 % = 9.95 beyond");
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&v, 95.0).expect("200 × 5 % = 10 beyond");
        assert!((p95 - 190.05).abs() < 1e-9, "{p95}");
        assert!(percentile(&v, 99.0).is_none());
        assert!(percentile(&v[..20], 50.0).is_some());
        assert!(percentile(&v[..19], 50.0).is_none());
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert_eq!(median(&[]), 0.0);
    }
}
