//! Bivariate second-order polynomials with Least-Absolute-Residuals
//! fitting.
//!
//! The paper (§4.1, footnote 5): "We use a Least Absolute Residuals (LAR)
//! second-order polynomial fit of the disk I/O to build the disk model
//! shown by the contour of Figure 4." LAR is implemented as iteratively
//! re-weighted least squares (IRLS) with weights `1/max(|r|, ε)`, which
//! converges to the L1 estimate and is robust to the occasional
//! checkpoint-spike outlier in profiled data.

use crate::linalg::weighted_least_squares;
use kairos_types::Result;

/// `f(x, y) = c0 + c1·x + c2·y + c3·x² + c4·xy + c5·y²`, with inputs
/// internally normalized by `x_scale`/`y_scale` for conditioning.
#[derive(Debug, Clone, PartialEq)]
pub struct Poly2D {
    pub coeffs: [f64; 6],
    pub x_scale: f64,
    pub y_scale: f64,
}

impl Poly2D {
    fn basis(x: f64, y: f64) -> [f64; 6] {
        [1.0, x, y, x * x, x * y, y * y]
    }

    pub fn eval(&self, x: f64, y: f64) -> f64 {
        let xs = x / self.x_scale;
        let ys = y / self.y_scale;
        let b = Self::basis(xs, ys);
        self.coeffs.iter().zip(b.iter()).map(|(c, v)| c * v).sum()
    }

    /// Least-absolute-residuals fit via IRLS.
    pub fn fit_lar(samples: &[(f64, f64, f64)]) -> Result<Poly2D> {
        let mut w = vec![1.0; samples.len()];
        let mut model = Self::fit_weighted(samples, &w)?;
        const EPS: f64 = 1e-6;
        for _ in 0..30 {
            let mut max_delta: f64 = 0.0;
            for (i, &(x, y, z)) in samples.iter().enumerate() {
                let r = (z - model.eval(x, y))
                    .abs()
                    .max(EPS * model.z_scale_hint(samples));
                let new_w = 1.0 / r;
                max_delta = max_delta.max((new_w - w[i]).abs() / new_w.max(1e-12));
                w[i] = new_w;
            }
            let next = Self::fit_weighted(samples, &w)?;
            let coeff_delta: f64 = next
                .coeffs
                .iter()
                .zip(model.coeffs.iter())
                .map(|(a, b)| (a - b).abs())
                .sum();
            model = next;
            if coeff_delta < 1e-9 {
                break;
            }
        }
        Ok(model)
    }

    fn z_scale_hint(&self, samples: &[(f64, f64, f64)]) -> f64 {
        samples
            .iter()
            .map(|&(_, _, z)| z.abs())
            .fold(0.0, f64::max)
            .max(1.0)
    }

    fn fit_weighted(samples: &[(f64, f64, f64)], w: &[f64]) -> Result<Poly2D> {
        assert!(!samples.is_empty(), "cannot fit an empty sample set");
        let x_scale = samples
            .iter()
            .map(|&(x, _, _)| x.abs())
            .fold(0.0, f64::max)
            .max(1e-12);
        let y_scale = samples
            .iter()
            .map(|&(_, y, _)| y.abs())
            .fold(0.0, f64::max)
            .max(1e-12);
        let rows: Vec<Vec<f64>> = samples
            .iter()
            .map(|&(x, y, _)| Self::basis(x / x_scale, y / y_scale).to_vec())
            .collect();
        let z: Vec<f64> = samples.iter().map(|&(_, _, z)| z).collect();
        let c = weighted_least_squares(&rows, &z, w)?;
        Ok(Poly2D {
            coeffs: [c[0], c[1], c[2], c[3], c[4], c[5]],
            x_scale,
            y_scale,
        })
    }
}

/// Univariate quadratic `g(x) = a + b·x + c·x²` — the Fig 4 dashed
/// saturation frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct Quadratic {
    pub coeffs: [f64; 3],
    pub x_scale: f64,
}

impl Quadratic {
    pub fn eval(&self, x: f64) -> f64 {
        let xs = x / self.x_scale;
        self.coeffs[0] + self.coeffs[1] * xs + self.coeffs[2] * xs * xs
    }

    /// Least-squares quadratic through `(x, y)` samples.
    pub fn fit(samples: &[(f64, f64)]) -> Result<Quadratic> {
        assert!(!samples.is_empty(), "cannot fit an empty sample set");
        let x_scale = samples
            .iter()
            .map(|&(x, _)| x.abs())
            .fold(0.0, f64::max)
            .max(1e-12);
        let rows: Vec<Vec<f64>> = samples
            .iter()
            .map(|&(x, _)| {
                let xs = x / x_scale;
                vec![1.0, xs, xs * xs]
            })
            .collect();
        let y: Vec<f64> = samples.iter().map(|&(_, y)| y).collect();
        let w = vec![1.0; samples.len()];
        let c = weighted_least_squares(&rows, &y, &w)?;
        Ok(Quadratic {
            coeffs: [c[0], c[1], c[2]],
            x_scale,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_types::SplitMix64;

    fn truth(x: f64, y: f64) -> f64 {
        5.0 + 2.0 * x + 0.5 * y + 0.1 * x * x + 0.3 * x * y + 0.02 * y * y
    }

    /// Ordinary least squares: the baseline LAR is compared against.
    fn fit_least_squares(samples: &[(f64, f64, f64)]) -> Result<Poly2D> {
        Poly2D::fit_weighted(samples, &vec![1.0; samples.len()])
    }

    fn grid_samples() -> Vec<(f64, f64, f64)> {
        let mut out = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                let x = i as f64 * 0.5;
                let y = j as f64 * 2.0;
                out.push((x, y, truth(x, y)));
            }
        }
        out
    }

    #[test]
    fn least_squares_recovers_exact_polynomial() {
        let p = fit_least_squares(&grid_samples()).unwrap();
        for &(x, y, z) in &grid_samples()[..20] {
            assert!((p.eval(x, y) - z).abs() < 1e-6, "at ({x},{y})");
        }
    }

    #[test]
    fn lar_recovers_exact_polynomial() {
        let p = Poly2D::fit_lar(&grid_samples()).unwrap();
        for &(x, y, z) in &grid_samples()[..20] {
            assert!((p.eval(x, y) - z).abs() < 1e-4, "at ({x},{y})");
        }
    }

    #[test]
    fn lar_is_robust_to_outliers_where_lsq_is_not() {
        let mut samples = grid_samples();
        // Corrupt 6 points grossly.
        for i in 0..6 {
            samples[i * 20].2 += 500.0;
        }
        let lar = Poly2D::fit_lar(&samples).unwrap();
        let lsq = fit_least_squares(&samples).unwrap();
        let clean = grid_samples();
        let err = |p: &Poly2D| -> f64 {
            clean
                .iter()
                .map(|&(x, y, z)| (p.eval(x, y) - z).abs())
                .sum::<f64>()
                / clean.len() as f64
        };
        let lar_err = err(&lar);
        let lsq_err = err(&lsq);
        assert!(
            lar_err < lsq_err * 0.5,
            "LAR {lar_err:.3} should beat LSQ {lsq_err:.3} under outliers"
        );
    }

    #[test]
    fn fit_with_noise_stays_close() {
        let mut rng = SplitMix64::new(99);
        let noisy: Vec<(f64, f64, f64)> = grid_samples()
            .into_iter()
            .map(|(x, y, z)| (x, y, z + rng.next_gaussian() * 0.5))
            .collect();
        let p = Poly2D::fit_lar(&noisy).unwrap();
        let mean_err: f64 = noisy
            .iter()
            .map(|&(x, y, _)| (p.eval(x, y) - truth(x, y)).abs())
            .sum::<f64>()
            / noisy.len() as f64;
        assert!(mean_err < 0.5, "mean err {mean_err}");
    }

    #[test]
    fn scaling_keeps_large_inputs_conditioned() {
        // Bytes-scale x (1e9) and rate-scale y (1e4).
        let samples: Vec<(f64, f64, f64)> = (1..10)
            .flat_map(|i| {
                (1..10).map(move |j| {
                    let x = i as f64 * 4e8;
                    let y = j as f64 * 4e3;
                    (x, y, 1e6 + 2e-3 * x + 50.0 * y)
                })
            })
            .collect();
        let p = Poly2D::fit_lar(&samples).unwrap();
        for &(x, y, z) in &samples[..10] {
            let rel = ((p.eval(x, y) - z) / z).abs();
            assert!(rel < 1e-6, "relative error {rel}");
        }
    }

    #[test]
    fn quadratic_fit_recovers_parabola() {
        let samples: Vec<(f64, f64)> = (0..20)
            .map(|i| {
                let x = i as f64 * 0.25e9;
                (x, 40_000.0 - 1e-5 * x - 1e-14 * x * x)
            })
            .collect();
        let q = Quadratic::fit(&samples).unwrap();
        for &(x, y) in &samples {
            assert!((q.eval(x) - y).abs() < y.abs() * 1e-6 + 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn empty_fit_panics() {
        let _ = fit_least_squares(&[]);
    }
}
