//! The fitted disk model (§4.1, Fig 4).
//!
//! Two fitted surfaces over the profiled data:
//!
//! * the **response map** — LAR second-order polynomial
//!   `write_bytes/s = f(working_set, rows_updated/s)` over the
//!   non-saturated points (the Fig 4 contours);
//! * the **saturation frontier** — quadratic
//!   `max_rows/s = g(working_set)` through the per-working-set maxima
//!   (the Fig 4 dashed line).
//!
//! The central combination property (§4.1, validated in §7.5): running
//! multiple databases with aggregate working set `X` at aggregate update
//! rate `Y` produces the same disk I/O as one workload `(X, Y)` — so
//! predicting a consolidated mix is one [`DiskModel::predict_write_bytes`]
//! call on the summed [`DiskDemand`].

use crate::poly::{Poly2D, Quadratic};
use crate::profiler::DiskProfile;
use kairos_types::{Bytes, DiskDemand, KairosError, Result};

/// A hardware/DBMS-configuration-specific disk model.
#[derive(Debug, Clone)]
pub struct DiskModel {
    response: Poly2D,
    frontier: Quadratic,
    /// Highest profiled rate: the frontier's extrapolation cap.
    rate_max: f64,
    /// Largest write throughput seen during profiling.
    peak_write_bytes: f64,
}

impl DiskModel {
    /// Fit from a profile. Needs at least 6 non-saturated points (the
    /// polynomial has 6 coefficients) spanning ≥ 2 working-set sizes.
    pub fn fit(profile: &DiskProfile) -> Result<DiskModel> {
        let usable: Vec<(f64, f64, f64)> = profile
            .points
            .iter()
            .filter(|p| !p.saturated())
            .map(|p| (p.ws_bytes, p.rows_per_sec, p.write_bytes_per_sec))
            .collect();
        if usable.len() < 8 {
            return Err(KairosError::InvalidInput(format!(
                "only {} non-saturated points; profile a finer grid",
                usable.len()
            )));
        }
        let response = Poly2D::fit_lar(&usable)?;
        let sat = profile.saturation_points();
        if sat.len() < 3 {
            return Err(KairosError::InvalidInput(
                "need ≥3 working-set sizes for the saturation frontier".into(),
            ));
        }
        // Grid-capped columns (no saturated point at that working set)
        // report the sweep's ceiling, not the true frontier; fitting
        // through them flattens the dashed line. Prefer genuinely
        // saturated columns when enough exist.
        let truly_saturated: Vec<(f64, f64)> = sat
            .iter()
            .filter(|(ws, _)| {
                profile
                    .points
                    .iter()
                    .any(|p| (p.ws_bytes - ws).abs() < 1.0 && p.saturated())
            })
            .copied()
            .collect();
        let frontier = if truly_saturated.len() >= 3 {
            Quadratic::fit(&truly_saturated)?
        } else {
            Quadratic::fit(&sat)?
        };
        let rate_max = profile
            .points
            .iter()
            .map(|p| p.rows_per_sec)
            .fold(0.0, f64::max);
        let peak_write_bytes = profile
            .points
            .iter()
            .map(|p| p.write_bytes_per_sec)
            .fold(0.0, f64::max);
        Ok(DiskModel {
            response,
            frontier,
            rate_max,
            peak_write_bytes,
        })
    }

    /// Predicted disk write throughput (bytes/s) for a combined demand.
    /// Clamped to `[0, peak]` — the fit is only trusted inside the
    /// profiled envelope, and §4.1 notes only the high-load region needs
    /// precision.
    pub fn predict_write_bytes(&self, demand: DiskDemand) -> f64 {
        let v = self.response.eval(
            demand.working_set.as_f64(),
            demand.update_rows_per_sec.as_f64(),
        );
        v.clamp(0.0, self.peak_write_bytes * 1.25)
    }

    /// Maximum sustainable row-update rate for a working set (the dashed
    /// Fig 4 curve). Clamped to the profiled rate envelope so quadratic
    /// extrapolation cannot invent capacity.
    pub fn saturation_rate(&self, working_set: Bytes) -> f64 {
        self.frontier
            .eval(working_set.as_f64())
            .clamp(0.0, self.rate_max * 1.2)
    }

    /// Disk "utilization" of a demand: offered rate over the saturation
    /// rate at that working set. >1 = infeasible.
    pub fn utilization(&self, demand: DiskDemand) -> f64 {
        let cap = self.saturation_rate(demand.working_set);
        if cap <= 0.0 {
            return f64::INFINITY;
        }
        demand.update_rows_per_sec.as_f64() / cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::DiskPoint;
    use kairos_types::Rate;

    /// A synthetic profile with the Fig 4 shape: writes grow sub-linearly
    /// in rate, grow with working set, saturation rate falls with ws.
    fn synthetic_profile() -> DiskProfile {
        let mut points = Vec::new();
        for i in 1..=6 {
            let ws = i as f64 * 0.5e9;
            let sat_rate = 50_000.0 - ws * 6e-6; // falls with ws
            for j in 1..=10 {
                let rate = j as f64 * 5_000.0;
                let achieved = if rate <= sat_rate {
                    1.0
                } else {
                    sat_rate / rate
                };
                let eff_rate = rate.min(sat_rate);
                // log + coalesced page writes (concave in rate, grows with ws).
                let writes = 240.0 * eff_rate
                    + 16384.0
                        * (ws / 16384.0)
                        * (1.0 - (-eff_rate * 16384.0 / ws * 0.002).exp())
                        * 0.08;
                points.push(DiskPoint {
                    ws_bytes: ws,
                    rows_per_sec: eff_rate,
                    write_bytes_per_sec: writes,
                    achieved_fraction: achieved,
                });
            }
        }
        DiskProfile {
            machine: "synthetic".into(),
            points,
        }
    }

    #[test]
    fn fit_and_predict_interpolates() {
        let profile = synthetic_profile();
        let model = DiskModel::fit(&profile).unwrap();
        // Compare prediction against the generator at an off-grid point.
        let demand = DiskDemand::new(Bytes((1.25e9) as u64), Rate(12_500.0));
        let predicted = model.predict_write_bytes(demand);
        assert!(predicted > 0.0);
        // Must be within 30% of neighbours' range (coarse interpolation
        // sanity; the LAR polynomial is smooth).
        let lo = 240.0 * 12_500.0 * 0.5;
        let hi = 240.0 * 12_500.0 * 2.0;
        assert!((lo..hi).contains(&predicted), "predicted {predicted}");
    }

    #[test]
    fn prediction_monotone_in_rate() {
        let model = DiskModel::fit(&synthetic_profile()).unwrap();
        let ws = Bytes((1e9) as u64);
        let low = model.predict_write_bytes(DiskDemand::new(ws, Rate(5_000.0)));
        let high = model.predict_write_bytes(DiskDemand::new(ws, Rate(25_000.0)));
        assert!(high > low);
    }

    #[test]
    fn saturation_rate_falls_with_working_set() {
        let model = DiskModel::fit(&synthetic_profile()).unwrap();
        let small = model.saturation_rate(Bytes((0.5e9) as u64));
        let large = model.saturation_rate(Bytes((3.0e9) as u64));
        assert!(
            small > large,
            "bigger working sets must saturate earlier: {small} vs {large}"
        );
    }

    #[test]
    fn utilization_scales_linearly() {
        let model = DiskModel::fit(&synthetic_profile()).unwrap();
        let ws = Bytes((1e9) as u64);
        let sat = model.saturation_rate(ws);
        let u_half = model.utilization(DiskDemand::new(ws, Rate(sat * 0.5)));
        assert!((u_half - 0.5).abs() < 0.01);
    }

    #[test]
    fn combination_property_holds_by_construction() {
        // Two workloads (X1,Y1), (X2,Y2) predict as one (X1+X2, Y1+Y2).
        let model = DiskModel::fit(&synthetic_profile()).unwrap();
        let a = DiskDemand::new(Bytes((0.6e9) as u64), Rate(4_000.0));
        let b = DiskDemand::new(Bytes((0.9e9) as u64), Rate(6_000.0));
        let combined = a.combine(b);
        assert_eq!(combined.working_set, Bytes((1.5e9) as u64));
        let p = model.predict_write_bytes(combined);
        // The combined prediction is NOT the sum of individual predictions
        // (that is the whole point): coalescing makes it smaller than the
        // naive sum at equal working sets, but here it mainly must be a
        // single-surface lookup, i.e. finite and in range.
        assert!(p > 0.0 && p.is_finite());
    }

    #[test]
    fn too_few_points_is_an_error() {
        let profile = DiskProfile {
            machine: "tiny".into(),
            points: vec![
                DiskPoint {
                    ws_bytes: 1e9,
                    rows_per_sec: 100.0,
                    write_bytes_per_sec: 1e5,
                    achieved_fraction: 1.0,
                };
                4
            ],
        };
        assert!(DiskModel::fit(&profile).is_err());
    }
}
