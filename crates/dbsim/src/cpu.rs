//! CPU device model.
//!
//! Capacity is expressed in *standardized core-seconds* per tick
//! ([`kairos_types::CpuSpec::standardized_cores`] × tick length), matching
//! the normalization the paper applies to heterogeneous machines (§6).
//! Demand above capacity is served fractionally — transactions queue and
//! the achieved throughput drops, as in any processor-sharing model.

use kairos_types::CpuSpec;

/// Per-tick CPU accounting result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuTickServed {
    /// Fraction of demanded work completed, in `[0, 1]`.
    pub fraction: f64,
    /// Utilization in `[0, 1]` (fraction of all cores busy).
    pub utilization: f64,
    /// Queueing-inflated latency multiplier (≥ 1).
    pub latency_factor: f64,
}

/// A multicore CPU served as a processor-sharing resource.
#[derive(Debug, Clone)]
pub struct CpuDevice {
    spec: CpuSpec,
}

impl CpuDevice {
    pub fn new(spec: CpuSpec) -> CpuDevice {
        CpuDevice { spec }
    }

    /// Standardized cores available.
    pub fn capacity_cores(&self) -> f64 {
        self.spec.standardized_cores()
    }

    /// Serve `demand_core_secs` of work (in standardized core-seconds)
    /// during a tick of `dt` seconds.
    pub fn serve(&self, dt: f64, demand_core_secs: f64) -> CpuTickServed {
        assert!(dt > 0.0, "tick length must be positive");
        assert!(demand_core_secs >= 0.0, "demand cannot be negative");
        let capacity = self.capacity_cores() * dt;
        let served = demand_core_secs.min(capacity);
        let fraction = if demand_core_secs == 0.0 {
            1.0
        } else {
            served / demand_core_secs
        };
        let utilization = (served / capacity).clamp(0.0, 1.0);

        // Processor-sharing response inflation, capped near saturation.
        let rho = utilization.min(0.98);
        let latency_factor = 1.0 / (1.0 - rho);

        CpuTickServed {
            fraction,
            utilization,
            latency_factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu8() -> CpuDevice {
        CpuDevice::new(CpuSpec::new(8, kairos_types::spec::STANDARD_CORE_GHZ))
    }

    #[test]
    fn under_load_everything_served() {
        let c = cpu8();
        let r = c.serve(1.0, 2.0);
        assert_eq!(r.fraction, 1.0);
        assert!((r.utilization - 0.25).abs() < 1e-12);
    }

    #[test]
    fn overload_scales_fractionally() {
        let c = cpu8();
        let r = c.serve(1.0, 16.0);
        assert!((r.fraction - 0.5).abs() < 1e-12);
        assert!((r.utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_demand_is_fully_served() {
        let c = cpu8();
        let r = c.serve(0.1, 0.0);
        assert_eq!(r.fraction, 1.0);
        assert_eq!(r.utilization, 0.0);
        assert_eq!(r.latency_factor, 1.0);
    }

    #[test]
    fn latency_factor_grows_convexly() {
        let c = cpu8();
        let low = c.serve(1.0, 1.0).latency_factor;
        let mid = c.serve(1.0, 6.0).latency_factor;
        let high = c.serve(1.0, 7.8).latency_factor;
        assert!(low < mid && mid < high);
        assert!(high - mid > mid - low, "convex growth near saturation");
    }

    #[test]
    fn clock_speed_raises_capacity() {
        let fast = CpuDevice::new(CpuSpec::new(8, kairos_types::spec::STANDARD_CORE_GHZ * 2.0));
        assert!((fast.capacity_cores() - 16.0).abs() < 1e-12);
    }
}
