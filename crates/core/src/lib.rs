//! # kairos-core — the Kairos system (§2–§6)
//!
//! The paper's primary contribution, assembled from the workspace's
//! substrates:
//!
//! * [`estimator`] — the Combined Load Estimator: CPU/RAM sums with
//!   per-instance overhead corrections, disk through the empirical
//!   [`kairos_diskmodel::DiskModel`];
//! * [`combiner`] — adapters exposing the disk model to the solver's
//!   non-linear constraint;
//! * [`engine`] — the Consolidation Engine facade: profiles in,
//!   [`engine::ConsolidationPlan`] out (Kairos or the greedy baseline);
//! * [`pipeline`] — the end-to-end loop against the simulated
//!   deployment: monitor each dedicated server, gauge its buffer pool,
//!   plan, and verify by co-locating for real.
//!
//! ```
//! use kairos_core::prelude::*;
//!
//! let profiles = demo_profiles();
//! let engine = ConsolidationEngine::builder().build();
//! let plan = engine.consolidate(&profiles).expect("feasible");
//! assert!(plan.machines_used() < profiles.len());
//! println!("{}:1 consolidation", plan.consolidation_ratio());
//! ```

pub mod combiner;
pub mod engine;
pub mod estimator;
pub mod pipeline;

pub use combiner::{AnalyticDiskCombiner, ModelDiskCombiner};
pub use engine::{ConsolidationEngine, ConsolidationPlan, EngineBuilder, Placement, PlanStrategy};
pub use estimator::{CombinedEstimate, CombinedLoadEstimator};
pub use pipeline::{Kairos, PipelineConfig, VerifiedWorkload, WorkloadObservation};

/// Convenience re-exports for downstream users and doc examples.
pub mod prelude {
    pub use crate::engine::{ConsolidationEngine, ConsolidationPlan, PlanStrategy};
    pub use crate::estimator::CombinedLoadEstimator;
    pub use crate::pipeline::{Kairos, PipelineConfig};
    pub use kairos_solver::{ResourceWeights, SolverConfig, TargetMachine};
    pub use kairos_types::{Bytes, DiskDemand, Rate, WorkloadProfile};

    /// A small synthetic fleet for examples and doc tests: ten
    /// over-provisioned servers that comfortably consolidate.
    pub fn demo_profiles() -> Vec<WorkloadProfile> {
        (0..10)
            .map(|i| {
                WorkloadProfile::flat(
                    format!("server-{i:02}"),
                    300.0,
                    12,
                    0.3 + 0.05 * i as f64,
                    Bytes::gib(3),
                    DiskDemand::new(Bytes::gib(1), Rate(200.0 + 30.0 * i as f64)),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn demo_profiles_consolidate() {
        let profiles = demo_profiles();
        assert_eq!(profiles.len(), 10);
        let engine = ConsolidationEngine::builder().build();
        let plan = engine.consolidate(&profiles).unwrap();
        assert!(plan.report.evaluation.feasible);
        assert!(plan.consolidation_ratio() > 2.0);
    }
}
