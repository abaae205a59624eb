//! Shared vocabulary types for the Kairos reproduction.
//!
//! Every other crate in the workspace speaks in terms of the types defined
//! here: byte quantities ([`Bytes`]), sampled resource series
//! ([`TimeSeries`]), physical machine descriptions ([`MachineSpec`]) and the
//! per-workload resource profiles ([`WorkloadProfile`]) that the monitor
//! produces and the consolidation engine consumes.
//!
//! The paper's pipeline (Fig 1) is: *Resource Monitor* → *Combined Load
//! Predictor* → *Consolidation Engine*. The handoff between those stages is
//! exactly a set of [`WorkloadProfile`]s plus a set of [`MachineSpec`]s,
//! which is why these types live in their own dependency-free crate.

pub mod error;
pub mod profile;
pub mod rng;
pub mod series;
pub mod spec;
pub mod units;

pub use error::{KairosError, Result};
pub use profile::{DiskDemand, ProfileWindow, WorkloadProfile};
pub use rng::SplitMix64;
pub use series::{percentile_of_sorted, TimeSeries};
pub use spec::{CpuSpec, DiskSpec, MachineSpec, RamSpec};
pub use units::{Bytes, Rate};

/// Resources the consolidation engine reasons about.
///
/// The paper focuses on CPU, RAM and disk I/O "since these were the most
/// constrained in the real-world datasets" (§5); network and disk space are
/// noted as straightforward extensions and modeled the same way here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ResourceKind {
    /// Fraction of a standardized core (can exceed 1.0 for multicore use).
    Cpu,
    /// Bytes of main memory actively required (post-gauging working set).
    Ram,
    /// Disk I/O throughput in bytes/second.
    DiskIo,
}

impl ResourceKind {
    /// All modeled resources, in the order used by profile vectors.
    pub const ALL: [ResourceKind; 3] = [ResourceKind::Cpu, ResourceKind::Ram, ResourceKind::DiskIo];

    /// Short human-readable label used by report tables.
    pub fn label(self) -> &'static str {
        match self {
            ResourceKind::Cpu => "cpu",
            ResourceKind::Ram => "ram",
            ResourceKind::DiskIo => "disk",
        }
    }
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            ResourceKind::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), ResourceKind::ALL.len());
    }

    #[test]
    fn display_matches_label() {
        for r in ResourceKind::ALL {
            assert_eq!(format!("{r}"), r.label());
        }
    }
}
