//! # kairos-controller — online rolling-horizon consolidation
//!
//! The paper's pipeline is one-shot: observe each workload in isolation,
//! fit the models, solve placement once. Production fleets drift — diurnal
//! phase shifts, flash crowds, tenants arriving and leaving — so this
//! crate turns that pipeline into a **continuous control loop**, the
//! direction pointed at by online workload-management advisors (WiSeDB;
//! Snowflake's warehouse-level management):
//!
//! ```text
//!        ┌────────────────────────────────────────────────────────┐
//!        │                 ShardController::tick                  │
//!        │                                                        │
//!   telemetry → [ingest] → rolling window ring → [drift] ─ no ─►  │ (keep plan)
//!        │                                          │             │
//!        │                                        drift           │
//!        │                                          ▼             │
//!        │        [resolver] warm-start + migration-cost solve    │
//!        │                                          ▼             │
//!        │        [migration] ordered capacity-safe move list     │
//!        │                                          ▼             │
//!        │        [executor]  route the moves, cost the copies    │
//!        └────────────────────────────────────────────────────────┘
//! ```
//!
//! * [`ingest`] — streaming telemetry: [`kairos_monitor::MonitorSample`]s
//!   flow into one rolling [`kairos_traces::WindowRing`] per workload;
//! * [`drift`] — compares the live window against the profile the current
//!   placement was solved for (phase-aligned relative RMSE);
//! * [`resolver`] — on drift, re-solves **warm**: the incumbent placement
//!   seeds the search ([`kairos_solver::solve_warm`]) and a per-move
//!   penalty ([`kairos_solver::MigrationCost`]) makes low-churn plans win
//!   among near-equals;
//! * [`migration`] — diffs consecutive assignments into an ordered move
//!   list where every intermediate fleet state respects capacity;
//! * [`executor`] — executes the moves step-by-step on a routing
//!   ledger, estimating copy traffic and migration time;
//! * [`scenarios`] — deterministic drift scenarios (diurnal shift, flash
//!   crowd, workload churn, stationary control) shared by the example
//!   and the integration tests;
//! * [`shard`] — the loop itself as a reusable [`ShardController`]: one
//!   self-contained slice of a sharded fleet, with the summary /
//!   reservation / evict / admit surface the `kairos-fleet` balancer
//!   drives cross-shard handoffs through;
//! * [`controller`] — loop tuning, tick outcomes and counters; a
//!   single-fleet deployment drives one shard directly.
//!
//! ## Quickstart
//!
//! ```
//! use kairos_controller::prelude::*;
//!
//! // A stationary 6-workload fleet: the controller plans once and then
//! // never needs to re-solve.
//! let scenario = scenario_stationary(6, 120);
//! let report = run_scenario(&ControllerConfig::default(), scenario);
//! assert_eq!(report.resolves, 0);
//! assert!(report.final_feasible);
//! ```

pub mod controller;
pub mod drift;
pub mod executor;
pub mod ingest;
pub mod migration;
#[cfg(test)]
mod reference;
pub mod resolver;
pub mod scenarios;
pub mod shard;
pub mod snapshot;

pub use controller::{
    ControllerConfig, ControllerStats, ReplanReason, ReplanSummary, ShardMetrics, TickOutcome,
};
pub use drift::{DriftDetector, DriftReport, ResourceDrift};
pub use executor::{ExecutionReport, FleetExecutor};
pub use ingest::{
    TelemetryConfig, TelemetryIngester, TelemetrySketch, TelemetrySource, WorkloadTelemetry,
};
pub use migration::{plan_migration, MigrationPlan, MigrationStep, Move};
pub use resolver::{
    add_anti_affinity_pair, forecast_profile_flagged, forecast_profile_tail, FleetPlacement,
    ReSolveOutcome, ReSolver,
};
pub use scenarios::{
    run_scenario, scenario_churn, scenario_diurnal_shift, scenario_flash_crowd,
    scenario_stationary, FleetEvent, Scenario, ScenarioReport, SyntheticSource,
};
pub use shard::{ShardController, ShardSummary, TenantHandoff, TenantLoad, HANDOFF_WIRE_VERSION};
pub use snapshot::{ShardSnapshot, SHARD_SNAPSHOT_VERSION, TRACE_CHECKPOINT_CAP};

/// Convenience re-exports for downstream users and doc examples.
pub mod prelude {
    pub use crate::controller::{ControllerConfig, TickOutcome};
    pub use crate::drift::DriftDetector;
    pub use crate::scenarios::{
        run_scenario, scenario_churn, scenario_diurnal_shift, scenario_flash_crowd,
        scenario_stationary, Scenario, ScenarioReport,
    };
    pub use kairos_core::ConsolidationEngine;
    pub use kairos_solver::SolverConfig;
}
