//! # Kairos — workload-aware database monitoring and consolidation
//!
//! A from-scratch Rust reproduction of *Curino, Jones, Madden,
//! Balakrishnan: "Workload-Aware Database Monitoring and Consolidation",
//! SIGMOD 2011* — the Kairos system — including every substrate the paper
//! depends on (a DBMS/host simulator, workload generators, an rrd-style
//! monitoring store, a DIRECT global optimizer) and a harness regenerating
//! every table and figure of its evaluation.
//!
//! This facade crate re-exports the workspace so examples and integration
//! tests can span crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `kairos-types` | units, time series, machine specs, profiles |
//! | [`dbsim`] | `kairos-dbsim` | buffer pool, WAL, flusher, disk/CPU devices, hosts |
//! | [`workloads`] | `kairos-workloads` | TPC-C-like, Wikipedia-like, synthetic generators |
//! | [`monitor`] | `kairos-monitor` | resource monitor + buffer-pool gauging |
//! | [`diskmodel`] | `kairos-diskmodel` | empirical disk profiler + LAR polynomial fit |
//! | [`solver`] | `kairos-solver` | seed-and-polish search, DIRECT, greedy baseline, fractional bound, warm restarts |
//! | [`traces`] | `kairos-traces` | rrd store + synthetic production fleets |
//! | [`vmsim`] | `kairos-vmsim` | DB-in-VM / DB-per-process baselines |
//! | [`core`] | `kairos-core` | combined-load estimator + consolidation engine |
//! | [`controller`] | `kairos-controller` | online rolling-horizon consolidation daemon |
//! | [`fleet`] | `kairos-fleet` | sharded control plane: per-shard loops + cross-shard balancer |
//! | [`net`] | `kairos-net` | multi-node transport: RPC shard/balancer roles over loopback or TCP |
//!
//! ## Quickstart: one-shot consolidation
//!
//! See `examples/quickstart.rs`; the short version:
//!
//! ```
//! use kairos::core::prelude::*;
//!
//! // Profile a small fleet (here: synthetic flat profiles)…
//! let profiles = demo_profiles();
//! // …and ask Kairos for a consolidation plan onto 12-core/96 GB targets.
//! let engine = ConsolidationEngine::builder().build();
//! let plan = engine.consolidate(&profiles).expect("feasible");
//! assert!(plan.machines_used() <= profiles.len());
//! ```
//!
//! ## Quickstart: the online loop
//!
//! The paper's pipeline is one-shot; [`controller`] turns it into a
//! continuous control loop — stream telemetry into rolling RRD windows,
//! detect drift against the planned profiles, re-solve *warm* with a
//! migration-cost objective, and execute a capacity-safe move list
//! against the simulated fleet. `examples/online_consolidation.rs` runs
//! the full drift-scenario suite (diurnal phase shift, flash crowd,
//! workload churn, stationary control); the short version:
//!
//! ```
//! use kairos::controller::prelude::*;
//!
//! // A stationary fleet: the controller plans once, then stays quiet.
//! let report = run_scenario(
//!     &ControllerConfig::default(),
//!     scenario_stationary(6, 120),
//! );
//! assert_eq!(report.resolves, 0);
//! assert!(report.final_feasible);
//!
//! // A flash crowd forces exactly the cheap kind of re-plan: warm-started
//! // and churn-bounded by the migration-cost term.
//! let crowd = run_scenario(
//!     &ControllerConfig::default(),
//!     scenario_flash_crowd(8, 160),
//! );
//! assert!(crowd.resolves >= 1);
//! assert!(crowd.final_feasible);
//! ```
//!
//! Building blocks, individually reusable:
//!
//! * [`controller::TelemetryIngester`] — [`monitor`] samples → rolling
//!   [`traces::Rrd`] windows per workload;
//! * [`controller::DriftDetector`] — phase-aligned, one-sided relative
//!   RMSE against the planned horizon (overload trips fast, slack lazily);
//! * [`controller::ReSolver`] — [`solver::solve_warm`] +
//!   [`solver::MigrationCost`]: plans that move less win among near-equals;
//! * [`controller::plan_migration`] — diff two placements into an ordered
//!   move list whose every intermediate state respects capacity;
//! * [`controller::FleetExecutor`] — applies the moves to its routing
//!   ledger, estimating copy traffic and migration time.

pub use kairos_controller as controller;
pub use kairos_core as core;
pub use kairos_dbsim as dbsim;
pub use kairos_diskmodel as diskmodel;
pub use kairos_fleet as fleet;
pub use kairos_monitor as monitor;
pub use kairos_net as net;
pub use kairos_obs as obs;
pub use kairos_solver as solver;
pub use kairos_store as store;
pub use kairos_traces as traces;
pub use kairos_types as types;
pub use kairos_vmsim as vmsim;
pub use kairos_workloads as workloads;
