//! The control loop: poll telemetry, detect drift, re-plan, migrate.
//!
//! One [`ShardController::tick`](crate::shard::ShardController::tick) =
//! one monitoring interval of the whole fleet. The loop bootstraps by observing every workload for a full planning
//! horizon, plans once (cold solve + provisioning), then stays quiet
//! until either the drift detector trips or fleet membership changes —
//! at which point it re-solves *warm* with a migration-cost objective and
//! executes the resulting capacity-safe move list.
//!
//! The loop itself lives in [`crate::shard::ShardController`] — the unit
//! the sharded control plane (`kairos-fleet`) replicates per shard. A
//! single fleet is one shard, driven directly.

use crate::drift::DriftDetector;
use crate::executor::ExecutionReport;
use crate::ingest::TelemetryConfig;
use kairos_solver::SolverConfig;

/// Loop tuning.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    pub telemetry: TelemetryConfig,
    /// Planning horizon, in monitoring windows. Periodic workloads are
    /// only well-represented when the horizon covers their cycle.
    pub horizon: usize,
    /// Drift-check cadence: every N ticks once planned.
    pub check_every: u64,
    /// Ticks after any (re-)plan during which drift checks are skipped,
    /// letting the rolling window refill with the new regime before being
    /// judged again. Without it, a window still mixing pre- and
    /// post-change samples re-trips the detector and the loop thrashes.
    pub cooldown_ticks: u64,
    pub detector: DriftDetector,
    /// Objective price per migrated slot on re-solves.
    pub cost_per_move: f64,
    /// Warm re-solve budgets.
    pub solver: SolverConfig,
    /// Measurement mode: re-solve cold (no warm start, no migration
    /// term) to quantify what the incumbent-aware path saves.
    pub cold_resolves: bool,
    /// Scheduled horizon refresh: after a re-plan that provisioned a
    /// conservative flat envelope (regime change — history stopped being
    /// predictive), wait this many ticks of post-drift telemetry to
    /// re-accumulate, then refresh the planned profiles from the
    /// post-drift window alone — a cheap, zero-move tightening that
    /// doesn't wait for the lazy slack side of the drift detector (and
    /// doesn't pay a solve). `0` disables the refresh.
    pub profile_refresh_ticks: u64,
    /// Sketch shape for balancer summaries and handoff frames (quantile
    /// marks + verbatim tail). Changing it through
    /// `ShardController::set_sketch_config` stales the cached summary
    /// even with no other state change.
    pub sketch: kairos_traces::SketchConfig,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig {
            telemetry: TelemetryConfig {
                interval_secs: 300.0,
                window_capacity: 288,
                gauged_working_set: None,
            },
            horizon: 24,
            check_every: 6,
            cooldown_ticks: 24,
            detector: DriftDetector::default(),
            cost_per_move: 0.25,
            solver: SolverConfig::default(),
            cold_resolves: false,
            profile_refresh_ticks: 24,
            sketch: kairos_traces::SketchConfig::default(),
        }
    }
}

/// Why a re-plan happened. Serializable (inside [`TickOutcome`]) so the
/// RPC shard nodes can report it across the network boundary.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ReplanReason {
    /// These workloads' live windows left their planned envelopes.
    Drift(Vec<String>),
    /// Workloads arrived or departed.
    Membership,
}

/// Summary of one re-plan.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ReplanSummary {
    pub reason: ReplanReason,
    pub feasible: bool,
    /// Pre-existing slots relocated.
    pub moves: usize,
    /// `moves / pre-existing slots`.
    pub churn: f64,
    pub machines: usize,
    pub execution: ExecutionReport,
    /// Wall-clock seconds spent in the solver.
    pub solve_secs: f64,
}

/// What one tick did. Serializable: it is the Tick RPC's response
/// payload when a shard runs behind a network boundary (`kairos-net`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum TickOutcome {
    /// Still accumulating the bootstrap horizon.
    Bootstrapping,
    /// First plan produced and the fleet provisioned.
    InitialPlan { machines: usize, solve_secs: f64 },
    /// Drift was checked; nothing left its envelope.
    Stable,
    /// Off-cadence tick: telemetry ingested, nothing else to do.
    Idle,
    /// Drift or membership change forced a re-plan.
    Replanned(ReplanSummary),
    /// Scheduled horizon refresh: `refreshed` conservative envelope
    /// profiles were tightened onto post-drift phase means — no solve,
    /// no migrations (see [`ControllerConfig::profile_refresh_ticks`]).
    ProfileRefreshed { refreshed: usize },
}

/// Running counters. Serializable: the tick counter drives every
/// cadence gate (drift checks, cooldowns, balance rounds), so a restored
/// shard must resume from the checkpointed counts.
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct ControllerStats {
    pub ticks: u64,
    pub samples_ingested: u64,
    pub drift_checks: u64,
    pub resolves: u64,
    pub total_moves: u64,
    pub forced_steps: u64,
    pub bytes_copied: f64,
    pub max_churn: f64,
    /// Scheduled zero-move profile refreshes performed (no solver run).
    pub profile_refreshes: u64,
}

/// The registry-backed live counters behind [`ControllerStats`].
///
/// One code path owns counting: the loop bumps these lock-free
/// [`kairos_obs`] handles, and [`ShardMetrics::stats`] assembles the
/// serializable [`ControllerStats`] *view* on demand — so the snapshot
/// format, the Stats RPC and every existing caller keep the same struct
/// while the `Metrics` RPC exports the registry directly.
pub struct ShardMetrics {
    registry: kairos_obs::MetricsRegistry,
    pub ticks: kairos_obs::Counter,
    pub samples_ingested: kairos_obs::Counter,
    pub drift_checks: kairos_obs::Counter,
    pub resolves: kairos_obs::Counter,
    pub total_moves: kairos_obs::Counter,
    pub forced_steps: kairos_obs::Counter,
    pub profile_refreshes: kairos_obs::Counter,
    pub bytes_copied: kairos_obs::FloatCell,
    pub max_churn: kairos_obs::FloatCell,
    /// Wall-clock solver seconds (bootstrap + re-solves). Registry only:
    /// a wall clock in [`ControllerStats`] would make checkpoint bytes
    /// differ between two runs of one seed.
    pub solve_secs_total: kairos_obs::FloatCell,
    /// Wall-clock solver latency (bootstrap + re-solves), microseconds.
    pub solve_usecs: kairos_obs::Histogram,
}

impl ShardMetrics {
    pub fn new(registry: kairos_obs::MetricsRegistry) -> ShardMetrics {
        ShardMetrics {
            ticks: registry.counter("kairos_shard_ticks_total"),
            samples_ingested: registry.counter("kairos_shard_samples_ingested_total"),
            drift_checks: registry.counter("kairos_shard_drift_checks_total"),
            resolves: registry.counter("kairos_shard_resolves_total"),
            total_moves: registry.counter("kairos_shard_moves_total"),
            forced_steps: registry.counter("kairos_shard_forced_steps_total"),
            profile_refreshes: registry.counter("kairos_shard_profile_refreshes_total"),
            bytes_copied: registry.gauge("kairos_shard_bytes_copied"),
            max_churn: registry.gauge("kairos_shard_max_churn"),
            solve_secs_total: registry.gauge("kairos_shard_solve_secs_total"),
            solve_usecs: registry.histogram("kairos_shard_solve_usecs"),
            registry,
        }
    }

    /// The registry these counters live in (what the `Metrics` RPC and
    /// the fleet-level exporters render).
    pub fn registry(&self) -> &kairos_obs::MetricsRegistry {
        &self.registry
    }

    /// Assemble the compatibility view.
    pub fn stats(&self) -> ControllerStats {
        ControllerStats {
            ticks: self.ticks.get(),
            samples_ingested: self.samples_ingested.get(),
            drift_checks: self.drift_checks.get(),
            resolves: self.resolves.get(),
            total_moves: self.total_moves.get(),
            forced_steps: self.forced_steps.get(),
            bytes_copied: self.bytes_copied.get(),
            max_churn: self.max_churn.get(),
            profile_refreshes: self.profile_refreshes.get(),
        }
    }

    /// Seed the registry from a checkpointed view (restore path).
    pub fn restore(&self, stats: &ControllerStats) {
        self.ticks.set(stats.ticks);
        self.samples_ingested.set(stats.samples_ingested);
        self.drift_checks.set(stats.drift_checks);
        self.resolves.set(stats.resolves);
        self.total_moves.set(stats.total_moves);
        self.forced_steps.set(stats.forced_steps);
        self.bytes_copied.set(stats.bytes_copied);
        self.max_churn.set(stats.max_churn);
        self.profile_refreshes.set(stats.profile_refreshes);
    }
}
