//! Checkpointable shard state.
//!
//! [`ShardSnapshot`] is the serializable image of one
//! [`crate::ShardController`]'s loop state — everything that must survive
//! a controller restart for the loop to resume *exactly* where it
//! stopped, rather than re-bootstrapping against a conservative flat
//! envelope:
//!
//! * **telemetry windows** — each tenant's rolling
//!   [`crate::WorkloadTelemetry`] (RRD rings, in-flight consolidation
//!   buckets, and the `samples_seen` counter that phase-aligns the drift
//!   detector);
//! * **warm-solver seed** — the current [`crate::FleetPlacement`] plus
//!   the planned profiles it was solved for (the incumbent every warm
//!   re-solve starts from, and the envelope drift is judged against);
//! * **loop phase** — cadence and cooldown counters
//!   ([`crate::ControllerStats`], last-plan tick, replan backoff, the
//!   pending-membership flag), so checks fire on the same ticks they
//!   would have;
//! * **balancer view** — the staleness-bounded summary cache, so the
//!   fleet balancer sees the same (possibly cached) roll-up after resume;
//! * **physical routing** — the executor's tenant → machine table with
//!   each copy's row count, from which its bytes follow.
//!
//! What a snapshot deliberately does **not** carry: the shard's
//! configuration and engine (supplied fresh on restore, so tuning can
//! change across restarts) and the live telemetry *sources* (processes
//! can't serialize; re-bind with [`crate::ShardController::attach_source`]).
//!
//! The struct is plain serde data; framing (version, CRC, atomic file
//! replacement) is `kairos-store`'s job, and fleet-level aggregation
//! (`ShardMap`, balancer cooldowns) lives in `kairos-fleet`'s
//! `FleetSnapshot`.

use crate::controller::ControllerStats;
use crate::ingest::WorkloadTelemetry;
use crate::resolver::FleetPlacement;
use crate::shard::ShardSummary;
use kairos_types::WorkloadProfile;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Frame version for a *standalone* shard snapshot file — what a
/// network shard node (`kairos-net`) checkpoints on command and restores
/// from on rejoin. The fleet-wide checkpoint embeds [`ShardSnapshot`]s
/// inside its own frame and carries its own version
/// (`kairos_fleet::FLEET_SNAPSHOT_VERSION`).
///
/// v2: the snapshot carries the shard's decision trace (`trace`,
/// `last_objective_bits`) so a restored controller's event stream
/// *continues* the checkpointed history rather than forking it.
///
/// v3: `ShardSummary.aggregate` is a constant-size
/// [`kairos_traces::AggregateSketch`] instead of a full
/// `ShardAggregate`, and the summary cache records the
/// [`kairos_traces::SketchConfig::digest`] it was sketched with so a
/// restore under a different sketch shape invalidates it.
///
/// v4: [`ControllerStats`] no longer carries the wall-clock
/// `solve_secs_total` (the registry gauge keeps it), so two runs of one
/// seed checkpoint the same bytes.
pub const SHARD_SNAPSHOT_VERSION: u32 = 4;

/// Most recent decision events a checkpoint persists per shard (the
/// in-memory ring may be larger; see
/// [`kairos_obs::events::DEFAULT_TRACE_CAP`]). Same rationale as the
/// fleet handoff-log cap: checkpoint size tracks current state, not
/// total history.
pub const TRACE_CHECKPOINT_CAP: usize = 4096;

/// One shard's complete checkpointable state. See the module docs for
/// what each group covers; construct via
/// [`crate::ShardController::snapshot`] and rebuild via
/// [`crate::ShardController::restore`].
#[derive(Serialize, Deserialize)]
pub struct ShardSnapshot {
    /// Per-tenant rolling telemetry, in canonical (sorted-name) order.
    pub telemetry: Vec<(String, WorkloadTelemetry)>,
    /// Where every replica currently runs — the warm re-solve seed.
    pub placement: FleetPlacement,
    /// Per workload: the profile its current placement was solved for.
    pub planned: BTreeMap<String, WorkloadProfile>,
    /// Workloads whose planned profile is a conservative flat envelope,
    /// awaiting the scheduled zero-move refresh.
    pub envelope_planned: Vec<String>,
    /// Tick the scheduled profile refresh is due at, if one is pending.
    pub profile_refresh_due: Option<u64>,
    /// Replica counts for tenants running more than one copy.
    pub replicas: BTreeMap<String, u32>,
    /// Named anti-affinity pairs registered on this shard's resolver.
    pub anti_affinity: Vec<(String, String)>,
    pub planned_once: bool,
    /// A membership re-plan was pending when the checkpoint was taken
    /// (e.g. an admitted handoff not yet replanned) — it stays pending.
    pub membership_changed: bool,
    pub last_plan_tick: u64,
    pub replan_backoff_until: u64,
    pub last_resolve_failed: bool,
    /// The staleness-bounded balancer summary cache: `(tick computed at,
    /// sketch-config digest it was sketched with, summary)`. The digest
    /// lets a restore under a different sketch shape treat the cached
    /// copy as stale instead of serving a mis-shaped roll-up.
    pub summary_cache: Option<(u64, u64, ShardSummary)>,
    pub stats: ControllerStats,
    /// Executor routing: `(workload, replica, machine, rows)` per
    /// tenant copy.
    pub routing: Vec<(String, u32, usize, u64)>,
    /// The decision trace's most recent [`TRACE_CHECKPOINT_CAP`] events.
    /// Restore resumes the sequence counter after the last entry, so the
    /// post-restore stream appends to the checkpointed history — the
    /// "restore must not fork history" property the decision-trace CI
    /// job diffs.
    pub trace: Vec<kairos_obs::TracedEvent>,
    /// Objective (bit pattern) of the current plan at its adoption — the
    /// "before" side of the next Replanned trace event.
    pub last_objective_bits: u64,
}
