//! Fleet-wide durable checkpoints.
//!
//! [`FleetSnapshot`] aggregates every shard's
//! [`kairos_controller::ShardSnapshot`] with the cross-shard state only
//! the fleet layer owns — the [`crate::ShardMap`] routing truth, the
//! balancer's probe-cooldown memory and counters, and the handoff audit
//! log — into one atomically-written, CRC-trailed file (framing and
//! atomicity live in `kairos-store`; see its docs for the header/CRC
//! layout).
//!
//! The write is a single frame covering the whole fleet, not one file
//! per shard: a checkpoint is taken between ticks, so the map, the
//! balancer state and every shard are mutually consistent by
//! construction, and the temp-file-then-rename replacement keeps them
//! that way on disk — a crash mid-checkpoint leaves the previous
//! complete snapshot.
//!
//! Restore is [`crate::FleetController::resume_from`]; it validates the
//! snapshot's cross-shard invariants (the map and the shards' telemetry
//! must describe the same partition of tenants) before any state is
//! adopted, so a corrupt-but-CRC-valid file is rejected whole rather
//! than half-applied.

use crate::handoff::HandoffRecord;
use crate::FleetStats;
use kairos_controller::ShardSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Most recent [`HandoffRecord`]s a checkpoint persists. The in-memory
/// log is unbounded observability; checkpoints keep only this tail so a
/// long-lived fleet's checkpoint latency and file size stay proportional
/// to current state, not to total handoffs ever performed. Resuming
/// never reads the log (stats and cooldowns carry the balancer state),
/// so truncation only shortens the restored audit trail.
pub const HANDOFF_LOG_CHECKPOINT_CAP: usize = 4096;

/// Frame version of the fleet checkpoint file. Bump on any change to
/// [`FleetSnapshot`]'s layout (or any type it transitively embeds);
/// loading an older version then fails with an explicit
/// `UnsupportedVersion` instead of misdecoding.
///
/// v2: `ShardSnapshot` gained the scheduled-horizon-refresh state
/// (`envelope_planned`, `profile_refresh_due`), `ControllerStats` gained
/// `profile_refreshes`, and `FleetStats` gained `handoffs_failed`.
///
/// v3: decision traces — `ShardSnapshot` carries each shard's trace tail
/// (`trace`, `last_objective_bits`) and [`FleetSnapshot`] the fleet-level
/// balancer trace, so a restored control plane's event streams *continue*
/// the checkpointed history instead of forking it.
///
/// v4: sketched summaries — the embedded `ShardSnapshot`s moved to
/// `SHARD_SNAPSHOT_VERSION` 3 (constant-size `AggregateSketch` roll-ups
/// and a sketch-digest-keyed summary cache).
///
/// v5: the embedded `ShardSnapshot`s moved to `SHARD_SNAPSHOT_VERSION` 4
/// (no wall-clock solver seconds in `ControllerStats`): a checkpoint's
/// bytes repeat across runs of one seed.
pub const FLEET_SNAPSHOT_VERSION: u32 = 5;

/// The whole control plane's checkpointable state. Construct via
/// [`crate::FleetController::snapshot`] / persist via
/// [`crate::FleetController::checkpoint`].
#[derive(Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// Per-shard loop state, indexed by shard.
    pub shards: Vec<ShardSnapshot>,
    /// Tenant → shard routing, sorted by tenant.
    pub map: Vec<(String, usize)>,
    /// Fleet-wide anti-affinity pairs (also present per shard; kept here
    /// so newly added shards can be seeded on a future resharding path).
    pub anti_affinity: Vec<(String, String)>,
    /// Complete handoff audit trail.
    pub handoff_log: Vec<HandoffRecord>,
    /// Balance round each tenant was last probed at — the balancer's
    /// hysteresis memory.
    pub probe_cooldown: BTreeMap<String, u64>,
    pub stats: FleetStats,
    /// The fleet-level decision trace's most recent
    /// [`kairos_controller::TRACE_CHECKPOINT_CAP`] events (balancer
    /// rounds: donors, proposals, outcomes). Restore resumes the
    /// sequence counter after the last entry — post-restore history
    /// appends rather than forking.
    pub trace: Vec<kairos_obs::TracedEvent>,
}
