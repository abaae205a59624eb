//! # kairos-fleet — the sharded control plane
//!
//! The single-loop daemon (`kairos-controller`) plans one fleet in one
//! process; cloud-scale workload management decomposes hierarchically
//! (WiSeDB; Jain et al.'s database-agnostic workload management). This
//! crate is that hierarchy:
//!
//! ```text
//!                      ┌────────────────────────────────┐
//!                      │        FleetController         │
//!                      │  shard map · balancer · audit  │
//!                      └───┬──────────┬──────────┬──────┘
//!          summaries ▲     │          │          │     ▼ two-phase handoffs
//!                      ┌───┴────┐ ┌───┴────┐ ┌───┴────┐
//!                      │ shard 0│ │ shard 1│ │ shard N│   ShardController:
//!                      │ ingest │ │ ingest │ │ ingest │   telemetry → drift →
//!                      │ solve  │ │ solve  │ │ solve  │   warm re-solve →
//!                      │ migrate│ │ migrate│ │ migrate│   capacity-safe moves
//!                      └────────┘ └────────┘ └────────┘
//!                        hosts      hosts      hosts     (disjoint slices)
//! ```
//!
//! * [`shardmap`] — tenant → shard routing truth (single ownership);
//! * [`balancer`] — donor/receiver/candidate policy over per-shard
//!   summaries (machine budgets, headroom ordering);
//! * [`handoff`] — the two-phase (reserve → evict → admit) capacity-safe
//!   transfer protocol and its audit records;
//! * [`plane`] — the [`BalancePlane`]: what every balance host owns
//!   around a round (round state, counters, trace, spans, watchdog),
//!   plus the global [`FleetAudit`] built by restricting one fleet-wide
//!   problem member-by-member
//!   ([`kairos_solver::ConsolidationProblem::restrict`]);
//! * [`fleet`] — the [`FleetController`] driving N
//!   [`kairos_controller::ShardController`]s in one process;
//! * [`sketch`] — fixed-size, peak-preserving quantile sketches of
//!   rolling windows: the O(1) representation summaries and handoff
//!   frames carry, independent of window length;
//! * [`hierarchy`] — the balancer-of-balancers: zones run the ordinary
//!   balance round over their shards, and a [`RootBalancer`] reuses the
//!   same [`balancer::ShardHandle`] policy one level up, moving *tenant
//!   groups* between zones from constant-size zone roll-ups only.
//!
//! Why shards scale: a per-shard re-solve sees only that shard's tenants,
//! so solve cost tracks shard size while the fleet grows; the balancer
//! sees only coarse aggregate summaries
//! ([`kairos_traces::aggregate`]), never per-tenant telemetry.

pub mod balancer;
pub mod fleet;
pub mod handoff;
pub mod hierarchy;
pub mod plane;
pub mod shardmap;
pub mod sketch;
pub mod snapshot;

pub use balancer::{
    candidate_order, donor_order, is_overloaded, receiver_order, run_balance_round, BalanceGate,
    BalancerConfig, BalancerSoftState, EvictedTenant, ParkedHandoff, ShardHandle,
    SYNC_STATE_VERSION,
};
pub use fleet::{default_tick_threads, FleetConfig, FleetController, FleetTickReport};
pub use handoff::{HandoffOutcome, HandoffRecord};
pub use hierarchy::{
    group_index, group_name, group_of, RootBalancer, RootConfig, TenantGroup, Zone, ZoneRollup,
    ZoneSourceBinder, GROUP_WIRE_VERSION,
};
pub use plane::{BalancePlane, FleetAudit, FleetMetrics, FleetStats};
pub use shardmap::ShardMap;
pub use sketch::{AggregateSketch, SeriesSketch, SketchConfig, SKETCH_WIRE_VERSION};
pub use snapshot::{FleetSnapshot, FLEET_SNAPSHOT_VERSION};

/// Convenience re-exports for examples and downstream users.
pub mod prelude {
    pub use crate::balancer::BalancerConfig;
    pub use crate::fleet::{FleetConfig, FleetController};
    pub use crate::handoff::HandoffOutcome;
    pub use kairos_controller::{ControllerConfig, ShardSummary, SyntheticSource};
}
