//! # kairos-traces — monitoring storage and production-fleet synthesis
//!
//! Three pieces supporting the paper's real-world experiments (§7.1,
//! §7.3, §7.5):
//!
//! * [`rrd`] — an rrdtool-style round-robin store with multi-resolution
//!   archives and AVG/MAX/MIN consolidation, the format the four
//!   organizations' monitoring systems (Cacti/Ganglia/Munin) recorded;
//! * [`fleet`] — calibrated synthetic fleets standing in for the
//!   proprietary Internal (25), Wikia (34), Wikipedia (40) and
//!   Second Life (97) server statistics, reproducing their documented
//!   statistical shape (sub-4 % mean utilization, diurnal/weekly cycles,
//!   night-job pools, heterogeneous hardware);
//! * [`predict`] — the Fig 13 predictability analysis (mean of past weeks
//!   predicts the next week), and its online form: the per-phase forecast
//!   of a rolling window the control plane plans on;
//! * [`aggregate`] — shard-level roll-ups of per-tenant rolling windows,
//!   the coarse signal the sharded control plane's balancer consumes;
//! * [`sketch`] — fixed-size, peak-preserving quantile sketches of those
//!   windows, the O(1) representation summaries and handoffs ship.

pub mod aggregate;
pub mod fleet;
pub mod predict;
pub mod rrd;
pub mod sketch;

pub use aggregate::{sum_tail_aligned_refs, ShardAggregate, TailAlignedSums};
pub use fleet::{generate_all, generate_fleet, Dataset, FleetConfig, ServerTrace};
pub use predict::{
    fleet_total_cpu, forecast_window, predict_last_period, regime_holds, Prediction,
};
pub use rrd::{ArchiveSpec, Consolidation, RollingWindow, Rrd};
pub use sketch::{
    AggregateSketch, SeriesSketch, SketchConfig, MAX_SKETCH_MARKS, MAX_SKETCH_TAIL,
    SKETCH_WIRE_VERSION,
};
