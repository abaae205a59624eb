//! # kairos-dbsim — the DBMS and host substrate
//!
//! A discrete-time simulator of the systems the Kairos paper measures:
//! MySQL/PostgreSQL-style DBMS instances on commodity servers with a
//! single SATA disk. The paper's techniques (buffer-pool gauging, the
//! empirical disk model, consolidated-vs-VM comparisons) all run *against*
//! this substrate exactly as they ran against real DBMSs.
//!
//! The simulator is structural, not curve-fit: the phenomena Kairos
//! exploits emerge from first-class mechanisms —
//!
//! * a page-granular clock-LRU [`buffer::ClockCache`] (gauging pressure,
//!   working-set eviction),
//! * a [`wal::LogManager`] with group commit shared across all databases
//!   of an instance (why one consolidated DBMS beats N instances),
//! * an adaptive [`flusher::Flusher`] that exploits idle disk bandwidth
//!   (why naive iostat sums over-estimate combined load),
//! * exact-expectation update coalescing in [`engine::DbmsInstance`]
//!   (why disk I/O is non-linear in update rate and working-set size),
//! * a [`disk::DiskDevice`] with sequential/random/elevator service
//!   classes and a [`cpu::CpuDevice`] with processor-sharing semantics.
//!
//! Time advances in fixed ticks (0.1 s by default in the experiment
//! harnesses). Workload generators (crate `kairos-workloads`) produce an
//! [`engine::OpBatch`] per database per tick; a [`host::Host`] mediates
//! the shared devices between instances.

pub mod buffer;
pub mod cpu;
pub mod disk;
pub mod engine;
pub mod flusher;
pub mod host;
pub mod pages;
pub mod stats;
pub mod wal;

pub use buffer::{CacheStats, ClockCache, Touch};
pub use cpu::{CpuDevice, CpuTickServed};
pub use disk::{DiskDevice, DiskTickDemand, DiskTickServed};
pub use engine::{
    AccessSpec, DbmsConfig, DbmsInstance, DeviceGrant, InstanceDemand, OpBatch, TickResult,
    UpdateSpec,
};
pub use flusher::{FlushDecision, Flusher, FlusherConfig};
pub use host::{Host, HostTickReport, VirtOverheads};
pub use pages::{DatabaseId, PageAllocator, PageId, PageRange, TableId};
pub use stats::InstanceStats;
pub use wal::{LogManager, WalConfig, WalTickOutput};

/// Default tick length used by the experiment harnesses, seconds.
pub const DEFAULT_TICK_SECS: f64 = 0.1;
