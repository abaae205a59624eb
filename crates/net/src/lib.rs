//! # kairos-net — the fleet control plane's multi-node transport
//!
//! PR 2 sharded the control plane and PR 4 made every boundary object
//! serializable (checksummed `TenantHandoff` wire frames, whole-shard
//! checkpoints). This crate is the boundary itself: the RPC layer that
//! lets shards live in other processes — or other machines — while the
//! balancer keeps driving the exact same policy code path.
//!
//! ```text
//!   BalancerNode (primary)        StandbyBalancer (rank 1, 2, …)
//!   map · cooldowns · stats  ◄──── watches the lease endpoint,
//!        │      │    │              promotes deterministically
//!   Tick │      │    │ Summary / CanAdmit / Evict / Admit /
//!        │      │    │ Checkpoint / Workloads / Ping …
//!        ▼      ▼    ▼
//!   ┌─────────┐ ┌─────────┐ ┌─────────┐
//!   │ShardNode│ │ShardNode│ │ShardNode│    each: Arc<Mutex<ShardController>>
//!   └────┬────┘ └────┬────┘ └────┬────┘    + a SourceBinder for live telemetry
//!        └───────────┴───────────┘
//!          Transport: loopback (deterministic, in-memory)
//!                     or TCP (blocking std::net, thread per conn)
//! ```
//!
//! * [`frame`] — the wire envelope: `b"KNET"` magic, version, length
//!   prefix, CRC-32 trailer (the `kairos-store` discipline, applied to
//!   the network);
//! * [`rpc`] — the message catalog: the `ShardController` surface the
//!   balancer already drove in-process, verbatim, plus heartbeats;
//!   handoffs cross as the *same* checksummed `into_wire` frames,
//!   nested;
//! * [`transport`] — the pluggable boundary ([`Transport`], [`Conn`]);
//! * [`fault`] — the declarative [`FaultPlan`]: one per-endpoint fault
//!   state with a normative precedence (partition ≻ drop ≻ corrupt;
//!   heal cancels pending faults) that the chaos harness schedules
//!   against;
//! * [`loopback`] — deterministic in-memory backend: a registry and
//!   call-order dispatch;
//! * [`faulted`] — [`FaultedTransport`], the one fault injector: a
//!   decorator applying the [`FaultPlan`] (seeded bit flips included)
//!   to either backend;
//! * [`tcp`] — `std::net` blocking sockets, one thread per connection —
//!   no async runtime, matching the workspace's `std::thread::scope`
//!   architecture;
//! * [`node`] — [`ShardNode`]: one shard served at an endpoint, with
//!   [`SourceBinder`] supplying the live telemetry sources bytes cannot
//!   carry (escrow in-process, factory across processes — the PR 4
//!   `attach_source` surface driven from the network);
//! * [`link`] — [`MemberLink`]: the client side of one member endpoint
//!   (lease accounting, redial) and the one `ShardHandle` over RPC;
//! * [`balancer_node`] — [`BalancerNode`]: balance rounds over RPC
//!   through the shared `kairos_fleet::BalancePlane`, tick-based leases,
//!   shard failure detection with checkpoint-restore rejoin, and
//!   deterministic standby promotion for a dead balancer.
//!
//! The headline property (see `tests/equivalence.rs`): a fleet run over
//! the loopback transport — every observation and mutation an RPC — is
//! **tick-for-tick identical** to the in-process
//! [`kairos_fleet::FleetController`]: same outcome signatures, same
//! handoff logs, bit-identical audit objectives. One policy code path,
//! one [`kairos_fleet::BalancePlane`] around it, whichever host runs it.
//! `examples/fleet_over_tcp.rs` runs the same roles as real child
//! processes over TCP, surviving a shard-node kill (checkpoint rejoin)
//! and a balancer kill (standby promotion) mid-run.

pub mod auth;
pub mod balancer_node;
pub mod fault;
pub mod faulted;
pub mod frame;
pub mod link;
pub mod loopback;
pub mod node;
pub mod rpc;
pub mod tcp;
pub mod transport;
pub mod zone_node;

pub use auth::{AuthKey, AUTH_TAG_LEN};
pub use balancer_node::{BalancerNode, LeaseConfig, NetTickReport, StandbyAction, StandbyBalancer};
pub use fault::{Fault, FaultInjector, FaultPlan, FaultVerdict};
pub use faulted::FaultedTransport;
pub use frame::{MAX_PAYLOAD_LEN, NET_MAGIC, RPC_WIRE_VERSION};
pub use link::MemberLink;
pub use loopback::LoopbackTransport;
pub use node::{ShardNode, SourceBinder, SourceEscrow, SourceFactory, SourceMaker};
pub use rpc::{Request, Response};
pub use tcp::TcpTransport;
pub use transport::{Conn, Handler, NetError, ServerHandle, Transport};
pub use zone_node::{RemoteZone, ZoneNode};

/// Convenience re-exports for examples and tests.
pub mod prelude {
    pub use crate::balancer_node::{BalancerNode, LeaseConfig, StandbyAction, StandbyBalancer};
    pub use crate::loopback::LoopbackTransport;
    pub use crate::node::{ShardNode, SourceEscrow, SourceFactory};
    pub use crate::tcp::TcpTransport;
    pub use crate::transport::Transport;
    pub use kairos_fleet::prelude::*;
}
