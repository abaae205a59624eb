//! # kairos-obs — deterministic observability for the control plane
//!
//! The consolidation engine is only trustworthy in production if every
//! migration and re-solve is *attributable*. With the control plane
//! distributed across processes (`kairos-net`), a failed audit or a
//! surprise handoff must be explainable from recorded decisions, not a
//! debugger. This crate is that layer, in three pillars:
//!
//! * [`events`] — the **structured decision log**: every drift trip,
//!   re-solve (reason + objective before/after), balancer donor/receiver
//!   choice (which summary fields and which threshold fired), handoff
//!   state transition, lease miss, rejoin and standby promotion emits a
//!   typed [`DecisionEvent`], stamped with **tick numbers, not wall
//!   clocks**. The stream is therefore seed-reproducible: the net
//!   equivalence suite asserts the in-process and RPC fleets produce
//!   *byte-identical* traces, not just identical outcomes. Recording is
//!   ring-buffered ([`DecisionLog`]) with O(1) overhead and a no-op
//!   disabled mode so benches can compile the cost down to one branch.
//!
//! * [`metrics`] — the **metrics registry**: lock-cheap atomic counters,
//!   f64 cells and log-scale histograms ([`MetricsRegistry`]), registered
//!   per shard / balancer / transport and exported as JSON or Prometheus
//!   text exposition (the `Metrics` RPC on `ShardNode`/`BalancerNode`).
//!   Metrics are wall-clock and intentionally *outside* the deterministic
//!   trace: latencies and byte counts vary run to run, decisions must
//!   not.
//!
//! * [`why`] — **explainable audits**: given a shard's decision trace and
//!   the fleet's balancer trace, [`why::render_why_chain`] reconstructs
//!   the chain of decisions that produced the current placement — the
//!   plan that last established it, the drift that forced that plan, and
//!   every handoff that moved tenants in or out since — rendered as a
//!   human-readable report for `audit()` failures.
//!
//! Events serialize through the workspace codec (`shims/serde`), so
//! traces checkpoint inside `kairos-store` snapshot frames and ship over
//! `kairos-net` RPC unchanged.

pub mod events;
pub mod health;
pub mod metrics;
pub mod query;
pub mod span;
pub mod why;

pub use events::{DecisionEvent, DecisionLog, TracedEvent, TRACE_WIRE_VERSION};
pub use health::{HealthFinding, HealthMonitor, HealthReport, HealthRule, ParkedAges, Severity};
pub use metrics::{
    global, render_json_all, render_prometheus_all, Counter, FloatCell, Histogram, MetricsRegistry,
};
pub use query::{assemble_trees, render_span_tree, run_query, QueryResult, SpanTree, TraceQuery};
pub use span::{SpanContext, SpanLog, SpanRecord};
pub use why::render_why_chain;
