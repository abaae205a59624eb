//! The balancer's client side of one member endpoint — a shard node
//! under a [`crate::BalancerNode`], or a zone node under the root
//! balancer ([`crate::RemoteZone`]) — with tick-based lease accounting,
//! and the one [`ShardHandle`] implementation over RPC: every trait
//! method is one call on the link, so the shared balance round drives a
//! member across a transport with the same policy code path it drives
//! in-process.
//!
//! Summaries are asked by digest ([`Request::SummarySince`]): the link
//! holds the last summary it received with its
//! [`ShardSummary::digest`], and a member whose current summary has
//! that digest answers with the digest alone — one small frame instead
//! of a multi-KiB roll-up. "Unchanged" is decided by content, not by
//! age, so a restarted member, a redial or a healed partition can never
//! leave the link serving a summary the member would not send now.

use crate::rpc::{self, Request, Response};
use crate::transport::{Conn, NetError, Transport};
use kairos_controller::ShardSummary;
use kairos_fleet::{EvictedTenant, ShardHandle};
use kairos_traces::AggregateSketch;
use kairos_types::WorkloadProfile;
use std::sync::Arc;

/// Consecutive transport-level I/O failures after which the in-call
/// redial-and-retry below stops — the link falls back to the lazy
/// once-per-tick redial, so a genuinely dead node costs one connect
/// attempt per tick, not two, while it runs down its lease.
const LINK_IO_RETRY_LIMIT: u32 = 3;

/// One member's connection state. With a transport to redial through,
/// the connection is dialed lazily and redialed after any transport
/// failure (a broken TCP stream never poisons the link permanently — the
/// next call reconnects, which is also what makes
/// [`crate::BalancerNode::set_endpoint`] take effect on the very next
/// RPC). A link opened from a borrowed transport keeps the one
/// connection it was given.
pub struct MemberLink {
    pub(crate) endpoint: String,
    redial: Option<Arc<dyn Transport>>,
    pub(crate) conn: Option<Box<dyn Conn>>,
    pub(crate) missed: u32,
    /// Consecutive transport-level I/O failures (TCP resets, closed
    /// streams) — gates the bounded in-call retry.
    io_fails: u32,
    /// Consecutive missed calls at which the member counts as down.
    miss_limit: u32,
    /// Sampling interval of the offline summary's empty aggregate.
    interval_secs: f64,
    /// The last summary the member sent and its digest; dropped on any
    /// failed summary ask.
    held: Option<(u64, ShardSummary)>,
}

/// The summary a down/unreachable member presents: unplanned, empty.
/// `planned: false` excludes it from donor and receiver orders.
fn offline_summary(interval_secs: f64) -> ShardSummary {
    ShardSummary {
        tenants: 0,
        planned: false,
        machines_used: 0,
        feasible: true,
        violation: 0.0,
        resolve_failed: false,
        drifting: 0,
        aggregate: AggregateSketch::empty(interval_secs),
        tenant_loads: Vec::new(),
    }
}

impl MemberLink {
    /// A link to `endpoint`, not yet dialed. With a transport to `redial`
    /// through it dials on first use and again after failures; without
    /// one, the caller hands it its one connection. `miss_limit` is the
    /// lease (`u32::MAX`: none — the member never reads as down).
    pub(crate) fn new(
        endpoint: &str,
        redial: Option<Arc<dyn Transport>>,
        miss_limit: u32,
        interval_secs: f64,
    ) -> MemberLink {
        MemberLink {
            endpoint: endpoint.to_string(),
            redial,
            conn: None,
            missed: 0,
            io_fails: 0,
            miss_limit,
            interval_secs,
            held: None,
        }
    }

    /// A transient stream-level failure worth one immediate redial: an
    /// I/O error that is not a timeout. A broken TCP stream (server
    /// restarted, connection reset, a corrupted frame closed the
    /// socket) fails instantly and a fresh dial usually succeeds — but
    /// a *timed-out* call may have been applied remotely, and blindly
    /// replaying it would double-apply non-idempotent requests like
    /// `Tick`. Injected faults (`Unreachable`, `Dropped`) are never
    /// I/O errors, so the chaos harness's loopback fault accounting is
    /// untouched by the retry.
    fn transient_io(e: &NetError) -> bool {
        matches!(
            e,
            NetError::Io(err) if !matches!(
                err.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            )
        )
    }

    /// One dial-if-needed RPC attempt, no lease accounting.
    fn attempt(&mut self, request: &Request) -> Result<Response, NetError> {
        if self.conn.is_none() {
            let transport = self
                .redial
                .as_ref()
                .expect("only a link that can redial drops its connection");
            self.conn = Some(transport.connect(&self.endpoint)?);
        }
        let conn = self.conn.as_deref_mut().expect("just dialed");
        let result = rpc::call(conn, request);
        let answered = matches!(result, Ok(_) | Err(NetError::Remote(_)));
        if !answered && self.redial.is_some() {
            self.conn = None;
        }
        result
    }

    /// One RPC with lease accounting: success (or a *remote* error — the
    /// peer answered, so it is alive) renews the lease; transport
    /// failures count a miss and drop the connection for a redial. A
    /// transient stream-level I/O failure gets one immediate
    /// redial-and-retry (bounded by [`LINK_IO_RETRY_LIMIT`] consecutive
    /// failures), so a single broken TCP stream costs zero lease misses
    /// instead of one per in-flight call.
    pub(crate) fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        let mut result = self.attempt(request);
        if let Err(e) = &result {
            if self.redial.is_some() && Self::transient_io(e) && self.io_fails < LINK_IO_RETRY_LIMIT
            {
                result = self.attempt(request);
            }
        }
        match &result {
            Ok(_) | Err(NetError::Remote(_)) => {
                self.missed = 0;
                self.io_fails = 0;
            }
            Err(e) => {
                self.missed = self.missed.saturating_add(1);
                if Self::transient_io(e) {
                    self.io_fails = self.io_fails.saturating_add(1);
                } else {
                    self.io_fails = 0;
                }
            }
        }
        result
    }

    /// Past its lease?
    pub(crate) fn down(&self) -> bool {
        self.missed >= self.miss_limit
    }

    /// [`MemberLink::call`] for read-side queries: a down member is not
    /// asked at all, and any failure reads as "no answer".
    pub(crate) fn ask(&mut self, request: &Request) -> Option<Response> {
        if self.down() {
            return None;
        }
        self.call(request).ok()
    }

    /// The endpoint this link targets.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }
}

/// A member behind a transport, as the shared balance round drives it.
/// A down member reads as an unplanned summary (never donor, never
/// receiver) and answers `None`/`false` to probes, so a dead node
/// degrades the round instead of wedging it.
impl ShardHandle for MemberLink {
    /// One `SummarySince` ask carrying the held copy's digest. A full
    /// answer replaces the held copy; a digest-only answer matching it
    /// returns the held copy (counted in
    /// `kairos_net_summary_unchanged_total`). A down member, a failed
    /// ask or an answer of any other shape drops the held copy — the
    /// next ask then sends `seen: None` and gets the full summary.
    fn summary(&mut self) -> ShardSummary {
        let held = self.held.take();
        let seen = held.as_ref().map(|(digest, _)| *digest);
        self.held = match self.ask(&Request::SummarySince { seen }) {
            Some(Response::SummarySince {
                digest,
                summary: Some(summary),
            }) => Some((digest, summary)),
            Some(Response::SummarySince {
                digest,
                summary: None,
            }) if seen == Some(digest) => {
                rpc::net_metrics().summary_unchanged.inc();
                held
            }
            _ => None,
        };
        match &self.held {
            Some((_, summary)) => summary.clone(),
            None => offline_summary(self.interval_secs),
        }
    }

    fn pack_estimate_remaining(&mut self) -> Option<usize> {
        match self.call(&Request::PackEstimate {
            exclude: Vec::new(),
        }) {
            Ok(Response::PackEstimate(est)) => est,
            _ => None,
        }
    }

    fn forecast(&mut self, tenant: &str) -> Option<WorkloadProfile> {
        match self.call(&Request::Forecast {
            tenant: tenant.to_string(),
        }) {
            Ok(Response::Forecast(profile)) => profile,
            _ => None,
        }
    }

    fn can_admit(&mut self, incoming: &WorkloadProfile, budget: usize) -> bool {
        matches!(
            self.call(&Request::CanAdmit {
                profile: incoming.clone(),
                budget,
            }),
            Ok(Response::CanAdmit(true))
        )
    }

    fn evict(&mut self, tenant: &str) -> Option<EvictedTenant> {
        // Two attempts: an Evict whose *response* is lost has already
        // removed the tenant node-side, and a shard node's evict outbox
        // makes the retry idempotent — it hands the same frame out
        // again, so a transient fault cannot strand the bytes between
        // the shard and the balancer. (A zone node keeps no outbox: its
        // retry of an applied eviction answers `None`, which is what a
        // single attempt would have reported.)
        for _ in 0..2 {
            match self.call(&Request::Evict {
                tenant: tenant.to_string(),
            }) {
                Ok(Response::Evicted(Some(wire))) => {
                    return Some(EvictedTenant {
                        name: tenant.to_string(),
                        wire,
                        // The live source stays node-side: the
                        // destination re-binds its own (escrow
                        // in-process, factory across processes).
                        source: None,
                    });
                }
                Ok(_) => return None,
                Err(_) => {}
            }
        }
        // Both attempts failed at the transport. If the tenant is still
        // hosted, nothing happened — safe. If it is not (eviction
        // applied, both responses lost) the donor is effectively dying
        // mid-round; its lease is about to expire and the rejoin
        // reconciliation re-seeds map-routed tenants the node lost.
        None
    }

    fn admit(&mut self, tenant: EvictedTenant) -> Result<(), EvictedTenant> {
        match self.call(&Request::Admit {
            frame: tenant.wire.clone(),
        }) {
            Ok(Response::Done) => Ok(()),
            // Remote rejection (damaged frame, unbindable source) or a
            // transport failure: hand the frame back for the donor-side
            // rollback.
            _ => Err(tenant),
        }
    }

    fn owns(&mut self, tenant: &str) -> Option<bool> {
        match self.call(&Request::Owns {
            tenant: tenant.to_string(),
        }) {
            Ok(Response::Owns(owned)) => Some(owned),
            _ => None,
        }
    }
}
