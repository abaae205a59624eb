//! Zone nodes: a whole [`Zone`] served at one endpoint, and the root
//! balancer's client handle to it.
//!
//! The hierarchy needs **no new RPC catalog**: a zone presents itself
//! through the same [`crate::rpc::Request`] surface a shard does —
//! `Summary` answers with the zone's constant-size roll-up (and
//! `SummarySince` with its digest alone while the root already holds
//! it), `Forecast` with a *group's* peak envelope, `Evict`/`Admit` carry
//! bundled [`kairos_fleet::GROUP_WIRE_VERSION`] group frames instead of
//! single tenant frames, and `Owns` probes group residency. The node type
//! determines the level; the messages, the envelope (auth, CRC,
//! version) and the decode-before-touch discipline are identical. That
//! is the point of the [`ShardHandle`] reuse: [`RemoteZone`] is the
//! very link type a balancer holds to a shard node, so
//! `run_balance_round` drives zones across a transport with the same
//! policy code path it drives in-process.

use crate::link::MemberLink;
use crate::rpc::{self, Request, Response};
use crate::transport::{NetError, ServerHandle, Transport};
use kairos_fleet::balancer::{EvictedTenant, ShardHandle};
use kairos_fleet::hierarchy::Zone;
use kairos_fleet::GROUP_WIRE_VERSION;
use std::sync::{Arc, Mutex};

struct ZoneNodeState {
    zone: Zone,
    shutdown: bool,
}

/// One zone — a whole [`kairos_fleet::FleetController`] plus group
/// bookkeeping — behind an RPC endpoint. The root balancer drives it
/// through [`RemoteZone`]; operators scrape `Metrics`/`Trace` from it
/// like any shard node.
pub struct ZoneNode {
    state: Arc<Mutex<ZoneNodeState>>,
}

impl ZoneNode {
    pub fn new(zone: Zone) -> ZoneNode {
        ZoneNode {
            state: Arc::new(Mutex::new(ZoneNodeState {
                zone,
                shutdown: false,
            })),
        }
    }

    /// Register this zone's RPC handler at `endpoint`. Same envelope
    /// discipline as a shard node: authenticate, validate, decode —
    /// only then dispatch; a damaged or unauthenticated frame touches
    /// no state.
    pub fn serve(
        &self,
        transport: &dyn Transport,
        endpoint: &str,
    ) -> Result<ServerHandle, NetError> {
        let rejecting = self.state.clone();
        let state = self.state.clone();
        rpc::serve(
            transport,
            endpoint,
            move |served| {
                let mut state = rejecting.lock().expect("zone state lock");
                let fleet = state.zone.fleet_mut();
                let tick = fleet.stats().ticks;
                fleet.record(
                    tick,
                    kairos_obs::DecisionEvent::AuthRejected {
                        endpoint: served.to_string(),
                    },
                );
            },
            move |request| dispatch(&state, request),
        )
    }

    /// Run `f` against the zone (tests, examples, local maintenance).
    pub fn with_zone<R>(&self, f: impl FnOnce(&mut Zone) -> R) -> R {
        f(&mut self.state.lock().expect("zone state lock").zone)
    }

    /// Did a `Shutdown` RPC arrive?
    pub fn shutdown_requested(&self) -> bool {
        self.state.lock().expect("zone state lock").shutdown
    }
}

/// Serve one request against the zone — one lock scope, consistent
/// state. Requests with no zone-level meaning answer `Error` rather
/// than silently misbehaving at the wrong level.
fn dispatch(state: &Arc<Mutex<ZoneNodeState>>, request: Request) -> Response {
    let mut state = state.lock().expect("zone state lock");
    let state = &mut *state;
    let zone = &mut state.zone;
    match request {
        Request::Ping => Response::Pong {
            ticks: zone.fleet().stats().ticks,
        },
        Request::Tick => {
            // The zone's internal tick report (per-shard outcomes,
            // zone-level handoffs) stays zone-side; the root only needs
            // the interval advanced.
            zone.tick();
            Response::Done
        }
        Request::PlannedOnce => Response::PlannedOnce(ShardHandle::summary(zone).planned),
        Request::Summary => Response::Summary(ShardHandle::summary(zone)),
        Request::SummarySince { seen } => {
            let digest = zone.rollup_digest();
            Response::SummarySince {
                digest,
                summary: (seen != Some(digest)).then(|| ShardHandle::summary(zone)),
            }
        }
        Request::PackEstimate { .. } => {
            Response::PackEstimate(ShardHandle::pack_estimate_remaining(zone))
        }
        Request::Forecast { tenant } => Response::Forecast(ShardHandle::forecast(zone, &tenant)),
        Request::CanAdmit { profile, budget } => {
            Response::CanAdmit(ShardHandle::can_admit(zone, &profile, budget))
        }
        Request::Evict { tenant } => {
            Response::Evicted(ShardHandle::evict(zone, &tenant).map(|e| e.wire))
        }
        Request::Admit { frame } => {
            // Validate the group frame before constructing the handle's
            // eviction shape — the group name lives inside the frame.
            let group = match kairos_store::decode_frame::<(String, Vec<Vec<u8>>)>(
                &frame,
                GROUP_WIRE_VERSION,
            ) {
                Ok((group, _)) => group,
                Err(e) => return Response::Error(format!("admit: damaged group frame: {e}")),
            };
            match ShardHandle::admit(
                zone,
                EvictedTenant {
                    name: group.clone(),
                    wire: frame,
                    source: None,
                },
            ) {
                Ok(()) => Response::Done,
                Err(_) => Response::Error(format!("admit: group {group} rejected")),
            }
        }
        Request::Owns { tenant } => {
            Response::Owns(ShardHandle::owns(zone, &tenant).unwrap_or(false))
        }
        // The routing map iterates in sorted tenant order.
        Request::Workloads => Response::Workloads(
            zone.fleet()
                .map()
                .entries()
                .map(|(t, _)| t.to_string())
                .collect(),
        ),
        Request::Metrics => Response::Metrics {
            json: zone.fleet().metrics_json(),
            prometheus: zone.fleet().metrics_prometheus(),
        },
        Request::Trace => Response::Trace(zone.fleet().trace_bytes()),
        Request::Query { query } => {
            // The zone's whole flight recorder: fleet-level events, then
            // every member shard's, joined with every span recorded at
            // any level of the zone (zone spans, balancer spans, member
            // shard spans).
            let mut events = zone.fleet().trace_events();
            for shard in zone.fleet().shards() {
                events.extend(shard.trace_events());
            }
            Response::Query(kairos_obs::run_query(&query, &events, &zone.all_spans()))
        }
        Request::Health => Response::Health(zone.fleet().health_report().unwrap_or_default()),
        Request::Spans => Response::Spans(serde::to_bytes(&zone.all_spans())),
        Request::Shutdown => {
            state.shutdown = true;
            Response::Done
        }
        other => Response::Error(format!("request {other:?} has no zone-level meaning")),
    }
}

/// The root balancer's handle to one zone behind a transport: the same
/// [`MemberLink`] a balancer holds to a shard node — so
/// [`kairos_fleet::RootBalancer::run_round`] drives remote zones with
/// the unchanged balance policy through the one `ShardHandle`-over-RPC
/// implementation — opened lease-free: the root keeps no leases, so a
/// zone never reads as down; an unreachable zone presents the offline
/// (unplanned, empty) summary and answers `None`/`false` to probes, so
/// the round routes around it instead of wedging.
pub type RemoteZone = MemberLink;

impl RemoteZone {
    /// Connect to a zone node. `interval_secs` shapes the offline
    /// summary presented while the zone is unreachable.
    pub fn connect(
        transport: &dyn Transport,
        endpoint: &str,
        interval_secs: f64,
    ) -> Result<RemoteZone, NetError> {
        let mut link = MemberLink::new(endpoint, None, u32::MAX, interval_secs);
        link.conn = Some(transport.connect(endpoint)?);
        Ok(link)
    }

    /// Advance the remote zone one monitoring interval.
    pub fn tick(&mut self) -> Result<(), NetError> {
        match self.call(&Request::Tick)? {
            Response::Done => Ok(()),
            other => Err(NetError::Remote(format!("tick answered {other:?}"))),
        }
    }
}
