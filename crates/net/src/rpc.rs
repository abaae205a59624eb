//! The RPC catalog: every message a balancer exchanges with a shard
//! node.
//!
//! The catalog is exactly the `ShardController` surface the balancer
//! already drove in-process — summaries, reservation, the two-phase
//! evict/admit handshake, checkpoint/reattach — plus the heartbeat the
//! lease layer rides on. A handoff's telemetry does **not** get a bespoke
//! message shape: it travels as the same checksummed
//! [`kairos_controller::TenantHandoff::into_wire`] frame the in-process
//! balancer produces, nested as opaque bytes inside [`Request::Admit`]
//! (frame-in-frame: the transport envelope protects the message, the
//! inner CRC protects the handoff across *any* path, including disk).
//!
//! Every request maps to exactly one response shape; anything else is a
//! protocol error. Errors cross as [`Response::Error`] strings — the
//! caller turns them into `NetError::Remote`.

use crate::frame;
use crate::transport::{Conn, Handler, NetError, ServerHandle, Transport};
use kairos_controller::{ControllerStats, FleetPlacement, ShardSummary, TickOutcome};
use kairos_types::WorkloadProfile;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// What a balancer asks a shard node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Heartbeat / lease renewal. Cheap and state-free.
    Ping,
    /// Advance the shard one monitoring interval.
    Tick,
    /// Has the shard produced its first plan? (Pure; used by the balance
    /// cadence gate without touching the summary cache.)
    PlannedOnce,
    /// The shard's (cached) balancer summary.
    Summary,
    /// Greedy machine estimate with the named tenants excluded.
    PackEstimate { exclude: Vec<String> },
    /// Forecast one tenant's next horizon.
    Forecast { tenant: String },
    /// Forecast every tenant (the fleet audit's input).
    ForecastFleet,
    /// Phase 1 reservation: would `profile` fit within `budget`?
    CanAdmit {
        profile: WorkloadProfile,
        budget: usize,
    },
    /// Phase 2a: evict a tenant, returning its handoff wire frame.
    Evict { tenant: String },
    /// Phase 2b: admit a tenant from a handoff wire frame (the node
    /// re-binds a destination-side telemetry source itself).
    Admit { frame: Vec<u8> },
    /// Register a brand-new tenant; the node binds a source by name.
    AddWorkload { tenant: String, replicas: u32 },
    /// Retire a tenant (also the rejoin reconciliation path: a node
    /// restored from a pre-handoff checkpoint drops the stale copy of a
    /// tenant the routing map has since moved elsewhere).
    RemoveWorkload { tenant: String },
    /// Register a fleet-wide anti-affinity pair.
    AddAntiAffinity { a: String, b: String },
    /// Tenant names the shard currently owns.
    Workloads,
    /// Does the shard currently own one tenant? The handshake recovery
    /// probe — constant-size either way, unlike `Workloads`.
    Owns { tenant: String },
    /// The shard's full membership view: replica counts and the
    /// anti-affinity pairs registered on it — what a promoted standby
    /// adopts (the shards are the ground truth; a balancer that died
    /// took its own copy with it).
    Membership,
    /// Tenants with telemetry but no live source (post-restore).
    DetachedWorkloads,
    /// The shard's current placement.
    Placement,
    /// The shard's loop counters.
    Stats,
    /// Persist a shard snapshot at the node-local path.
    Checkpoint { path: String },
    /// Ask the node process to exit its serve loop.
    Shutdown,
    // New requests append here: the wire tag is the variant index, so
    // reordering or inserting above breaks every recorded frame.
    /// The node's metrics registries rendered as JSON and Prometheus
    /// text (the scrape endpoint, over the control transport).
    Metrics,
    /// The shard's decision trace as canonical codec bytes
    /// (`Vec<TracedEvent>` through the workspace codec).
    Trace,
    /// Tenant names sitting in the node's evict outbox: evicted here,
    /// handoff frame retained, not yet admitted anywhere the node knows
    /// of. Answered with [`Response::Workloads`]. A promoted standby
    /// probes this to rebuild the parked-handoff lot from shard ground
    /// truth — the outbox is exactly where a double-faulted handoff's
    /// tenant is still recoverable from.
    EvictOutbox,
    /// Replicated balancer soft state: a `kairos-fleet`
    /// `BalancerSoftState` frame (cooldown memory, parked-handoff lot,
    /// audit log, gate state) the primary streams to each standby after
    /// every balance round. Answered with [`Response::Synced`]; a
    /// promoted standby resumes from the last ingested frame and uses
    /// the probe-first shard adoption only as fallback reconciliation.
    SyncState { frame: Vec<u8> },
    /// A shard node announcing itself to the balancer's lease endpoint
    /// (self-healing membership): sent at serve/restore and re-sent
    /// with bounded tick-based backoff until acknowledged. The balancer
    /// reconciles it into a rejoin on its next tick.
    Announce {
        shard: u64,
        endpoint: String,
        generation: u64,
    },
    /// Flight-recorder query: run a [`kairos_obs::TraceQuery`] against
    /// the node's decision log and span log. Any node answers "show me
    /// everything about tenant T between ticks a..b" (or one trace id)
    /// without shipping whole logs. Answered with [`Response::Query`].
    Query { query: kairos_obs::TraceQuery },
    /// The node's current health report (watchdog rules evaluated over
    /// its metrics registries). Answered with [`Response::Health`].
    Health,
    /// The node's span log as canonical codec bytes
    /// (`Vec<SpanRecord>` through the workspace codec) — the span
    /// counterpart of [`Request::Trace`].
    Spans,
    /// The member's (cached) summary, unless the caller already holds
    /// it: `seen` is the [`kairos_controller::ShardSummary::digest`] of
    /// the caller's copy (`None`: it holds none). Answered with
    /// [`Response::SummarySince`]; wire tag 29.
    SummarySince { seen: Option<u64> },
}

/// What a shard node answers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    Pong {
        ticks: u64,
    },
    Tick(TickOutcome),
    PlannedOnce(bool),
    Summary(ShardSummary),
    PackEstimate(Option<usize>),
    Forecast(Option<WorkloadProfile>),
    Profiles(Vec<WorkloadProfile>),
    CanAdmit(bool),
    /// `None`: the tenant is unknown here.
    Evicted(Option<Vec<u8>>),
    Workloads(Vec<String>),
    Owns(bool),
    Membership {
        /// `(tenant, replicas)` for tenants running more than one copy.
        replicas: Vec<(String, u32)>,
        /// Named anti-affinity pairs, in registration order.
        anti_affinity: Vec<(String, String)>,
    },
    Placement(FleetPlacement),
    Stats(ControllerStats),
    /// Generic success for requests with nothing to report.
    Done,
    /// The request was understood but failed; the handshake layers turn
    /// this into a rollback, never a partial application.
    Error(String),
    // New responses append here (wire tag = variant index; see Request).
    /// The node's rendered metrics.
    Metrics {
        json: String,
        prometheus: String,
    },
    /// The shard's decision trace bytes.
    Trace(Vec<u8>),
    /// A standby ingested (or deliberately ignored, if stale) a
    /// [`Request::SyncState`] frame; `round` echoes the balance round
    /// of the newest state it now holds.
    Synced {
        round: u64,
    },
    /// The node's answer to a flight-recorder [`Request::Query`].
    Query(kairos_obs::QueryResult),
    /// The node's current [`kairos_obs::HealthReport`].
    Health(kairos_obs::HealthReport),
    /// The node's span log bytes (see [`Request::Spans`]).
    Spans(Vec<u8>),
    /// The answer to [`Request::SummarySince`]: the current summary's
    /// digest, and the summary itself unless its digest equals the
    /// caller's `seen` — then the caller's copy is byte-for-byte the
    /// summary a full answer would carry. Wire tag 22.
    SummarySince {
        digest: u64,
        summary: Option<ShardSummary>,
    },
}

/// The wire tag (enum variant index) a request encodes with — the first
/// four payload bytes of its frame. Test fault injectors use it to
/// target one message kind (e.g. corrupt only `Admit` frames, proving
/// the mid-handshake guarantee) without parsing whole messages.
pub fn wire_tag(request: &Request) -> u32 {
    let payload = serde::to_bytes(request);
    u32::from_le_bytes(payload[..4].try_into().expect("tagged enum payload"))
}

/// Transport-layer instruments, registered once on the process-global
/// [`kairos_obs::global`] registry: RPC count, frame bytes both ways,
/// wall-clock round-trip latency, and the summary asks a link answered
/// from its held copy because the member reported it unchanged. Wall
/// clocks are fine here — metrics are observability, never part of the
/// decision trace.
pub(crate) struct NetMetrics {
    rpcs: kairos_obs::Counter,
    /// `kairos_net_summary_unchanged_total`: `SummarySince` answers that
    /// carried only the digest (see [`crate::MemberLink`]).
    pub(crate) summary_unchanged: kairos_obs::Counter,
    bytes_sent: kairos_obs::Counter,
    bytes_received: kairos_obs::Counter,
    rpc_usecs: kairos_obs::Histogram,
}

pub(crate) fn net_metrics() -> &'static NetMetrics {
    static NET: std::sync::OnceLock<NetMetrics> = std::sync::OnceLock::new();
    NET.get_or_init(|| {
        let registry = kairos_obs::global();
        NetMetrics {
            rpcs: registry.counter("kairos_net_rpcs_total"),
            summary_unchanged: registry.counter("kairos_net_summary_unchanged_total"),
            bytes_sent: registry.counter("kairos_net_frame_bytes_sent_total"),
            bytes_received: registry.counter("kairos_net_frame_bytes_received_total"),
            rpc_usecs: registry.histogram("kairos_net_rpc_usecs"),
        }
    })
}

/// One round trip: encode the request, seal it under the process key
/// (if any — see [`crate::auth`]), ship it, verify and decode the
/// response. [`Response::Error`] becomes [`NetError::Remote`] so call
/// sites match on the one success shape they expect.
pub fn call(conn: &mut dyn Conn, request: &Request) -> Result<Response, NetError> {
    let metrics = net_metrics();
    let key = crate::auth::process_key();
    // The caller's active span context (if any) rides in the frame
    // header's span section, so the server's nested work chains into
    // the caller's trace. No context ⇒ the exact pre-span wire bytes.
    let span = kairos_obs::span::current();
    let frame = crate::auth::seal(frame::encode_frame_with_span(request, span), key);
    metrics.rpcs.inc();
    metrics.bytes_sent.add(frame.len() as u64);
    let started = std::time::Instant::now();
    let response = conn.call(&frame)?;
    metrics
        .rpc_usecs
        .record(started.elapsed().as_micros() as u64);
    metrics.bytes_received.add(response.len() as u64);
    let body = crate::auth::verify(&response, key)?;
    match frame::decode_frame::<Response>(body)? {
        Response::Error(msg) => Err(NetError::Remote(msg)),
        ok => Ok(ok),
    }
}

/// The one server envelope every role serves behind: authenticate the
/// request frame, validate and decode it, install the caller's span
/// context (if the frame carried one — nested work then chains under the
/// caller's span across the process boundary; span-free frames install
/// nothing), `dispatch`, and seal the response. Validation precedes
/// dispatch, always: a damaged or unauthenticated frame touches no
/// state. An unauthenticated frame is counted by the auth layer and
/// reported to `on_auth_reject` with the served endpoint, so every role
/// traces it; both callbacks run on the transport's server thread.
pub fn serve(
    transport: &dyn Transport,
    endpoint: &str,
    mut on_auth_reject: impl FnMut(&str) + Send + 'static,
    mut dispatch: impl FnMut(Request) -> Response + Send + 'static,
) -> Result<ServerHandle, NetError> {
    let served = endpoint.to_string();
    let handler: Handler = Arc::new(Mutex::new(move |request_frame: &[u8]| {
        let key = crate::auth::process_key();
        let response = match crate::auth::verify(request_frame, key) {
            Ok(base) => match frame::decode_frame_with_span::<Request>(base) {
                Ok((request, span)) => {
                    let _span = kairos_obs::span::install(span);
                    dispatch(request)
                }
                Err(e) => Response::Error(format!("bad request frame: {e}")),
            },
            Err(_) => {
                on_auth_reject(&served);
                Response::Error("unauthenticated frame".into())
            }
        };
        crate::auth::seal(frame::encode_frame(&response), key)
    }));
    transport.serve(endpoint, handler)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_through_the_envelope() {
        let reqs = vec![
            Request::Ping,
            Request::Tick,
            Request::PackEstimate {
                exclude: vec!["a".into(), "b".into()],
            },
            Request::Evict {
                tenant: "t0".into(),
            },
            Request::Admit {
                frame: vec![1, 2, 3, 255],
            },
            Request::AddWorkload {
                tenant: "t1".into(),
                replicas: 2,
            },
            Request::Checkpoint {
                path: "/tmp/x.ksnp".into(),
            },
        ];
        for req in reqs {
            let bytes = frame::encode_frame(&req);
            let back: Request = frame::decode_frame(&bytes).expect("request roundtrips");
            assert_eq!(format!("{req:?}"), format!("{back:?}"));
        }
    }

    /// New variants append: the digest ask and its answer take the next
    /// free tags, so every recorded frame keeps its meaning.
    #[test]
    fn summary_since_appends_its_wire_tags() {
        assert_eq!(wire_tag(&Request::Spans), 28);
        assert_eq!(wire_tag(&Request::SummarySince { seen: None }), 29);
        let tag = |response: &Response| {
            u32::from_le_bytes(serde::to_bytes(response)[..4].try_into().expect("tag"))
        };
        assert_eq!(tag(&Response::Spans(Vec::new())), 21);
        let since = Response::SummarySince {
            digest: 7,
            summary: None,
        };
        assert_eq!(tag(&since), 22);
    }

    #[test]
    fn responses_roundtrip_through_the_envelope() {
        let resps = vec![
            Response::Pong { ticks: 42 },
            Response::PlannedOnce(true),
            Response::Evicted(Some(vec![9, 9, 9])),
            Response::Workloads(vec!["a".into()]),
            Response::Done,
            Response::Error("nope".into()),
        ];
        for resp in resps {
            let bytes = frame::encode_frame(&resp);
            let back: Response = frame::decode_frame(&bytes).expect("response roundtrips");
            assert_eq!(format!("{resp:?}"), format!("{back:?}"));
        }
    }
}
