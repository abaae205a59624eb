//! Bench-side view of the wire: a counting `Transport` decorator (traced
//! run only) and the `kairos-net` probes — codec, auth, raw transport and
//! whole-RPC costs on localhost TCP and the loopback.

use super::Layer;
use crate::spans::Tracer;
use crate::stats::median;
use kairos_controller::{ControllerConfig, ShardController, SyntheticSource};
use kairos_core::ConsolidationEngine;
use kairos_net::frame::{decode_frame, encode_frame};
use kairos_net::{
    auth, rpc, AuthKey, Conn, Handler, LoopbackTransport, NetError, Request, Response,
    ServerHandle, ShardNode, SourceEscrow, TcpTransport, Transport,
};
use kairos_types::Bytes;
use kairos_workloads::RatePattern;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The secret both RPC workloads run keyed under, so every frame pays
/// codec + CRC + SipHash — the hardened deployment shape.
pub const BENCH_KEY: &str = "kbench-shared-secret";

#[derive(Debug, Default, Clone, Copy)]
pub struct WireTotals {
    pub calls: u64,
    pub bytes: u64,
    pub secs: f64,
}

impl WireTotals {
    /// Add what crossed the wire between two readings.
    pub fn add_since(&mut self, before: WireTotals, after: WireTotals) {
        self.calls += after.calls - before.calls;
        self.bytes += after.bytes - before.bytes;
        self.secs += after.secs - before.secs;
    }
}

/// Wraps a transport so that, in the traced run, every client `Conn::call`
/// is counted and recorded as a span under the tick that issued it.
pub struct CountingTransport {
    inner: Arc<dyn Transport>,
    totals: Arc<Mutex<WireTotals>>,
    tracer: Tracer,
}

impl CountingTransport {
    pub fn new(inner: Arc<dyn Transport>, tracer: Tracer) -> CountingTransport {
        CountingTransport {
            inner,
            totals: Arc::default(),
            tracer,
        }
    }

    pub fn totals(&self) -> WireTotals {
        *self.totals.lock().expect("wire totals lock")
    }
}

impl Transport for CountingTransport {
    fn serve(&self, endpoint: &str, handler: Handler) -> Result<ServerHandle, NetError> {
        self.inner.serve(endpoint, handler)
    }

    fn connect(&self, endpoint: &str) -> Result<Box<dyn Conn>, NetError> {
        let inner = self.inner.connect(endpoint)?;
        if !self.tracer.enabled() {
            // Untraced repetitions run on the bare transport.
            return Ok(inner);
        }
        Ok(Box::new(CountingConn {
            inner,
            totals: self.totals.clone(),
            tracer: self.tracer.clone(),
        }))
    }
}

struct CountingConn {
    inner: Box<dyn Conn>,
    totals: Arc<Mutex<WireTotals>>,
    tracer: Tracer,
}

impl Conn for CountingConn {
    fn call(&mut self, frame: &[u8]) -> Result<Vec<u8>, NetError> {
        let (response, secs) = self.tracer.timed("Conn::call", || self.inner.call(frame));
        let mut totals = self.totals.lock().expect("wire totals lock");
        totals.calls += 1;
        totals.secs += secs;
        totals.bytes += (frame.len() + response.as_ref().map_or(0, Vec::len)) as u64;
        response
    }

    fn endpoint(&self) -> &str {
        self.inner.endpoint()
    }
}

/// Median wall of `f` over `iters` calls, in microseconds.
pub fn median_us(iters: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Mean wall of one call over a batch, in nanoseconds — for calls too
/// short to time one at a time.
pub fn mean_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// Encode cost, decode cost and frame size of one wire value, recorded
/// under `names` in that order. Closures keep the codec's traits out of
/// this crate's dependency list.
pub fn codec_probe<T>(
    layer: &mut Layer,
    names: [&'static str; 3],
    iters: usize,
    encode: impl Fn() -> Vec<u8>,
    decode: impl Fn(&[u8]) -> T,
) {
    let frame = encode();
    layer.insert(names[0], mean_ns(iters, || drop(black_box(encode()))));
    layer.insert(
        names[1],
        mean_ns(iters, || drop(black_box(decode(black_box(&frame))))),
    );
    layer.insert(names[2], frame.len() as f64);
}

/// A planned two-shard fleet behind `transport`, for the ping and
/// handoff probes. Returns the nodes (kept alive), the serve handles and
/// one connection per shard.
struct ProbeFleet {
    conns: Vec<Box<dyn Conn>>,
    _handles: Vec<ServerHandle>,
    _nodes: Vec<ShardNode>,
}

fn probe_fleet(transport: &dyn Transport, bind: &dyn Fn(usize) -> String) -> Option<ProbeFleet> {
    let cfg = ControllerConfig {
        horizon: 8,
        check_every: 4,
        cooldown_ticks: 8,
        ..ControllerConfig::default()
    };
    let escrow = SourceEscrow::new();
    let mut nodes = Vec::new();
    let mut handles = Vec::new();
    for shard in 0..2 {
        let mut ctrl = ShardController::new(cfg, ConsolidationEngine::builder().build());
        for i in 0..8 {
            ctrl.add_workload(Box::new(SyntheticSource::new(
                format!("p{shard}-t{i:02}"),
                300.0,
                Bytes::gib(4),
                RatePattern::Flat { tps: 200.0 },
            )));
        }
        for _ in 0..cfg.horizon + 2 {
            ctrl.tick();
        }
        let node = ShardNode::from_controller(ctrl, Box::new(escrow.clone()));
        handles.push(node.serve(transport, &bind(shard)).ok()?);
        nodes.push(node);
    }
    let conns = handles
        .iter()
        .map(|h| transport.connect(&h.endpoint).ok())
        .collect::<Option<Vec<_>>>()?;
    Some(ProbeFleet {
        conns,
        _handles: handles,
        _nodes: nodes,
    })
}

/// The four-RPC two-phase handoff (forecast → reserve → evict → admit),
/// ping-ponged between the two shards; median round-trip in µs.
fn handoff_rtt_us(fleet: &mut ProbeFleet, rounds: usize) -> Option<f64> {
    let tenant = "p0-t00".to_string();
    let mut samples = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let (donor, receiver) = (round % 2, 1 - round % 2);
        let t0 = Instant::now();
        let Response::Forecast(Some(profile)) = rpc::call(
            fleet.conns[donor].as_mut(),
            &Request::Forecast {
                tenant: tenant.clone(),
            },
        )
        .ok()?
        else {
            return None;
        };
        let Response::CanAdmit(true) = rpc::call(
            fleet.conns[receiver].as_mut(),
            &Request::CanAdmit {
                profile,
                budget: 16,
            },
        )
        .ok()?
        else {
            return None;
        };
        let Response::Evicted(Some(frame)) = rpc::call(
            fleet.conns[donor].as_mut(),
            &Request::Evict {
                tenant: tenant.clone(),
            },
        )
        .ok()?
        else {
            return None;
        };
        rpc::call(fleet.conns[receiver].as_mut(), &Request::Admit { frame }).ok()?;
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Some(median(&samples))
}

/// Everything `kairos-net` that does not need the workload's own fleet:
/// auth, raw transport echo, connect, ping and the handoff round trip.
/// A sandbox without loopback networking leaves the TCP names unset.
pub fn transport_probes(layer: &mut Layer, quick: bool) {
    let scale = if quick { 10 } else { 1 };

    // auth: SipHash tag per KiB, and seal + check of a small frame.
    let key = AuthKey::from_secret(BENCH_KEY.as_bytes());
    let block = vec![0xA5u8; 64 * 1024];
    layer.insert(
        "net.auth_tag_ns_per_kib",
        mean_ns(200 / scale, || {
            black_box(key.tag(black_box(&block)));
        }) / 64.0,
    );
    let small = encode_frame(&Request::Tick);
    layer.insert(
        "net.auth_seal_check_ns",
        mean_ns(20_000 / scale, || {
            let sealed = key.seal(black_box(small.clone()));
            black_box(key.check(&sealed).expect("own tag verifies"));
        }),
    );

    // Loopback: dispatch alone (no socket).
    let loopback = LoopbackTransport::new();
    if let Some(mut fleet) = probe_fleet(&loopback, &|s| format!("probe-{s}")) {
        let ping = median_us(2_000 / scale, || {
            black_box(rpc::call(fleet.conns[0].as_mut(), &Request::Ping).expect("ping"));
        });
        layer.insert("net.loopback_ping_us", ping);
        let codec_us = (mean_ns(2_000 / scale, || {
            let frame = key.seal(encode_frame(black_box(&Request::Ping)));
            black_box(decode_frame::<Request>(key.check(&frame).expect("tag")).expect("decodes"));
            let frame = key.seal(encode_frame(black_box(&Response::Pong { ticks: 1 })));
            black_box(decode_frame::<Response>(key.check(&frame).expect("tag")).expect("decodes"));
        })) / 1e3;
        layer.insert("net.dispatch_us", (ping - codec_us).max(0.0));
        if let Some(rtt) = handoff_rtt_us(&mut fleet, 64 / scale.min(4)) {
            layer.insert("net.handoff_rtt_loopback_us", rtt);
        }
    }

    // TCP on localhost: connect, raw echo by frame size, ping, handoff.
    let tcp = TcpTransport::new();
    let echo: Handler = Arc::new(Mutex::new(|frame: &[u8]| frame.to_vec()));
    if let Ok(handle) = tcp.serve("127.0.0.1:0", echo) {
        layer.insert(
            "net.tcp_connect_us",
            median_us(200 / scale, || {
                black_box(tcp.connect(&handle.endpoint).is_ok());
            }),
        );
        if let Ok(mut conn) = tcp.connect(&handle.endpoint) {
            for (name, payload) in [
                ("net.tcp_echo_us.64b", 64usize),
                ("net.tcp_echo_us.4k", 4 << 10),
                ("net.tcp_echo_us.64k", 64 << 10),
            ] {
                let frame = auth::seal(encode_frame(&vec![0x5Au8; payload]), auth::process_key());
                layer.insert(
                    name,
                    median_us(2_000 / scale, || {
                        black_box(conn.call(black_box(&frame)).expect("echo"));
                    }),
                );
            }
        }
    }
    if let Some(mut fleet) = probe_fleet(&tcp, &|_| "127.0.0.1:0".to_string()) {
        layer.insert(
            "net.tcp_ping_us",
            median_us(2_000 / scale, || {
                black_box(rpc::call(fleet.conns[0].as_mut(), &Request::Ping).expect("ping"));
            }),
        );
        if let Some(rtt) = handoff_rtt_us(&mut fleet, 64 / scale.min(4)) {
            layer.insert("net.handoff_rtt_us", rtt);
        }
    }
}

/// Per-kind RPC cost against a live node of the workload's own fleet.
pub fn rpc_probe(conn: &mut dyn Conn, request: &Request, iters: usize) -> Option<f64> {
    rpc::call(conn, request).ok()?;
    Some(median_us(iters, || {
        black_box(rpc::call(conn, request).is_ok());
    }))
}

/// Share of tick wall spent inside `Conn::call`, and per-tick call and
/// byte counts, from the counting transport of the traced repetition.
pub fn wire_share(layer: &mut Layer, totals: WireTotals, ticks: u64, tick_wall_s: f64) {
    let ticks = ticks.max(1) as f64;
    layer.insert("net.calls_per_tick", totals.calls as f64 / ticks);
    layer.insert("net.bytes_per_tick", totals.bytes as f64 / ticks);
    layer.insert(
        "net.call_us",
        totals.secs * 1e6 / totals.calls.max(1) as f64,
    );
    layer.insert("net.call_share", totals.secs / tick_wall_s.max(1e-12));
}
