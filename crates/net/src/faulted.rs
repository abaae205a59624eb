//! Fault injection below the loopback layer: a [`Transport`] decorator
//! that applies the declarative [`FaultPlan`] to *any* backend, and the
//! only injector there is — the loopback is a plain registry, the TCP
//! backend real sockets, and neither owns anything injectable.
//!
//! The decorator routes **logical endpoint names** (`"shard-0"`) to
//! whatever endpoint the inner transport actually serves (the name
//! itself over loopback, a kernel-assigned `127.0.0.1:port` for TCP),
//! and consults the shared [`FaultPlan`] — partition ≻ drop ≻ corrupt,
//! heal cancels one-shots (see [`crate::fault`]) — on every outbound
//! call before the frame touches the inner connection:
//!
//! * **partition** — the endpoint is unreachable until healed (a dead
//!   or isolated node; heartbeat misses accumulate);
//! * **drop** — the next N calls vanish ([`NetError::Dropped`]);
//! * **corrupt** — the next call's request frame has one bit flipped
//!   in flight, its position drawn from one seeded [`SplitMix64`]
//!   stream, so a chaos schedule or a failure test replays bit-for-bit
//!   over either backend.
//!
//! Both backends hand a frame damaged past its header to the handler,
//! which rejects it as it decodes (CRC) and answers an error response.
//! What differs — deliberately — is a damaged *header*, which loopback
//! still hands to the handler. Over TCP a bad magic or version closes the
//! connection at once (the client sees an I/O error and redials). A
//! damaged length field puts the stream out of step (see `tcp.rs`'s
//! `serve_connection`): shrunk, the call is answered with an error and
//! the connection closes under the next call; grown, the call times out.
//! Both are legal transport behaviours; the chaos invariants hold under
//! either, and same-seed fingerprints are byte-identical per backend.

use crate::fault::{Fault, FaultInjector, FaultPlan, FaultVerdict};
use crate::transport::{Conn, Handler, NetError, ServerHandle, Transport};
use kairos_types::SplitMix64;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

#[derive(Default)]
struct FaultedState {
    faults: FaultPlan,
    /// Logical endpoint → the endpoint the inner transport reported
    /// actually serving (for TCP with a `:0` bind, the kernel port).
    routes: BTreeMap<String, String>,
}

/// A fault-injecting decorator over any [`Transport`]. `Clone` shares
/// the route table and the fault plan, so the chaos harness holds one
/// handle while nodes hold `Arc<dyn Transport>` clones.
#[derive(Clone)]
pub struct FaultedTransport {
    inner: Arc<dyn Transport>,
    /// When `Some`, every serve binds this address on the inner
    /// transport (e.g. `"127.0.0.1:0"` for TCP) and the logical name
    /// only lives in the route table; when `None`, logical names pass
    /// through to the inner transport (e.g. over loopback).
    bind: Option<String>,
    state: Arc<Mutex<FaultedState>>,
    rng: Arc<Mutex<SplitMix64>>,
}

impl FaultedTransport {
    /// Wrap `inner`, passing logical endpoint names straight through
    /// (the inner transport must accept them — loopback does).
    pub fn new(inner: Arc<dyn Transport>, seed: u64) -> FaultedTransport {
        FaultedTransport {
            inner,
            bind: None,
            state: Arc::new(Mutex::new(FaultedState::default())),
            rng: Arc::new(Mutex::new(SplitMix64::new(seed))),
        }
    }

    /// Wrap `inner`, serving every logical endpoint at `bind` on the
    /// inner transport (use `"127.0.0.1:0"` to let the kernel pick a
    /// port per endpoint) and routing by name.
    pub fn with_bind(inner: Arc<dyn Transport>, seed: u64, bind: &str) -> FaultedTransport {
        FaultedTransport {
            bind: Some(bind.to_string()),
            ..FaultedTransport::new(inner, seed)
        }
    }

    /// The standard chaos-over-TCP shape: real sockets underneath,
    /// kernel-assigned loopback ports, logical names on top.
    pub fn over_tcp(seed: u64) -> FaultedTransport {
        FaultedTransport::with_bind(
            Arc::new(crate::tcp::TcpTransport::new()),
            seed,
            "127.0.0.1:0",
        )
    }
}

impl FaultInjector for FaultedTransport {
    fn inject_fault(&self, endpoint: &str, fault: Fault) {
        self.state
            .lock()
            .expect("faulted state lock")
            .faults
            .inject(endpoint, fault);
    }

    fn heal(&self, endpoint: &str) {
        self.state
            .lock()
            .expect("faulted state lock")
            .faults
            .heal(endpoint);
    }

    fn heal_all(&self) {
        self.state
            .lock()
            .expect("faulted state lock")
            .faults
            .heal_all();
    }
}

impl Transport for FaultedTransport {
    fn serve(&self, endpoint: &str, handler: Handler) -> Result<ServerHandle, NetError> {
        {
            let state = self.state.lock().expect("faulted state lock");
            if state.routes.contains_key(endpoint) {
                return Err(NetError::Protocol(format!(
                    "endpoint {endpoint} already served"
                )));
            }
        }
        let inner_endpoint = self.bind.as_deref().unwrap_or(endpoint);
        let inner_handle = self.inner.serve(inner_endpoint, handler)?;
        self.state
            .lock()
            .expect("faulted state lock")
            .routes
            .insert(endpoint.to_string(), inner_handle.endpoint.clone());
        let registry = self.state.clone();
        let unbind = endpoint.to_string();
        Ok(ServerHandle::new(endpoint.to_string(), move || {
            registry
                .lock()
                .expect("faulted state lock")
                .routes
                .remove(&unbind);
            inner_handle.stop();
        }))
    }

    fn connect(&self, endpoint: &str) -> Result<Box<dyn Conn>, NetError> {
        let actual = self
            .state
            .lock()
            .expect("faulted state lock")
            .routes
            .get(endpoint)
            .cloned()
            .ok_or_else(|| NetError::Unreachable(endpoint.to_string()))?;
        let conn = self.inner.connect(&actual)?;
        Ok(Box::new(FaultedConn {
            endpoint: endpoint.to_string(),
            inner: conn,
            state: self.state.clone(),
            rng: self.rng.clone(),
        }))
    }
}

struct FaultedConn {
    endpoint: String,
    inner: Box<dyn Conn>,
    state: Arc<Mutex<FaultedState>>,
    rng: Arc<Mutex<SplitMix64>>,
}

impl Conn for FaultedConn {
    fn call(&mut self, frame: &[u8]) -> Result<Vec<u8>, NetError> {
        // Resolve the fault verdict under the shared lock, release it
        // before the (possibly slow, blocking) inner call.
        let corrupt = {
            let mut state = self.state.lock().expect("faulted state lock");
            // The payload tag (request enum variant index) rides at
            // frame bytes 16..20; shorter frames carry no tag.
            let tag = (frame.len() >= 20)
                .then(|| u32::from_le_bytes(frame[16..20].try_into().expect("sized slice")));
            match state.faults.next_call(&self.endpoint, tag) {
                FaultVerdict::Unreachable => {
                    return Err(NetError::Unreachable(self.endpoint.clone()))
                }
                FaultVerdict::Drop => return Err(NetError::Dropped),
                FaultVerdict::Deliver { corrupt } => corrupt,
            }
        };
        if corrupt {
            let mut owned = frame.to_vec();
            let mut rng = self.rng.lock().expect("faulted rng lock");
            let byte = rng.next_range(owned.len() as u64) as usize;
            let bit = rng.next_range(8) as u8;
            owned[byte] ^= 1 << bit;
            drop(rng);
            return self.inner.call(&owned);
        }
        self.inner.call(frame)
    }

    fn endpoint(&self) -> &str {
        &self.endpoint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame;
    use crate::loopback::LoopbackTransport;

    fn echo() -> Handler {
        Arc::new(Mutex::new(|f: &[u8]| f.to_vec()))
    }

    #[test]
    fn routes_logical_names_over_tcp_and_unbinds_on_stop() {
        let t = FaultedTransport::over_tcp(7);
        let handle = t.serve("shard-0", echo()).expect("serves");
        assert_eq!(handle.endpoint, "shard-0");
        let mut conn = t.connect("shard-0").expect("connects");
        let msg = frame::encode_frame(&(String::from("hello"), 1u64));
        assert_eq!(conn.call(&msg).expect("echoes"), msg);
        handle.stop();
        assert!(matches!(
            t.connect("shard-0"),
            Err(NetError::Unreachable(_))
        ));
    }

    #[test]
    fn fault_precedence_holds_over_a_real_socket() {
        let t = FaultedTransport::over_tcp(7);
        let _h = t.serve("a", echo()).expect("serves");
        let mut conn = t.connect("a").expect("connects");
        let msg = frame::encode_frame(&3u64);
        t.drop_next_calls("a", 1);
        t.partition("a");
        // Partition outranks the pending drop without burning it...
        assert!(matches!(conn.call(&msg), Err(NetError::Unreachable(_))));
        // ...and heal cancels the paused drop: clean delivery.
        FaultInjector::heal(&t, "a");
        assert_eq!(conn.call(&msg).expect("clean"), msg);
        t.drop_next_calls("a", 1);
        assert!(matches!(conn.call(&msg), Err(NetError::Dropped)));
        assert_eq!(conn.call(&msg).expect("clean again"), msg);
    }

    #[test]
    fn corruption_over_tcp_reaches_the_handler_and_fails_its_crc() {
        // The stream reader checks framing only, so a frame damaged past
        // its header (seed 6 flips a bit of byte 24, in the payload)
        // reaches the handler, here an echo, and decoding it fails its CRC;
        // the connection stays up.
        let t = FaultedTransport::over_tcp(6);
        let _h = t.serve("a", echo()).expect("serves");
        let mut conn = t.connect("a").expect("connects");
        let msg = frame::encode_frame(&(String::from("x"), 9u32));
        t.corrupt_next_calls("a", 1);
        let echoed = conn.call(&msg).expect("a damaged body is still a frame");
        assert!(matches!(
            frame::decode_frame::<(String, u32)>(&echoed),
            Err(NetError::ChecksumMismatch)
        ));
        assert_eq!(conn.call(&msg).expect("the same connection"), msg);
    }

    #[test]
    fn corruption_flips_exactly_one_bit_in_flight() {
        // Over a pass-through backend the damaged frame is observable:
        // exactly one seeded bit differs.
        let t = FaultedTransport::new(Arc::new(LoopbackTransport::new()), 11);
        let _h = t.serve("a", echo()).expect("serves");
        let mut conn = t.connect("a").expect("connects");
        let msg = frame::encode_frame(&(String::from("x"), 9u32));
        t.corrupt_next_calls("a", 1);
        let echoed = conn.call(&msg).expect("delivered, damaged");
        let diff: u32 = msg
            .iter()
            .zip(&echoed)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one bit flipped");
        assert_eq!(conn.call(&msg).expect("clean"), msg);
    }

    #[test]
    fn same_seed_corrupts_the_same_bit_over_any_backend() {
        // One seeded stream decides the bit, so a schedule's corruption
        // lands identically run over run.
        let msg = frame::encode_frame(&(String::from("payload"), 1234u64));
        let run = |seed: u64| {
            let t = FaultedTransport::new(Arc::new(LoopbackTransport::new()), seed);
            let _h = t.serve("a", echo()).expect("serves");
            let mut conn = t.connect("a").expect("connects");
            t.corrupt_next_calls("a", 1);
            conn.call(&msg).expect("delivered")
        };
        assert_eq!(run(42), run(42), "same seed, same damage");
        assert_ne!(run(42), run(43), "different seed, different damage");
    }

    #[test]
    fn matching_corruption_rules_queue_per_endpoint() {
        let t = FaultedTransport::new(Arc::new(LoopbackTransport::new()), 11);
        let _h = t.serve("a", echo()).expect("serves");
        let mut conn = t.connect("a").expect("connects");
        // Two different request kinds, armed up front.
        let ping = frame::encode_frame(&crate::rpc::Request::Ping);
        let tick = frame::encode_frame(&crate::rpc::Request::Tick);
        let ping_tag = crate::rpc::wire_tag(&crate::rpc::Request::Ping);
        let tick_tag = crate::rpc::wire_tag(&crate::rpc::Request::Tick);
        t.corrupt_next_calls_matching("a", ping_tag, 1);
        t.corrupt_next_calls_matching("a", tick_tag, 1);
        // Tick fires its rule even though Ping's queued first.
        assert_ne!(conn.call(&tick).expect("damaged"), tick);
        assert_ne!(conn.call(&ping).expect("damaged"), ping);
        assert_eq!(conn.call(&ping).expect("clean"), ping);
        assert_eq!(conn.call(&tick).expect("clean"), tick);
    }
}
