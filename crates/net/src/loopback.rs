//! The deterministic in-memory transport.
//!
//! Endpoints live in a shared registry; a [`Conn::call`] dispatches the
//! request frame to the registered handler synchronously on the calling
//! thread, so delivery order is exactly call order — the property the
//! loopback-vs-in-process equivalence tests lean on (no threads, no
//! queues, no timing).
//!
//! It injects no faults itself: partitions, drops and bit flips come
//! from wrapping it in [`crate::FaultedTransport`], the one injector
//! every backend shares.

use crate::transport::{Conn, Handler, NetError, ServerHandle, Transport};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

type Registry = Arc<Mutex<BTreeMap<String, Handler>>>;

/// The in-memory transport. `Clone` shares the registry, so tests hold
/// one handle while nodes hold others.
#[derive(Clone, Default)]
pub struct LoopbackTransport {
    endpoints: Registry,
}

impl LoopbackTransport {
    pub fn new() -> LoopbackTransport {
        LoopbackTransport::default()
    }
}

impl Transport for LoopbackTransport {
    fn serve(&self, endpoint: &str, handler: Handler) -> Result<ServerHandle, NetError> {
        let mut endpoints = self.endpoints.lock().expect("loopback registry lock");
        if endpoints.contains_key(endpoint) {
            return Err(NetError::Protocol(format!(
                "endpoint {endpoint} already served"
            )));
        }
        endpoints.insert(endpoint.to_string(), handler);
        let registry = self.endpoints.clone();
        let unbind = endpoint.to_string();
        Ok(ServerHandle::new(endpoint.to_string(), move || {
            registry
                .lock()
                .expect("loopback registry lock")
                .remove(&unbind);
        }))
    }

    fn connect(&self, endpoint: &str) -> Result<Box<dyn Conn>, NetError> {
        // Connections are lazy (like TCP reconnection logic, resolution
        // happens per call), but fail fast here if nothing is served so
        // misconfigured tests surface immediately.
        let endpoints = self.endpoints.lock().expect("loopback registry lock");
        if !endpoints.contains_key(endpoint) {
            return Err(NetError::Unreachable(endpoint.to_string()));
        }
        Ok(Box::new(LoopbackConn {
            endpoint: endpoint.to_string(),
            endpoints: self.endpoints.clone(),
        }))
    }
}

struct LoopbackConn {
    endpoint: String,
    endpoints: Registry,
}

impl Conn for LoopbackConn {
    fn call(&mut self, frame: &[u8]) -> Result<Vec<u8>, NetError> {
        // Resolve the handler under the registry lock, then release it
        // before dispatching — the handler may itself hold long-running
        // locks (a shard mid-solve) and must not serialize against
        // registry mutations.
        let handler = self
            .endpoints
            .lock()
            .expect("loopback registry lock")
            .get(&self.endpoint)
            .cloned()
            .ok_or_else(|| NetError::Unreachable(self.endpoint.clone()))?;
        let mut handler = handler.lock().expect("loopback handler lock");
        Ok(handler(frame))
    }

    fn endpoint(&self) -> &str {
        &self.endpoint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame;

    fn echo_handler() -> Handler {
        Arc::new(Mutex::new(|frame: &[u8]| frame.to_vec()))
    }

    #[test]
    fn serve_call_and_unbind() {
        let t = LoopbackTransport::new();
        let handle = t.serve("a", echo_handler()).expect("serves");
        let mut conn = t.connect("a").expect("connects");
        let msg = frame::encode_frame(&7u64);
        assert_eq!(conn.call(&msg).expect("echoes"), msg);
        handle.stop();
        assert!(matches!(conn.call(&msg), Err(NetError::Unreachable(_))));
    }
}
