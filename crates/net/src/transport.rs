//! The pluggable transport boundary.
//!
//! A [`Transport`] hands out two things: a server side ([`Transport::serve`]
//! — register a handler at an endpoint) and a client side
//! ([`Transport::connect`] — a [`Conn`] that ships one request frame and
//! blocks for one response frame). Everything above this trait —
//! [`crate::ShardNode`], [`crate::BalancerNode`], the RPC catalog — is
//! backend-agnostic; everything below it is one of two backends:
//!
//! * [`crate::LoopbackTransport`] — deterministic in-memory dispatch with
//!   injectable drops, partitions and frame corruption, for tests and
//!   for running a whole fleet in one process over the *same* RPC code
//!   path a real deployment uses;
//! * [`crate::TcpTransport`] — `std::net` blocking sockets, one thread
//!   per connection (no async runtime; matches the workspace's
//!   `std::thread::scope` architecture).
//!
//! The call model is deliberately strict request/response over a private
//! connection: no pipelining, no multiplexing, no reordering. That keeps
//! delivery order equal to call order, which is what lets the loopback
//! fleet be tick-for-tick identical to the in-process `FleetController`
//! and keeps the TCP backend trivially correct.

use std::sync::{Arc, Mutex};

/// Why an RPC (or a frame validation) failed.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure (connect, read, write, bind).
    Io(std::io::Error),
    /// The bytes do not start with [`crate::frame::NET_MAGIC`].
    BadMagic,
    /// The peer speaks a different protocol version.
    UnsupportedVersion { found: u32, expected: u32 },
    /// Shorter than a complete frame, or the length prefix disagrees
    /// with the byte count — a torn or truncated message.
    Truncated,
    /// The payload length prefix exceeds the sanity cap.
    Oversized(u64),
    /// CRC trailer mismatch — the frame was damaged in flight.
    ChecksumMismatch,
    /// The payload failed to decode despite a valid checksum.
    Decode(serde::Error),
    /// The endpoint is not being served (or is partitioned away).
    Unreachable(String),
    /// The message was dropped by an injected fault (`FaultedTransport`).
    Dropped,
    /// The peer answered with an error response.
    Remote(String),
    /// The peer answered with a response of the wrong kind.
    Protocol(String),
    /// The frame's shared-secret tag failed verification (or was
    /// absent on a keyed deployment) — rejected before any decoding.
    AuthRejected,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport I/O error: {e}"),
            NetError::BadMagic => write!(f, "not a kairos RPC frame (bad magic)"),
            NetError::UnsupportedVersion { found, expected } => {
                write!(f, "unsupported RPC version {found} (expected {expected})")
            }
            NetError::Truncated => write!(f, "RPC frame truncated or torn"),
            NetError::Oversized(n) => write!(f, "RPC frame claims {n}-byte payload (over cap)"),
            NetError::ChecksumMismatch => write!(f, "RPC frame checksum mismatch"),
            NetError::Decode(e) => write!(f, "RPC payload corrupt: {e}"),
            NetError::Unreachable(ep) => write!(f, "endpoint {ep} unreachable"),
            NetError::Dropped => write!(f, "message dropped (injected fault)"),
            NetError::Remote(msg) => write!(f, "remote error: {msg}"),
            NetError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            NetError::AuthRejected => {
                write!(f, "RPC frame failed shared-secret authentication")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::Io(e)
    }
}

/// A server-side message handler: one request frame in, one response
/// frame out. Wrapped in `Arc<Mutex<..>>` because a TCP server invokes
/// it from per-connection threads; the mutex serializes dispatch, which
/// both backends rely on for the strict in-order call model.
pub type Handler = Arc<Mutex<dyn FnMut(&[u8]) -> Vec<u8> + Send>>;

/// One client connection: ship a request frame, block for the response
/// frame. Implementations time out rather than hang forever on a dead
/// peer (the loopback fails immediately; TCP uses socket timeouts).
pub trait Conn: Send {
    fn call(&mut self, frame: &[u8]) -> Result<Vec<u8>, NetError>;
    /// The endpoint this connection targets (diagnostics).
    fn endpoint(&self) -> &str;
}

/// A running server registration. Dropping it (or calling
/// [`ServerHandle::stop`]) unbinds the endpoint; for TCP the accept
/// thread is joined.
pub struct ServerHandle {
    /// The endpoint actually being served — for TCP with a `:0` bind
    /// request, this carries the kernel-assigned port.
    pub endpoint: String,
    stop: Option<Box<dyn FnOnce() + Send>>,
}

impl ServerHandle {
    pub fn new(endpoint: String, stop: impl FnOnce() + Send + 'static) -> ServerHandle {
        ServerHandle {
            endpoint,
            stop: Some(Box::new(stop)),
        }
    }

    /// Unbind the endpoint and release server resources.
    pub fn stop(mut self) {
        if let Some(stop) = self.stop.take() {
            stop();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(stop) = self.stop.take() {
            stop();
        }
    }
}

/// The pluggable boundary. Object-safe on purpose: nodes hold an
/// `Arc<dyn Transport>` so the same `ShardNode`/`BalancerNode` code runs
/// over loopback in tests and TCP in the multi-process example.
pub trait Transport: Send + Sync {
    /// Register `handler` at `endpoint`; returns the handle that keeps
    /// it served (with the actual endpoint, e.g. a resolved `:0` port).
    fn serve(&self, endpoint: &str, handler: Handler) -> Result<ServerHandle, NetError>;
    /// Open a client connection to `endpoint`.
    fn connect(&self, endpoint: &str) -> Result<Box<dyn Conn>, NetError>;
}
