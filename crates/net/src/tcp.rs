//! The real transport: blocking `std::net` sockets, one thread per
//! connection.
//!
//! No async runtime, by design — the whole workspace is built on
//! synchronous loops, and the control plane's RPC fan-in is a handful of long-lived connections (one
//! balancer per shard node), not ten thousand ephemeral ones. An accept
//! thread hands each connection to its own reader thread; each reader
//! loops `read_frame_with_trailer → handler → write_frame` until the peer
//! hangs up.
//! The handler mutex serializes dispatch, so a node behaves identically
//! whether one balancer or several clients are connected.
//!
//! Timeouts: connections set generous read/write timeouts so a dead peer
//! surfaces as an error instead of a hang — the balancer's lease logic
//! turns those errors into failure detection.

use crate::auth::wire_trailer_len;
use crate::frame::{read_frame_with_trailer, write_frame};
use crate::transport::{Conn, Handler, NetError, ServerHandle, Transport};
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long a client call waits for a response before reporting the peer
/// dead. Generous: the slowest RPC is a Tick that runs a warm re-solve
/// (tens of milliseconds); 30 s means only a truly wedged peer trips it.
const CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// How long `connect` waits for the TCP handshake.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// The `std::net` transport. Stateless — endpoints are socket addresses
/// (`"127.0.0.1:9301"`, or `":0"` forms to let the kernel pick a port,
/// reported back via [`ServerHandle::endpoint`]).
#[derive(Clone, Default)]
pub struct TcpTransport;

impl TcpTransport {
    pub fn new() -> TcpTransport {
        TcpTransport
    }
}

impl Transport for TcpTransport {
    fn serve(&self, endpoint: &str, handler: Handler) -> Result<ServerHandle, NetError> {
        let listener = TcpListener::bind(endpoint)?;
        let actual = listener.local_addr()?.to_string();
        let stopping = Arc::new(AtomicBool::new(false));
        let accept_stop = stopping.clone();
        let accept_addr = actual.clone();
        let accept = std::thread::Builder::new()
            .name(format!("kairos-net-accept-{actual}"))
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let handler = handler.clone();
                    let peer = stream
                        .peer_addr()
                        .map(|a| a.to_string())
                        .unwrap_or_default();
                    let _ = std::thread::Builder::new()
                        .name(format!("kairos-net-conn-{peer}"))
                        .spawn(move || serve_connection(stream, handler));
                }
                drop(accept_addr);
            })?;
        let stop_addr = actual.clone();
        Ok(ServerHandle::new(actual, move || {
            stopping.store(true, Ordering::SeqCst);
            // Unblock the accept loop with a throwaway connection, then
            // join it so the listener is really closed when stop returns.
            let _ = TcpStream::connect(&stop_addr);
            let _ = accept.join();
        }))
    }

    fn connect(&self, endpoint: &str) -> Result<Box<dyn Conn>, NetError> {
        let addr = endpoint
            .parse()
            .map_err(|_| NetError::Unreachable(format!("{endpoint}: not a socket address")))?;
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
        stream.set_read_timeout(Some(CALL_TIMEOUT))?;
        stream.set_write_timeout(Some(CALL_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Box::new(TcpConn {
            endpoint: endpoint.to_string(),
            stream,
        }))
    }
}

/// One connection's server loop: frames in, frames out, until EOF or a
/// header that fails its magic, version or length cap, which closes the
/// connection: the stream offset is unrecoverable after it, and the client
/// reconnects. The CRC is the handler's to check, as it decodes, as over
/// loopback: a request damaged past its length field is answered with
/// `Response::Error("bad request frame: …")` on the same connection (under
/// a key, "unauthenticated frame", as the tag no longer matches).
///
/// A damaged length field that passes the cap puts the stream out of step.
/// Shrunk, the short frame is answered as above, and what is left of it
/// is read as the next header: bad magic, so the connection closes under
/// the next call, which fails with an I/O error that is not a timeout (a
/// link redials and retries that at once; the server dispatched nothing).
/// Grown, the server waits for bytes the client never sends, and the call
/// times out, as it did when the reader checked the CRC. Either way node
/// state is untouched: validation happens before dispatch.
fn serve_connection(mut stream: TcpStream, handler: Handler) {
    let _ = stream.set_nodelay(true);
    loop {
        // Keyed deployments carry an auth tag after the CRC; the frame
        // reader consumes it so stream framing survives, and the node's
        // handler verifies it before dispatch.
        let frame = match read_frame_with_trailer(&mut stream, wire_trailer_len()) {
            Ok(frame) => frame,
            Err(NetError::Io(e)) if e.kind() == ErrorKind::UnexpectedEof => return,
            Err(_) => return,
        };
        let response = {
            let mut handler = handler.lock().expect("tcp handler lock");
            handler(&frame)
        };
        if write_frame(&mut stream, &response).is_err() {
            return;
        }
    }
}

struct TcpConn {
    endpoint: String,
    stream: TcpStream,
}

impl Conn for TcpConn {
    fn call(&mut self, frame: &[u8]) -> Result<Vec<u8>, NetError> {
        write_frame(&mut self.stream, frame)?;
        read_frame_with_trailer(&mut self.stream, wire_trailer_len())
    }

    fn endpoint(&self) -> &str {
        &self.endpoint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame;
    use std::sync::Mutex;

    #[test]
    fn serve_echo_over_localhost() {
        let t = TcpTransport::new();
        let handler: Handler = Arc::new(Mutex::new(|f: &[u8]| f.to_vec()));
        let handle = t.serve("127.0.0.1:0", handler).expect("binds");
        let mut conn = t.connect(&handle.endpoint).expect("connects");
        let msg = frame::encode_frame(&(String::from("ping"), 1u64));
        assert_eq!(conn.call(&msg).expect("echoes"), msg);
        // Stopping the server closes the listener: new connections are
        // refused. (Established connections keep draining until the
        // peer hangs up — ordinary TCP listener semantics; a *process*
        // death severs them, which is what the lease layer detects.)
        let endpoint = handle.endpoint.clone();
        handle.stop();
        assert!(t.connect(&endpoint).is_err());
    }

    /// `frame` with its length field `delta` bytes off what it carries:
    /// what a bit flipped there leaves on the wire.
    fn with_length(frame: &[u8], delta: i64) -> Vec<u8> {
        let mut out = frame.to_vec();
        let len = u64::from_le_bytes(out[8..16].try_into().expect("sized slice"));
        out[8..16].copy_from_slice(&len.checked_add_signed(delta).expect("len").to_le_bytes());
        out
    }

    fn echo_server(t: &TcpTransport) -> ServerHandle {
        let handler: Handler = Arc::new(Mutex::new(|f: &[u8]| f.to_vec()));
        t.serve("127.0.0.1:0", handler).expect("binds")
    }

    #[test]
    fn a_shrunk_length_field_costs_the_next_call_its_connection() {
        let t = TcpTransport::new();
        let handle = echo_server(&t);
        let mut conn = t.connect(&handle.endpoint).expect("connects");
        let msg = frame::encode_frame(&(String::from("ping"), 1u64));
        // The server reads 8 bytes short and answers the short frame, which
        // fails its CRC where it is decoded.
        let echoed = conn.call(&with_length(&msg, -8)).expect("answered");
        assert!(matches!(
            frame::decode_frame::<(String, u64)>(&echoed),
            Err(NetError::ChecksumMismatch)
        ));
        // The 8 bytes left over start the next header: bad magic, and the
        // server closes the connection under the next clean call, which
        // fails with an I/O error that is not a timeout (the kind a link
        // redials and retries at once).
        let err = conn.call(&msg).expect_err("the stream is out of step");
        assert!(
            matches!(&err, NetError::Io(e) if e.kind() != ErrorKind::TimedOut
                && e.kind() != ErrorKind::WouldBlock),
            "{err:?}"
        );
        let mut conn = t.connect(&handle.endpoint).expect("redials");
        assert_eq!(conn.call(&msg).expect("clean"), msg);
        handle.stop();
    }

    #[test]
    fn a_grown_length_field_stalls_its_call_until_more_bytes_come() {
        let t = TcpTransport::new();
        let handle = echo_server(&t);
        let mut stream = TcpStream::connect(&handle.endpoint).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .expect("timeout");
        let msg = frame::encode_frame(&(String::from("ping"), 1u64));
        // The server waits for 8 bytes that never come: the call times out.
        write_frame(&mut stream, &with_length(&msg, 8)).expect("sent");
        let stalled = read_frame_with_trailer(&mut stream, wire_trailer_len());
        assert!(
            matches!(&stalled, Err(NetError::Io(e)) if matches!(e.kind(),
                ErrorKind::WouldBlock | ErrorKind::TimedOut)),
            "{stalled:?}"
        );
        // A clean call on the same connection completes the damaged frame,
        // whose answer (failing its CRC) is what comes back; the rest of
        // the clean frame is then a bad header, and the connection closes.
        write_frame(&mut stream, &msg).expect("sent");
        let answer = read_frame_with_trailer(&mut stream, wire_trailer_len()).expect("answered");
        assert!(matches!(
            frame::decode_frame::<(String, u64)>(&answer),
            Err(NetError::ChecksumMismatch)
        ));
        assert!(read_frame_with_trailer(&mut stream, wire_trailer_len()).is_err());
        handle.stop();
    }

    #[test]
    fn connect_to_dead_port_fails() {
        let t = TcpTransport::new();
        // Bind-then-drop to find a port that is (briefly) guaranteed free.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").expect("probe bind");
            l.local_addr().expect("addr").port()
        };
        assert!(t.connect(&format!("127.0.0.1:{port}")).is_err());
    }
}
