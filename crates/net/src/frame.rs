//! The RPC wire envelope: length-framed, CRC-trailed, version-tagged
//! messages over the workspace codec (`shims/serde`).
//!
//! ## Frame layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"KNET"
//! 4       4     protocol version (u32 LE, see RPC_WIRE_VERSION; the
//!               high bit is SPAN_FLAG — span section present)
//! 8       8     payload length (u64 LE; payload only, excludes the
//!               span section)
//! [16     28    span section (only when SPAN_FLAG): trace id (u64),
//!               span id (u64), origin node (u32), tick (u64), all LE]
//! 16|44   n     payload (shims/serde wire format: a Request or Response)
//! …+n     4     CRC-32 (IEEE, u32 LE) over everything before it
//! ```
//!
//! The span section is **optional and additive**: a frame without
//! [`SPAN_FLAG`] is bit-for-bit the pre-span wire format, which is the
//! compatibility property the transport-equivalence suite pins. When
//! present, the section sits inside the CRC (and under the auth tag),
//! so a damaged or forged span context is rejected with the same
//! discipline as a damaged payload.
//!
//! The layout deliberately mirrors `kairos-store`'s snapshot frame (and
//! reuses its CRC) so one validation discipline covers both the
//! durability and the network boundary; only the magic differs, so a
//! snapshot file can never be mistaken for an RPC message or vice versa.
//! The length prefix sits at a fixed offset, which is what lets a
//! blocking stream reader ([`read_frame_with_trailer`]) recover message
//! boundaries from a TCP byte stream.
//!
//! Every validation failure is a clean [`NetError`] — a frame is checked
//! (magic, version, sane length, CRC) *before* any payload decoding, and
//! the codec itself bounds-checks every read, so damaged or truncated
//! bytes can never panic a node or half-apply a message.

use crate::transport::NetError;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Magic prefix of every kairos RPC frame.
pub const NET_MAGIC: [u8; 4] = *b"KNET";

/// Protocol version carried by every frame. Bump on any change to the
/// `Request`/`Response` catalog or the codec; mismatched peers then fail
/// loudly instead of misdecoding each other.
pub const RPC_WIRE_VERSION: u32 = 1;

/// Hard cap on a frame's payload length. Far above any real message
/// (the largest is a full-telemetry handoff, tens of KiB), low enough
/// that a corrupted length prefix cannot make a reader allocate or block
/// on gigabytes.
pub const MAX_PAYLOAD_LEN: u64 = 64 << 20;

/// High bit of the version field: a 28-byte span section follows the
/// header. Frames without it are byte-identical to the pre-span format.
pub const SPAN_FLAG: u32 = 0x8000_0000;

/// Size of the optional span section: trace id + span id + origin + tick.
pub const SPAN_SECTION_LEN: usize = 8 + 8 + 4 + 8;

const HEADER_LEN: usize = 16;
const TRAILER_LEN: usize = 4;

use kairos_obs::span::SpanContext;

fn span_section(ctx: &SpanContext) -> [u8; SPAN_SECTION_LEN] {
    let mut out = [0u8; SPAN_SECTION_LEN];
    out[0..8].copy_from_slice(&ctx.trace_id.to_le_bytes());
    out[8..16].copy_from_slice(&ctx.span_id.to_le_bytes());
    out[16..20].copy_from_slice(&ctx.origin.to_le_bytes());
    out[20..28].copy_from_slice(&ctx.tick.to_le_bytes());
    out
}

fn parse_span_section(bytes: &[u8]) -> SpanContext {
    SpanContext {
        trace_id: u64::from_le_bytes(bytes[0..8].try_into().expect("sized slice")),
        span_id: u64::from_le_bytes(bytes[8..16].try_into().expect("sized slice")),
        origin: u32::from_le_bytes(bytes[16..20].try_into().expect("sized slice")),
        tick: u64::from_le_bytes(bytes[20..28].try_into().expect("sized slice")),
    }
}

/// Validate the fixed 16-byte header — magic, then version (with
/// [`SPAN_FLAG`] masked off), then the length cap — and return the span
/// section's length and the payload's.
fn parse_header(header: &[u8]) -> Result<(usize, u64), NetError> {
    if header[..4] != NET_MAGIC {
        return Err(NetError::BadMagic);
    }
    let version_field = u32::from_le_bytes(header[4..8].try_into().expect("sized slice"));
    let version = version_field & !SPAN_FLAG;
    if version != RPC_WIRE_VERSION {
        return Err(NetError::UnsupportedVersion {
            found: version,
            expected: RPC_WIRE_VERSION,
        });
    }
    let span_len = if version_field & SPAN_FLAG != 0 {
        SPAN_SECTION_LEN
    } else {
        0
    };
    let payload_len = u64::from_le_bytes(header[8..16].try_into().expect("sized slice"));
    if payload_len > MAX_PAYLOAD_LEN {
        return Err(NetError::Oversized(payload_len));
    }
    Ok((span_len, payload_len))
}

/// Encode `value` into a complete frame (header + payload + CRC).
pub fn encode_frame<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    encode_frame_with_span(value, None)
}

/// [`encode_frame`], optionally carrying a span context in the frame
/// header's span section. `None` produces the exact pre-span bytes.
pub fn encode_frame_with_span<T: Serialize + ?Sized>(
    value: &T,
    span: Option<SpanContext>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + SPAN_SECTION_LEN + TRAILER_LEN);
    out.extend_from_slice(&NET_MAGIC);
    let version = RPC_WIRE_VERSION | if span.is_some() { SPAN_FLAG } else { 0 };
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&[0; 8]); // payload length, patched in below
    if let Some(ctx) = &span {
        out.extend_from_slice(&span_section(ctx));
    }
    let payload_start = out.len();
    value.encode_to(&mut out);
    let payload_len = (out.len() - payload_start) as u64;
    out[8..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
    let crc = kairos_store::crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Validate a complete frame (magic, version, length, CRC) and decode
/// its payload, dropping any span section. Never panics on malformed
/// input.
pub fn decode_frame<T: Deserialize>(bytes: &[u8]) -> Result<T, NetError> {
    decode_frame_with_span(bytes).map(|(value, _)| value)
}

/// [`decode_frame`], also returning the span context the frame carried
/// (if its [`SPAN_FLAG`] was set). Server handlers install it for the
/// duration of the dispatch so nested work chains to the caller's span.
pub fn decode_frame_with_span<T: Deserialize>(
    bytes: &[u8],
) -> Result<(T, Option<SpanContext>), NetError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(NetError::Truncated);
    }
    let (span_len, payload_len) = parse_header(&bytes[..HEADER_LEN])?;
    let expected_total = (HEADER_LEN as u64 + span_len as u64)
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(TRAILER_LEN as u64));
    if expected_total != Some(bytes.len() as u64) {
        return Err(NetError::Truncated);
    }
    let body_end = bytes.len() - TRAILER_LEN;
    let stored_crc = u32::from_le_bytes(bytes[body_end..].try_into().expect("sized slice"));
    if kairos_store::crc32(&bytes[..body_end]) != stored_crc {
        return Err(NetError::ChecksumMismatch);
    }
    let span =
        (span_len > 0).then(|| parse_span_section(&bytes[HEADER_LEN..HEADER_LEN + span_len]));
    let payload_start = HEADER_LEN + span_len;
    serde::from_bytes(&bytes[payload_start..body_end])
        .map(|value| (value, span))
        .map_err(NetError::Decode)
}

/// Write one frame to a blocking stream.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> Result<(), NetError> {
    w.write_all(frame)?;
    w.flush()?;
    Ok(())
}

/// Read one complete frame from a blocking stream: header first (fixed
/// 16 bytes → payload length), then the rest. Returns the whole frame,
/// checked for framing only, so callers can decode (or forward) it: the
/// CRC is checked once, where the frame is decoded ([`decode_frame`]), as
/// for a loopback frame. The length is sanity-capped *before* the payload
/// read, so a damaged prefix cannot make the reader allocate or block
/// unboundedly.
///
/// Frames carry `extra` trailer bytes *after* the CRC — the keyed-auth
/// tag (see [`crate::auth`]), or none without a key. The CRC covers
/// exactly the header + payload; the extra trailer is read but left for
/// the auth layer to verify, so framing stays recoverable from the byte
/// stream whether or not a key is configured.
pub fn read_frame_with_trailer(r: &mut impl Read, extra: usize) -> Result<Vec<u8>, NetError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let (span_len, payload_len) = parse_header(&header)?;
    let rest = span_len + payload_len as usize + TRAILER_LEN + extra;
    let mut frame = vec![0u8; HEADER_LEN + rest];
    frame[..HEADER_LEN].copy_from_slice(&header);
    r.read_exact(&mut frame[HEADER_LEN..])?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_reader_leaves_the_crc_to_decode() {
        let mut frame = encode_frame(&(String::from("tenant"), 7u64));
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        let mut stream: &[u8] = &frame;
        let read = read_frame_with_trailer(&mut stream, 0).expect("still a frame");
        assert_eq!(read, frame);
        assert!(matches!(
            decode_frame::<(String, u64)>(&read),
            Err(NetError::ChecksumMismatch)
        ));
    }

    #[test]
    fn roundtrip_through_a_stream() {
        let frame = encode_frame(&(String::from("tenant"), 7u64));
        let mut stream: &[u8] = &frame;
        let read = read_frame_with_trailer(&mut stream, 0).expect("valid frame reads");
        assert_eq!(read, frame);
        let back: (String, u64) = decode_frame(&read).expect("decodes");
        assert_eq!(back, (String::from("tenant"), 7));
    }

    #[test]
    fn oversized_length_prefix_rejected_before_reading() {
        let mut frame = encode_frame(&1u8);
        frame[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut stream: &[u8] = &frame;
        assert!(matches!(
            read_frame_with_trailer(&mut stream, 0),
            Err(NetError::Oversized(_))
        ));
        assert!(matches!(
            decode_frame::<u8>(&frame),
            Err(NetError::Oversized(_))
        ));
    }

    #[test]
    fn span_section_roundtrips_and_stays_inside_the_crc() {
        let ctx = SpanContext {
            trace_id: 0xDEAD_BEEF_0000_0001,
            span_id: 0xDEAD_BEEF_0000_0002,
            origin: 7,
            tick: 42,
        };
        let frame = encode_frame_with_span(&(String::from("tenant"), 9u64), Some(ctx));
        // Streams the extra 28 bytes transparently.
        let mut stream: &[u8] = &frame;
        let read = read_frame_with_trailer(&mut stream, 0).expect("span frame reads");
        assert_eq!(read, frame);
        let (back, span): ((String, u64), _) =
            decode_frame_with_span(&read).expect("decodes with span");
        assert_eq!(back, (String::from("tenant"), 9));
        assert_eq!(span, Some(ctx));
        // decode_frame tolerates and drops the section.
        let plain: (String, u64) = decode_frame(&frame).expect("decodes without span");
        assert_eq!(plain, back);
        // A flipped bit inside the span section fails the CRC.
        let mut damaged = frame.clone();
        damaged[20] ^= 0x01;
        assert!(matches!(
            decode_frame_with_span::<(String, u64)>(&damaged),
            Err(NetError::ChecksumMismatch)
        ));
    }

    #[test]
    fn spanless_frames_are_byte_identical_to_the_pre_span_format() {
        let value = (String::from("tenant"), 7u64);
        let frame = encode_frame_with_span(&value, None);
        assert_eq!(frame, encode_frame(&value));
        // Reconstruct the pre-span layout by hand: the bytes must match
        // exactly — absent flag ⇒ the old wire format, bit for bit.
        let payload = serde::to_bytes(&value);
        let mut expected = Vec::new();
        expected.extend_from_slice(&NET_MAGIC);
        expected.extend_from_slice(&RPC_WIRE_VERSION.to_le_bytes());
        expected.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        expected.extend_from_slice(&payload);
        let crc = kairos_store::crc32(&expected);
        expected.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(frame, expected);
        let (_, span) = decode_frame_with_span::<(String, u64)>(&frame).expect("decodes");
        assert!(span.is_none());
    }

    #[test]
    fn store_snapshot_magic_is_rejected() {
        // A snapshot file fed to the RPC decoder must fail on magic, not
        // misdecode.
        let snap = kairos_store::encode_frame(1, &42u64);
        assert!(matches!(
            decode_frame::<u64>(&snap),
            Err(NetError::BadMagic)
        ));
    }
}
