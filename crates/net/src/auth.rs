//! Optional shared-secret frame authentication.
//!
//! The CRC trailer catches *accidents*; it does nothing against a peer
//! that can reach the port and speak the frame layout — ROADMAP calls
//! this gap out ("any peer that can reach a port can drive a shard").
//! This module closes it with a keyed-hash trailer: when a shared
//! secret is configured, every outbound frame is **sealed** with an
//! 8-byte SipHash-2-4 tag appended *after* the CRC, and every inbound
//! frame is **verified** before any payload decoding. A frame that
//! fails verification is rejected with [`NetError::AuthRejected`],
//! counted in `kairos_net_auth_failures_total`, and causes zero state
//! change on the receiver — exactly the discipline the CRC layer
//! already enforces for damage, extended to forgery.
//!
//! ## Sealed frame layout
//!
//! ```text
//! offset    size  field
//! 0         16    KNET header (magic, version, payload length)
//! 16        n     payload
//! 16+n      4     CRC-32 over [0, 16+n)            — the base frame
//! 16+n+4    8     SipHash-2-4 tag over [0, 16+n+4) — only when keyed
//! ```
//!
//! The tag covers the *whole* CRC'd frame, so an attacker cannot splice
//! a valid tag onto altered bytes, and an unkeyed deployment's frames
//! are byte-identical to before this module existed (the trailer is
//! strictly additive). Both sides must agree on the key: it is read
//! once per process from the `KAIROS_NET_KEY` environment variable
//! (see [`process_key`]), mirroring how a fleet-wide secret would be
//! provisioned to every node of a deployment.
//!
//! SipHash-2-4 is implemented by hand in `kairos-store`, next to the
//! CRC (the workspace takes no external crates) — it is the standard
//! keyed short-input PRF, the same primitive `std`'s hasher uses, and
//! the reference test vectors there pin the implementation. Tag
//! comparison is constant-time (fold the XOR of every byte, single
//! branch at the end), so verify latency leaks nothing about *where* a
//! forged tag first differs.

use crate::transport::NetError;
use kairos_store::siphash24;
use std::sync::OnceLock;

/// Length of the keyed tag appended after the CRC when a key is set.
pub const AUTH_TAG_LEN: usize = 8;

/// Environment variable the process-wide shared secret is read from.
pub const KEY_ENV: &str = "KAIROS_NET_KEY";

/// A derived SipHash-2-4 key. Built from an arbitrary-length secret via
/// [`AuthKey::from_secret`]; the two 64-bit halves are the secret
/// absorbed through the PRF itself under distinct fixed domain keys.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct AuthKey {
    k0: u64,
    k1: u64,
}

impl std::fmt::Debug for AuthKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material, even in debug logs.
        write!(f, "AuthKey(..)")
    }
}

impl AuthKey {
    /// Derive a key from an arbitrary shared secret.
    pub fn from_secret(secret: &[u8]) -> AuthKey {
        AuthKey {
            k0: siphash24(0x6b61_6972_6f73_2d30, 0x6e65_742d_6175_7468, secret),
            k1: siphash24(0x6b61_6972_6f73_2d31, 0x6672_616d_652d_6b65, secret),
        }
    }

    /// The 8-byte tag for `bytes` (LE encoding of the SipHash output).
    pub fn tag(&self, bytes: &[u8]) -> [u8; AUTH_TAG_LEN] {
        siphash24(self.k0, self.k1, bytes).to_le_bytes()
    }

    /// Append the tag: `frame` must be a complete CRC'd KNET frame.
    pub fn seal(&self, mut frame: Vec<u8>) -> Vec<u8> {
        let tag = self.tag(&frame);
        frame.extend_from_slice(&tag);
        frame
    }

    /// Check the trailing tag (constant-time) and return the base frame
    /// with the tag stripped. `None` on any mismatch or short input —
    /// deliberately reason-free, so verify latency and the rejection
    /// path leak nothing about *why* a frame failed.
    pub fn check<'a>(&self, sealed: &'a [u8]) -> Option<&'a [u8]> {
        if sealed.len() < AUTH_TAG_LEN {
            return None;
        }
        let (body, tag) = sealed.split_at(sealed.len() - AUTH_TAG_LEN);
        if ct_eq(tag, &self.tag(body)) {
            Some(body)
        } else {
            None
        }
    }
}

/// Seal `frame` under `key`; a `None` key is the unkeyed deployment and
/// passes the frame through untouched.
pub fn seal(frame: Vec<u8>, key: Option<&AuthKey>) -> Vec<u8> {
    match key {
        Some(key) => key.seal(frame),
        None => frame,
    }
}

/// Verify an inbound frame under `key` and return the base frame (tag
/// stripped). A `None` key passes the bytes through. Failure bumps
/// `kairos_net_auth_failures_total` and rejects with
/// [`NetError::AuthRejected`] — before any payload decoding, so the
/// receiver's state cannot change.
pub fn verify<'a>(frame: &'a [u8], key: Option<&AuthKey>) -> Result<&'a [u8], NetError> {
    match key {
        None => Ok(frame),
        Some(key) => key.check(frame).ok_or_else(|| {
            auth_failures().inc();
            NetError::AuthRejected
        }),
    }
}

/// The process-wide key, read once from [`KEY_ENV`]. `None` when the
/// variable is unset or empty — the unkeyed (backward-compatible)
/// deployment shape.
pub fn process_key() -> Option<&'static AuthKey> {
    static KEY: OnceLock<Option<AuthKey>> = OnceLock::new();
    KEY.get_or_init(|| {
        std::env::var(KEY_ENV)
            .ok()
            .filter(|secret| !secret.is_empty())
            .map(|secret| AuthKey::from_secret(secret.as_bytes()))
    })
    .as_ref()
}

/// Extra trailer bytes a stream reader must consume per frame under the
/// process key: [`AUTH_TAG_LEN`] when keyed, 0 otherwise.
pub fn wire_trailer_len() -> usize {
    if process_key().is_some() {
        AUTH_TAG_LEN
    } else {
        0
    }
}

/// The process-global rejected-frame counter
/// (`kairos_net_auth_failures_total` on [`kairos_obs::global`]).
pub fn auth_failures() -> &'static kairos_obs::Counter {
    static FAILURES: OnceLock<kairos_obs::Counter> = OnceLock::new();
    FAILURES.get_or_init(|| kairos_obs::global().counter("kairos_net_auth_failures_total"))
}

/// Constant-time byte-slice equality: OR-fold the XOR of every pair,
/// one branch at the end.
fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame;

    #[test]
    fn seal_then_verify_roundtrips_and_strips_the_tag() {
        let key = AuthKey::from_secret(b"fleet-secret");
        let base = frame::encode_frame(&(String::from("tenant"), 9u64));
        let sealed = key.seal(base.clone());
        assert_eq!(sealed.len(), base.len() + AUTH_TAG_LEN);
        let stripped = verify(&sealed, Some(&key)).expect("authentic frame verifies");
        assert_eq!(stripped, &base[..]);
    }

    #[test]
    fn every_single_bit_flip_in_a_sealed_frame_is_rejected() {
        // The CRC property test's discipline, extended to the keyed
        // trailer: damage anywhere — header, payload, CRC, or the tag
        // itself — must fail verification.
        let key = AuthKey::from_secret(b"fleet-secret");
        let sealed = key.seal(frame::encode_frame(&(String::from("x"), 3u32)));
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut damaged = sealed.clone();
                damaged[byte] ^= 1 << bit;
                assert!(
                    key.check(&damaged).is_none(),
                    "flip at byte {byte} bit {bit} accepted"
                );
            }
        }
    }

    #[test]
    fn wrong_key_and_unkeyed_frames_are_rejected() {
        let key = AuthKey::from_secret(b"fleet-secret");
        let other = AuthKey::from_secret(b"not-the-secret");
        let base = frame::encode_frame(&7u64);
        let sealed = key.seal(base.clone());
        assert!(other.check(&sealed).is_none(), "wrong key accepted");
        // An unkeyed peer's bare frame fails a keyed receiver: its last
        // 8 bytes are payload+CRC, not a tag.
        assert!(
            matches!(verify(&base, Some(&key)), Err(NetError::AuthRejected)),
            "bare frame accepted by keyed receiver"
        );
        // And the unkeyed deployment passes everything through.
        assert_eq!(verify(&base, None).expect("unkeyed passthrough"), &base[..]);
    }

    #[test]
    fn rejections_count_in_the_global_metric() {
        let key = AuthKey::from_secret(b"fleet-secret");
        let before = auth_failures().get();
        let _ = verify(b"too-short", Some(&key));
        let mut sealed = key.seal(frame::encode_frame(&1u8));
        let end = sealed.len() - 1;
        sealed[end] ^= 0xff;
        let _ = verify(&sealed, Some(&key));
        assert_eq!(auth_failures().get(), before + 2);
    }
}
