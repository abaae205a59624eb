//! # kairos-store — durable snapshots for the control plane
//!
//! The fleet's planning horizon lives in rolling in-memory telemetry
//! (`kairos_traces::WindowRing`); a controller crash used to erase it and force
//! conservative flat-envelope replanning. This crate is the persistence
//! contract between the monitoring and management layers: a small,
//! versioned, checksummed binary *frame* around the workspace codec
//! (`shims/serde`), plus atomic file save/load.
//!
//! ## Frame layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"KSNP"
//! 4       4     format version (u32 LE, per snapshot kind)
//! 8       8     payload length (u64 LE)
//! 16      n     payload (shims/serde wire format)
//! 16+n    4     CRC-32 (IEEE, u32 LE) over bytes [0, 16+n)
//! ```
//!
//! ## Guarantees
//!
//! * **Atomicity** — [`save`] writes `<path>.tmp`, fsyncs, then renames
//!   over `<path>`: a crash mid-checkpoint leaves the previous complete
//!   snapshot (or nothing), never a torn file at the final path.
//! * **Corruption rejection** — [`load`]/[`decode_frame`] verify magic,
//!   version, length and CRC before any payload decoding, and the codec
//!   itself bounds-checks every read: truncated or bit-flipped snapshots
//!   yield a clean [`StoreError`], never a panic or a silent partial
//!   restore.
//! * **Versioning** — each snapshot kind carries its own format version;
//!   a mismatch is an explicit [`StoreError::UnsupportedVersion`], the
//!   hook for future migration logic.

use serde::{Deserialize, Serialize};
use std::fs;
use std::io::Write;
use std::path::Path;

/// File magic for every kairos snapshot frame.
pub const MAGIC: [u8; 4] = *b"KSNP";

/// Frame header length (magic + version + payload length).
const HEADER_LEN: usize = 16;

/// CRC trailer length.
const TRAILER_LEN: usize = 4;

/// Why a snapshot could not be written or read back.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure (open/write/rename/read).
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a kairos snapshot.
    BadMagic,
    /// Snapshot was written by an incompatible format version.
    UnsupportedVersion { found: u32, expected: u32 },
    /// Shorter than a complete frame, or payload length disagrees with
    /// the file size — a torn or truncated write.
    Truncated,
    /// CRC trailer does not match the frame contents — bit rot or a
    /// partial overwrite.
    ChecksumMismatch,
    /// The payload failed to decode despite a valid checksum (wrong
    /// snapshot kind, or an encoder/decoder bug).
    Corrupt(serde::Error),
    /// The decoded snapshot is internally inconsistent (e.g. a routing
    /// entry referencing a shard that is not in the snapshot).
    Inconsistent(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            StoreError::BadMagic => write!(f, "not a kairos snapshot (bad magic)"),
            StoreError::UnsupportedVersion { found, expected } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (expected {expected})"
                )
            }
            StoreError::Truncated => write!(f, "snapshot truncated or torn"),
            StoreError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            StoreError::Corrupt(e) => write!(f, "snapshot payload corrupt: {e}"),
            StoreError::Inconsistent(why) => write!(f, "snapshot inconsistent: {why}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<serde::Error> for StoreError {
    fn from(e: serde::Error) -> StoreError {
        StoreError::Corrupt(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) slicing-by-8
/// tables, built at compile time. `CRC_TABLES[0]` is the classic bytewise
/// table; `CRC_TABLES[k][b]` is the CRC register after byte `b` followed
/// by `k` zero bytes, so eight table lookups advance the CRC by eight
/// input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`, eight bytes per step (slicing-by-8) with a
/// bytewise tail. Same polynomial and output as the one-lookup-per-byte
/// loop, which the tests keep as the reference.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes(chunk[..4].try_into().expect("8-byte chunk"));
        let hi = u32::from_le_bytes(chunk[4..].try_into().expect("8-byte chunk"));
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

/// SipHash-2-4 (Aumasson & Bernstein), the reference construction:
/// 2 compression rounds per 8-byte block, 4 finalization rounds. The
/// one implementation in the workspace: `kairos-net` keys frame tags
/// with it, and a balancer summary's content digest
/// (`ShardSummary::digest`) is it under a fixed key.
pub fn siphash24(k0: u64, k1: u64, data: &[u8]) -> u64 {
    let mut v = [
        k0 ^ 0x736f_6d65_7073_6575,
        k1 ^ 0x646f_7261_6e64_6f6d,
        k0 ^ 0x6c79_6765_6e65_7261,
        k1 ^ 0x7465_6462_7974_6573,
    ];
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().expect("sized chunk"));
        v[3] ^= m;
        sipround(&mut v);
        sipround(&mut v);
        v[0] ^= m;
    }
    let rem = chunks.remainder();
    let mut last = [0u8; 8];
    last[..rem.len()].copy_from_slice(rem);
    last[7] = (data.len() & 0xff) as u8;
    let m = u64::from_le_bytes(last);
    v[3] ^= m;
    sipround(&mut v);
    sipround(&mut v);
    v[0] ^= m;
    v[2] ^= 0xff;
    for _ in 0..4 {
        sipround(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

/// Encode `value` into a complete frame (header + payload + CRC trailer).
pub fn encode_frame<T: Serialize + ?Sized>(version: u32, value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&[0; 8]); // payload length, patched in below
    value.encode_to(&mut out);
    let payload_len = (out.len() - HEADER_LEN) as u64;
    out[8..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Validate a frame (magic, version, length, CRC) and decode its payload.
pub fn decode_frame<T: Deserialize>(bytes: &[u8], expected_version: u32) -> Result<T, StoreError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(StoreError::Truncated);
    }
    if bytes[..4] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("sized slice"));
    if version != expected_version {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            expected: expected_version,
        });
    }
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().expect("sized slice"));
    let expected_total = (HEADER_LEN as u64)
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(TRAILER_LEN as u64));
    if expected_total != Some(bytes.len() as u64) {
        return Err(StoreError::Truncated);
    }
    let body_end = bytes.len() - TRAILER_LEN;
    let stored_crc = u32::from_le_bytes(bytes[body_end..].try_into().expect("sized slice"));
    if crc32(&bytes[..body_end]) != stored_crc {
        return Err(StoreError::ChecksumMismatch);
    }
    Ok(serde::from_bytes(&bytes[HEADER_LEN..body_end])?)
}

/// Atomically write `value` as a framed snapshot at `path`:
/// temp-file-then-rename, with an fsync in between, so the final path
/// only ever holds a complete frame.
pub fn save<T: Serialize + ?Sized>(path: &Path, version: u32, value: &T) -> Result<(), StoreError> {
    let frame = encode_frame(version, value);
    let tmp = tmp_path(path);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&frame)?;
        f.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    // Durability of the rename itself: fsync the parent directory so the
    // new directory entry survives a power loss. Without this, a crash
    // shortly after `save` returns can roll the path back to the
    // *previous* checkpoint even though the caller was told this one
    // persisted.
    #[cfg(unix)]
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Load and validate a framed snapshot from `path`. Partial, truncated
/// or bit-flipped files are rejected with a [`StoreError`]; the decode
/// itself never panics.
pub fn load<T: Deserialize>(path: &Path, expected_version: u32) -> Result<T, StoreError> {
    let bytes = fs::read(path)?;
    decode_frame(&bytes, expected_version)
}

fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference SipHash-2-4 vectors from the SipHash paper (Appendix A):
    /// key = 00 01 .. 0f, input = the first `i` bytes of 00 01 02 …
    #[test]
    fn siphash24_matches_reference_vectors() {
        let k0 = 0x0706_0504_0302_0100u64;
        let k1 = 0x0f0e_0d0c_0b0a_0908u64;
        let input: Vec<u8> = (0u8..8).collect();
        let expected: [u64; 9] = [
            0x726f_db47_dd0e_0e31,
            0x74f8_39c5_93dc_67fd,
            0x0d6c_8009_d9a9_4f5a,
            0x8567_6696_d7fb_7e2d,
            0xcf27_94e0_2771_87b7,
            0x1876_5564_cd99_a68d,
            0xcbc9_466e_58fe_e3ce,
            0xab02_00f5_8b01_d137,
            0x93f5_f579_9a93_2462,
        ];
        for (len, want) in expected.iter().enumerate() {
            assert_eq!(
                siphash24(k0, k1, &input[..len]),
                *want,
                "vector {len} mismatch"
            );
        }
    }

    /// The one-lookup-per-byte CRC the slicing-by-8 loop replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF43926);
        // Every length 0..=1024 at every start offset 0..8 (so every
        // alignment and every tail length), against the bytewise loop.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..1024 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=1024 {
                let bytes = &data[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn frame_roundtrip() {
        let value = (String::from("tenant"), vec![1.5f64, -2.25], 42u64);
        let frame = encode_frame(3, &value);
        let back: (String, Vec<f64>, u64) = decode_frame(&frame, 3).expect("valid frame");
        assert_eq!(back, value);
    }

    #[test]
    fn version_mismatch_rejected() {
        let frame = encode_frame(2, &7u64);
        match decode_frame::<u64>(&frame, 3) {
            Err(StoreError::UnsupportedVersion {
                found: 2,
                expected: 3,
            }) => {}
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = encode_frame(1, &7u64);
        frame[0] = b'X';
        assert!(matches!(
            decode_frame::<u64>(&frame, 1),
            Err(StoreError::BadMagic)
        ));
    }

    #[test]
    fn every_truncation_point_rejected() {
        let frame = encode_frame(1, &vec![3u64, 1, 4, 1, 5]);
        for cut in 0..frame.len() {
            let r = decode_frame::<Vec<u64>>(&frame[..cut], 1);
            assert!(r.is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn every_single_bit_flip_rejected() {
        let frame = encode_frame(1, &(String::from("abc"), 9u32));
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                let r = decode_frame::<(String, u32)>(&bad, 1);
                assert!(r.is_err(), "bit flip at {byte}:{bit} must fail");
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut frame = encode_frame(1, &1u8);
        frame.push(0);
        assert!(matches!(
            decode_frame::<u8>(&frame, 1),
            Err(StoreError::Truncated)
        ));
    }

    #[test]
    fn save_then_load_roundtrips_and_leaves_no_temp() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("kairos-store-test-{}.ksnp", std::process::id()));
        let value = vec![(String::from("a"), 1u64), (String::from("b"), 2u64)];
        save(&path, 5, &value).expect("save");
        assert!(!tmp_path(&path).exists(), "temp file must be renamed away");
        let back: Vec<(String, u64)> = load(&path, 5).expect("load");
        assert_eq!(back, value);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn save_overwrites_atomically() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "kairos-store-overwrite-{}.ksnp",
            std::process::id()
        ));
        save(&path, 1, &1u64).expect("first save");
        save(&path, 1, &2u64).expect("second save");
        let back: u64 = load(&path, 1).expect("load");
        assert_eq!(back, 2);
        let _ = std::fs::remove_file(&path);
    }
}
