//! Offline stand-in for `serde` — now a real (if small) binary codec.
//!
//! The build environment has no access to crates.io, so this
//! workspace-local shim satisfies the `serde::Serialize` /
//! `serde::Deserialize` derive annotations scattered through the data
//! types. Until the checkpoint/restore work the traits were inert
//! markers; they now define the workspace's canonical wire format, which
//! `kairos-store` frames into versioned, checksummed snapshot files:
//!
//! * fixed-width little-endian integers (`u8`/`u16`/`u32`/`u64`; `usize`
//!   travels as `u64`),
//! * `f64` as its IEEE-754 bit pattern (bit-exact round-trips — restored
//!   telemetry must reproduce solver objectives to the last bit),
//! * `bool` and `Option` as one validated tag byte,
//! * sequences (`Vec`, `VecDeque`, `String`, maps) as a `u64` length
//!   followed by the elements,
//! * structs as their fields in declaration order, enums as a `u32`
//!   variant index plus the payload (see `serde_derive_shim`).
//!
//! Decoding never panics on malformed input: every length is bounds-
//! checked against the remaining input before allocation, UTF-8 and tag
//! bytes are validated, and errors surface as [`Error`]. Swapping in
//! real serde later means re-deriving against it and re-encoding
//! persisted state (the file format version in `kairos-store` gates
//! that migration).
//!
//! Sequences of fixed-width scalars (`Vec`/`VecDeque` of `f64` and the
//! fixed-width integers) take a bulk path: [`Serialize::encode_all`]
//! grows the buffer once and writes the run in one pass, and
//! [`Deserialize::decode_all`] takes the whole run with one
//! length-checked read and splits it with `chunks_exact`. The bytes are
//! exactly the per-element ones — a run of little-endian values back to
//! back is what the per-element loop wrote too — so the format, the
//! derive shim and every persisted frame are unchanged; only the
//! per-element call and growth check are gone.

pub use serde_derive_shim::{Deserialize, Serialize};

use std::collections::{BTreeMap, VecDeque};

/// Decode failure: what was being read and why it stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: &'static str,
}

impl Error {
    pub fn msg(msg: &'static str) -> Error {
        Error { msg }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Encode to the shim's little-endian wire format.
pub trait Serialize {
    fn encode_to(&self, out: &mut Vec<u8>);

    /// Encode `items` back to back — a sequence's elements, after its
    /// length prefix. Fixed-width scalars override this with a bulk pass
    /// that writes the same bytes.
    fn encode_all(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.encode_to(out);
        }
    }
}

/// Decode from the shim's wire format, consuming from the front of
/// `input`. Implementations must never panic on malformed bytes.
pub trait Deserialize: Sized {
    fn decode_from(input: &mut &[u8]) -> Result<Self, Error>;

    /// Decode `n` values encoded back to back — a sequence's elements,
    /// its length prefix already read. Fixed-width scalars override this
    /// with one length-checked read of the whole run, so a short input
    /// fails before anything is allocated.
    fn decode_all(n: usize, input: &mut &[u8]) -> Result<Vec<Self>, Error> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Self::decode_from(input)?);
        }
        Ok(out)
    }
}

/// Encode `value` into a fresh buffer.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode_to(&mut out);
    out
}

/// Decode one `T` from `bytes`, requiring every byte to be consumed.
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let mut input = bytes;
    let value = T::decode_from(&mut input)?;
    if !input.is_empty() {
        return Err(Error::msg("trailing bytes after value"));
    }
    Ok(value)
}

/// Take `n` bytes off the front of `input`, or fail on truncation.
fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], Error> {
    if input.len() < n {
        return Err(Error::msg("unexpected end of input"));
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

/// Read a `u64` length prefix. The follow-on data costs at least one
/// byte per element for every type in this workspace, so a length
/// exceeding the remaining input is rejected *before* any allocation.
fn decode_len(input: &mut &[u8]) -> Result<usize, Error> {
    let n = u64::decode_from(input)?;
    if n > input.len() as u64 {
        return Err(Error::msg("length prefix exceeds remaining input"));
    }
    Ok(n as usize)
}

/// The bulk encode of a fixed-width run: grow `out` once, then write
/// each value's `N` little-endian bytes into its own slot.
fn encode_fixed<T: Copy, const N: usize>(
    items: &[T],
    out: &mut Vec<u8>,
    to_le: impl Fn(T) -> [u8; N],
) {
    let start = out.len();
    out.resize(start + items.len() * N, 0);
    for (slot, &item) in out[start..].chunks_exact_mut(N).zip(items) {
        slot.copy_from_slice(&to_le(item));
    }
}

/// The bulk decode of a fixed-width run: one bounds-checked `take` of
/// all `n * N` bytes (before any allocation), then one exactly sized
/// collect over `chunks_exact`.
fn decode_fixed<T, const N: usize>(
    n: usize,
    input: &mut &[u8],
    from_le: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>, Error> {
    let len = n
        .checked_mul(N)
        .ok_or(Error::msg("length prefix exceeds remaining input"))?;
    let raw = take(input, len)?;
    Ok(raw
        .chunks_exact(N)
        .map(|chunk| from_le(chunk.try_into().expect("exact chunk")))
        .collect())
}

macro_rules! int_impl {
    ($t:ty, $n:expr) => {
        impl Serialize for $t {
            fn encode_to(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn encode_all(items: &[Self], out: &mut Vec<u8>) {
                encode_fixed(items, out, <$t>::to_le_bytes);
            }
        }
        impl Deserialize for $t {
            fn decode_from(input: &mut &[u8]) -> Result<Self, Error> {
                let raw = take(input, $n)?;
                Ok(<$t>::from_le_bytes(raw.try_into().expect("sized take")))
            }

            fn decode_all(n: usize, input: &mut &[u8]) -> Result<Vec<Self>, Error> {
                decode_fixed(n, input, <$t>::from_le_bytes)
            }
        }
    };
}

int_impl!(u8, 1);
int_impl!(u16, 2);
int_impl!(u32, 4);
int_impl!(u64, 8);
int_impl!(i32, 4);
int_impl!(i64, 8);

impl Serialize for usize {
    fn encode_to(&self, out: &mut Vec<u8>) {
        (*self as u64).encode_to(out);
    }
}

impl Deserialize for usize {
    fn decode_from(input: &mut &[u8]) -> Result<Self, Error> {
        let v = u64::decode_from(input)?;
        usize::try_from(v).map_err(|_| Error::msg("usize out of range for this platform"))
    }
}

impl Serialize for f64 {
    fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }

    fn encode_all(items: &[Self], out: &mut Vec<u8>) {
        encode_fixed(items, out, |v| v.to_bits().to_le_bytes());
    }
}

impl Deserialize for f64 {
    fn decode_from(input: &mut &[u8]) -> Result<Self, Error> {
        Ok(f64::from_bits(u64::decode_from(input)?))
    }

    fn decode_all(n: usize, input: &mut &[u8]) -> Result<Vec<Self>, Error> {
        decode_fixed(n, input, |raw| f64::from_bits(u64::from_le_bytes(raw)))
    }
}

impl Serialize for bool {
    fn encode_to(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl Deserialize for bool {
    fn decode_from(input: &mut &[u8]) -> Result<Self, Error> {
        match u8::decode_from(input)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(Error::msg("invalid bool tag")),
        }
    }
}

impl Serialize for String {
    fn encode_to(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode_to(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Deserialize for String {
    fn decode_from(input: &mut &[u8]) -> Result<Self, Error> {
        let n = decode_len(input)?;
        let raw = take(input, n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| Error::msg("invalid UTF-8 in string"))
    }
}

impl Serialize for str {
    fn encode_to(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode_to(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_to(out);
            }
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn decode_from(input: &mut &[u8]) -> Result<Self, Error> {
        match u8::decode_from(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(input)?)),
            _ => Err(Error::msg("invalid option tag")),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode_to(out);
        T::encode_all(self, out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn decode_from(input: &mut &[u8]) -> Result<Self, Error> {
        let n = decode_len(input)?;
        T::decode_all(n, input)
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode_to(out);
        let (front, back) = self.as_slices();
        T::encode_all(front, out);
        T::encode_all(back, out);
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn decode_from(input: &mut &[u8]) -> Result<Self, Error> {
        Ok(Vec::<T>::decode_from(input)?.into())
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode_to(out);
        for (k, v) in self {
            k.encode_to(out);
            v.encode_to(out);
        }
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn decode_from(input: &mut &[u8]) -> Result<Self, Error> {
        let n = decode_len(input)?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode_from(input)?;
            let v = V::decode_from(input)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.0.encode_to(out);
        self.1.encode_to(out);
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn decode_from(input: &mut &[u8]) -> Result<Self, Error> {
        Ok((A::decode_from(input)?, B::decode_from(input)?))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.0.encode_to(out);
        self.1.encode_to(out);
        self.2.encode_to(out);
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn decode_from(input: &mut &[u8]) -> Result<Self, Error> {
        Ok((
            A::decode_from(input)?,
            B::decode_from(input)?,
            C::decode_from(input)?,
        ))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize, D: Serialize> Serialize for (A, B, C, D) {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.0.encode_to(out);
        self.1.encode_to(out);
        self.2.encode_to(out);
        self.3.encode_to(out);
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize, D: Deserialize> Deserialize for (A, B, C, D) {
    fn decode_from(input: &mut &[u8]) -> Result<Self, Error> {
        Ok((
            A::decode_from(input)?,
            B::decode_from(input)?,
            C::decode_from(input)?,
            D::decode_from(input)?,
        ))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn encode_to(&self, out: &mut Vec<u8>) {
        (*self).encode_to(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        let back: T = from_bytes(&bytes).expect("roundtrip decodes");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(-7i64);
        roundtrip(true);
        roundtrip(std::f64::consts::PI);
        // NaN bit patterns survive exactly.
        let nan_bits = 0x7FF8_0000_0000_0001u64;
        let bytes = to_bytes(&f64::from_bits(nan_bits));
        let back: f64 = from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bits(), nan_bits);
    }

    /// The per-element encoding a bulk path must reproduce byte for byte.
    fn per_element<T: Serialize>(items: &[T]) -> Vec<u8> {
        let mut out = to_bytes(&(items.len() as u64));
        for item in items {
            item.encode_to(&mut out);
        }
        out
    }

    /// Round-trip a scalar vector, and check its bulk encode against the
    /// per-element one (and its `VecDeque` twin, which encodes both ring
    /// halves through the same path).
    fn roundtrip_bulk<T: Serialize + Deserialize + PartialEq + Clone + std::fmt::Debug>(v: Vec<T>) {
        assert_eq!(to_bytes(&v), per_element(&v));
        let mut ring: VecDeque<T> = v.iter().cloned().collect();
        if let Some(first) = ring.pop_front() {
            ring.push_back(first);
        }
        assert_eq!(to_bytes(&ring), per_element(&Vec::from(ring.clone())));
        roundtrip(ring);
        roundtrip(v);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(String::from("kairos"));
        roundtrip_bulk(vec![1.0f64, -2.5, f64::INFINITY, -0.0, f64::MIN_POSITIVE]);
        roundtrip_bulk(vec![0u64, 1, u64::MAX, 0x0102_0304_0506_0708]);
        roundtrip_bulk(vec![7u32, u32::MAX, 0]);
        roundtrip_bulk((0..=255u8).collect::<Vec<u8>>());
        roundtrip_bulk(vec![i64::MIN, -1, 0, i64::MAX]);
        roundtrip_bulk(Vec::<f64>::new());
        // NaN bit patterns inside a vector survive the bulk paths exactly.
        let nans = [
            0x7FF8_0000_0000_0001u64,
            0xFFF0_0000_0000_0002,
            0x7FF4_0000_DEAD_BEEF,
        ];
        let v: Vec<f64> = nans.iter().map(|&b| f64::from_bits(b)).collect();
        assert_eq!(to_bytes(&v), per_element(&v));
        let back: Vec<f64> = from_bytes(&to_bytes(&v)).unwrap();
        assert_eq!(back.iter().map(|f| f.to_bits()).collect::<Vec<_>>(), nans);
        roundtrip(Option::<u64>::None);
        roundtrip(Some(vec![String::from("a"), String::new()]));
        roundtrip(VecDeque::from(vec![1u32, 2, 3]));
        let mut m = BTreeMap::new();
        m.insert((String::from("w"), 0u32), 3usize);
        m.insert((String::from("w"), 1u32), 5usize);
        roundtrip(m);
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        fn every_cut_fails<T: Serialize + Deserialize>(v: Vec<T>) {
            let bytes = to_bytes(&v);
            for cut in 0..bytes.len() {
                let r: Result<Vec<T>, Error> = from_bytes(&bytes[..cut]);
                assert!(r.is_err(), "truncation at {cut} must fail");
            }
        }
        every_cut_fails(vec![1u64, 2, 3]);
        every_cut_fails(vec![1.5f64, f64::NAN, -3.0]);
        every_cut_fails(vec![1u32, 2, 3]);
        every_cut_fails(vec![1u8, 2, 3]);
        every_cut_fails(vec![-1i64, 2, -3]);
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocating() {
        fn rejected<T: Deserialize>(bytes: &[u8]) {
            assert!(from_bytes::<Vec<T>>(bytes).is_err());
        }
        // Claims u64::MAX elements with no data behind it.
        let bytes = to_bytes(&u64::MAX);
        rejected::<f64>(&bytes);
        rejected::<u64>(&bytes);
        rejected::<u32>(&bytes);
        rejected::<u8>(&bytes);
        rejected::<i64>(&bytes);
        // Claims as many elements as there are bytes left — past the
        // per-element length check, short of the bulk run's `n * width`.
        let bytes = to_bytes(&(3u64, 0u8, 0u8, 0u8));
        rejected::<f64>(&bytes);
        rejected::<u64>(&bytes);
        rejected::<u32>(&bytes);
        rejected::<i64>(&bytes);
    }

    #[test]
    fn invalid_tags_rejected() {
        assert!(from_bytes::<bool>(&[2]).is_err());
        assert!(from_bytes::<Option<u8>>(&[7, 0]).is_err());
        assert!(from_bytes::<String>(
            &to_bytes(&(1u64))
                .iter()
                .chain(&[0xFFu8])
                .copied()
                .collect::<Vec<u8>>()
        )
        .is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&1u32);
        bytes.push(0);
        assert!(from_bytes::<u32>(&bytes).is_err());
    }
}
