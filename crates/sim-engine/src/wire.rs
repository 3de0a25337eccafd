//! A zero-dependency binary wire format for snapshots and action traces.
//!
//! Snapshots (`MSNP`) and action traces (`MTRC`) both need a compact,
//! versioned, byte-exact serialization without pulling in serde. This
//! module is the whole vocabulary those formats (and the campaign
//! stream, `MCMP`) are written in: a [`WireEncoder`] that appends fields
//! to a buffer, and a [`WireDecoder`] that reads them back with
//! positioned errors and never allocates from a length it has not
//! bounded by the input.
//!
//! Layout rules:
//!
//! * All integers are little-endian and fixed-width; `usize` travels as
//!   `u64`. The one exception is a [`uvarint`](WireEncoder::uvarint),
//!   which the dense `MTRC` records use: canonical unsigned LEB128, seven
//!   bits a byte, low group first, at most ten bytes, and never a
//!   redundant trailing zero group, so each value has one spelling.
//! * `f64` travels as its IEEE-754 bit pattern, so round-trips are exact
//!   (including `-0.0`, infinities, and NaN payloads).
//! * [`SimTime`] and [`SimDuration`] travel as `u64` nanoseconds, a
//!   [`SimRng`] as its four `u64` state words (all-zero is refused).
//! * Strings and byte slices are length-prefixed (`u64` count, then raw
//!   bytes).
//! * A sequence is a `u64` element count followed by the elements. The
//!   decoder refuses a count the remaining input cannot hold (`count ×
//!   minimum element bytes > bytes remaining`) at the prefix's offset,
//!   before it allocates.
//! * An option is a strict `bool` (`0`/`1`) followed, when `1`, by the
//!   value.
//! * A choice is a `u8` tag followed by the fields of that variant; an
//!   unknown tag is an error at the tag's offset.
//! * A file begins with a 4-byte magic and a `u32` format version via
//!   [`WireEncoder::with_magic`] / [`WireDecoder::expect_magic`].
//!
//! # Examples
//!
//! ```
//! use manet_sim_engine::{WireDecoder, WireEncoder};
//!
//! let mut enc = WireEncoder::with_magic(b"MSNP", 1);
//! enc.u32(7);
//! enc.str("hello");
//! let bytes = enc.into_bytes();
//!
//! let mut dec = WireDecoder::new(&bytes);
//! assert_eq!(dec.expect_magic(b"MSNP").unwrap(), 1);
//! assert_eq!(dec.u32().unwrap(), 7);
//! assert_eq!(dec.str().unwrap(), "hello");
//! assert!(dec.finish().is_ok());
//! ```

use std::fmt;

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A decoding failure, carrying the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset in the input at which decoding failed.
    pub at: usize,
    /// What the decoder was trying to read.
    pub what: &'static str,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for WireError {}

/// Appends fixed-width little-endian fields to a growable buffer.
#[derive(Debug, Clone, Default)]
pub struct WireEncoder {
    buf: Vec<u8>,
}

impl WireEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        WireEncoder::default()
    }

    /// Creates an encoder whose buffer starts with a 4-byte magic and a
    /// `u32` format version.
    pub fn with_magic(magic: &[u8; 4], version: u32) -> Self {
        let mut enc = WireEncoder::new();
        enc.buf.extend_from_slice(magic);
        enc.u32(version);
        enc
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends `value` as canonical unsigned LEB128: seven bits a byte,
    /// low group first, the high bit set on every byte but the last (one
    /// byte below 128, ten at most).
    #[inline]
    pub fn uvarint(&mut self, mut value: u64) {
        while value >= 0x80 {
            self.buf.push(value as u8 | 0x80);
            value >>= 7;
        }
        self.buf.push(value as u8);
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, value: usize) {
        self.u64(value as u64);
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    /// Appends a `bool` as one byte (`0` or `1`).
    pub fn bool(&mut self, value: bool) {
        self.u8(u8::from(value));
    }

    /// Appends a length-prefixed byte slice, growing the buffer to a power
    /// of two as pushes do: an odd-sized slice (a config header's text)
    /// would set the base of every later doubling of a checkpoint.
    pub fn bytes(&mut self, value: &[u8]) {
        self.usize(value.len());
        self.buf
            .reserve((self.buf.len() + value.len()).next_power_of_two() - self.buf.len());
        self.buf.extend_from_slice(value);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, value: &str) {
        self.bytes(value.as_bytes());
    }

    /// Appends a bare element count, for a sequence whose length the
    /// reader already knows and only checks; [`seq`](Self::seq) writes
    /// every other sequence.
    pub fn len(&mut self, count: usize) {
        self.usize(count);
    }

    /// Appends an instant as `u64` nanoseconds.
    pub fn time(&mut self, value: SimTime) {
        self.u64(value.as_nanos());
    }

    /// Appends a duration as `u64` nanoseconds.
    pub fn duration(&mut self, value: SimDuration) {
        self.u64(value.as_nanos());
    }

    /// Appends a generator's stream position (four `u64` words).
    pub fn rng(&mut self, value: &SimRng) {
        for word in value.state() {
            self.u64(word);
        }
    }

    /// Appends an option: a `bool`, then the value when present.
    pub fn option<T>(&mut self, value: Option<T>, put: impl FnOnce(&mut Self, T)) {
        self.bool(value.is_some());
        if let Some(value) = value {
            put(self, value);
        }
    }

    /// Appends a sequence: a `u64` element count, then each element.
    pub fn seq<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut put: impl FnMut(&mut Self, T),
    ) {
        let prefix = self.buf.len();
        self.u64(0);
        let mut count = 0u64;
        for item in items {
            put(self, item);
            count += 1;
        }
        self.buf[prefix..prefix + 8].copy_from_slice(&count.to_le_bytes());
    }

    /// The encoded bytes so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Empties the buffer so the allocation can be reused.
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

/// Reads fields written by [`WireEncoder`] back out of a byte slice.
#[derive(Debug, Clone)]
pub struct WireDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireDecoder<'a> {
    /// Creates a decoder over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        WireDecoder { buf: bytes, pos: 0 }
    }

    /// Current byte offset (for error reporting and framing checks).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed: what bounds a count before its elements
    /// are read.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// `true` when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    #[inline]
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(WireError { at: self.pos, what }),
        }
    }

    /// Verifies the 4-byte magic and returns the `u32` format version.
    pub fn expect_magic(&mut self, magic: &[u8; 4]) -> Result<u32, WireError> {
        let at = self.pos;
        let found = self.take(4, "magic")?;
        if found != magic {
            return Err(WireError {
                at,
                what: "magic mismatch",
            });
        }
        self.u32()
    }

    /// Consumes `expected`, which the input must continue with; anything
    /// else is refused as `what` where `expected` would start.
    pub fn expect_bytes(&mut self, expected: &[u8], what: &'static str) -> Result<(), WireError> {
        let at = self.pos;
        match self.take(expected.len(), what) {
            Ok(found) if found == expected => Ok(()),
            _ => Err(WireError { at, what }),
        }
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let bytes = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let bytes = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Reads a [`WireEncoder::uvarint`], refusing at its first byte one
    /// with a redundant trailing zero group (`0x80 0x00` for zero), and
    /// one longer than ten bytes or past `u64::MAX`: each value has one
    /// spelling.
    #[inline]
    pub fn uvarint(&mut self) -> Result<u64, WireError> {
        let at = self.pos;
        let mut value = 0;
        let mut shift = 0;
        loop {
            let byte = self.u8()?;
            let group = u64::from(byte & 0x7f);
            if shift == 63 && byte > 1 {
                let what = "varint longer than ten bytes or past u64";
                return Err(WireError { at, what });
            }
            value |= group << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    let what = "non-canonical varint (a trailing zero group)";
                    return Err(WireError { at, what });
                }
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Reads a `usize` (stored as `u64`), rejecting values that do not fit.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        let at = self.pos;
        usize::try_from(self.u64()?).map_err(|_| WireError {
            at,
            what: "usize overflow",
        })
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`, rejecting bytes other than `0` and `1`.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        let at = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError {
                at,
                what: "invalid bool",
            }),
        }
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.usize()?;
        self.take(n, "bytes payload")
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let at = self.pos;
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError {
            at,
            what: "invalid utf-8",
        })
    }

    /// Reads a bare element count to check against a length the caller
    /// already knows. It is **not** bounded by the input: never allocate
    /// from it — [`seq`](Self::seq) reads every other sequence.
    pub fn len(&mut self) -> Result<usize, WireError> {
        self.usize()
    }

    /// Reads an instant.
    pub fn time(&mut self) -> Result<SimTime, WireError> {
        self.u64().map(SimTime::from_nanos)
    }

    /// Reads a duration.
    pub fn duration(&mut self) -> Result<SimDuration, WireError> {
        self.u64().map(SimDuration::from_nanos)
    }

    /// Reads a generator's stream position, rejecting the all-zero state
    /// (the generator's fixed point, which no seeding produces).
    pub fn rng(&mut self) -> Result<SimRng, WireError> {
        let at = self.pos;
        let state = [self.u64()?, self.u64()?, self.u64()?, self.u64()?];
        if state == [0; 4] {
            return Err(WireError {
                at,
                what: "all-zero RNG state",
            });
        }
        Ok(SimRng::from_state(state))
    }

    /// Reads an option written by [`WireEncoder::option`].
    pub fn option<T>(
        &mut self,
        get: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        self.bool()?.then(|| get(self)).transpose()
    }

    /// Reads a choice tag. Also returns the error to give back when the
    /// tag names no variant: `what`, positioned at the tag.
    pub fn tag(&mut self, what: &'static str) -> Result<(u8, WireError), WireError> {
        let at = self.pos;
        Ok((self.u8()?, WireError { at, what }))
    }

    /// Reads a sequence written by [`WireEncoder::seq`], each element
    /// occupying at least `min_bytes` (≥ 1) of input. A count the
    /// remaining input cannot hold is refused at the prefix's offset, so
    /// the allocation for the elements is bounded by the input's size.
    pub fn seq<T>(
        &mut self,
        min_bytes: usize,
        get: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let mut items = Vec::new();
        self.seq_into(min_bytes, &mut items, get)?;
        Ok(items)
    }

    /// [`seq`](Self::seq) into a buffer the caller reuses: `items` is
    /// cleared, then grown to exactly the count if it is too small, and
    /// returned filled.
    pub fn seq_into<'v, T>(
        &mut self,
        min_bytes: usize,
        items: &'v mut Vec<T>,
        mut get: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<&'v [T], WireError> {
        let at = self.pos;
        let count = self.len()?;
        if count > (self.buf.len() - self.pos) / min_bytes {
            return Err(WireError {
                at,
                what: "sequence longer than the remaining input",
            });
        }
        items.clear();
        items.reserve_exact(count);
        for _ in 0..count {
            let before = self.pos;
            items.push(get(self)?);
            debug_assert!(self.pos - before >= min_bytes, "min_bytes overstated");
        }
        Ok(items)
    }

    /// Asserts every input byte was consumed (catches framing drift).
    pub fn finish(&self) -> Result<(), WireError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(WireError {
                at: self.pos,
                what: "trailing bytes",
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut enc = WireEncoder::new();
        enc.u8(0xAB);
        enc.u32(0xDEAD_BEEF);
        enc.u64(u64::MAX - 3);
        enc.usize(12_345);
        enc.f64(-0.0);
        enc.f64(f64::INFINITY);
        enc.bool(true);
        enc.bool(false);
        enc.str("héllo");
        enc.bytes(&[1, 2, 3]);
        let bytes = enc.into_bytes();

        let mut dec = WireDecoder::new(&bytes);
        assert_eq!(dec.u8().unwrap(), 0xAB);
        assert_eq!(dec.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.u64().unwrap(), u64::MAX - 3);
        assert_eq!(dec.usize().unwrap(), 12_345);
        assert_eq!(dec.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(dec.f64().unwrap(), f64::INFINITY);
        assert!(dec.bool().unwrap());
        assert!(!dec.bool().unwrap());
        assert_eq!(dec.str().unwrap(), "héllo");
        assert_eq!(dec.bytes().unwrap(), &[1, 2, 3]);
        assert!(dec.finish().is_ok());
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let weird = f64::from_bits(0x7FF8_0000_0000_BEEF);
        let mut enc = WireEncoder::new();
        enc.f64(weird);
        let bytes = enc.into_bytes();
        let got = WireDecoder::new(&bytes).f64().unwrap();
        assert_eq!(got.to_bits(), weird.to_bits());
    }

    #[test]
    fn magic_and_version_frame_the_file() {
        let enc = WireEncoder::with_magic(b"MSNP", 3);
        let bytes = enc.into_bytes();
        let mut dec = WireDecoder::new(&bytes);
        assert_eq!(dec.expect_magic(b"MSNP").unwrap(), 3);
        assert!(dec.finish().is_ok());

        let mut wrong = WireDecoder::new(&bytes);
        let err = wrong.expect_magic(b"MTRC").unwrap_err();
        assert_eq!(err.what, "magic mismatch");
        assert_eq!(err.at, 0);
    }

    #[test]
    fn truncated_input_reports_position() {
        let mut enc = WireEncoder::new();
        enc.u32(9);
        let bytes = enc.into_bytes();
        let mut dec = WireDecoder::new(&bytes[..2]);
        let err = dec.u32().unwrap_err();
        assert_eq!(err.at, 0);
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let mut enc = WireEncoder::new();
        enc.u8(1);
        enc.u8(2);
        let bytes = enc.into_bytes();
        let mut dec = WireDecoder::new(&bytes);
        dec.u8().unwrap();
        let err = dec.finish().unwrap_err();
        assert_eq!(err.what, "trailing bytes");
        assert_eq!(err.at, 1);
    }

    #[test]
    fn invalid_bool_is_rejected() {
        let mut dec = WireDecoder::new(&[7]);
        assert_eq!(dec.bool().unwrap_err().what, "invalid bool");
    }

    #[test]
    fn clear_reuses_the_buffer() {
        let mut enc = WireEncoder::new();
        enc.u64(1);
        enc.clear();
        assert!(enc.as_slice().is_empty());
        enc.u8(5);
        assert_eq!(enc.as_slice(), &[5]);
    }

    #[test]
    fn vocabulary_round_trips() {
        let mut rng = SimRng::seed_from(9);
        rng.gen_range_u32(0..10);
        let mut enc = WireEncoder::new();
        enc.time(SimTime::from_millis(3));
        enc.duration(SimDuration::from_micros(7));
        enc.rng(&rng);
        enc.option(Some(5u32), WireEncoder::u32);
        enc.option(None, WireEncoder::u32);
        enc.seq([1u32, 2, 3], WireEncoder::u32);
        // An iterator of unknown length: the prefix is patched afterwards.
        enc.seq((0u32..10).filter(|n| n % 2 == 1), WireEncoder::u32);
        let bytes = enc.into_bytes();

        let mut dec = WireDecoder::new(&bytes);
        assert_eq!(dec.time().unwrap(), SimTime::from_millis(3));
        assert_eq!(dec.duration().unwrap(), SimDuration::from_micros(7));
        assert_eq!(dec.rng().unwrap().state(), rng.state());
        assert_eq!(dec.option(WireDecoder::u32).unwrap(), Some(5));
        assert_eq!(dec.option(WireDecoder::u32).unwrap(), None);
        assert_eq!(dec.seq(4, WireDecoder::u32).unwrap(), [1, 2, 3]);
        assert_eq!(dec.seq(4, WireDecoder::u32).unwrap(), [1, 3, 5, 7, 9]);
        assert!(dec.finish().is_ok());
    }

    #[test]
    fn varints_round_trip_in_their_one_spelling() {
        let values = [
            0,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        let lengths = [1, 1, 1, 2, 2, 2, 3, 5, 10];
        let mut enc = WireEncoder::new();
        for (value, len) in values.into_iter().zip(lengths) {
            let before = enc.as_slice().len();
            enc.uvarint(value);
            assert_eq!(enc.as_slice().len() - before, len, "{value}");
        }
        let bytes = enc.into_bytes();
        let mut dec = WireDecoder::new(&bytes);
        for value in values {
            assert_eq!(dec.uvarint(), Ok(value));
        }
        assert!(dec.finish().is_ok());
    }

    #[test]
    fn overlong_and_non_canonical_varints_are_refused_at_their_start() {
        let past = "varint longer than ten bytes or past u64";
        let padded = "non-canonical varint (a trailing zero group)";
        let max = [&[0xff; 9][..], &[0x01]].concat();
        for (bytes, what) in [
            (&[0x80, 0x00][..], padded),
            (&[0xff, 0x80, 0x00], padded),
            // u64::MAX + 1: the tenth byte may carry one bit only.
            (&[&[0x80; 9][..], &[0x02]].concat(), past),
            (&[0xff; 10], past),
            (&[&[0x80; 10][..], &[0x00]].concat(), past),
        ] {
            let input = [&[0xee][..], bytes].concat();
            let mut dec = WireDecoder::new(&input);
            dec.u8().unwrap();
            assert_eq!(dec.uvarint(), Err(WireError { at: 1, what }), "{bytes:x?}");
        }
        assert_eq!(WireDecoder::new(&max).uvarint(), Ok(u64::MAX));
        // A cut varint is a truncation at the missing byte.
        assert_eq!(WireDecoder::new(&[0x80, 0x80]).uvarint().unwrap_err().at, 2);
    }

    #[test]
    fn sequence_longer_than_the_input_fails_at_its_prefix() {
        let mut enc = WireEncoder::new();
        enc.u8(0xEE);
        enc.seq([1u32, 2, 3], WireEncoder::u32);
        let mut bytes = enc.into_bytes();
        // Four elements of four bytes cannot fit in the twelve that remain,
        // and neither can u64::MAX of them (no overflow on the way).
        for count in [4, u64::MAX >> 8, u64::MAX] {
            bytes[1..9].copy_from_slice(&count.to_le_bytes());
            let mut dec = WireDecoder::new(&bytes);
            dec.u8().unwrap();
            let err = dec.seq(4, WireDecoder::u32).unwrap_err();
            assert_eq!(err.at, 1, "{err}");
            assert_eq!(err.what, "sequence longer than the remaining input");
        }
        // The same count is fine for one-byte elements.
        bytes[1..9].copy_from_slice(&12u64.to_le_bytes());
        let mut dec = WireDecoder::new(&bytes);
        dec.u8().unwrap();
        assert_eq!(dec.seq(1, WireDecoder::u8).unwrap().len(), 12);
    }

    #[test]
    fn unknown_tag_and_zero_rng_state_are_positioned_errors() {
        let mut dec = WireDecoder::new(&[0, 9]);
        dec.u8().unwrap();
        let (tag, invalid) = dec.tag("invalid test tag").unwrap();
        assert_eq!((tag, invalid.at, invalid.what), (9, 1, "invalid test tag"));

        let zeros = [0u8; 33];
        let mut dec = WireDecoder::new(&zeros);
        dec.u8().unwrap();
        let err = dec.rng().unwrap_err();
        assert_eq!((err.at, err.what), (1, "all-zero RNG state"));
    }
}
