//! Shared binary-codec primitives: LEB128 varints and a hardened slice
//! decoder.
//!
//! The workspace's one binary format, the `DRILLSNAP` world snapshot
//! (`drill_runtime::snapshot`), encodes with these primitives and decodes
//! through [`Decoder`], so the corruption-hardening discipline (bounded
//! varints, explicit truncation errors, no panics on hostile bytes) lives
//! in one place.
//!
//! All multi-byte integers are LEB128 varints, so the common case (small
//! ports, small queue depths, short deltas) costs 1–2 bytes per field.
//! High-entropy 64-bit values (float bits, RNG words, hashes) go through
//! the fixed-width helpers instead: a varint would inflate them to 10
//! bytes. A bool is one byte (0 or 1, anything else refused), a [`Time`]
//! its nanoseconds as a varint, and an `Option<Time>` a presence bool
//! followed by the time when present.

use std::error::Error as StdError;
use std::fmt;
use std::io;

use crate::Time;

/// Why a decode failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecErrorKind {
    /// The input ended before the field completed. Maps to
    /// [`io::ErrorKind::UnexpectedEof`].
    Truncated,
    /// The bytes were present but malformed (overlong varint, width
    /// overflow, bad tag, checksum mismatch, …). Maps to
    /// [`io::ErrorKind::InvalidData`].
    Invalid(String),
}

/// A typed decode error: what went wrong, in which container section, at
/// which byte offset.
///
/// Every decode failure in the workspace — `DRILLSNAP` sections and the
/// per-layer records inside them — surfaces as one of these wrapped in an
/// `io::Error` (via [`From`]), so callers keep the familiar
/// `io::ErrorKind` semantics while diagnostics can recover the structure
/// with [`codec_error`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// The container section tag the decoder was labeled with
    /// ([`Decoder::in_section`]), when known.
    pub section: Option<u8>,
    /// Byte offset inside the decoded buffer where the failure surfaced,
    /// when the error came from a [`Decoder`] (free-function errors have
    /// no position).
    pub offset: Option<usize>,
    /// The failure itself.
    pub kind: CodecErrorKind,
}

impl CodecError {
    /// The `io::ErrorKind` this error maps to.
    pub fn io_kind(&self) -> io::ErrorKind {
        match self.kind {
            CodecErrorKind::Truncated => io::ErrorKind::UnexpectedEof,
            CodecErrorKind::Invalid(_) => io::ErrorKind::InvalidData,
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            CodecErrorKind::Truncated => write!(f, "truncated input")?,
            CodecErrorKind::Invalid(msg) => write!(f, "{msg}")?,
        }
        if let Some(tag) = self.section {
            write!(f, " (section {tag}")?;
            if let Some(off) = self.offset {
                write!(f, ", offset {off}")?;
            }
            write!(f, ")")?;
        } else if let Some(off) = self.offset {
            write!(f, " (offset {off})")?;
        }
        Ok(())
    }
}

impl StdError for CodecError {}

impl From<CodecError> for io::Error {
    fn from(e: CodecError) -> io::Error {
        io::Error::new(e.io_kind(), e)
    }
}

/// Recover the typed [`CodecError`] from an `io::Error` produced by this
/// module, if there is one.
pub fn codec_error(err: &io::Error) -> Option<&CodecError> {
    err.get_ref()?.downcast_ref()
}

/// Append `v` as a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Append `v` as 8 fixed little-endian bytes (for high-entropy words where
/// a varint would bloat: RNG state, hashes, float bits).
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its 8 raw IEEE-754 bits, little-endian. Bit-exact
/// round-trip (NaN payloads included), which the determinism contract
/// requires.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Append `v` as one byte, 0 or 1.
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

/// Append `t` as its nanoseconds, a varint.
pub fn put_time(buf: &mut Vec<u8>, t: Time) {
    put_varint(buf, t.as_nanos());
}

/// Append a presence bool, then the time if there is one.
pub fn put_opt_time(buf: &mut Vec<u8>, t: Option<Time>) {
    put_bool(buf, t.is_some());
    if let Some(t) = t {
        put_time(buf, t);
    }
}

/// A truncation error (`UnexpectedEof`) with no position (use a labeled
/// [`Decoder`] to get section + offset attribution).
pub fn truncated() -> io::Error {
    CodecError {
        section: None,
        offset: None,
        kind: CodecErrorKind::Truncated,
    }
    .into()
}

/// A malformed-data error (`InvalidData`) with no position (use a labeled
/// [`Decoder`] to get section + offset attribution).
pub fn invalid(msg: &str) -> io::Error {
    CodecError {
        section: None,
        offset: None,
        kind: CodecErrorKind::Invalid(msg.to_string()),
    }
    .into()
}

/// A slice decoder with a running position.
///
/// Every read is bounds-checked and returns `io::Error` instead of
/// panicking, so hostile input (truncated files, flipped bits) degrades
/// into a clean decode error.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    section: Option<u8>,
}

impl<'a> Decoder<'a> {
    /// Decode from `buf` starting at offset 0, with no section label.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder {
            buf,
            pos: 0,
            section: None,
        }
    }

    /// Decode from `buf` starting at offset 0, labeling every error this
    /// decoder produces with the container section tag `tag`.
    pub fn in_section(buf: &'a [u8], tag: u8) -> Decoder<'a> {
        Decoder {
            buf,
            pos: 0,
            section: Some(tag),
        }
    }

    /// The current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn truncated(&self) -> io::Error {
        CodecError {
            section: self.section,
            offset: Some(self.pos),
            kind: CodecErrorKind::Truncated,
        }
        .into()
    }

    fn invalid(&self, msg: &str) -> io::Error {
        CodecError {
            section: self.section,
            offset: Some(self.pos),
            kind: CodecErrorKind::Invalid(msg.to_string()),
        }
        .into()
    }

    /// Read one raw byte.
    pub fn u8(&mut self) -> io::Result<u8> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.truncated())?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a LEB128 varint.
    pub fn varint(&mut self) -> io::Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(self.invalid("varint overflows u64"));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read a varint that must fit `T`, refusing it as `what` otherwise.
    fn narrow<T: TryFrom<u64>>(&mut self, what: &str) -> io::Result<T> {
        let v = self.varint()?;
        T::try_from(v).map_err(|_| self.invalid(what))
    }

    /// Read a varint that must fit a `u32`.
    pub fn varint_u32(&mut self) -> io::Result<u32> {
        self.narrow("field exceeds u32")
    }

    /// Read a varint that must fit a `u16`.
    pub fn varint_u16(&mut self) -> io::Result<u16> {
        self.narrow("field exceeds u16")
    }

    /// Read a varint that must fit a `usize`.
    pub fn varint_usize(&mut self) -> io::Result<usize> {
        self.narrow("field exceeds usize")
    }

    /// Read 8 fixed little-endian bytes as a `u64`.
    pub fn u64_fixed(&mut self) -> io::Result<u64> {
        let end = self.pos.checked_add(8).ok_or_else(|| self.truncated())?;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| self.truncated())?;
        self.pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    /// Read 8 fixed little-endian bytes as raw IEEE-754 `f64` bits.
    pub fn f64_fixed(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64_fixed()?))
    }

    /// Read a bool written by [`put_bool`]; any byte but 0 or 1 is an
    /// error.
    pub fn bool(&mut self) -> io::Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.invalid("bad bool byte")),
        }
    }

    /// Read a time written by [`put_time`].
    pub fn time(&mut self) -> io::Result<Time> {
        Ok(Time::from_nanos(self.varint()?))
    }

    /// Read an optional time written by [`put_opt_time`].
    pub fn opt_time(&mut self) -> io::Result<Option<Time>> {
        Ok(if self.bool()? {
            Some(self.time()?)
        } else {
            None
        })
    }

    /// Read exactly `n` bytes.
    pub fn bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.truncated())?;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| self.truncated())?;
        self.pos = end;
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips() {
        let cases = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for v in cases {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut d = Decoder::new(&buf);
            assert_eq!(d.varint().unwrap(), v);
            assert_eq!(d.remaining(), 0);
        }
    }

    #[test]
    fn varint_is_compact() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 100);
        assert_eq!(buf.len(), 1);
        buf.clear();
        put_varint(&mut buf, 1_000);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn fixed_words_round_trip_bit_exact() {
        let mut buf = Vec::new();
        let words = [0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d];
        let floats = [0.0f64, -0.0, 1.5, f64::INFINITY, f64::NAN, -1e300];
        for w in words {
            put_u64(&mut buf, w);
        }
        for f in floats {
            put_f64(&mut buf, f);
        }
        let mut d = Decoder::new(&buf);
        for w in words {
            assert_eq!(d.u64_fixed().unwrap(), w);
        }
        for f in floats {
            assert_eq!(d.f64_fixed().unwrap().to_bits(), f.to_bits());
        }
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn truncated_reads_error_cleanly() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 42);
        let mut d = Decoder::new(&buf[..5]);
        assert_eq!(
            d.u64_fixed().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        let mut d = Decoder::new(&[0x80, 0x80]); // unterminated varint
        assert_eq!(d.varint().unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn overlong_varint_errors() {
        // 11 continuation bytes can't fit a u64.
        let buf = [0xff; 11];
        let mut d = Decoder::new(&buf);
        assert_eq!(d.varint().unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn narrow_varint_readers_enforce_width() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u32::MAX as u64 + 1);
        assert!(Decoder::new(&buf).varint_u32().is_err());
        let mut buf = Vec::new();
        put_varint(&mut buf, u16::MAX as u64 + 1);
        assert!(Decoder::new(&buf).varint_u16().is_err());
    }

    #[test]
    fn bools_and_times_round_trip() {
        let mut buf = Vec::new();
        put_bool(&mut buf, true);
        put_bool(&mut buf, false);
        put_time(&mut buf, Time::from_nanos(300));
        put_opt_time(&mut buf, None);
        put_opt_time(&mut buf, Some(Time::from_micros(7)));
        assert_eq!(buf, [1, 0, 0xac, 0x02, 0, 1, 0xd8, 0x36]);
        let mut d = Decoder::new(&buf);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.time().unwrap(), Time::from_nanos(300));
        assert_eq!(d.opt_time().unwrap(), None);
        assert_eq!(d.opt_time().unwrap(), Some(Time::from_micros(7)));
        assert_eq!(d.remaining(), 0);
        let err = Decoder::new(&[2]).bool().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bytes_reader_is_bounds_checked() {
        let buf = [1u8, 2, 3];
        let mut d = Decoder::new(&buf);
        assert_eq!(d.bytes(2).unwrap(), &[1, 2]);
        assert!(d.bytes(2).is_err());
        assert_eq!(d.bytes(1).unwrap(), &[3]);
    }

    #[test]
    fn decoder_errors_carry_section_and_offset() {
        let buf = [7u8, 8];
        let mut d = Decoder::in_section(&buf, 3);
        d.u8().unwrap();
        let err = d.u64_fixed().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let ce = codec_error(&err).expect("typed error recoverable");
        assert_eq!(ce.section, Some(3));
        assert_eq!(ce.offset, Some(1));
        assert_eq!(ce.kind, CodecErrorKind::Truncated);
        assert!(err.to_string().contains("section 3"));
        assert!(err.to_string().contains("offset 1"));
    }

    #[test]
    fn invalid_data_errors_are_typed_too() {
        let buf = [0xff; 11];
        let mut d = Decoder::in_section(&buf, 9);
        let err = d.varint().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let ce = codec_error(&err).unwrap();
        assert_eq!(ce.section, Some(9));
        assert!(matches!(ce.kind, CodecErrorKind::Invalid(_)));
        // Free-function errors are typed as well, just unpositioned.
        let ce = codec_error(&invalid("bad magic")).cloned().unwrap();
        assert_eq!(ce.section, None);
        assert_eq!(ce.offset, None);
        let ce = codec_error(&truncated()).cloned().unwrap();
        assert_eq!(ce.kind, CodecErrorKind::Truncated);
    }
}
