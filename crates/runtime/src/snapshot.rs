//! `DRILLSNAP`: the versioned binary container for full simulator-state
//! snapshots.
//!
//! A snapshot is a header followed by tagged *sections* and a trailing
//! checksum:
//!
//! ```text
//! +-----------+---------+-------+----------------------+----------+
//! | "DRILLSNAP" | version | flags | sections...          | FNV-1a64 |
//! |  9 bytes    | u16 LE  |  u8   | (tag u8, len, bytes) | u64 LE   |
//! +-----------+---------+-------+----------------------+----------+
//! ```
//!
//! Section payloads are opaque to this module — the world fills them with
//! the event queue, arena, switches, flows, RNG streams and statistics,
//! each layer its own sections. Tags a reader does not know are
//! skippable by construction (length-prefixed), so old readers survive new
//! writers within a version.
//!
//! Decoding goes through the hardened primitives of `drill_sim::codec`:
//! wrong magic, unsupported version, a corrupted byte anywhere
//! (checksum), truncation mid-section, and hostile length prefixes all
//! surface as `io::Error` — never a panic or an over-allocation.

use std::fs;
use std::io;
use std::path::Path;

use drill_sim::codec::{invalid, put_varint, truncated, Decoder};

/// File magic, 9 bytes.
pub const SNAP_MAGIC: [u8; 9] = *b"DRILLSNAP";

/// The container version, the only one this reader accepts. Each bump
/// changed a section layout that older readers cannot decode (DESIGN.md
/// §13 lists them); version 6 writes each pending event in `EVENTS` in
/// the event queue's own stored form.
pub const SNAP_VERSION: u16 = 6;

/// Cap on any single decoded pre-allocation: a hostile length prefix may
/// claim terabytes; real sections grow incrementally past this.
const PREALLOC_CAP: usize = 1 << 16;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A decoded (or under-construction) snapshot: an ordered list of tagged
/// sections.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Snapshot {
    sections: Vec<(u8, Vec<u8>)>,
}

impl Snapshot {
    /// The payload of the first section with `tag`, if present.
    pub fn section(&self, tag: u8) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, b)| b.as_slice())
    }

    /// Total payload bytes across sections (excluding framing).
    pub fn payload_bytes(&self) -> usize {
        self.sections.iter().map(|(_, b)| b.len()).sum()
    }

    /// Serialize to the `DRILLSNAP` wire form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32 + self.payload_bytes());
        buf.extend_from_slice(&SNAP_MAGIC);
        buf.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        buf.push(0); // flags: none defined
        for (tag, body) in &self.sections {
            buf.push(*tag);
            put_varint(&mut buf, body.len() as u64);
            buf.extend_from_slice(body);
        }
        let sum = fnv1a64(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Parse and validate a `DRILLSNAP` byte stream.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Snapshot> {
        // Header (9 + 2 + 1) plus the 8-byte trailing checksum.
        if bytes.len() < 20 {
            return Err(truncated());
        }
        if bytes[..9] != SNAP_MAGIC {
            return Err(invalid("not a DRILLSNAP file"));
        }
        let version = u16::from_le_bytes([bytes[9], bytes[10]]);
        if version != SNAP_VERSION {
            return Err(invalid("unsupported DRILLSNAP version"));
        }
        let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let expect = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
        if fnv1a64(body) != expect {
            return Err(invalid("DRILLSNAP checksum mismatch"));
        }
        let flags = bytes[11];
        if flags != 0 {
            return Err(invalid("unknown DRILLSNAP flags"));
        }
        let mut d = Decoder::new(&body[12..]);
        let mut sections = Vec::new();
        while d.remaining() > 0 {
            let tag = d.u8()?;
            let len = d.varint_usize()?;
            let body = d.bytes(len)?.to_vec();
            if sections.len() >= PREALLOC_CAP {
                return Err(invalid("too many sections"));
            }
            sections.push((tag, body));
        }
        Ok(Snapshot { sections })
    }

    /// Write the snapshot to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_bytes())
    }

    /// Read and validate a snapshot file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Snapshot> {
        Snapshot::from_bytes(&fs::read(path)?)
    }
}

/// Incremental snapshot writer: push sections in order, then
/// [`finish`](SnapshotBuilder::finish).
#[derive(Debug, Default)]
pub struct SnapshotBuilder {
    snap: Snapshot,
}

impl SnapshotBuilder {
    /// Start an empty snapshot.
    pub fn new() -> SnapshotBuilder {
        SnapshotBuilder::default()
    }

    /// Append a section.
    pub fn section(&mut self, tag: u8, body: Vec<u8>) -> &mut SnapshotBuilder {
        self.snap.sections.push((tag, body));
        self
    }

    /// Finish building.
    pub fn finish(self) -> Snapshot {
        self.snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut b = SnapshotBuilder::new();
        b.section(1, vec![1, 2, 3]);
        b.section(7, Vec::new());
        b.section(2, (0..200u8).collect());
        b.finish()
    }

    #[test]
    fn round_trips() {
        let s = sample();
        let bytes = s.to_bytes();
        let t = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(s, t);
        assert_eq!(t.section(1), Some(&[1u8, 2, 3][..]));
        assert_eq!(t.section(7), Some(&[][..]));
        assert_eq!(t.section(9), None);
        assert_eq!(t.payload_bytes(), 203);
    }

    /// Recompute the trailing checksum after editing header bytes, so the
    /// header check under test (not the checksum) is what trips.
    fn reseal(bytes: &mut [u8]) {
        let end = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..end]);
        bytes[end..].copy_from_slice(&sum.to_le_bytes());
    }

    fn with_flags(bits: u8) -> Vec<u8> {
        let mut bytes = sample().to_bytes();
        bytes[11] |= bits;
        reseal(&mut bytes);
        bytes
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(Snapshot::from_bytes(&bytes).is_err());
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[9..11].copy_from_slice(&(SNAP_VERSION + 1).to_le_bytes());
        reseal(&mut bytes);
        let err = Snapshot::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn older_versions_rejected() {
        // Each older version wrote a section layout this reader cannot
        // decode (DESIGN.md §13).
        for version in 1..SNAP_VERSION {
            let mut bytes = sample().to_bytes();
            bytes[9..11].copy_from_slice(&version.to_le_bytes());
            reseal(&mut bytes);
            let err = Snapshot::from_bytes(&bytes).unwrap_err();
            assert!(
                err.to_string().contains("unsupported DRILLSNAP version"),
                "v{version}: {err}"
            );
        }
    }

    #[test]
    fn unknown_flags_rejected() {
        // Bit 0 once marked a retired packet layout; it is refused like
        // any other bit.
        for bits in [0x01, 0x80] {
            let err = Snapshot::from_bytes(&with_flags(bits)).unwrap_err();
            assert!(
                err.to_string().contains("unknown DRILLSNAP flags"),
                "{bits:#x}: {err}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut c = bytes.clone();
                c[i] ^= 1 << bit;
                assert!(
                    Snapshot::from_bytes(&c).is_err(),
                    "flip at byte {i} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample().to_bytes();
        for n in 0..bytes.len() {
            assert!(
                Snapshot::from_bytes(&bytes[..n]).is_err(),
                "truncation to {n} bytes went undetected"
            );
        }
    }

    #[test]
    fn hostile_section_length_is_bounded() {
        // A section claiming a huge length must error, not allocate.
        let mut buf = Vec::new();
        buf.extend_from_slice(&SNAP_MAGIC);
        buf.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        buf.push(0);
        buf.push(1); // tag
        put_varint(&mut buf, u64::MAX >> 1);
        let sum = fnv1a64(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        assert!(Snapshot::from_bytes(&buf).is_err());
    }

    #[test]
    fn save_load_file() {
        let dir = std::env::temp_dir().join("drillsnap-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.snap");
        let s = sample();
        s.save(&path).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap(), s);
        fs::remove_file(&path).ok();
    }
}
