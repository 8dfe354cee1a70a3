//! Compact binary trace encoding: LEB128 varints, delta-encoded
//! timestamps, and the versioned trace-file container.
//!
//! # Format (version 3, the only one)
//!
//! ```text
//! magic            8 bytes  b"DRILLTRC"
//! version          u16 LE   3
//! num_switches     varint
//! engines          varint   (forwarding engines per switch)
//! ring_count       varint
//! ring*:
//!   kind           u8       0 = switch ring, 1 = host ring,
//!                           2 = control ring (fault timeline)
//!   switch         varint   (switch rings only)
//!   overwritten    varint   (events lost to ring wraparound)
//!   event_count    varint
//!   event*:
//!     tag          u8       (see `tags`)
//!     dt           varint   (ns since the previous event in this ring;
//!                            the first event's dt is absolute)
//!     fields       varints  (per-tag; see the encode/decode pairs)
//! ```
//!
//! All multi-byte integers are LEB128 varints, so the common case (small
//! ports, small queue depths, sub-microsecond deltas) costs 1–2 bytes per
//! field. Timestamps are delta-encoded per ring: rings are in chronological
//! order by construction, so deltas stay small.

use std::io::{self, Read, Write};

use drill_sim::Time;

use crate::probe::{DropReason, EngineChoice, PacketMeta};
use crate::record::{EventRing, FlightRecorder, RingKind, TraceEvent};

/// File magic.
pub const TRACE_MAGIC: [u8; 8] = *b"DRILLTRC";

/// The trace-format version, the only one [`read_trace`] accepts (v3:
/// one ring per switch).
pub const TRACE_VERSION: u16 = 3;

mod tags {
    pub const HOST_SEND: u8 = 1;
    pub const HOST_RECV: u8 = 2;
    pub const ENGINE_CHOICE: u8 = 3;
    pub const ENQUEUE: u8 = 4;
    pub const DEQUEUE: u8 = 5;
    pub const DROP: u8 = 6;
    pub const NIC_DROP: u8 = 7;
    pub const FAULT: u8 = 8;
}

use drill_sim::codec::{invalid, put_varint, Decoder};

fn put_meta(buf: &mut Vec<u8>, m: &PacketMeta) {
    put_varint(buf, m.id);
    put_varint(buf, m.flow as u64);
    put_varint(buf, m.src as u64);
    put_varint(buf, m.dst as u64);
    put_varint(buf, m.size as u64);
    put_varint(buf, m.seq);
    put_varint(buf, m.emit_idx as u64);
    buf.push(m.flags);
}

fn get_meta(d: &mut Decoder<'_>) -> io::Result<PacketMeta> {
    Ok(PacketMeta {
        id: d.varint()?,
        flow: d.varint_u32()?,
        src: d.varint_u32()?,
        dst: d.varint_u32()?,
        size: d.varint_u32()?,
        seq: d.varint()?,
        emit_idx: d.varint_u32()?,
        flags: d.u8()?,
    })
}

/// Encode one event (tag + dt + fields) onto `buf`. `prev` is the previous
/// event's timestamp in the same ring (delta base).
fn put_event(buf: &mut Vec<u8>, prev: Time, ev: &TraceEvent) {
    let t = ev.time();
    debug_assert!(t >= prev, "ring events must be chronological");
    let dt = (t - prev).as_nanos();
    match ev {
        TraceEvent::HostSend { host, pkt, .. } => {
            buf.push(tags::HOST_SEND);
            put_varint(buf, dt);
            put_varint(buf, *host as u64);
            put_meta(buf, pkt);
        }
        TraceEvent::HostRecv { host, pkt, .. } => {
            buf.push(tags::HOST_RECV);
            put_varint(buf, dt);
            put_varint(buf, *host as u64);
            put_meta(buf, pkt);
        }
        TraceEvent::EngineChoice {
            switch,
            engine,
            choice,
            ..
        } => {
            buf.push(tags::ENGINE_CHOICE);
            put_varint(buf, dt);
            put_varint(buf, *switch as u64);
            put_varint(buf, *engine as u64);
            put_varint(buf, choice.chosen as u64);
            put_varint(buf, choice.chosen_pkts as u64);
            put_varint(buf, choice.best as u64);
            put_varint(buf, choice.best_pkts as u64);
            put_varint(buf, choice.candidates as u64);
        }
        TraceEvent::Enqueue {
            switch,
            port,
            engine,
            pkt_id,
            size,
            depth_pkts,
            depth_bytes,
            ..
        } => {
            buf.push(tags::ENQUEUE);
            put_varint(buf, dt);
            put_varint(buf, *switch as u64);
            put_varint(buf, *port as u64);
            put_varint(buf, *engine as u64);
            put_varint(buf, *pkt_id);
            put_varint(buf, *size as u64);
            put_varint(buf, *depth_pkts as u64);
            put_varint(buf, *depth_bytes);
        }
        TraceEvent::Dequeue {
            switch,
            port,
            pkt_id,
            depth_pkts,
            wait_ns,
            ..
        } => {
            buf.push(tags::DEQUEUE);
            put_varint(buf, dt);
            put_varint(buf, *switch as u64);
            put_varint(buf, *port as u64);
            put_varint(buf, *pkt_id);
            put_varint(buf, *depth_pkts as u64);
            put_varint(buf, *wait_ns);
        }
        TraceEvent::Drop {
            switch,
            port,
            engine,
            pkt_id,
            reason,
            ..
        } => {
            buf.push(tags::DROP);
            put_varint(buf, dt);
            put_varint(buf, *switch as u64);
            put_varint(buf, *port as u64);
            put_varint(buf, *engine as u64);
            put_varint(buf, *pkt_id);
            buf.push(reason.code());
        }
        TraceEvent::NicDrop { host, pkt_id, .. } => {
            buf.push(tags::NIC_DROP);
            put_varint(buf, dt);
            put_varint(buf, *host as u64);
            put_varint(buf, *pkt_id);
        }
        TraceEvent::Fault {
            kind, a, b, param, ..
        } => {
            buf.push(tags::FAULT);
            put_varint(buf, dt);
            buf.push(*kind);
            put_varint(buf, *a as u64);
            put_varint(buf, *b as u64);
            put_varint(buf, *param);
        }
    }
}

/// Decode one event. `prev` is the previous event's timestamp in the ring.
fn get_event(d: &mut Decoder<'_>, prev: Time) -> io::Result<TraceEvent> {
    let tag = d.u8()?;
    // A hostile delta can push the running timestamp past u64; fail with a
    // typed error instead of the debug-build add panic.
    let t = prev
        .checked_add(Time::from_nanos(d.varint()?))
        .ok_or_else(|| invalid("timestamp delta overflows"))?;
    Ok(match tag {
        tags::HOST_SEND => TraceEvent::HostSend {
            t,
            host: d.varint_u32()?,
            pkt: get_meta(d)?,
        },
        tags::HOST_RECV => TraceEvent::HostRecv {
            t,
            host: d.varint_u32()?,
            pkt: get_meta(d)?,
        },
        tags::ENGINE_CHOICE => TraceEvent::EngineChoice {
            t,
            switch: d.varint_u32()?,
            engine: d.varint_u16()?,
            choice: EngineChoice {
                chosen: d.varint_u16()?,
                chosen_pkts: d.varint_u32()?,
                best: d.varint_u16()?,
                best_pkts: d.varint_u32()?,
                candidates: d.varint_u16()?,
            },
        },
        tags::ENQUEUE => TraceEvent::Enqueue {
            t,
            switch: d.varint_u32()?,
            port: d.varint_u16()?,
            engine: d.varint_u16()?,
            pkt_id: d.varint()?,
            size: d.varint_u32()?,
            depth_pkts: d.varint_u32()?,
            depth_bytes: d.varint()?,
        },
        tags::DEQUEUE => TraceEvent::Dequeue {
            t,
            switch: d.varint_u32()?,
            port: d.varint_u16()?,
            pkt_id: d.varint()?,
            depth_pkts: d.varint_u32()?,
            wait_ns: d.varint()?,
        },
        tags::DROP => TraceEvent::Drop {
            t,
            switch: d.varint_u32()?,
            port: d.varint_u16()?,
            engine: d.varint_u16()?,
            pkt_id: d.varint()?,
            reason: DropReason::from_code(d.u8()?).ok_or_else(|| invalid("unknown drop reason"))?,
        },
        tags::NIC_DROP => TraceEvent::NicDrop {
            t,
            host: d.varint_u32()?,
            pkt_id: d.varint()?,
        },
        tags::FAULT => TraceEvent::Fault {
            t,
            kind: d.u8()?,
            a: d.varint_u32()?,
            b: d.varint_u32()?,
            param: d.varint()?,
        },
        _ => return Err(invalid("unknown event tag")),
    })
}

/// Serialize a recorder's rings as a current-version trace file.
pub fn write_trace<W: Write>(rec: &FlightRecorder, w: &mut W) -> io::Result<()> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&TRACE_MAGIC);
    buf.extend_from_slice(&TRACE_VERSION.to_le_bytes());
    put_varint(&mut buf, rec.num_switches() as u64);
    put_varint(&mut buf, rec.engines() as u64);
    put_varint(&mut buf, rec.ring_count() as u64);
    for idx in 0..rec.ring_count() {
        let (kind, ring) = rec.ring_at(idx);
        match kind {
            RingKind::Switch { switch } => {
                buf.push(0);
                put_varint(&mut buf, switch as u64);
            }
            RingKind::Host => buf.push(1),
            RingKind::Control => buf.push(2),
        }
        put_varint(&mut buf, ring.overwritten());
        put_varint(&mut buf, ring.len() as u64);
        let mut prev = Time::ZERO;
        for ev in ring.iter() {
            put_event(&mut buf, prev, ev);
            prev = ev.time();
        }
    }
    w.write_all(&buf)
}

/// Read and decode a trace file into the recorder that wrote it. The
/// rings must sit in the writer's layout — switch rings by switch id,
/// then the host ring, then the control ring — or the file is refused.
pub fn read_trace<R: Read>(r: &mut R) -> io::Result<FlightRecorder> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    let mut d = Decoder::new(&buf);
    if d.bytes(TRACE_MAGIC.len())? != TRACE_MAGIC {
        return Err(invalid("not a DRILL trace (bad magic)"));
    }
    let version = u16::from_le_bytes([d.u8()?, d.u8()?]);
    if version != TRACE_VERSION {
        return Err(invalid("unsupported trace version"));
    }
    let num_switches = d.varint_u32()? as usize;
    let engines = d.varint_u16()?;
    if engines == 0 {
        return Err(invalid("trace has no engines"));
    }
    let ring_count = d.varint()? as usize;
    // Cap the pre-allocation: a hostile header must not reserve memory the
    // payload cannot actually contain (each ring costs >= 3 bytes).
    let mut rings = Vec::with_capacity(ring_count.min(1 << 16));
    for idx in 0..ring_count {
        let kind = match d.u8()? {
            0 => RingKind::Switch {
                switch: d.varint_u32()?,
            },
            1 => RingKind::Host,
            2 => RingKind::Control,
            _ => return Err(invalid("unknown ring kind")),
        };
        if Some(kind) != FlightRecorder::kind_at(num_switches, idx) {
            return Err(invalid("trace rings out of the recorder's layout"));
        }
        let overwritten = d.varint()?;
        let count = d.varint()? as usize;
        let mut events = Vec::with_capacity(count.min(1 << 20));
        let mut prev = Time::ZERO;
        for _ in 0..count {
            let ev = get_event(&mut d, prev)?;
            prev = ev.time();
            events.push(ev);
        }
        rings.push(EventRing::decoded(events, overwritten));
    }
    if ring_count.checked_sub(2) != Some(num_switches) {
        return Err(invalid("trace rings out of the recorder's layout"));
    }
    if d.remaining() != 0 {
        return Err(invalid("trailing bytes after trace"));
    }
    Ok(FlightRecorder::from_rings(engines as usize, rings))
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
            u64::MAX,
        ];
        for &v in &cases {
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
    fn truncated_varint_errors() {
        let mut d = Decoder::new(&[0x80]);
        assert!(d.varint().is_err());
    }

    #[test]
    fn overlong_varint_errors() {
        // 11 continuation bytes exceed u64's 10-byte maximum.
        let bytes = [0xff; 11];
        let mut d = Decoder::new(&bytes);
        assert!(d.varint().is_err());
    }

    #[test]
    fn every_event_kind_round_trips() {
        let meta = PacketMeta {
            id: 42,
            flow: 7,
            src: 1,
            dst: 2,
            size: 1500,
            seq: 1442,
            emit_idx: 3,
            flags: 0b101,
        };
        let events = vec![
            TraceEvent::HostSend {
                t: Time::from_nanos(10),
                host: 1,
                pkt: meta,
            },
            TraceEvent::EngineChoice {
                t: Time::from_nanos(20),
                switch: 3,
                engine: 1,
                choice: EngineChoice {
                    chosen: 2,
                    chosen_pkts: 5,
                    best: 0,
                    best_pkts: 4,
                    candidates: 4,
                },
            },
            TraceEvent::Enqueue {
                t: Time::from_nanos(20),
                switch: 3,
                port: 2,
                engine: 1,
                pkt_id: 42,
                size: 1500,
                depth_pkts: 6,
                depth_bytes: 9000,
            },
            TraceEvent::Dequeue {
                t: Time::from_nanos(1220),
                switch: 3,
                port: 2,
                pkt_id: 42,
                depth_pkts: 5,
                wait_ns: 1200,
            },
            TraceEvent::Drop {
                t: Time::from_nanos(1300),
                switch: 3,
                port: 2,
                engine: 0,
                pkt_id: 43,
                reason: DropReason::TailDrop,
            },
            TraceEvent::HostRecv {
                t: Time::from_nanos(2000),
                host: 2,
                pkt: meta,
            },
            TraceEvent::NicDrop {
                t: Time::from_nanos(2100),
                host: 1,
                pkt_id: 44,
            },
            TraceEvent::Fault {
                t: Time::from_nanos(2200),
                kind: crate::fault_kind::DEGRADE,
                a: 3,
                b: u32::MAX,
                param: (1 << 32) | 4,
            },
        ];
        let mut buf = Vec::new();
        let mut prev = Time::ZERO;
        for ev in &events {
            put_event(&mut buf, prev, ev);
            prev = ev.time();
        }
        let mut d = Decoder::new(&buf);
        let mut prev = Time::ZERO;
        for ev in &events {
            let got = get_event(&mut d, prev).unwrap();
            assert_eq!(&got, ev);
            prev = got.time();
        }
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn unknown_tag_errors() {
        let mut d = Decoder::new(&[99, 0]);
        assert!(get_event(&mut d, Time::ZERO).is_err());
    }

    #[test]
    fn hostile_timestamp_delta_errors_instead_of_panicking() {
        // NIC_DROP with dt = u64::MAX on a nonzero prev: the running
        // timestamp would overflow.
        let mut buf = vec![tags::NIC_DROP];
        put_varint(&mut buf, u64::MAX);
        put_varint(&mut buf, 0); // host
        put_varint(&mut buf, 0); // pkt_id
        let mut d = Decoder::new(&buf);
        let err = get_event(&mut d, Time::from_nanos(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn hostile_ring_count_does_not_reserve_unbounded_memory() {
        // A tiny file whose header claims u64::MAX rings must fail with a
        // decode error, not abort on allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(&TRACE_MAGIC);
        buf.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        put_varint(&mut buf, 1); // num_switches
        put_varint(&mut buf, 1); // engines
        put_varint(&mut buf, u64::MAX); // ring_count
        let err = read_trace(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    fn sample_recorder() -> FlightRecorder {
        use crate::probe::{FaultInfo, Probe};
        let mut rec = FlightRecorder::new(2, 2, 64);
        let m = PacketMeta {
            id: 9,
            flow: 1,
            src: 0,
            dst: 3,
            size: 1500,
            seq: 0,
            emit_idx: 0,
            flags: 1,
        };
        rec.on_host_send(Time::from_nanos(5), 0, &m);
        rec.on_enqueue(Time::from_nanos(10), 1, 0, 1, &m, 1, 1500);
        rec.on_dequeue(Time::from_nanos(1210), 1, 0, 9, 0, 1200);
        rec.on_drop(Time::from_nanos(1300), 0, 2, 0, &m, DropReason::LinkLoss);
        rec.on_host_recv(Time::from_nanos(2000), 3, &m);
        rec.on_fault(
            Time::from_nanos(2500),
            &FaultInfo {
                kind: crate::fault_kind::RECONVERGE,
                a: u32::MAX,
                b: u32::MAX,
                param: 1,
            },
        );
        rec
    }

    /// Deterministic corruption sweep standing in for a fuzzer: every
    /// truncation point and a seeded sample of single-byte mutations of a
    /// round-tripped trace must decode to `Ok` or a typed `io::Error` —
    /// never panic.
    #[test]
    fn corrupted_and_truncated_traces_never_panic() {
        let rec = sample_recorder();
        let mut good = Vec::new();
        write_trace(&rec, &mut good).unwrap();
        assert!(read_trace(&mut &good[..]).is_ok());

        // Every prefix truncation.
        for cut in 0..good.len() {
            let _ = read_trace(&mut &good[..cut]);
        }

        // Single-byte mutations: every position, a spread of values.
        let mut rng = drill_sim::SimRng::seed_from(0xC0DEC);
        for pos in 0..good.len() {
            for _ in 0..8 {
                let mut bad = good.clone();
                bad[pos] = bad[pos].wrapping_add(1 + rng.below(255) as u8);
                let _ = read_trace(&mut &bad[..]);
            }
        }

        // Random multi-byte garbage after the magic.
        for _ in 0..64 {
            let mut bad = good.clone();
            for _ in 0..4 {
                let pos = rng.below(bad.len());
                bad[pos] = rng.below(256) as u8;
            }
            let _ = read_trace(&mut &bad[..]);
        }
    }

    /// A decoded trace is the recorder that wrote it, so its rings must
    /// sit where that recorder keeps them: a header claiming one switch
    /// more or fewer than the file has rings for is refused.
    #[test]
    fn rings_out_of_the_recorder_layout_are_refused() {
        let mut buf = Vec::new();
        write_trace(&sample_recorder(), &mut buf).unwrap();
        let rec = read_trace(&mut &buf[..]).unwrap();
        assert_eq!((rec.num_switches(), rec.ring_count()), (2, 4));
        // num_switches is the one-byte varint right after the version.
        for switches in [1, 3] {
            buf[10] = switches;
            let err = read_trace(&mut &buf[..]).unwrap_err();
            assert!(err.to_string().contains("layout"), "{switches}: {err}");
        }
    }

    #[test]
    fn other_versions_are_rejected() {
        let mut buf = Vec::new();
        write_trace(&sample_recorder(), &mut buf).unwrap();
        for v in [1, 2, TRACE_VERSION + 1] {
            buf[8..10].copy_from_slice(&v.to_le_bytes());
            assert!(read_trace(&mut &buf[..]).is_err(), "version {v}");
        }
    }
}
