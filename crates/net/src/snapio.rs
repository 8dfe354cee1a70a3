//! Snapshot serialization of the network-layer value types.
//!
//! Encoding discipline follows `drill_sim::codec`: LEB128 varints for
//! small-magnitude fields, fixed 8-byte words for high-entropy ones
//! (`flow_hash` would cost 10 varint bytes), and decode paths that turn
//! hostile bytes into `io::Error` instead of panics. Container framing
//! (magic, version, checksum) lives in `drill_runtime::snapshot`; this module only
//! knows how to lay down one [`Packet`].

use std::io;

use drill_sim::codec::{invalid, put_u64, put_varint, Decoder};
use drill_sim::Time;

use crate::arena::PacketArena;
use crate::ids::{FlowId, HostId, SwitchId};
use crate::packet::{CongaTag, Packet};
use crate::NetEvent;

/// Append every field of `p`.
pub fn put_packet(buf: &mut Vec<u8>, p: &Packet) {
    put_varint(buf, p.id);
    put_varint(buf, p.flow.0 as u64);
    put_varint(buf, p.src.0 as u64);
    put_varint(buf, p.dst.0 as u64);
    put_u64(buf, p.flow_hash);
    put_varint(buf, p.size as u64);
    put_varint(buf, p.payload as u64);
    put_varint(buf, p.seq);
    put_varint(buf, p.ack);
    buf.push(p.flags);
    put_varint(buf, p.sent.as_nanos());
    put_varint(buf, p.echo.as_nanos());
    put_varint(buf, p.emit_idx as u64);
    for hop in p.srcroute {
        put_varint(buf, hop as u64);
    }
    buf.push(p.srcroute_len);
    buf.push(p.srcroute_pos);
    put_varint(buf, p.conga.path as u64);
    buf.push(p.conga.ce);
    put_varint(buf, p.conga.fb_path as u64);
    buf.push(p.conga.fb_ce);
    buf.push(p.conga.fb_valid as u8);
}

/// Decode one packet written by [`put_packet`].
pub fn get_packet(d: &mut Decoder<'_>) -> io::Result<Packet> {
    let id = d.varint()?;
    let flow = FlowId(d.varint_u32()?);
    let src = HostId(d.varint_u32()?);
    let dst = HostId(d.varint_u32()?);
    let flow_hash = d.u64_fixed()?;
    let size = d.varint_u32()?;
    let payload = d.varint_u32()?;
    let seq = d.varint()?;
    let ack = d.varint()?;
    let flags = d.u8()?;
    let sent = Time::from_nanos(d.varint()?);
    let echo = Time::from_nanos(d.varint()?);
    let emit_idx = d.varint_u32()?;
    let mut srcroute = [0u32; 3];
    for hop in &mut srcroute {
        *hop = d.varint_u32()?;
    }
    let srcroute_len = d.u8()?;
    let srcroute_pos = d.u8()?;
    if srcroute_len as usize > srcroute.len() || srcroute_pos > srcroute_len {
        return Err(invalid("source route cursor out of bounds"));
    }
    let conga = CongaTag {
        path: d.varint_u16()?,
        ce: d.u8()?,
        fb_path: d.varint_u16()?,
        fb_ce: d.u8()?,
        fb_valid: match d.u8()? {
            0 => false,
            1 => true,
            _ => return Err(invalid("bad bool byte")),
        },
    };
    Ok(Packet {
        id,
        flow,
        src,
        dst,
        flow_hash,
        size,
        payload,
        seq,
        ack,
        flags,
        sent,
        echo,
        emit_idx,
        srcroute,
        srcroute_len,
        srcroute_pos,
        conga,
    })
}

/// Append one [`NetEvent`]. Packet handles are encoded against `arena`,
/// the run's packet arena.
pub fn put_net_event(buf: &mut Vec<u8>, arena: &PacketArena, ev: &NetEvent) {
    match ev {
        NetEvent::ArriveSwitch {
            switch,
            ingress,
            pkt,
        } => {
            buf.push(0);
            put_varint(buf, switch.0 as u64);
            put_varint(buf, *ingress as u64);
            arena.encode_ref(buf, pkt);
        }
        NetEvent::ArriveHost { host, pkt } => {
            buf.push(1);
            put_varint(buf, host.0 as u64);
            arena.encode_ref(buf, pkt);
        }
        NetEvent::SwitchTxDone { switch, port } => {
            buf.push(2);
            put_varint(buf, switch.0 as u64);
            put_varint(buf, *port as u64);
        }
        NetEvent::HostTxDone { host } => {
            buf.push(3);
            put_varint(buf, host.0 as u64);
        }
        NetEvent::EnqueueCommit {
            switch,
            port,
            bytes,
            engine,
        } => {
            buf.push(4);
            put_varint(buf, switch.0 as u64);
            put_varint(buf, *port as u64);
            put_varint(buf, *bytes as u64);
            put_varint(buf, *engine as u64);
        }
    }
}

/// Decode one event written by [`put_net_event`] against the same arena.
pub fn get_net_event(d: &mut Decoder<'_>, arena: &PacketArena) -> io::Result<NetEvent> {
    Ok(match d.u8()? {
        0 => NetEvent::ArriveSwitch {
            switch: SwitchId(d.varint_u32()?),
            ingress: d.varint_u16()?,
            pkt: arena.decode_ref(d)?,
        },
        1 => NetEvent::ArriveHost {
            host: HostId(d.varint_u32()?),
            pkt: arena.decode_ref(d)?,
        },
        2 => NetEvent::SwitchTxDone {
            switch: SwitchId(d.varint_u32()?),
            port: d.varint_u16()?,
        },
        3 => NetEvent::HostTxDone {
            host: HostId(d.varint_u32()?),
        },
        4 => NetEvent::EnqueueCommit {
            switch: SwitchId(d.varint_u32()?),
            port: d.varint_u16()?,
            bytes: d.varint_u32()?,
            engine: d.varint_u16()?,
        },
        _ => return Err(invalid("unknown net event tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_round_trips_every_field() {
        let mut p = Packet::data(
            0xdead_beef_0042,
            FlowId(7),
            HostId(3),
            HostId(250),
            0x1234_5678_9abc_def0,
            146_000,
            1460,
            Time::from_micros(17),
        );
        p.ack = 99;
        p.flags |= crate::packet::flags::RETX;
        p.echo = Time::from_nanos(123_456);
        p.emit_idx = 41;
        p.push_route(10);
        p.push_route(20);
        assert_eq!(p.next_route_hop(), Some(10));
        p.conga = CongaTag {
            path: 3,
            ce: 5,
            fb_path: 1,
            fb_ce: 2,
            fb_valid: true,
        };
        let mut buf = Vec::new();
        put_packet(&mut buf, &p);
        let mut d = Decoder::new(&buf);
        let q = get_packet(&mut d).unwrap();
        assert_eq!(d.remaining(), 0);
        assert_eq!(q.id, p.id);
        assert_eq!(q.flow, p.flow);
        assert_eq!(q.src, p.src);
        assert_eq!(q.dst, p.dst);
        assert_eq!(q.flow_hash, p.flow_hash);
        assert_eq!(q.size, p.size);
        assert_eq!(q.payload, p.payload);
        assert_eq!(q.seq, p.seq);
        assert_eq!(q.ack, p.ack);
        assert_eq!(q.flags, p.flags);
        assert_eq!(q.sent, p.sent);
        assert_eq!(q.echo, p.echo);
        assert_eq!(q.emit_idx, p.emit_idx);
        assert_eq!(q.srcroute, p.srcroute);
        assert_eq!(q.srcroute_len, p.srcroute_len);
        assert_eq!(q.srcroute_pos, p.srcroute_pos);
        assert_eq!(q.conga, p.conga);
    }

    #[test]
    fn corrupt_route_cursor_errors() {
        let p = Packet::data(1, FlowId(0), HostId(0), HostId(1), 0, 0, 100, Time::ZERO);
        let mut buf = Vec::new();
        put_packet(&mut buf, &p);
        // srcroute_pos byte sits right after srcroute_len; force pos > len.
        let pos_byte = buf.len() - 6;
        buf[pos_byte] = 3;
        let mut d = Decoder::new(&buf);
        assert!(get_packet(&mut d).is_err());
    }
}
