//! Host NIC model: a rate-limited FIFO from the host's transport stack onto
//! its access link.

use std::collections::VecDeque;
use std::io;

use drill_sim::codec::{invalid, put_varint, Decoder};
use drill_sim::Time;
use drill_telemetry::Probe;

use crate::arena::{PacketArena, PacketRef};
use crate::ids::{HostId, NodeRef};
use crate::topology::Topology;
use crate::{EventSink, NetEvent};

/// Default NIC transmit-buffer limit. Generous (hosts do not drop in the
/// paper's experiments — congestion happens in the fabric).
pub const HOST_NIC_BUF_BYTES: u64 = 4 * 1024 * 1024;

/// A host's transmit NIC.
///
/// Receiving needs no modeling (packets are delivered straight to the
/// transport layer by the runtime); transmit serializes packets at the
/// access-link rate.
pub struct HostNic {
    host: HostId,
    /// FIFO of (handle, wire size); the size rides along so backlog
    /// accounting never touches the arena.
    q: VecDeque<(PacketRef, u32)>,
    q_bytes: u64,
    in_flight: bool,
    limit_bytes: u64,
    /// Packets dropped at the NIC (buffer overflow) — should stay 0 in
    /// well-configured experiments.
    pub drops: u64,
    /// Packets transmitted.
    pub tx_pkts: u64,
}

impl HostNic {
    /// NIC for `host` with the default buffer.
    pub fn new(host: HostId) -> HostNic {
        HostNic {
            host,
            q: VecDeque::new(),
            q_bytes: 0,
            in_flight: false,
            limit_bytes: HOST_NIC_BUF_BYTES,
            drops: 0,
            tx_pkts: 0,
        }
    }

    /// Current transmit backlog in bytes.
    pub fn backlog_bytes(&self) -> u64 {
        self.q_bytes
    }

    /// Packets queued at the NIC, including the in-flight head (which
    /// stays in the queue until its tx-done) — the NIC's contribution to
    /// the audit packet-conservation holder walk.
    pub fn backlog_pkts(&self) -> usize {
        self.q.len()
    }

    /// Serialize this NIC's dynamic state (queued handles against `arena`,
    /// backlog accounting, counters). `limit_bytes` is structural and not
    /// serialized.
    pub fn save_state(&self, arena: &PacketArena, buf: &mut Vec<u8>) {
        put_varint(buf, self.q.len() as u64);
        for (r, size) in &self.q {
            arena.encode_ref(buf, r);
            put_varint(buf, *size as u64);
        }
        put_varint(buf, self.q_bytes);
        buf.push(self.in_flight as u8);
        put_varint(buf, self.drops);
        put_varint(buf, self.tx_pkts);
    }

    /// Restore state written by [`save_state`](HostNic::save_state) into a
    /// freshly built NIC for the same host.
    pub fn load_state(&mut self, arena: &PacketArena, d: &mut Decoder<'_>) -> io::Result<()> {
        let qlen = d.varint_usize()?;
        self.q.clear();
        for _ in 0..qlen {
            let r = arena.decode_ref(d)?;
            let size = d.varint_u32()?;
            self.q.push_back((r, size));
        }
        self.q_bytes = d.varint()?;
        self.in_flight = match d.u8()? {
            0 => false,
            1 => true,
            _ => return Err(invalid("bad bool byte")),
        };
        if !self.in_flight && !self.q.is_empty() {
            return Err(invalid("NIC queue without in-flight head"));
        }
        self.drops = d.varint()?;
        self.tx_pkts = d.varint()?;
        Ok(())
    }

    /// Queue a packet for transmission.
    ///
    /// `probe` records the accept (host-send) or the overflow drop; pass
    /// `&mut NoopProbe` to compile the telemetry out.
    pub fn send<P: Probe>(
        &mut self,
        topo: &Topology,
        arena: &mut PacketArena,
        pref: PacketRef,
        now: Time,
        out: &mut EventSink,
        probe: &mut P,
    ) {
        let link = topo.host_uplink(self.host);
        let size = arena.get(&pref).size;
        if !self.in_flight {
            debug_assert!(self.q.is_empty());
            if P::ENABLED {
                probe.on_host_send(now, self.host.0, &arena.get(&pref).meta());
            }
            self.in_flight = true;
            self.q.push_back((pref, size));
            out.push((
                now + Time::tx_time(size as u64, link.rate_bps),
                NetEvent::HostTxDone { host: self.host },
            ));
        } else {
            if self.q_bytes + size as u64 > self.limit_bytes {
                self.drops += 1;
                if P::ENABLED {
                    probe.on_nic_drop(now, self.host.0, &arena.get(&pref).meta());
                }
                arena.free(pref);
                return;
            }
            if P::ENABLED {
                probe.on_host_send(now, self.host.0, &arena.get(&pref).meta());
            }
            self.q_bytes += size as u64;
            self.q.push_back((pref, size));
        }
    }

    /// The head packet finished serializing: put it on the wire and start
    /// the next.
    pub fn on_tx_done(&mut self, topo: &Topology, now: Time, out: &mut EventSink) {
        let link = topo.host_uplink(self.host);
        let (pkt, _) = self.q.pop_front().expect("tx-done with empty NIC queue");
        self.tx_pkts += 1;
        let arrive = now + link.prop;
        match link.dst {
            NodeRef::Switch(s) => out.push((
                arrive,
                NetEvent::ArriveSwitch {
                    switch: s,
                    ingress: link.dst_port,
                    pkt,
                },
            )),
            NodeRef::Host(h) => out.push((arrive, NetEvent::ArriveHost { host: h, pkt })),
        }
        if let Some(&(_, size)) = self.q.front() {
            self.q_bytes -= size as u64;
            out.push((
                now + Time::tx_time(size as u64, link.rate_bps),
                NetEvent::HostTxDone { host: self.host },
            ));
        } else {
            self.in_flight = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{leaf_spine, LeafSpineSpec, DEFAULT_PROP};
    use crate::ids::FlowId;
    use crate::packet::Packet;
    use drill_telemetry::NoopProbe;

    fn topo() -> Topology {
        leaf_spine(&LeafSpineSpec {
            spines: 1,
            leaves: 2,
            hosts_per_leaf: 1,
            host_rate: 10_000_000_000,
            core_rate: 10_000_000_000,
            prop: DEFAULT_PROP,
        })
    }

    fn pkt(payload: u32) -> Packet {
        Packet::data(
            0,
            FlowId(0),
            HostId(0),
            HostId(1),
            0,
            0,
            payload,
            Time::ZERO,
        )
    }

    fn send(
        nic: &mut HostNic,
        t: &Topology,
        arena: &mut PacketArena,
        p: Packet,
        out: &mut EventSink,
    ) {
        let r = arena.insert(p);
        nic.send(t, arena, r, Time::ZERO, out, &mut NoopProbe);
    }

    #[test]
    fn serializes_at_link_rate() {
        let t = topo();
        let mut nic = HostNic::new(HostId(0));
        let mut arena = PacketArena::new();
        let mut out = Vec::new();
        send(&mut nic, &t, &mut arena, pkt(1442), &mut out); // 1500B wire
        let (tx_at, _) = &out[0];
        assert_eq!(*tx_at, Time::from_nanos(1200));
        out.clear();
        nic.on_tx_done(&t, Time::from_nanos(1200), &mut out);
        match &out[0] {
            (
                t_arrive,
                NetEvent::ArriveSwitch {
                    switch,
                    ingress,
                    pkt,
                },
            ) => {
                assert_eq!(*t_arrive, Time::from_nanos(1700));
                assert_eq!(*switch, t.host_leaf(HostId(0)));
                assert_eq!(*ingress, t.host_uplink(HostId(0)).dst_port);
                assert_eq!(arena.get(pkt).size, 1500);
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(nic.tx_pkts, 1);
    }

    #[test]
    fn back_to_back_packets_queue() {
        let t = topo();
        let mut nic = HostNic::new(HostId(0));
        let mut arena = PacketArena::new();
        let mut out = Vec::new();
        send(&mut nic, &t, &mut arena, pkt(1442), &mut out);
        send(&mut nic, &t, &mut arena, pkt(1442), &mut out);
        // Only one TxDone scheduled for the head.
        assert_eq!(out.len(), 1);
        assert_eq!(nic.backlog_bytes(), 1500);
        out.clear();
        nic.on_tx_done(&t, Time::from_nanos(1200), &mut out);
        // Arrival of first + TxDone of second.
        assert_eq!(out.len(), 2);
        assert_eq!(nic.backlog_bytes(), 0);
    }

    #[test]
    fn overflow_drops() {
        let t = topo();
        let mut nic = HostNic::new(HostId(0));
        nic.limit_bytes = 3000;
        let mut arena = PacketArena::new();
        let mut out = Vec::new();
        for _ in 0..5 {
            send(&mut nic, &t, &mut arena, pkt(1442), &mut out);
        }
        // 1 in flight + 2 queued (3000B), rest dropped.
        assert_eq!(nic.drops, 2);
        // The dropped packets' arena slots were released on the spot.
        assert_eq!(arena.live(), 3);
    }
}
