//! Host NIC model: a rate-limited FIFO from the host's transport stack onto
//! its access link.
//!
//! The FIFO holds two kinds of backlog. TCP hands the NIC built packets
//! ([`HostNic::send`]), which wait in the queue as arena handles. An
//! open-loop flow ([`HostNic::send_train`]) is admitted segment by segment
//! under the very same rule, but its accepted segments wait as a
//! [`Train`] descriptor — a byte range and the first packet id — and each
//! becomes a [`Packet`] only when the serializer takes it
//! ([`HostNic::start_next`]). A segment the buffer refuses is counted and
//! never built.

use std::collections::VecDeque;
use std::io;
use std::num::NonZeroU32;

use drill_sim::codec::{invalid, put_varint, Decoder};
use drill_sim::{SimRng, Time};
use drill_telemetry::Probe;

use crate::arena::{PacketArena, PacketRef};
use crate::ids::{FlowId, HostId};
use crate::lbapi::HostPolicy;
use crate::packet::{Packet, HEADER_BYTES};
use crate::topology::Topology;
use crate::{NetEvent, NetSink};

/// Default NIC transmit-buffer limit. Generous (hosts do not drop in the
/// paper's experiments — congestion happens in the fabric).
pub const HOST_NIC_BUF_BYTES: u64 = 4 * 1024 * 1024;

/// Payload bytes of a full train segment (a 1500-byte wire frame).
const TRAIN_MSS: u64 = 1442;

/// A run of consecutive, not yet built segments of one open-loop flow:
/// payload bytes `off..end` cut every `TRAIN_MSS` (1442), with consecutive
/// packet ids from `next_id`. Describes a whole flow when handed to
/// [`HostNic::send_train`], and a maximal run of accepted segments while
/// it waits in the NIC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Train {
    flow: FlowId,
    dst: HostId,
    flow_hash: u64,
    /// Packet id of the segment at `off`.
    next_id: u64,
    off: u64,
    end: u64,
    /// The flow's arrival instant, stamped on every segment.
    sent: Time,
}

impl Train {
    /// The `bytes`-long flow `flow` to `dst`, arriving at `now`, whose
    /// segments take packet ids `first_id..first_id + segments()`.
    pub fn new(
        flow: FlowId,
        dst: HostId,
        flow_hash: u64,
        first_id: u64,
        bytes: u64,
        now: Time,
    ) -> Train {
        Train {
            flow,
            dst,
            flow_hash,
            next_id: first_id,
            off: 0,
            end: bytes,
            sent: now,
        }
    }

    /// Segments left (each consumes one packet id, accepted or dropped).
    pub fn segments(&self) -> u64 {
        (self.end - self.off).div_ceil(TRAIN_MSS)
    }

    /// Bytes the remaining segments put on the wire.
    fn wire_bytes(&self) -> u64 {
        (self.end - self.off) + self.segments() * HEADER_BYTES as u64
    }

    /// Payload bytes of the segment at `off`.
    fn head_payload(&self) -> u64 {
        (self.end - self.off).min(TRAIN_MSS)
    }

    /// Wire size of the segment at `off`.
    fn head_wire_bytes(&self) -> u64 {
        self.head_payload() + HEADER_BYTES as u64
    }

    /// The segment at `off`, built as host `src` sends it.
    fn head(&self, src: HostId) -> Packet {
        Packet::data(
            self.next_id,
            self.flow,
            src,
            self.dst,
            self.flow_hash,
            self.off,
            self.head_payload() as u32,
            self.sent,
        )
    }

    /// Step past the segment at `off`.
    fn advance(&mut self) {
        self.off += self.head_payload();
        self.next_id += 1;
    }

    fn save(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.flow.0 as u64);
        put_varint(buf, self.dst.0 as u64);
        put_varint(buf, self.flow_hash);
        put_varint(buf, self.next_id);
        put_varint(buf, self.off);
        put_varint(buf, self.end);
        put_varint(buf, self.sent.as_nanos());
    }

    fn load(d: &mut Decoder<'_>) -> io::Result<Train> {
        let t = Train {
            flow: FlowId(d.varint_u32()?),
            dst: HostId(d.varint_u32()?),
            flow_hash: d.varint()?,
            next_id: d.varint()?,
            off: d.varint()?,
            end: d.varint()?,
            sent: Time::from_nanos(d.varint()?),
        };
        if t.off >= t.end {
            return Err(invalid("empty NIC train"));
        }
        Ok(t)
    }
}

/// One slot of the NIC FIFO.
#[derive(Clone, Copy)]
enum Entry {
    /// A built packet and its wire size; the size rides along so backlog
    /// accounting never touches the arena.
    Pkt(PacketRef, NonZeroU32),
    /// Every remaining segment of one [`Train`]. Payload-free: the
    /// descriptors queue beside the FIFO, one per marker in marker order,
    /// so that a packet entry stays three words.
    Train,
}

impl Entry {
    fn pkt(r: PacketRef, wire_bytes: u32) -> Entry {
        Entry::Pkt(
            r,
            NonZeroU32::new(wire_bytes).expect("packet with no wire bytes"),
        )
    }
}

const ENTRY_PKT: u8 = 0;
const ENTRY_TRAIN: u8 = 1;

/// TCP runs queue one entry per unsent window segment, so the entry is
/// what their NIC memory is made of: a wire size is never zero, the
/// marker hides in that niche, and a packet entry stays at 12 bytes.
const _: () = assert!(std::mem::size_of::<Entry>() <= 12);

/// A host's transmit NIC.
///
/// Receiving needs no modeling (packets are delivered straight to the
/// transport layer by the runtime); transmit serializes packets at the
/// access-link rate.
pub struct HostNic {
    host: HostId,
    /// The FIFO, in-flight head included (always a built packet).
    q: VecDeque<Entry>,
    /// One descriptor per [`Entry::Train`] marker in `q`, in queue order.
    trains: VecDeque<Train>,
    /// Wire bytes waiting behind the in-flight head, built or not.
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
            trains: VecDeque::new(),
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

    /// Built packets queued at the NIC, including the in-flight head
    /// (which stays in the queue until its tx-done) — the NIC's
    /// contribution to the audit packet-conservation holder walk.
    pub fn backlog_pkts(&self) -> usize {
        self.q.len() - self.trains.len()
    }

    /// Segments accepted into the backlog but not yet built: in no arena,
    /// yet as much a part of the run's unfinished work as a queued packet.
    pub fn pending_pkts(&self) -> u64 {
        self.trains.iter().map(Train::segments).sum()
    }

    /// [`backlog_bytes`](HostNic::backlog_bytes) recomputed from what is
    /// queued: the wire size of every waiting packet, plus payload and
    /// per-segment headers of every train. The two agree by construction;
    /// the auditor and [`load_state`](HostNic::load_state) check that they
    /// do.
    pub fn walked_backlog_bytes(&self) -> u64 {
        let pkts: u64 = self
            .q
            .iter()
            .skip(self.in_flight as usize)
            .map(|e| match e {
                Entry::Pkt(_, size) => size.get() as u64,
                Entry::Train => 0,
            })
            .sum();
        pkts + self.trains.iter().map(Train::wire_bytes).sum::<u64>()
    }

    /// Serialize this NIC's dynamic state (queued handles against `arena`,
    /// trains, backlog accounting, counters). `limit_bytes` is structural
    /// and not serialized.
    pub fn save_state(&self, arena: &PacketArena, buf: &mut Vec<u8>) {
        put_varint(buf, self.q.len() as u64);
        for e in &self.q {
            match e {
                Entry::Pkt(r, size) => {
                    buf.push(ENTRY_PKT);
                    arena.encode_ref(buf, r);
                    put_varint(buf, size.get() as u64);
                }
                Entry::Train => buf.push(ENTRY_TRAIN),
            }
        }
        for t in &self.trains {
            t.save(buf);
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
        let mut markers = 0;
        for _ in 0..qlen {
            self.q.push_back(match d.u8()? {
                ENTRY_PKT => {
                    let r = arena.decode_ref(d)?;
                    let size = NonZeroU32::new(d.varint_u32()?)
                        .ok_or_else(|| invalid("zero-size NIC packet"))?;
                    Entry::Pkt(r, size)
                }
                ENTRY_TRAIN => {
                    markers += 1;
                    Entry::Train
                }
                _ => return Err(invalid("unknown NIC entry tag")),
            });
        }
        self.trains.clear();
        for _ in 0..markers {
            self.trains.push_back(Train::load(d)?);
        }
        self.q_bytes = d.varint()?;
        self.in_flight = match d.u8()? {
            0 => false,
            1 => true,
            _ => return Err(invalid("bad bool byte")),
        };
        // Between events the head of a non-empty queue is on the wire,
        // and only a built packet can be.
        if self.in_flight != matches!(self.q.front(), Some(Entry::Pkt(..))) {
            return Err(invalid("NIC queue without in-flight head"));
        }
        if self.q_bytes != self.walked_backlog_bytes() {
            return Err(invalid("NIC backlog bytes disagree with its queue"));
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
        out: &mut impl NetSink,
        probe: &mut P,
    ) {
        let size = arena.get(&pref).size;
        if self.in_flight && self.q_bytes + size as u64 > self.limit_bytes {
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
        if self.in_flight {
            self.q_bytes += size as u64;
        } else {
            debug_assert!(self.q.is_empty());
            self.in_flight = true;
            out.emit(
                now + Time::tx_time(size as u64, topo.host_uplink(self.host).rate_bps),
                NetEvent::HostTxDone { host: self.host },
            );
        }
        self.q.push_back(Entry::pkt(pref, size));
    }

    /// Admit an open-loop flow, every segment at once at `train`'s arrival
    /// instant, as if each had been built and handed to
    /// [`send`](HostNic::send) in order: an idle serializer starts the
    /// first segment right away, a segment that does not fit is dropped
    /// and counted, and the rest join the backlog. Only the started
    /// segment is built; each maximal run of accepted ones queues as one
    /// [`Train`] (a flow leaves at most two: the full-size prefix, and a
    /// short tail that still fit after full-size segments were refused).
    #[allow(clippy::too_many_arguments)]
    pub fn send_train<P: Probe>(
        &mut self,
        topo: &Topology,
        arena: &mut PacketArena,
        policy: &mut dyn HostPolicy,
        rng: &mut SimRng,
        mut train: Train,
        out: &mut impl NetSink,
        probe: &mut P,
    ) {
        let now = train.sent;
        if !self.in_flight && train.off < train.end {
            debug_assert!(self.q.is_empty());
            let pkt = train.head(self.host);
            train.advance();
            if P::ENABLED {
                probe.on_host_send(now, self.host.0, &pkt.meta());
            }
            self.start(topo, arena, policy, rng, pkt, now, out);
        }
        // The cursor as it stood at the open run's first segment.
        let mut run: Option<Train> = None;
        while train.off < train.end {
            let size = train.head_wire_bytes();
            if self.q_bytes + size > self.limit_bytes {
                self.drops += 1;
                if P::ENABLED {
                    probe.on_nic_drop(now, self.host.0, &train.head(self.host).meta());
                }
                if let Some(first) = run.take() {
                    self.queue_train(Train {
                        end: train.off,
                        ..first
                    });
                }
            } else {
                self.q_bytes += size;
                if P::ENABLED {
                    probe.on_host_send(now, self.host.0, &train.head(self.host).meta());
                }
                run.get_or_insert(train);
            }
            train.advance();
        }
        if let Some(first) = run {
            self.queue_train(first);
        }
    }

    fn queue_train(&mut self, train: Train) {
        self.trains.push_back(train);
        self.q.push_back(Entry::Train);
    }

    /// Build-side of the serializer: `pkt` passes the host policy, enters
    /// the arena and goes on the wire as the new queue head.
    #[allow(clippy::too_many_arguments)]
    fn start(
        &mut self,
        topo: &Topology,
        arena: &mut PacketArena,
        policy: &mut dyn HostPolicy,
        rng: &mut SimRng,
        mut pkt: Packet,
        now: Time,
        out: &mut impl NetSink,
    ) {
        let size = pkt.size;
        policy.on_send(&mut pkt, now, rng);
        self.q.push_front(Entry::pkt(arena.insert(pkt), size));
        self.in_flight = true;
        out.emit(
            now + Time::tx_time(size as u64, topo.host_uplink(self.host).rate_bps),
            NetEvent::HostTxDone { host: self.host },
        );
    }

    /// The head packet finished serializing: put it on the wire and start
    /// the next one if it is built already. A train at the head waits for
    /// [`start_next`](HostNic::start_next), which the caller runs right
    /// after: building a segment takes the arena and the host policy,
    /// which this call has never been given.
    pub fn on_tx_done(&mut self, topo: &Topology, now: Time, out: &mut impl NetSink) {
        let link = topo.host_uplink(self.host);
        let Some(Entry::Pkt(pkt, _)) = self.q.pop_front() else {
            panic!("tx-done without a built packet at the NIC head");
        };
        self.tx_pkts += 1;
        crate::hand_off(out, link, now, pkt);
        if let Some(&Entry::Pkt(_, size)) = self.q.front() {
            self.q_bytes -= size.get() as u64;
            out.emit(
                now + Time::tx_time(size.get() as u64, link.rate_bps),
                NetEvent::HostTxDone { host: self.host },
            );
        } else {
            self.in_flight = false;
        }
    }

    /// Second half of a tx-done: if the serializer is free and a train is
    /// at the head, build its next segment — stamped with the flow's
    /// arrival instant, passed through `policy` at `now` — and start it.
    pub fn start_next(
        &mut self,
        topo: &Topology,
        arena: &mut PacketArena,
        policy: &mut dyn HostPolicy,
        rng: &mut SimRng,
        now: Time,
        out: &mut impl NetSink,
    ) {
        if self.in_flight || self.q.is_empty() {
            return;
        }
        debug_assert!(matches!(self.q.front(), Some(Entry::Train)));
        let train = self.trains.front_mut().expect("a marker has a train");
        let pkt = train.head(self.host);
        train.advance();
        if train.off == train.end {
            self.trains.pop_front();
            self.q.pop_front();
        }
        self.q_bytes -= pkt.size as u64;
        self.start(topo, arena, policy, rng, pkt, now, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{leaf_spine, LeafSpineSpec, DEFAULT_PROP};
    use crate::ids::FlowId;
    use crate::lbapi::NullHostPolicy;
    use crate::packet::Packet;
    use crate::EventSink;
    use drill_telemetry::{NoopProbe, PacketMeta};

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

    // ---- `send_train` against the eager loop it replaces ----

    /// Every NIC accept (`true`) and overflow drop, as a probe sees them.
    #[derive(Default)]
    struct NicLog(Vec<(bool, Time, PacketMeta)>);

    impl Probe for NicLog {
        fn on_host_send(&mut self, now: Time, _: u32, pkt: &PacketMeta) {
            self.0.push((true, now, *pkt));
        }
        fn on_nic_drop(&mut self, now: Time, _: u32, pkt: &PacketMeta) {
            self.0.push((false, now, *pkt));
        }
    }

    /// What came off the wire: arrival time, then the packet's id, flow,
    /// seq, wire size, payload and `sent` stamp.
    type Wire = (Time, u64, u32, u64, u32, u32, Time);

    /// One NIC with everything it touches. Two rigs run the same script,
    /// one admitting flows the old way and one with `send_train`.
    struct Rig {
        nic: HostNic,
        arena: PacketArena,
        out: EventSink,
        rng: SimRng,
        log: NicLog,
        ids: u64,
        flows: u32,
        /// The one outstanding `HostTxDone`.
        tx_at: Option<Time>,
        wire: Vec<Wire>,
    }

    impl Rig {
        fn new(limit_bytes: u64) -> Rig {
            let mut nic = HostNic::new(HostId(0));
            nic.limit_bytes = limit_bytes;
            Rig {
                nic,
                arena: PacketArena::new(),
                out: Vec::new(),
                rng: SimRng::seed_from(0),
                log: NicLog::default(),
                ids: 0,
                flows: 0,
                tx_at: None,
                wire: Vec::new(),
            }
        }

        /// The reference: what `World::start_flow` did before trains —
        /// build every segment, intern it, `send` it.
        fn flow_eager(&mut self, t: &Topology, bytes: u64, now: Time) {
            let flow = FlowId(self.flows);
            self.flows += 1;
            let mut off = 0;
            while off < bytes {
                let payload = (bytes - off).min(1442) as u32;
                self.ids += 1;
                let p = Packet::data(self.ids, flow, HostId(0), HostId(1), 7, off, payload, now);
                let r = self.arena.insert(p);
                self.nic
                    .send(t, &mut self.arena, r, now, &mut self.out, &mut self.log);
                off += payload as u64;
            }
            self.collect();
        }

        fn flow_train(&mut self, t: &Topology, bytes: u64, now: Time) {
            let train = Train::new(FlowId(self.flows), HostId(1), 7, self.ids + 1, bytes, now);
            self.flows += 1;
            self.ids += train.segments();
            self.nic.send_train(
                t,
                &mut self.arena,
                &mut NullHostPolicy,
                &mut self.rng,
                train,
                &mut self.out,
                &mut self.log,
            );
            self.collect();
        }

        /// Backlog of the other kind: one built packet, as TCP sends them.
        fn packet(&mut self, t: &Topology, payload: u32, now: Time) {
            self.ids += 1;
            let p = Packet::data(
                self.ids,
                FlowId(u32::MAX),
                HostId(0),
                HostId(1),
                9,
                0,
                payload,
                now,
            );
            let r = self.arena.insert(p);
            self.nic
                .send(t, &mut self.arena, r, now, &mut self.out, &mut self.log);
            self.collect();
        }

        fn tx_done(&mut self, t: &Topology) {
            let now = self.tx_at.take().expect("a tx-done is due");
            self.nic.on_tx_done(t, now, &mut self.out);
            self.nic.start_next(
                t,
                &mut self.arena,
                &mut NullHostPolicy,
                &mut self.rng,
                now,
                &mut self.out,
            );
            self.collect();
        }

        /// Play the receiving end of `out`.
        fn collect(&mut self) {
            for (at, ev) in self.out.drain(..) {
                match ev {
                    NetEvent::HostTxDone { .. } => {
                        assert_eq!(self.tx_at.replace(at), None, "two packets on the wire");
                    }
                    NetEvent::ArriveSwitch { pkt, .. } => {
                        let p = self.arena.take(pkt);
                        self.wire
                            .push((at, p.id, p.flow.0, p.seq, p.size, p.payload, p.sent));
                    }
                    other => panic!("unexpected event {other:?}"),
                }
            }
            assert_eq!(self.nic.backlog_bytes(), self.nic.walked_backlog_bytes());
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Step {
        Flow(u64),
        Packet(u32),
    }

    /// Run `script` — `(gap since the previous arrival, what arrives)` —
    /// through an eager and a train rig with tx-dones interleaved in time
    /// order, demanding identical counters after every step and an
    /// identical wire stream and probe log at the end. Returns the train
    /// rig for the caller's own assertions; `at_step` sees it right after
    /// each arrival.
    fn differential(
        limit: u64,
        script: &[(u64, Step)],
        mut at_step: impl FnMut(usize, &Rig),
    ) -> Rig {
        let t = topo();
        let (mut eager, mut lazy) = (Rig::new(limit), Rig::new(limit));
        let same = |eager: &Rig, lazy: &Rig, what: &str| {
            let state = |r: &Rig| {
                (
                    r.nic.drops,
                    r.nic.tx_pkts,
                    r.nic.backlog_bytes(),
                    r.tx_at,
                    r.wire.len(),
                    r.wire.last().copied(),
                    r.ids,
                )
            };
            assert_eq!(state(eager), state(lazy), "after {what}");
        };
        let mut now = Time::ZERO;
        for (i, &(gap, step)) in script.iter().enumerate() {
            now += Time::from_nanos(gap);
            while eager.tx_at.is_some_and(|at| at <= now) {
                eager.tx_done(&t);
                lazy.tx_done(&t);
                same(&eager, &lazy, "a tx-done");
            }
            match step {
                Step::Flow(bytes) => {
                    eager.flow_eager(&t, bytes, now);
                    lazy.flow_train(&t, bytes, now);
                }
                Step::Packet(payload) => {
                    eager.packet(&t, payload, now);
                    lazy.packet(&t, payload, now);
                }
            }
            same(&eager, &lazy, &format!("step {i}: {step:?}"));
            assert!(lazy.arena.live() <= eager.arena.live());
            assert_eq!(
                lazy.arena.live() as u64 + lazy.nic.pending_pkts(),
                eager.arena.live() as u64,
                "built + pending is what the eager NIC holds"
            );
            at_step(i, &lazy);
        }
        while eager.tx_at.is_some() {
            eager.tx_done(&t);
            lazy.tx_done(&t);
            same(&eager, &lazy, "a drain tx-done");
        }
        assert_eq!(eager.wire, lazy.wire);
        assert_eq!(eager.log.0, lazy.log.0);
        assert_eq!((lazy.arena.live(), lazy.nic.pending_pkts()), (0, 0));
        assert!(lazy.nic.q.is_empty() && lazy.nic.trains.is_empty());
        lazy
    }

    /// The case a closed-form "how many segments fit" gets wrong: with
    /// the buffer full to within 200 B, full-size segments are refused
    /// but the flow's 158-byte tail is not, and goes out with its own id.
    #[test]
    fn short_tail_is_accepted_after_full_segments_were_refused() {
        let bytes = 5 * 1442 + 100;
        let lazy = differential(3200, &[(0, Step::Flow(bytes))], |_, lazy| {
            assert_eq!(lazy.nic.drops, 2);
            // Segment 1 is on the wire; 2–3 wait as one train, the tail
            // as another.
            assert_eq!(lazy.arena.live(), 1);
            assert_eq!(lazy.nic.trains.len(), 2);
            assert_eq!(lazy.nic.pending_pkts(), 3);
        });
        let sent: Vec<(u64, u64, u32)> = lazy.wire.iter().map(|w| (w.1, w.3, w.5)).collect();
        assert_eq!(
            sent,
            [
                (1, 0, 1442),
                (2, 1442, 1442),
                (3, 2884, 1442),
                (6, 7210, 100)
            ],
            "(id, seq, payload): ids 4 and 5 went to the dropped segments"
        );
    }

    /// A second flow arrives while the first one's train is half sent:
    /// its train queues behind the remainder and keeps its own ids and
    /// arrival stamp.
    #[test]
    fn train_queues_behind_a_half_sent_train() {
        let script = [
            (0, Step::Flow(10 * 1442)),
            (5_000, Step::Flow(3 * 1442 + 1)),
        ];
        let lazy = differential(HOST_NIC_BUF_BYTES, &script, |i, lazy| {
            if i == 1 {
                // 5 µs in: four segments of flow 0 are out, the fifth is
                // on the wire, five wait; flow 1's four queue behind.
                assert_eq!(lazy.nic.tx_pkts, 4);
                assert_eq!(lazy.nic.trains.len(), 2);
                assert_eq!(lazy.nic.trains[0].segments(), 5);
                assert_eq!(lazy.nic.pending_pkts(), 9);
                assert_eq!(lazy.arena.live(), 1);
            }
        });
        assert_eq!(lazy.wire.len(), 14);
        let last = lazy.wire[13];
        assert_eq!((last.1, last.2, last.3, last.5), (14, 1, 3 * 1442, 1));
        assert_eq!(last.6, Time::from_nanos(5_000), "sent = flow 1's arrival");
    }

    /// Seeded random scripts: flow sizes from one byte to 6 MB (exact
    /// segment multiples included), built packets mixed in as pre-existing
    /// backlog, gaps that leave the NIC sometimes idle and sometimes
    /// saturated, under NIC limits from two frames to the default 4 MB.
    #[test]
    fn random_scripts_match_the_eager_loop() {
        for (seed, limit) in [
            (1, 3_000),
            (2, 10_000),
            (3, 100_000),
            (4, 1_000_000),
            (5, HOST_NIC_BUF_BYTES),
            (6, HOST_NIC_BUF_BYTES),
        ] {
            let mut rng = SimRng::seed_from(seed);
            let mut script = Vec::new();
            for _ in 0..40 {
                let step = match rng.below(10) {
                    0 => Step::Packet(1 + rng.below(1442) as u32),
                    1 | 2 => Step::Flow(1442 * (1 + rng.below(40) as u64)),
                    3 => Step::Flow(1 + rng.below(6_000_000) as u64),
                    4 => Step::Flow(1 + rng.below(3) as u64),
                    _ => Step::Flow(1 + rng.below(60_000) as u64),
                };
                // A 10G NIC sends 1.25 bytes/ns; gaps of up to 1.6 ns per
                // byte offered straddle its capacity.
                let offered = match step {
                    Step::Flow(b) => b.min(200_000),
                    Step::Packet(p) => p as u64,
                };
                script.push((rng.below(2 * offered as usize + 100) as u64 * 4 / 5, step));
            }
            let lazy = differential(limit, &script, |_, _| {});
            assert!(lazy.nic.tx_pkts > 40, "seed {seed}: {}", lazy.nic.tx_pkts);
            if limit < HOST_NIC_BUF_BYTES {
                assert!(lazy.nic.drops > 0, "seed {seed} never overflowed {limit} B");
            }
        }
    }

    /// A NIC saved mid-train restores to the same bytes, and a snapshot
    /// whose byte counter disagrees with its queue is refused.
    #[test]
    fn mid_train_state_round_trips_and_bad_backlog_is_refused() {
        let t = topo();
        let mut rig = Rig::new(HOST_NIC_BUF_BYTES);
        rig.flow_train(&t, 10 * 1442, Time::ZERO);
        rig.tx_done(&t);
        rig.packet(&t, 100, Time::from_nanos(1_300));
        rig.flow_train(&t, 2_000, Time::from_nanos(1_400));
        let mut buf = Vec::new();
        rig.nic.save_state(&rig.arena, &mut buf);

        let mut back = HostNic::new(HostId(0));
        back.load_state(&rig.arena, &mut Decoder::new(&buf))
            .unwrap();
        assert_eq!(back.trains, rig.nic.trains);
        let mut again = Vec::new();
        back.save_state(&rig.arena, &mut again);
        assert_eq!(buf, again);

        rig.nic.q_bytes += 1;
        buf.clear();
        rig.nic.save_state(&rig.arena, &mut buf);
        let err = back
            .load_state(&rig.arena, &mut Decoder::new(&buf))
            .unwrap_err();
        assert!(err.to_string().contains("backlog bytes"), "{err}");
    }
}
