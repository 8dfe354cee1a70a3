//! The flight recorder: bounded per-engine ring buffers of lifecycle
//! events.
//!
//! One ring per (switch, forwarding engine) pair plus one ring for host
//! events keeps hot-path appends contention- and allocation-free (each
//! ring is a fixed-capacity circular buffer) and preserves the per-engine
//! view the paper's Fig. 2 analysis needs. Rings keep the *newest* events:
//! on wraparound the oldest event is overwritten and counted, so a trace
//! always ends with an intact suffix of the run.

use std::collections::{BTreeMap, VecDeque};

use drill_sim::Time;

use crate::probe::{DropReason, EngineChoice, FaultInfo, PacketMeta, Probe};

/// One recorded lifecycle event. Field meanings match the [`Probe`] hooks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A packet was accepted by the sending host's NIC.
    HostSend {
        /// Event time.
        t: Time,
        /// The host.
        host: u32,
        /// The packet.
        pkt: PacketMeta,
    },
    /// A packet was delivered to the receiving host.
    HostRecv {
        /// Event time.
        t: Time,
        /// The host.
        host: u32,
        /// The packet.
        pkt: PacketMeta,
    },
    /// A forwarding engine picked an egress port among several candidates.
    EngineChoice {
        /// Event time.
        t: Time,
        /// The switch.
        switch: u32,
        /// The engine.
        engine: u16,
        /// Chosen port + ground truth.
        choice: EngineChoice,
    },
    /// A packet was appended to a switch output queue.
    Enqueue {
        /// Event time.
        t: Time,
        /// The switch.
        switch: u32,
        /// The output port.
        port: u16,
        /// The enqueuing engine.
        engine: u16,
        /// Packet id.
        pkt_id: u64,
        /// Wire size in bytes.
        size: u32,
        /// Actual queue depth (packets) after the append.
        depth_pkts: u32,
        /// Actual queue depth (bytes) after the append.
        depth_bytes: u64,
    },
    /// A packet finished serializing and left a switch output port.
    Dequeue {
        /// Event time.
        t: Time,
        /// The switch.
        switch: u32,
        /// The output port.
        port: u16,
        /// Packet id.
        pkt_id: u64,
        /// Queue depth (packets) after the departure.
        depth_pkts: u32,
        /// Full sojourn (enqueue to end of serialization), ns.
        wait_ns: u64,
    },
    /// A packet was dropped at a switch.
    Drop {
        /// Event time.
        t: Time,
        /// The switch.
        switch: u32,
        /// The output port (`u16::MAX` when none was chosen — no-route).
        port: u16,
        /// The responsible engine (`u16::MAX` when unknown, e.g. a link
        /// that died while the packet was already serializing).
        engine: u16,
        /// Packet id.
        pkt_id: u64,
        /// Why.
        reason: DropReason,
    },
    /// A packet was dropped at a host NIC.
    NicDrop {
        /// Event time.
        t: Time,
        /// The host.
        host: u32,
        /// Packet id.
        pkt_id: u64,
    },
    /// A control-plane fault or reconvergence event (chaos engine).
    Fault {
        /// Event time.
        t: Time,
        /// One of the [`crate::fault_kind`] codes.
        kind: u8,
        /// First affected switch (`u32::MAX` when unused).
        a: u32,
        /// Second affected switch (`u32::MAX` when unused).
        b: u32,
        /// Kind-specific payload.
        param: u64,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn time(&self) -> Time {
        match self {
            TraceEvent::HostSend { t, .. }
            | TraceEvent::HostRecv { t, .. }
            | TraceEvent::EngineChoice { t, .. }
            | TraceEvent::Enqueue { t, .. }
            | TraceEvent::Dequeue { t, .. }
            | TraceEvent::Drop { t, .. }
            | TraceEvent::NicDrop { t, .. }
            | TraceEvent::Fault { t, .. } => *t,
        }
    }
}

/// What a ring recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RingKind {
    /// Events attributed to one forwarding engine of one switch.
    Engine {
        /// The switch.
        switch: u32,
        /// The engine.
        engine: u16,
    },
    /// Host-side events (NIC accept/deliver/drop) for every host.
    Host,
    /// Control-plane events (fault injection, reconvergence).
    Control,
}

/// A bounded circular buffer of [`TraceEvent`]s that keeps the newest
/// events and counts what wraparound discarded.
#[derive(Clone, Debug)]
pub struct EventRing {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    overwritten: u64,
}

impl EventRing {
    /// An empty ring holding at most `cap` events (`cap >= 1`).
    pub fn new(cap: usize) -> EventRing {
        assert!(cap >= 1, "ring capacity must be at least 1");
        EventRing {
            buf: Vec::new(),
            cap,
            head: 0,
            overwritten: 0,
        }
    }

    /// Append an event, overwriting the oldest when full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.overwritten += 1;
        }
    }

    /// Surviving events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events lost to wraparound.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Surviving events, oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }
}

/// Default per-ring capacity: 64 Ki events per (switch, engine) ring.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// A [`Probe`] that records every lifecycle event into per-engine rings.
///
/// Dequeues and in-flight drops carry no engine on the wire, so the
/// recorder mirrors each port's FIFO discipline: it remembers the engine
/// of every enqueue per (switch, port) and pops that queue on dequeue,
/// recovering the attribution exactly (ports are strict FIFOs). Events
/// with no recoverable engine (`u16::MAX`) land in the switch's engine-0
/// ring by convention.
pub struct FlightRecorder {
    num_switches: usize,
    engines: usize,
    /// Engine rings switch-major, then the host ring, then the control
    /// ring last.
    rings: Vec<EventRing>,
    /// Per-(switch, port) FIFO of enqueuing engines, mirroring the port
    /// queue (including the in-flight packet).
    port_fifo: BTreeMap<(u32, u16), VecDeque<u16>>,
}

impl FlightRecorder {
    /// A recorder for `num_switches` switches with `engines` forwarding
    /// engines each, `ring_capacity` events per ring.
    pub fn new(num_switches: usize, engines: usize, ring_capacity: usize) -> FlightRecorder {
        assert!(engines >= 1, "at least one engine");
        let rings = (0..num_switches * engines + 2)
            .map(|_| EventRing::new(ring_capacity))
            .collect();
        FlightRecorder {
            num_switches,
            engines,
            rings,
            port_fifo: BTreeMap::new(),
        }
    }

    /// Switch count this recorder was sized for.
    pub fn num_switches(&self) -> usize {
        self.num_switches
    }

    /// Engines per switch.
    pub fn engines(&self) -> usize {
        self.engines
    }

    /// Total rings (engine rings + the host ring + the control ring).
    pub fn ring_count(&self) -> usize {
        self.rings.len()
    }

    /// The ring at file index `idx` with its kind (engine rings
    /// switch-major, then the host ring, then the control ring).
    pub fn ring_at(&self, idx: usize) -> (RingKind, &EventRing) {
        let engine_rings = self.num_switches * self.engines;
        let kind = if idx < engine_rings {
            RingKind::Engine {
                switch: (idx / self.engines) as u32,
                engine: (idx % self.engines) as u16,
            }
        } else if idx == engine_rings {
            RingKind::Host
        } else {
            RingKind::Control
        };
        (kind, &self.rings[idx])
    }

    /// Total surviving events across all rings.
    pub fn event_count(&self) -> usize {
        self.rings.iter().map(|r| r.len()).sum()
    }

    /// Total events lost to ring wraparound.
    pub fn overwritten(&self) -> u64 {
        self.rings.iter().map(|r| r.overwritten()).sum()
    }

    #[inline]
    fn engine_ring(&mut self, switch: u32, engine: u16) -> &mut EventRing {
        let e = if engine == u16::MAX {
            0
        } else {
            engine as usize
        };
        debug_assert!(e < self.engines, "engine out of range");
        &mut self.rings[switch as usize * self.engines + e]
    }

    #[inline]
    fn host_ring(&mut self) -> &mut EventRing {
        let idx = self.num_switches * self.engines;
        &mut self.rings[idx]
    }

    #[inline]
    fn control_ring(&mut self) -> &mut EventRing {
        let last = self.rings.len() - 1;
        &mut self.rings[last]
    }
}

impl Probe for FlightRecorder {
    #[inline]
    fn on_host_send(&mut self, now: Time, host: u32, pkt: &PacketMeta) {
        self.host_ring().push(TraceEvent::HostSend {
            t: now,
            host,
            pkt: *pkt,
        });
    }

    #[inline]
    fn on_host_recv(&mut self, now: Time, host: u32, pkt: &PacketMeta) {
        self.host_ring().push(TraceEvent::HostRecv {
            t: now,
            host,
            pkt: *pkt,
        });
    }

    #[inline]
    fn on_engine_choice(&mut self, now: Time, switch: u32, engine: u16, choice: &EngineChoice) {
        self.engine_ring(switch, engine)
            .push(TraceEvent::EngineChoice {
                t: now,
                switch,
                engine,
                choice: *choice,
            });
    }

    #[inline]
    fn on_enqueue(
        &mut self,
        now: Time,
        switch: u32,
        port: u16,
        engine: u16,
        pkt: &PacketMeta,
        depth_pkts: u32,
        depth_bytes: u64,
    ) {
        self.port_fifo
            .entry((switch, port))
            .or_default()
            .push_back(engine);
        self.engine_ring(switch, engine).push(TraceEvent::Enqueue {
            t: now,
            switch,
            port,
            engine,
            pkt_id: pkt.id,
            size: pkt.size,
            depth_pkts,
            depth_bytes,
        });
    }

    #[inline]
    fn on_dequeue(
        &mut self,
        now: Time,
        switch: u32,
        port: u16,
        pkt_id: u64,
        depth_pkts: u32,
        wait_ns: u64,
    ) {
        let engine = self
            .port_fifo
            .get_mut(&(switch, port))
            .and_then(|q| q.pop_front())
            .unwrap_or(0);
        self.engine_ring(switch, engine).push(TraceEvent::Dequeue {
            t: now,
            switch,
            port,
            pkt_id,
            depth_pkts,
            wait_ns,
        });
    }

    #[inline]
    fn on_drop(
        &mut self,
        now: Time,
        switch: u32,
        port: u16,
        engine: u16,
        pkt: &PacketMeta,
        reason: DropReason,
    ) {
        self.engine_ring(switch, engine).push(TraceEvent::Drop {
            t: now,
            switch,
            port,
            engine,
            pkt_id: pkt.id,
            reason,
        });
    }

    #[inline]
    fn on_nic_drop(&mut self, now: Time, host: u32, pkt: &PacketMeta) {
        self.host_ring().push(TraceEvent::NicDrop {
            t: now,
            host,
            pkt_id: pkt.id,
        });
    }

    #[inline]
    fn on_fault(&mut self, now: Time, info: &FaultInfo) {
        self.control_ring().push(TraceEvent::Fault {
            t: now,
            kind: info.kind,
            a: info.a,
            b: info.b,
            param: info.param,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ns: u64) -> TraceEvent {
        TraceEvent::NicDrop {
            t: Time::from_nanos(ns),
            host: 0,
            pkt_id: ns,
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_overwrites() {
        let mut r = EventRing::new(3);
        assert!(r.is_empty());
        for i in 0..5 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.overwritten(), 2);
        let times: Vec<u64> = r.iter().map(|e| e.time().as_nanos()).collect();
        assert_eq!(times, vec![2, 3, 4], "oldest to newest, newest kept");
    }

    #[test]
    fn ring_iterates_in_order_before_wrap() {
        let mut r = EventRing::new(8);
        for i in 0..3 {
            r.push(ev(i));
        }
        let times: Vec<u64> = r.iter().map(|e| e.time().as_nanos()).collect();
        assert_eq!(times, vec![0, 1, 2]);
        assert_eq!(r.overwritten(), 0);
    }

    #[test]
    fn recorder_routes_events_to_engine_rings() {
        let mut rec = FlightRecorder::new(2, 2, 16);
        assert_eq!(rec.ring_count(), 6); // 2 switches x 2 engines + host + control
        let m = PacketMeta {
            id: 7,
            size: 1500,
            ..Default::default()
        };
        rec.on_enqueue(Time::from_nanos(10), 1, 3, 1, &m, 2, 3000);
        rec.on_host_send(Time::from_nanos(5), 0, &m);
        // Switch 1, engine 1 is ring index 1*2 + 1 = 3.
        let (kind, ring) = rec.ring_at(3);
        assert_eq!(
            kind,
            RingKind::Engine {
                switch: 1,
                engine: 1
            }
        );
        assert_eq!(ring.len(), 1);
        let (kind, host_ring) = rec.ring_at(4);
        assert_eq!(kind, RingKind::Host);
        assert_eq!(host_ring.len(), 1);
        assert_eq!(rec.event_count(), 2);
    }

    #[test]
    fn dequeue_recovers_engine_through_port_fifo() {
        let mut rec = FlightRecorder::new(1, 2, 16);
        let m = PacketMeta {
            id: 1,
            ..Default::default()
        };
        // Engine 1 enqueues then engine 0, on the same port: the FIFO says
        // the first dequeue belongs to engine 1.
        rec.on_enqueue(Time::from_nanos(1), 0, 5, 1, &m, 1, 100);
        rec.on_enqueue(Time::from_nanos(2), 0, 5, 0, &m, 2, 200);
        rec.on_dequeue(Time::from_nanos(10), 0, 5, 1, 1, 9);
        rec.on_dequeue(Time::from_nanos(20), 0, 5, 2, 0, 18);
        let deq_in = |idx: usize| {
            rec.ring_at(idx)
                .1
                .iter()
                .filter(|e| matches!(e, TraceEvent::Dequeue { .. }))
                .count()
        };
        assert_eq!(deq_in(0), 1, "engine 0 ring has its own dequeue");
        assert_eq!(deq_in(1), 1, "engine 1 ring has its own dequeue");
    }

    #[test]
    fn unknown_engine_lands_in_ring_zero() {
        let mut rec = FlightRecorder::new(1, 2, 16);
        let m = PacketMeta::default();
        rec.on_drop(
            Time::from_nanos(3),
            0,
            2,
            u16::MAX,
            &m,
            DropReason::LinkDown,
        );
        // A dequeue with no recorded enqueue falls back to engine 0 too.
        rec.on_dequeue(Time::from_nanos(4), 0, 9, 77, 0, 1);
        assert_eq!(rec.ring_at(0).1.len(), 2);
        assert_eq!(rec.ring_at(1).1.len(), 0);
    }

    #[test]
    fn fault_events_land_in_the_control_ring() {
        let mut rec = FlightRecorder::new(2, 2, 16);
        let info = FaultInfo {
            kind: crate::fault_kind::LINK_DOWN,
            a: 0,
            b: 5,
            param: 0,
        };
        rec.on_fault(Time::from_nanos(42), &info);
        let last = rec.ring_count() - 1;
        let (kind, ring) = rec.ring_at(last);
        assert_eq!(kind, RingKind::Control);
        assert_eq!(ring.len(), 1);
        match ring.iter().next().unwrap() {
            TraceEvent::Fault { t, kind, a, b, .. } => {
                assert_eq!(t.as_nanos(), 42);
                assert_eq!(*kind, crate::fault_kind::LINK_DOWN);
                assert_eq!((*a, *b), (0, 5));
            }
            other => panic!("unexpected event {other:?}"),
        }
        // The host ring is untouched (it now sits second to last).
        assert_eq!(rec.ring_at(last - 1).0, RingKind::Host);
        assert_eq!(rec.ring_at(last - 1).1.len(), 0);
    }
}
