//! The flight recorder: bounded ring buffers of lifecycle events.
//!
//! One ring per switch, one for host events and one for control-plane
//! events keeps hot-path appends allocation-free (each ring is a
//! fixed-capacity circular buffer) and keeps a switch's events in the
//! order its hooks fired. Engine events carry their `engine` field, so
//! the per-engine view of the paper's Fig. 2 analysis is a filter over a
//! switch ring. Rings keep the *newest* events: on wraparound the oldest
//! event is overwritten and counted, so a recording always ends with an
//! intact suffix of the run.

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
    /// Every event of one switch (engine choices, enqueues, dequeues,
    /// drops), in hook order.
    Switch {
        /// The switch.
        switch: u32,
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

/// Events kept per forwarding engine: a switch ring holds `engines` times
/// this, the host and control rings this many.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// A [`Probe`] that records every lifecycle event into one ring per
/// switch, one host ring and one control ring.
#[derive(Debug)]
pub struct FlightRecorder {
    engines: usize,
    /// Switch rings by switch id, then the host ring, then the control
    /// ring last.
    rings: Vec<EventRing>,
}

impl FlightRecorder {
    /// A recorder for `num_switches` switches with `engines` forwarding
    /// engines each, keeping `ring_capacity` events per engine.
    pub fn new(num_switches: usize, engines: usize, ring_capacity: usize) -> FlightRecorder {
        assert!(engines >= 1, "at least one engine");
        let mut rings: Vec<EventRing> = (0..num_switches)
            .map(|_| EventRing::new(engines * ring_capacity))
            .collect();
        rings.push(EventRing::new(ring_capacity));
        rings.push(EventRing::new(ring_capacity));
        FlightRecorder { engines, rings }
    }

    /// Switch count this recorder was sized for.
    pub fn num_switches(&self) -> usize {
        self.rings.len() - 2
    }

    /// Engines per switch.
    pub fn engines(&self) -> usize {
        self.engines
    }

    /// Total rings (switch rings + the host ring + the control ring).
    pub fn ring_count(&self) -> usize {
        self.rings.len()
    }

    /// The ring at index `idx` with its kind (switch rings by switch id,
    /// then the host ring, then the control ring).
    pub fn ring_at(&self, idx: usize) -> (RingKind, &EventRing) {
        let kind = match idx.checked_sub(self.num_switches()) {
            None => RingKind::Switch { switch: idx as u32 },
            Some(0) => RingKind::Host,
            Some(_) => RingKind::Control,
        };
        (kind, &self.rings[idx])
    }

    /// All events of every ring, merged and sorted by time. The sort is
    /// stable, so equal timestamps keep their ring's order (a switch's
    /// hook order), rings in [`ring_at`](FlightRecorder::ring_at) order.
    pub fn merged_events(&self) -> Vec<&TraceEvent> {
        let mut all: Vec<&TraceEvent> = self.rings.iter().flat_map(|r| r.iter()).collect();
        all.sort_by_key(|e| e.time());
        all
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
    fn switch_ring(&mut self, switch: u32) -> &mut EventRing {
        &mut self.rings[switch as usize]
    }

    #[inline]
    pub(crate) fn host_ring(&mut self) -> &mut EventRing {
        let idx = self.num_switches();
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
        self.switch_ring(switch).push(TraceEvent::EngineChoice {
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
        self.switch_ring(switch).push(TraceEvent::Enqueue {
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
        self.switch_ring(switch).push(TraceEvent::Dequeue {
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
        self.switch_ring(switch).push(TraceEvent::Drop {
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
    fn recorder_routes_events_to_switch_rings() {
        let mut rec = FlightRecorder::new(2, 2, 16);
        assert_eq!(rec.ring_count(), 4); // 2 switches + host + control
        let m = PacketMeta {
            id: 7,
            size: 1500,
            ..Default::default()
        };
        rec.on_enqueue(Time::from_nanos(10), 1, 3, 1, &m, 2, 3000);
        rec.on_host_send(Time::from_nanos(5), 0, &m);
        let (kind, ring) = rec.ring_at(1);
        assert_eq!(kind, RingKind::Switch { switch: 1 });
        assert_eq!(ring.len(), 1);
        let (kind, host_ring) = rec.ring_at(2);
        assert_eq!(kind, RingKind::Host);
        assert_eq!(host_ring.len(), 1);
        assert_eq!(rec.event_count(), 2);
    }

    #[test]
    fn switch_ring_keeps_hook_order_and_engine_fields() {
        // Two engines of one ring's worth each: four events fit unwrapped.
        let mut rec = FlightRecorder::new(1, 2, 2);
        let m = PacketMeta {
            id: 1,
            ..Default::default()
        };
        rec.on_enqueue(Time::from_nanos(1), 0, 5, 1, &m, 1, 100);
        rec.on_enqueue(Time::from_nanos(1), 0, 5, 0, &m, 2, 200);
        rec.on_dequeue(Time::from_nanos(1), 0, 5, 1, 1, 9);
        rec.on_drop(
            Time::from_nanos(1),
            0,
            2,
            u16::MAX,
            &m,
            DropReason::LinkDown,
        );
        let ring = rec.ring_at(0).1;
        assert_eq!(ring.overwritten(), 0);
        let order: Vec<(u8, u16)> = ring
            .iter()
            .map(|e| match *e {
                TraceEvent::Enqueue { engine, .. } => (0, engine),
                TraceEvent::Dequeue { .. } => (1, u16::MAX),
                TraceEvent::Drop { engine, .. } => (2, engine),
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(order, vec![(0, 1), (0, 0), (1, u16::MAX), (2, u16::MAX)]);
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
