//! Network substrate for the DRILL reproduction: packets, Clos topologies,
//! output-queued switches with multiple forwarding engines, host NICs, and
//! the load-balancer plug-in API.
//!
//! The models here implement what the paper's OMNET++/INET setup provided:
//!
//! * store-and-forward links with exact serialization + propagation timing;
//! * output-queued switches with tail-drop FIFO port queues;
//! * multiple independent *forwarding engines* per switch (§3.2.1), each
//!   packet handled by the engine of its ingress port;
//! * the queue-occupancy *visibility lag* the paper models: a packet that is
//!   still being written into an output queue is invisible to the engines'
//!   load sensing until fully enqueued — the root cause of the paper's
//!   synchronization effect (§3.2.3);
//! * topology builders for every network evaluated in the paper (two-stage
//!   leaf-spine with arbitrary over-subscription, the scale-out variant,
//!   heterogeneous/imbalanced striping, VL2 and fat-tree), plus
//!   production-scale fabrics: general three-tier Clos ([`clos`]) and
//!   oversubscribed large fat-trees ([`ClosSpec::fat_tree`], k=32/64);
//! * shortest-path (ECMP-style) routing with link-failure support.
//!
//! Load-balancing *policies* plug in through [`SwitchPolicy`] /
//! [`HostPolicy`]; the DRILL algorithm itself lives in `drill-core`, and the
//! baselines (ECMP, per-packet Random/RR, Presto, CONGA, WCMP) in
//! `drill-lb`.

#![warn(missing_docs)]

mod arena;
mod builders;
mod host;
mod ids;
mod lbapi;
mod packet;
mod routing;
mod switch;
mod topology;

pub use arena::{PacketArena, PacketRef};
pub use builders::{
    clos, fat_tree, leaf_spine, leaf_spine_custom, vl2, ClosSpec, LeafSpineSpec, Vl2Spec,
    DEFAULT_PROP,
};
pub use host::{HostNic, Train, HOST_NIC_BUF_BYTES};
pub use ids::{FlowId, HostId, LinkId, NodeRef, SwitchId};
pub use lbapi::{
    weighted_group_pick, HostPolicy, NullHostPolicy, PortGroup, QueueView, SelectCtx, SwitchPolicy,
};
pub use packet::{
    flags, BufPool, CongaTag, Packet, PacketBufPool, ACK_WIRE_BYTES, HEADER_BYTES, MSS_BYTES,
};
pub use routing::{RouteTable, UNREACHABLE};
pub use switch::{PortQueues, PortStats, Switch, SwitchConfig};
pub use topology::{HopClass, Link, SwitchKind, Topology};

use drill_sim::Time;

/// Events produced by the network layer, to be embedded in the simulation's
/// global event enum by the runtime.
///
/// Packet-carrying variants hold a [`PacketRef`] into the run's
/// [`PacketArena`], not the packet itself: a device hands each event to
/// its [`NetSink`] by value and the runtime's sink packs it into the two
/// words a wheel entry stores, so they are pinned small by the `const`
/// assert below.
#[derive(Debug)]
pub enum NetEvent {
    /// A packet has fully arrived at a switch (store-and-forward).
    ArriveSwitch {
        /// Destination switch.
        switch: SwitchId,
        /// Ingress port at that switch (selects the forwarding engine).
        ingress: u16,
        /// Handle to the packet.
        pkt: PacketRef,
    },
    /// A packet has fully arrived at a host NIC.
    ArriveHost {
        /// Destination host.
        host: HostId,
        /// Handle to the packet.
        pkt: PacketRef,
    },
    /// A switch output port finished serializing its head packet.
    SwitchTxDone {
        /// The switch.
        switch: SwitchId,
        /// The output port.
        port: u16,
    },
    /// A host NIC finished serializing its head packet.
    HostTxDone {
        /// The host.
        host: HostId,
    },
    /// A packet previously appended to a switch output queue has been fully
    /// written to buffer memory and becomes visible to the forwarding
    /// engines' load sensing (§3.2.1).
    EnqueueCommit {
        /// The switch.
        switch: SwitchId,
        /// The output port.
        port: u16,
        /// Bytes that become visible.
        bytes: u32,
        /// The forwarding engine that performed the enqueue (its pending
        /// counter is released by the commit).
        engine: u16,
    },
}

/// Where a device puts the events it produces: `(deliver_at, event)`
/// pairs, in the order it produces them.
///
/// Emission order is the tie-break for same-timestamp events (a switch
/// emits enqueue-commit before tx-done so a packet becomes visible before
/// it departs), so a sink must keep it. The runtime's sink schedules each
/// event on the event queue as it is emitted; an [`EventSink`] collects
/// them for callers that drive a device by hand (unit tests, micro
/// benchmarks).
pub trait NetSink {
    /// Schedule `ev` for `at`.
    fn emit(&mut self, at: Time, ev: NetEvent);
}

/// A sink that collects what a device emits, in emission order.
pub type EventSink = Vec<(Time, NetEvent)>;

impl NetSink for EventSink {
    #[inline]
    fn emit(&mut self, at: Time, ev: NetEvent) {
        self.push((at, ev));
    }
}

/// Hand `pkt`, leaving the wire at `now`, to the far end of `link` (a
/// switch's ingress port or a host) one propagation delay later. Inlined
/// so each arm builds its event at the emit: one built out of line goes
/// through the stack and stalls the sink's wide reload (DESIGN.md §10).
#[inline(always)]
pub(crate) fn hand_off(out: &mut impl NetSink, link: &Link, now: Time, pkt: PacketRef) {
    let at = now + link.prop;
    match link.dst {
        NodeRef::Switch(switch) => out.emit(
            at,
            NetEvent::ArriveSwitch {
                switch,
                ingress: link.dst_port,
                pkt,
            },
        ),
        NodeRef::Host(host) => out.emit(at, NetEvent::ArriveHost { host, pkt }),
    }
}

/// The whole point of the arena: handle-based events stay two words.
/// `ArriveSwitch` (u32 switch + u16 ingress + 8-byte [`PacketRef`]) is the
/// largest variant at 16 bytes including the discriminant.
const _: () = assert!(std::mem::size_of::<NetEvent>() <= 16);
