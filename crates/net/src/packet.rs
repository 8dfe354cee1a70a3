//! The simulated packet.

use drill_sim::Time;

use crate::ids::{FlowId, HostId};

/// Ethernet + IP + TCP header overhead added to every data segment, in
/// bytes (14 Ethernet + 4 FCS + 20 IP + 20 TCP).
pub const HEADER_BYTES: u32 = 58;

/// Payload bytes of a full 1500-byte wire frame: TCP's default segment
/// size and the segment cut of a NIC train.
pub const MSS_BYTES: u32 = 1500 - HEADER_BYTES;

/// Wire size of a pure ACK (headers only, padded to the Ethernet minimum).
pub const ACK_WIRE_BYTES: u32 = 64;

/// TCP-style packet flags (defined in `drill-telemetry`, which sits below
/// this crate and reads the same bits off [`drill_telemetry::PacketMeta`]).
pub use drill_telemetry::meta_flags as flags;

/// CONGA metadata carried in the (simulated) VXLAN overlay header.
///
/// `path` identifies the uplink chosen at the source leaf; `ce` is the
/// congestion-extent metric aggregated along the path (max of per-hop DREs).
/// The `fb_*` fields piggyback one feedback entry in the reverse direction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CongaTag {
    /// Uplink (path) index chosen at the source leaf.
    pub path: u16,
    /// Congestion extent gathered along the path (3-bit quantized).
    pub ce: u8,
    /// Feedback: path index at the *destination* leaf this feedback refers to.
    pub fb_path: u16,
    /// Feedback: congestion extent for `fb_path`.
    pub fb_ce: u8,
    /// Whether the feedback fields are meaningful.
    pub fb_valid: bool,
}

/// A packet in flight.
///
/// Sized for by-value movement through the event queue. Higher layers
/// interpret the TCP-ish fields; switches only read `dst`, `flow_hash`, the
/// source-route and the CONGA tag.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Globally unique packet id (diagnostics, reorder tracking).
    pub id: u64,
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Sending host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Stable hash of the flow's 5-tuple (assigned at flow creation).
    pub flow_hash: u64,
    /// Total bytes on the wire (payload + [`HEADER_BYTES`]).
    pub size: u32,
    /// TCP payload bytes (0 for pure ACKs).
    pub payload: u32,
    /// First payload byte's sequence number.
    pub seq: u64,
    /// Cumulative acknowledgement (valid when `flags::ACK`).
    pub ack: u64,
    /// Packet flags (see [`flags`]).
    pub flags: u8,
    /// Time the packet was handed to the sender NIC (for RTT sampling the
    /// receiver echoes this in `echo`).
    pub sent: Time,
    /// Echoed `sent` timestamp of the segment this ACK acknowledges.
    pub echo: Time,
    /// Sender-side emission index within the flow (reordering metrics).
    pub emit_idx: u32,
    /// Source route: up to three explicit transit switch ids (Presto; a
    /// 3-stage Clos up-and-down path has three transit choices).
    pub srcroute: [u32; 3],
    /// Number of valid entries in `srcroute`.
    pub srcroute_len: u8,
    /// Next unconsumed entry in `srcroute`.
    pub srcroute_pos: u8,
    /// CONGA overlay metadata.
    pub conga: CongaTag,
}

impl Packet {
    /// A data segment of `payload` bytes.
    #[allow(clippy::too_many_arguments)]
    pub fn data(
        id: u64,
        flow: FlowId,
        src: HostId,
        dst: HostId,
        flow_hash: u64,
        seq: u64,
        payload: u32,
        now: Time,
    ) -> Packet {
        Packet {
            id,
            flow,
            src,
            dst,
            flow_hash,
            size: payload + HEADER_BYTES,
            payload,
            seq,
            ack: 0,
            flags: flags::DATA,
            sent: now,
            echo: Time::ZERO,
            emit_idx: 0,
            srcroute: [0; 3],
            srcroute_len: 0,
            srcroute_pos: 0,
            conga: CongaTag::default(),
        }
    }

    /// A pure ACK from `src` back to `dst` acknowledging `ack` bytes.
    pub fn pure_ack(
        id: u64,
        flow: FlowId,
        src: HostId,
        dst: HostId,
        flow_hash: u64,
        ack: u64,
        now: Time,
    ) -> Packet {
        Packet {
            id,
            flow,
            src,
            dst,
            flow_hash,
            size: ACK_WIRE_BYTES,
            payload: 0,
            seq: 0,
            ack,
            flags: flags::ACK,
            sent: now,
            echo: Time::ZERO,
            emit_idx: 0,
            srcroute: [0; 3],
            srcroute_len: 0,
            srcroute_pos: 0,
            conga: CongaTag::default(),
        }
    }

    /// Whether this packet carries payload.
    #[inline]
    pub fn is_data(&self) -> bool {
        self.flags & flags::DATA != 0
    }

    /// Whether this packet carries an acknowledgement.
    #[inline]
    pub fn is_ack(&self) -> bool {
        self.flags & flags::ACK != 0
    }

    /// Whether this is a retransmission.
    #[inline]
    pub fn is_retx(&self) -> bool {
        self.flags & flags::RETX != 0
    }

    /// End of this segment's payload in sequence space.
    #[inline]
    pub fn seq_end(&self) -> u64 {
        self.seq + self.payload as u64
    }

    /// The telemetry-facing field mirror (see `drill_telemetry::Probe`).
    /// Call sites gate on `Probe::ENABLED` so the copy never happens on
    /// the disabled path.
    #[inline]
    pub fn meta(&self) -> drill_telemetry::PacketMeta {
        drill_telemetry::PacketMeta {
            id: self.id,
            flow: self.flow.0,
            src: self.src.0,
            dst: self.dst.0,
            size: self.size,
            seq: self.seq,
            emit_idx: self.emit_idx,
            flags: self.flags,
        }
    }

    /// Push a source-route hop (panics if the route is full).
    pub fn push_route(&mut self, switch: u32) {
        assert!(
            (self.srcroute_len as usize) < self.srcroute.len(),
            "source route full"
        );
        self.srcroute[self.srcroute_len as usize] = switch;
        self.srcroute_len += 1;
    }

    /// Consume the next source-route hop, if any remain.
    pub fn next_route_hop(&mut self) -> Option<u32> {
        if self.srcroute_pos < self.srcroute_len {
            let hop = self.srcroute[self.srcroute_pos as usize];
            self.srcroute_pos += 1;
            Some(hop)
        } else {
            None
        }
    }
}

/// A recycling pool of batch buffers.
///
/// The event loop repeatedly collects small bursts of items (TCP
/// transmissions, ACK batches, shim releases) into a `Vec`, hands each
/// item onward by value, and discards the vector. Allocating a fresh
/// vector per event dominated the allocator profile of long runs; the
/// pool keeps emptied buffers (capacity intact) for reuse, so the
/// steady-state hot path performs no allocation at all.
///
/// Buffers are returned cleared; `get` on an empty pool falls back to a
/// fresh `Vec`, so the pool is always safe to use and never a correctness
/// concern — only a recycling hint.
#[derive(Default)]
pub struct BufPool<T> {
    bufs: Vec<Vec<T>>,
}

/// Pool of [`Packet`] batch buffers (TCP/ACK emission bursts).
pub type PacketBufPool = BufPool<Packet>;

impl<T> BufPool<T> {
    /// An empty pool.
    pub const fn new() -> BufPool<T> {
        BufPool { bufs: Vec::new() }
    }

    /// Take an empty buffer from the pool (or allocate one).
    #[inline]
    pub fn get(&mut self) -> Vec<T> {
        self.bufs.pop().unwrap_or_default()
    }

    /// Return a buffer to the pool for reuse. Contents are dropped.
    #[inline]
    pub fn put(&mut self, mut buf: Vec<T>) {
        buf.clear();
        self.bufs.push(buf);
    }

    /// Number of idle buffers currently pooled.
    #[inline]
    pub fn idle(&self) -> usize {
        self.bufs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_mirrors_packet_fields() {
        let mut p = Packet::data(
            9,
            FlowId(2),
            HostId(3),
            HostId(4),
            0xdead,
            1460,
            1000,
            Time::from_micros(5),
        );
        p.emit_idx = 17;
        let m = p.meta();
        assert_eq!(m.id, 9);
        assert_eq!(m.flow, 2);
        assert_eq!(m.src, 3);
        assert_eq!(m.dst, 4);
        assert_eq!(m.size, 1000 + HEADER_BYTES);
        assert_eq!(m.seq, 1460);
        assert_eq!(m.emit_idx, 17);
        assert_eq!(m.flags, flags::DATA);
    }

    #[test]
    fn data_packet_fields() {
        let p = Packet::data(
            1,
            FlowId(2),
            HostId(3),
            HostId(4),
            0xdead,
            1460,
            1460,
            Time::from_micros(5),
        );
        assert!(p.is_data());
        assert!(!p.is_ack());
        assert_eq!(p.size, 1460 + HEADER_BYTES);
        assert_eq!(p.seq_end(), 2920);
        assert_eq!(p.sent, Time::from_micros(5));
    }

    #[test]
    fn ack_packet_fields() {
        let p = Packet::pure_ack(1, FlowId(2), HostId(4), HostId(3), 0xdead, 2920, Time::ZERO);
        assert!(p.is_ack());
        assert!(!p.is_data());
        assert_eq!(p.size, ACK_WIRE_BYTES);
        assert_eq!(p.ack, 2920);
        assert_eq!(p.payload, 0);
    }

    #[test]
    fn source_route_roundtrip() {
        let mut p = Packet::data(1, FlowId(0), HostId(0), HostId(1), 0, 0, 100, Time::ZERO);
        assert_eq!(p.next_route_hop(), None);
        p.push_route(10);
        p.push_route(20);
        assert_eq!(p.next_route_hop(), Some(10));
        assert_eq!(p.next_route_hop(), Some(20));
        assert_eq!(p.next_route_hop(), None);
    }

    #[test]
    #[should_panic(expected = "source route full")]
    fn source_route_overflow_panics() {
        let mut p = Packet::data(1, FlowId(0), HostId(0), HostId(1), 0, 0, 100, Time::ZERO);
        p.push_route(1);
        p.push_route(2);
        p.push_route(3);
        p.push_route(4);
    }

    #[test]
    fn packet_is_reasonably_small() {
        // Packets move by value through the event queue; keep them compact.
        assert!(
            std::mem::size_of::<Packet>() <= 112,
            "{}",
            std::mem::size_of::<Packet>()
        );
    }

    #[test]
    fn buf_pool_recycles_capacity() {
        let mut pool = PacketBufPool::new();
        let mut buf = pool.get();
        for i in 0..32 {
            buf.push(Packet::data(
                i,
                FlowId(0),
                HostId(0),
                HostId(1),
                0,
                0,
                100,
                Time::ZERO,
            ));
        }
        let cap = buf.capacity();
        pool.put(buf);
        assert_eq!(pool.idle(), 1);
        let buf = pool.get();
        assert!(buf.is_empty(), "pooled buffers come back cleared");
        assert_eq!(buf.capacity(), cap, "capacity survives the round trip");
        assert_eq!(pool.idle(), 0);
    }
}
