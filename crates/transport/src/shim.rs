//! The reordering-resilient shim layer (§3.3).
//!
//! Presto \[42\] and Juggler \[35\] restore in-sequence delivery below TCP by
//! buffering out-of-order packets in the GRO handler; DRILL can optionally
//! deploy the same shim ("DRILL" vs "DRILL w/o shim" in every figure).
//!
//! The model: per-flow, packets whose sequence number is ahead of the
//! expected next byte are held in a small buffer. They are released as soon
//! as the gap fills, or after a timeout (which signals a real loss, letting
//! TCP's duplicate-ACK machinery engage). The buffer owns its flush
//! deadline: a flush wake counts only if it names the deadline armed now.
//!
//! Packets are held as [`PacketRef`] handles into the runtime's
//! [`PacketArena`]; released handles are appended to a caller-supplied
//! buffer (the runtime recycles those buffers through a pool, so the
//! per-packet fast path allocates nothing).

use std::collections::BTreeMap;
use std::io;

use drill_net::{PacketArena, PacketRef};
use drill_sim::codec::{put_opt_time, put_varint, Decoder};
use drill_sim::Time;

use crate::DUPACK_THRESH;

/// Default hold timeout before a gap is declared a loss and the buffer is
/// flushed (roughly one loaded fabric RTT: long enough to absorb
/// microburst-scale reordering, short enough not to stall TCP's
/// duplicate-ACK loss detection).
pub const SHIM_DEFAULT_TIMEOUT: Time = Time::from_micros(100);

/// Default: once this many packets are held above a gap, the gap is
/// declared a loss and the buffer flushes immediately — the same
/// 3-packets-passed-me evidence TCP's duplicate-ACK threshold
/// ([`DUPACK_THRESH`]) uses. Keeps the shim from stalling ACK clocking
/// behind real losses. Schemes that reorder at coarser granularity
/// (Presto's 64 KB flowcells can race a whole cell ahead) configure a
/// correspondingly larger threshold via [`ShimBuffer::with_threshold`].
pub const SHIM_FLUSH_THRESHOLD: usize = DUPACK_THRESH as usize;

/// Per-flow reordering buffer. It owns its flush deadline: the caller
/// schedules a wake at each deadline [`on_packet`](ShimBuffer::on_packet)
/// returns and hands every wake to [`on_timer`](ShimBuffer::on_timer),
/// which ignores one whose time is no longer armed.
#[derive(Debug)]
pub struct ShimBuffer {
    expected: u64,
    buf: BTreeMap<u64, PacketRef>,
    threshold: usize,
    timeout: Time,
    /// Deadline of the armed flush timer: set when a packet is held in an
    /// empty buffer, cleared whenever the buffer empties.
    armed: Option<Time>,
    /// Packets that were delivered late (flushed by timeout).
    pub timeout_flushes: u64,
    /// Packets that were held and released in order.
    pub reordered_held: u64,
}

impl ShimBuffer {
    /// A shim buffer with the given hold timeout and the default flush
    /// threshold.
    pub fn new(timeout: Time) -> ShimBuffer {
        ShimBuffer::with_threshold(timeout, SHIM_FLUSH_THRESHOLD)
    }

    /// A shim buffer with an explicit held-packet flush threshold.
    pub fn with_threshold(timeout: Time, threshold: usize) -> ShimBuffer {
        ShimBuffer {
            expected: 0,
            buf: BTreeMap::new(),
            threshold,
            timeout,
            armed: None,
            timeout_flushes: 0,
            reordered_held: 0,
        }
    }

    /// Bytes the shim considers delivered in-sequence so far.
    pub fn expected(&self) -> u64 {
        self.expected
    }

    /// Number of packets currently held.
    pub fn held(&self) -> usize {
        self.buf.len()
    }

    /// Offer an arriving data packet. In-order (and old/duplicate) packets
    /// are delivered immediately, together with any buffered packets they
    /// release; ahead-of-sequence packets are held. Handles to deliver up
    /// the stack are appended to `deliver`; returns the flush deadline
    /// when this packet armed one.
    pub fn on_packet(
        &mut self,
        arena: &PacketArena,
        pref: PacketRef,
        now: Time,
        deliver: &mut Vec<PacketRef>,
    ) -> Option<Time> {
        let (seq, seq_end) = {
            let pkt = arena.get(&pref);
            (pkt.seq, pkt.seq_end())
        };
        if seq <= self.expected {
            self.expected = self.expected.max(seq_end);
            deliver.push(pref);
            // Release buffered packets that are now in sequence.
            while let Some((&s, _)) = self.buf.first_key_value() {
                if s > self.expected {
                    break;
                }
                let (_, p) = self.buf.pop_first().expect("checked non-empty");
                self.expected = self.expected.max(arena.get(&p).seq_end());
                self.reordered_held += 1;
                deliver.push(p);
            }
            if self.buf.is_empty() {
                self.armed = None;
            }
            // Still gapped: keep the existing timer.
            return None;
        }
        // Ahead of sequence: hold — unless enough packets have already
        // passed the gap to call it a loss, in which case flush so TCP's
        // duplicate-ACK machinery engages without delay.
        self.buf.insert(seq, pref);
        if self.buf.len() >= self.threshold {
            while let Some((_, p)) = self.buf.pop_first() {
                self.expected = self.expected.max(arena.get(&p).seq_end());
                self.timeout_flushes += 1;
                deliver.push(p);
            }
            self.armed = None;
            return None;
        }
        if self.armed.is_none() {
            self.armed = Some(now + self.timeout);
            return self.armed;
        }
        None
    }

    /// A flush wake popped at `now`: if it is the armed deadline, release
    /// everything held (in sequence order) so TCP sees the loss. Released
    /// handles are appended to `deliver`.
    pub fn on_timer(&mut self, arena: &PacketArena, now: Time, deliver: &mut Vec<PacketRef>) {
        if self.armed != Some(now) {
            return;
        }
        while let Some((_, p)) = self.buf.pop_first() {
            self.expected = self.expected.max(arena.get(&p).seq_end());
            self.timeout_flushes += 1;
            deliver.push(p);
        }
        self.armed = None;
    }

    /// Serialize the buffer. Held handles are encoded against `arena`;
    /// `threshold`/`timeout` are config, not serialized.
    pub fn save_state(&self, arena: &PacketArena, buf: &mut Vec<u8>) {
        put_varint(buf, self.expected);
        put_varint(buf, self.buf.len() as u64);
        for (&s, r) in &self.buf {
            put_varint(buf, s);
            arena.encode_ref(buf, r);
        }
        put_opt_time(buf, self.armed);
        put_varint(buf, self.timeout_flushes);
        put_varint(buf, self.reordered_held);
    }

    /// Restore state written by [`save_state`](ShimBuffer::save_state) into
    /// a freshly configured buffer.
    pub fn load_state(&mut self, arena: &PacketArena, d: &mut Decoder<'_>) -> io::Result<()> {
        self.expected = d.varint()?;
        let n = d.varint_usize()?;
        self.buf.clear();
        for _ in 0..n {
            let s = d.varint()?;
            let r = arena.decode_ref(d)?;
            self.buf.insert(s, r);
        }
        self.armed = d.opt_time()?;
        self.timeout_flushes = d.varint()?;
        self.reordered_held = d.varint()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drill_net::{FlowId, HostId, Packet};

    fn pkt(seq: u64, payload: u32) -> Packet {
        Packet::data(
            seq,
            FlowId(0),
            HostId(0),
            HostId(1),
            7,
            seq,
            payload,
            Time::ZERO,
        )
    }

    /// Intern and offer a packet, returning the released handles by value
    /// (tests don't pool buffers).
    fn offer(
        s: &mut ShimBuffer,
        arena: &mut PacketArena,
        p: Packet,
        now: Time,
    ) -> (Vec<PacketRef>, Option<Time>) {
        let r = arena.insert(p);
        let mut deliver = Vec::new();
        let timer = s.on_packet(arena, r, now, &mut deliver);
        (deliver, timer)
    }

    fn seq_of(arena: &PacketArena, r: &PacketRef) -> u64 {
        arena.get(r).seq
    }

    #[test]
    fn in_order_passes_through() {
        let mut s = ShimBuffer::new(SHIM_DEFAULT_TIMEOUT);
        let mut arena = PacketArena::new();
        for i in 0..5u64 {
            let (d, t) = offer(&mut s, &mut arena, pkt(i * 100, 100), Time::from_micros(i));
            assert_eq!(d.len(), 1);
            assert!(t.is_none());
        }
        assert_eq!(s.expected(), 500);
        assert_eq!(s.held(), 0);
        assert_eq!(s.reordered_held, 0);
    }

    #[test]
    fn gap_holds_until_filled() {
        let mut s = ShimBuffer::new(SHIM_DEFAULT_TIMEOUT);
        let mut arena = PacketArena::new();
        let (d, t) = offer(&mut s, &mut arena, pkt(0, 100), Time::ZERO);
        assert_eq!(d.len(), 1);
        assert!(t.is_none());
        // Packet 2 arrives before packet 1: held, timer armed.
        let (d, t) = offer(&mut s, &mut arena, pkt(200, 100), Time::from_micros(1));
        assert!(d.is_empty());
        let at = t.expect("timer armed");
        assert_eq!(at, Time::from_micros(1) + SHIM_DEFAULT_TIMEOUT);
        assert_eq!(s.held(), 1);
        // Gap fills: both delivered, in order.
        let (d, t) = offer(&mut s, &mut arena, pkt(100, 100), Time::from_micros(2));
        assert_eq!(d.len(), 2);
        assert_eq!(seq_of(&arena, &d[0]), 100);
        assert_eq!(seq_of(&arena, &d[1]), 200);
        assert!(t.is_none());
        assert_eq!(s.expected(), 300);
        assert_eq!(s.reordered_held, 1);
    }

    #[test]
    fn timeout_flushes_ascending() {
        let mut s = ShimBuffer::new(Time::from_micros(100));
        let mut arena = PacketArena::new();
        offer(&mut s, &mut arena, pkt(0, 100), Time::ZERO);
        let (_, t) = offer(&mut s, &mut arena, pkt(300, 100), Time::from_micros(1));
        let at = t.unwrap();
        let (d2, t2) = offer(&mut s, &mut arena, pkt(200, 100), Time::from_micros(2));
        assert!(d2.is_empty() && t2.is_none(), "timer already armed");
        // Fire the flush: both held packets released in seq order.
        let mut flushed = Vec::new();
        s.on_timer(&arena, at, &mut flushed);
        assert_eq!(flushed.len(), 2);
        assert_eq!(seq_of(&arena, &flushed[0]), 200);
        assert_eq!(seq_of(&arena, &flushed[1]), 300);
        assert_eq!(s.timeout_flushes, 2);
        assert_eq!(s.expected(), 400);
        // The packet that eventually arrives late passes straight through.
        let (d, _) = offer(&mut s, &mut arena, pkt(100, 100), Time::from_micros(150));
        assert_eq!(d.len(), 1);
    }

    /// Seeded arrival orders of a window, the timer firing as the event
    /// loop would: every packet is delivered exactly once and every
    /// delivery frees its arena slot.
    #[test]
    fn shuffled_windows_deliver_each_packet_once() {
        let mut rng = drill_sim::SimRng::seed_from(0x5111);
        for _ in 0..128 {
            let n = 1 + rng.below(23) as u64;
            let mut order: Vec<u64> = (0..n).collect();
            rng.shuffle(&mut order);
            let mut s = ShimBuffer::new(Time::from_micros(1 + rng.below(499) as u64));
            let mut arena = PacketArena::new();
            let mut delivered = Vec::new();
            let mut timer: Option<Time> = None;
            let fire = |s: &mut ShimBuffer, arena: &mut PacketArena, at: Time| {
                let mut out = Vec::new();
                s.on_timer(arena, at, &mut out);
                out.into_iter()
                    .map(|r| arena.take(r).seq)
                    .collect::<Vec<_>>()
            };
            for (i, &k) in order.iter().enumerate() {
                let now = Time::from_micros(i as u64);
                if let Some(t) = timer.filter(|&at| at <= now) {
                    delivered.extend(fire(&mut s, &mut arena, t));
                    timer = None;
                }
                let (d, t) = offer(&mut s, &mut arena, pkt(k * 100, 100), now);
                delivered.extend(d.into_iter().map(|r| arena.take(r).seq));
                timer = t.or(timer);
            }
            if let Some(t) = timer {
                delivered.extend(fire(&mut s, &mut arena, t));
            }
            delivered.sort_unstable();
            assert_eq!(delivered, (0..n).map(|k| k * 100).collect::<Vec<_>>());
            assert_eq!(arena.live(), 0);
        }
    }

    #[test]
    fn stale_timer_ignored() {
        let mut s = ShimBuffer::new(Time::from_micros(100));
        let mut arena = PacketArena::new();
        offer(&mut s, &mut arena, pkt(0, 100), Time::ZERO);
        let (_, t) = offer(&mut s, &mut arena, pkt(200, 100), Time::from_micros(1));
        let at = t.unwrap();
        // Gap fills before the timer fires.
        offer(&mut s, &mut arena, pkt(100, 100), Time::from_micros(2));
        let mut flushed = Vec::new();
        s.on_timer(&arena, at, &mut flushed);
        assert!(flushed.is_empty());
    }

    /// A disarm and a later re-arm leave two wakes pending: the first
    /// names a deadline that is no longer armed and flushes nothing.
    #[test]
    fn rearmed_timer_ignores_the_old_deadline() {
        let mut s = ShimBuffer::new(Time::from_micros(100));
        let mut arena = PacketArena::new();
        offer(&mut s, &mut arena, pkt(0, 100), Time::ZERO);
        let old = offer(&mut s, &mut arena, pkt(200, 100), Time::from_micros(1)).1;
        offer(&mut s, &mut arena, pkt(100, 100), Time::from_micros(2));
        let new = offer(&mut s, &mut arena, pkt(400, 100), Time::from_micros(3)).1;
        let (old, new) = (old.unwrap(), new.unwrap());
        assert!(old < new);
        let mut flushed = Vec::new();
        s.on_timer(&arena, old, &mut flushed);
        assert!(flushed.is_empty(), "the old deadline is not armed");
        assert_eq!(s.held(), 1);
        s.on_timer(&arena, new, &mut flushed);
        assert_eq!(flushed.len(), 1);
        assert_eq!(seq_of(&arena, &flushed[0]), 400);
        assert_eq!(s.held(), 0);
    }

    #[test]
    fn duplicates_pass_through() {
        let mut s = ShimBuffer::new(SHIM_DEFAULT_TIMEOUT);
        let mut arena = PacketArena::new();
        offer(&mut s, &mut arena, pkt(0, 100), Time::ZERO);
        let (d, _) = offer(&mut s, &mut arena, pkt(0, 100), Time::from_micros(5));
        assert_eq!(d.len(), 1, "retransmissions/duplicates not held");
        assert_eq!(s.expected(), 100);
    }

    #[test]
    fn flush_threshold_triggers_early_release() {
        // Default threshold 3: the third held packet flushes everything.
        let mut s = ShimBuffer::new(SHIM_DEFAULT_TIMEOUT);
        let mut arena = PacketArena::new();
        offer(&mut s, &mut arena, pkt(0, 100), Time::ZERO);
        assert!(
            offer(&mut s, &mut arena, pkt(200, 100), Time::from_micros(1))
                .0
                .is_empty()
        );
        assert!(
            offer(&mut s, &mut arena, pkt(300, 100), Time::from_micros(2))
                .0
                .is_empty()
        );
        let (d, t) = offer(&mut s, &mut arena, pkt(400, 100), Time::from_micros(3));
        assert_eq!(d.len(), 3, "threshold reached: all held packets flush");
        assert!(t.is_none());
        assert_eq!(s.timeout_flushes, 3);
        assert_eq!(s.expected(), 500);
    }

    #[test]
    fn larger_threshold_absorbs_bigger_races() {
        // A Presto-style threshold holds a whole flowcell's worth.
        let mut s = ShimBuffer::with_threshold(SHIM_DEFAULT_TIMEOUT, 64);
        let mut arena = PacketArena::new();
        offer(&mut s, &mut arena, pkt(0, 100), Time::ZERO);
        for i in 2..40u64 {
            let (d, _) = offer(&mut s, &mut arena, pkt(i * 100, 100), Time::from_micros(i));
            assert!(d.is_empty(), "held under threshold");
        }
        // The straggler arrives: everything releases in order.
        let (d, _) = offer(&mut s, &mut arena, pkt(100, 100), Time::from_micros(50));
        assert_eq!(d.len(), 39);
        assert!(d
            .windows(2)
            .all(|w| seq_of(&arena, &w[0]) < seq_of(&arena, &w[1])));
        assert_eq!(s.timeout_flushes, 0, "no loss declared");
    }

    #[test]
    fn multiple_gaps_release_incrementally() {
        let mut s = ShimBuffer::new(SHIM_DEFAULT_TIMEOUT);
        let mut arena = PacketArena::new();
        offer(&mut s, &mut arena, pkt(0, 100), Time::ZERO);
        offer(&mut s, &mut arena, pkt(200, 100), Time::from_micros(1));
        offer(&mut s, &mut arena, pkt(400, 100), Time::from_micros(2));
        assert_eq!(s.held(), 2);
        // Filling the first gap releases only up to the second gap.
        let (d, _) = offer(&mut s, &mut arena, pkt(100, 100), Time::from_micros(3));
        assert_eq!(d.len(), 2);
        assert_eq!(s.held(), 1);
        assert_eq!(s.expected(), 300);
        let (d, _) = offer(&mut s, &mut arena, pkt(300, 100), Time::from_micros(4));
        assert_eq!(d.len(), 2);
        assert_eq!(s.expected(), 500);
    }
}
