//! The event queue at the heart of the simulator: a hierarchical timing
//! wheel (Varghese & Lauck 1987) with an allocation-free hot path.
//!
//! The previous implementation was a `BinaryHeap` + `HashSet` of cancelled
//! tokens (kept as [`crate::HeapQueue`], the differential test's
//! reference); the wheel replaces O(log n) sift operations with O(1) amortized slot pushes and
//! bitmap scans, and replaces the cancellation hash set with generation
//! stamped slab slots so `cancel` is O(1) and leaves no residue — even when
//! a token is cancelled after its event already fired.
//!
//! # Structure
//!
//! * [`LEVELS`] wheel levels of 64 slots each. Level `k` slots are
//!   `2^BASE_SHIFT * 64^k` ns wide: level 0 slots are 64 ns delivery
//!   windows (drained as one sorted batch, which amortizes staging
//!   bookkeeping across every event in the window) and the whole wheel
//!   spans `2^36` ns ≈ 68.7 simulated seconds ahead of the cursor.
//! * Deadlines beyond the wheel horizon live in a sorted overflow heap
//!   keyed by `(time, seq)` and are migrated into the wheel as the cursor
//!   advances (each migration is itself O(1) amortized).
//! * Entries live in a slab (`Vec` arena) threaded with intrusive singly
//!   linked lists; freed slots go on a free list and are reused, so a
//!   steady-state simulation performs no per-event allocation at all.
//! * Every entry carries the monotone `seq` stamped at push time. When a
//!   level-0 slot is drained for delivery the (usually tiny) batch is
//!   sorted by `(time, seq)`, which restores global FIFO order for
//!   simultaneous events regardless of which level or path each entry
//!   took through the wheel. See DESIGN.md for the ordering proof sketch.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Time;

/// Handle for a cancellable event, returned by
/// [`EventQueue::push_cancellable`].
///
/// Packs a slab index and a generation stamp; a token whose generation no
/// longer matches its slot (because the event fired or was already
/// cancelled) is ignored, so stale cancels are harmless and cost O(1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventToken(pub(crate) u64);

/// log2 of the slot count per level.
const LEVEL_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// log2 of the level-0 slot width in ns. A level-0 slot is a 64 ns
/// delivery window: staging drains the whole window as one batch and the
/// `(time, seq)` sort restores exact order, which amortizes the bitmap
/// scan and cascade bookkeeping over every event in the window instead of
/// paying it per nanosecond-wide slot. It also shortens cascades: a
/// deadline `d` ns ahead sits `BASE_SHIFT` bits lower in the hierarchy
/// than it would with 1 ns slots.
const BASE_SHIFT: u32 = 6;
/// Number of wheel levels; deadlines within
/// `2^(BASE_SHIFT + LEVEL_BITS * LEVELS)` ns of the cursor are
/// wheel-resident, the rest overflow.
const LEVELS: usize = 5;
/// First deadline distance that no longer fits in the wheel (2^36 ns,
/// ≈ 68.7 simulated seconds).
const HORIZON: u64 = 1 << (BASE_SHIFT + LEVEL_BITS * LEVELS as u32);
/// Null link in the intrusive slot lists.
const NIL: u32 = u32::MAX;

/// Lifecycle of a slab slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SlotState {
    /// On the free list.
    Free,
    /// Scheduled and deliverable.
    Live,
    /// Cancelled; storage reclaimed lazily when next encountered.
    Cancelled,
}

/// Size in bytes of one wheel slab entry for payload type `P`.
///
/// `Node` itself is private (its intrusive links are an implementation
/// detail), but embedders pin their per-event memory footprint with
/// `const` asserts — a payload is stored *inside* its slab node, written
/// once by the push and read once by the pop (cascades and slot drains
/// relink nodes, they never copy one), so its size is the node's and the
/// width it is written at is the width it should be read at.
pub const fn node_size<P>() -> usize {
    std::mem::size_of::<Node<P>>()
}

struct Node<P> {
    /// Absolute deadline in nanoseconds.
    time: u64,
    /// Global push order; the FIFO tie-break at equal timestamps.
    seq: u64,
    /// Next entry in the slot list this node is threaded on (or the free
    /// list when `state == Free`).
    next: u32,
    /// Generation stamp; bumped every time the slot is freed so stale
    /// [`EventToken`]s can never touch a reused slot.
    gen: u32,
    state: SlotState,
    payload: Option<P>,
}

/// A deterministic future-event list.
///
/// Generic over the event payload `P`, which the embedding simulation
/// defines (an enum of "packet arrives", "timer fires", ... variants).
///
/// Events at equal timestamps are delivered in push order. Events pushed
/// for a time earlier than the last popped time are a logic error in the
/// caller and panic in debug builds.
pub struct EventQueue<P> {
    /// Slab of event entries; never shrinks, recycled through `free_head`.
    arena: Vec<Node<P>>,
    /// Head of the free list threaded through `arena` (NIL if empty).
    free_head: u32,
    /// Intrusive list heads, `levels[level][slot]`.
    levels: [[u32; SLOTS]; LEVELS],
    /// One occupancy bit per slot, for O(1) next-slot scans.
    occupied: [u64; LEVELS],
    /// Far-future entries (≥ HORIZON ns ahead), sorted by `(time, seq)`.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Delivery staging: the current level-0 batch as `(time, seq, idx)`
    /// tuples sorted ascending, consumed from `ready_pos`. Keys are held
    /// inline so the batch sort and splice searches never chase arena
    /// pointers.
    ready: Vec<(u64, u64, u32)>,
    ready_pos: usize,
    /// Reused permutation buffer for the staging counting sort.
    scratch: Vec<(u64, u64, u32)>,
    /// Internal wheel cursor in ns. Invariant: at every public API
    /// boundary, `now.as_nanos() == elapsed` or every pending event is at
    /// or after `elapsed` (the cursor never passes a live event).
    elapsed: u64,
    now: Time,
    seq: u64,
    /// Entries ever scheduled, entries delivered, and live entries
    /// cancelled. Three counters with one writer each (push, pop, cancel)
    /// instead of one `live` count that both push and pop would
    /// read-modify-write: a pop directly after a push then never reloads
    /// a word the push has just stored. `len()` is their difference.
    pushed: u64,
    popped: u64,
    cancels: u64,
}

impl<P> Default for EventQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> EventQueue<P> {
    /// An empty queue positioned at `Time::ZERO`.
    pub fn new() -> Self {
        EventQueue {
            arena: Vec::new(),
            free_head: NIL,
            levels: [[NIL; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            ready: Vec::new(),
            ready_pos: 0,
            scratch: Vec::new(),
            elapsed: 0,
            now: Time::ZERO,
            seq: 0,
            pushed: 0,
            popped: 0,
            cancels: 0,
        }
    }

    /// The timestamp of the most recently popped event (the simulation
    /// clock).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events delivered so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// The next internally stamped FIFO sequence number. Snapshot capture
    /// records it so [`restore_clock`](EventQueue::restore_clock) can
    /// resume the stream without perturbing any later push's sequence.
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Number of pending (scheduled, not yet delivered or cancelled)
    /// events.
    #[inline]
    pub fn len(&self) -> usize {
        (self.pushed - self.popped - self.cancels) as usize
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of slab slots ever allocated. Bounded by the high-water mark
    /// of concurrently pending events — *not* by the total event count —
    /// which the no-leak regression test asserts.
    #[inline]
    pub fn allocated_slots(&self) -> usize {
        self.arena.len()
    }

    /// Schedule `payload` at absolute time `at`.
    #[inline]
    pub fn push(&mut self, at: Time, payload: P) {
        self.push_cancellable(at, payload);
    }

    /// Schedule `payload` at `delay` after the current clock.
    #[inline]
    pub fn push_after(&mut self, delay: Time, payload: P) {
        self.push(self.now + delay, payload);
    }

    /// Schedule `payload` at `at` with a caller-supplied FIFO sequence
    /// number instead of the internally stamped one.
    ///
    /// The sharded engine stamps one *global* sequence across every shard
    /// wheel, so a cross-wheel merge by `(time, seq)` reproduces exactly
    /// the order a single serial wheel would deliver. Supplied sequence
    /// numbers may arrive out of order relative to earlier pushes (a
    /// mailbox drain replays sequences stamped before later direct
    /// pushes); the `(time, seq)` batch sort restores delivery order.
    /// Internal stamping stays monotone past the largest supplied value,
    /// so mixing both push flavours on one queue remains well-defined.
    pub fn push_with_seq(&mut self, at: Time, seq: u64, payload: P) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        self.seq = self.seq.max(seq + 1);
        let idx = self.alloc(at.as_nanos(), seq, payload);
        self.pushed += 1;
        self.insert(idx);
    }

    /// Schedule `payload` at `at` carrying a caller-supplied sequence
    /// number *without* advancing the internal sequence counter.
    ///
    /// Snapshot restore uses this for out-of-band entries stamped from a
    /// reserved sequence band (fault injections at `FAULT_SEQ_BASE`):
    /// unlike [`push_with_seq`](EventQueue::push_with_seq), a huge banded
    /// seq must not catapult the counter, or every subsequently pushed
    /// event would change sequence and break bit-identical replay.
    pub fn push_stamped(&mut self, at: Time, seq: u64, payload: P) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let idx = self.alloc(at.as_nanos(), seq, payload);
        self.pushed += 1;
        self.insert(idx);
    }

    /// Visit every pending (scheduled, non-cancelled) entry as
    /// `(time, seq, &payload)`, in arbitrary order.
    ///
    /// Snapshot capture walks the slab directly — wheel slots, the staged
    /// ready batch, and the overflow heap all keep their entries `Live` in
    /// the slab until delivery — and normalizes order by sorting the
    /// collected `(time, seq)` keys at the serialization layer.
    pub fn for_each_pending<F: FnMut(Time, u64, &P)>(&self, mut f: F) {
        for node in &self.arena {
            if node.state == SlotState::Live {
                let payload = node.payload.as_ref().expect("live entry has payload");
                f(Time::from_nanos(node.time), node.seq, payload);
            }
        }
    }

    /// Position a **fresh** queue at a restored clock: simulation time
    /// `now`, next internal sequence `seq`, and `popped` events already
    /// delivered before the snapshot.
    ///
    /// Must run before any pushes — pending entries re-inserted afterwards
    /// all carry `time >= now`, so the cursor jump never strands a live
    /// event behind it.
    pub fn restore_clock(&mut self, now: Time, seq: u64, popped: u64) {
        debug_assert!(
            self.pushed == 0 && self.popped == 0,
            "restore_clock requires a fresh queue"
        );
        self.elapsed = now.as_nanos();
        self.now = now;
        self.seq = seq;
        // Nothing is pending: `len()` stays zero across the jump.
        self.pushed = popped;
        self.popped = popped;
    }

    /// Schedule a cancellable event; keep the token to [`cancel`] it.
    ///
    /// [`cancel`]: EventQueue::cancel
    pub fn push_cancellable(&mut self, at: Time, payload: P) -> EventToken {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let idx = self.alloc(at.as_nanos(), seq, payload);
        self.pushed += 1;
        self.insert(idx);
        EventToken(((self.arena[idx as usize].gen as u64) << 32) | idx as u64)
    }

    /// Cancel a previously scheduled cancellable event in O(1). Cancelling
    /// an already-delivered or already-cancelled event is a no-op (the
    /// token's generation stamp no longer matches), and unlike the old
    /// `HashSet` design it leaves no residue behind.
    pub fn cancel(&mut self, token: EventToken) {
        let idx = (token.0 & u32::MAX as u64) as usize;
        let gen = (token.0 >> 32) as u32;
        if let Some(node) = self.arena.get_mut(idx) {
            if node.gen == gen && node.state == SlotState::Live {
                node.state = SlotState::Cancelled;
                node.payload = None;
                self.cancels += 1;
            }
        }
    }

    /// Deliver the next event, advancing the clock. Cancelled events are
    /// skipped silently (and their slots reclaimed).
    pub fn pop(&mut self) -> Option<(Time, P)> {
        if !self.stage() {
            return None;
        }
        let (time, _, idx) = self.ready[self.ready_pos];
        self.ready_pos += 1;
        let t = Time::from_nanos(time);
        let payload = self.arena[idx as usize].payload.take().expect("live entry");
        self.free(idx);
        debug_assert!(t >= self.now);
        self.now = t;
        self.popped += 1;
        Some((t, payload))
    }

    /// Advance the staging machinery until `ready[ready_pos]` is a live
    /// entry — the exact next event by `(time, seq)` — or the queue is
    /// exhausted. Shared by [`pop`](EventQueue::pop) (which consumes the
    /// entry) and [`peek_key`](EventQueue::peek_key) (which only reads
    /// it); staging may advance the internal cursor but never the clock,
    /// and later pushes landing inside the staged window splice into the
    /// live batch at their `(time, seq)` position.
    fn stage(&mut self) -> bool {
        loop {
            // 1. Shed cancelled entries at the head of the staged batch.
            while self.ready_pos < self.ready.len() {
                let (_, _, idx) = self.ready[self.ready_pos];
                if self.arena[idx as usize].state == SlotState::Cancelled {
                    self.free(idx);
                    self.ready_pos += 1;
                    continue;
                }
                return true;
            }
            self.ready.clear();
            self.ready_pos = 0;

            // 2. Pull any overflow entries that now fit in the wheel.
            self.replenish();

            // 3. Find the lowest level with an occupied slot at/after the
            // cursor; by construction it holds the earliest deadline.
            let mut found = None;
            for level in 0..LEVELS {
                if let Some(slot) = self.next_occupied(level) {
                    found = Some((level, slot));
                    break;
                }
            }
            match found {
                None => {
                    // Wheel empty; jump the cursor to the overflow head so
                    // the next replenish can migrate it in.
                    match self.overflow.peek() {
                        Some(&Reverse((t, _, _))) => {
                            self.elapsed = t;
                            continue;
                        }
                        None => return false,
                    }
                }
                Some((0, slot)) => {
                    // Stage the whole 64 ns window for delivery.
                    let window = 1u64 << BASE_SHIFT;
                    let t0 = (self.elapsed & !((window * SLOTS as u64) - 1))
                        | ((slot as u64) << BASE_SHIFT);
                    // The staged slot is at/after the cursor slot, so the
                    // window end never moves the cursor backwards (it may
                    // re-stage the cursor slot itself when an overdue push
                    // parked there after the previous batch drained).
                    debug_assert!(t0 + window > self.elapsed);
                    let mut idx = self.levels[0][slot];
                    self.levels[0][slot] = NIL;
                    self.occupied[0] &= !(1u64 << slot);
                    while idx != NIL {
                        let node = &self.arena[idx as usize];
                        let next = node.next;
                        if node.state == SlotState::Cancelled {
                            self.free(idx);
                        } else {
                            self.ready.push((node.time, node.seq, idx));
                        }
                        idx = next;
                    }
                    // Committing to the window: later pushes that land
                    // inside it take the overdue path and splice into the
                    // live batch, so advancing to the window end jumps no
                    // live entry.
                    self.elapsed = t0 + window - 1;
                    if self.ready.is_empty() {
                        continue; // everything in the slot was cancelled
                    }
                    // FIFO restoration: order by (time, seq). Equal-time
                    // entries deliver in push order; overdue entries parked
                    // onto the cursor slot (time < t0) order first.
                    self.sort_batch(t0);
                    continue;
                }
                Some((level, slot)) => {
                    // Cascade: advance the cursor to the slot's start and
                    // re-distribute its entries into lower levels.
                    //
                    // The occupancy bit may be *stale*: the cursor jumps
                    // straight to the next live deadline (staging, overflow
                    // jumps), skipping slots whose entries were all
                    // cancelled, and such a bit resurfaces one rotation
                    // later where `slot_start` computed from the current
                    // high cursor bits would overshoot pending earlier
                    // events. Live entries are never skipped, so the slot
                    // is current — and the cursor may advance — only if a
                    // live entry is found in it.
                    let shift = BASE_SHIFT + LEVEL_BITS * level as u32;
                    let span = 1u64 << (shift + LEVEL_BITS);
                    let slot_start = (self.elapsed & !(span - 1)) | ((slot as u64) << shift);
                    let mut idx = self.levels[level][slot];
                    self.levels[level][slot] = NIL;
                    self.occupied[level] &= !(1u64 << slot);
                    let mut live = NIL;
                    while idx != NIL {
                        let next = self.arena[idx as usize].next;
                        if self.arena[idx as usize].state == SlotState::Cancelled {
                            self.free(idx);
                        } else {
                            self.arena[idx as usize].next = live;
                            live = idx;
                        }
                        idx = next;
                    }
                    if live != NIL && slot_start > self.elapsed {
                        self.elapsed = slot_start;
                    }
                    while live != NIL {
                        let next = self.arena[live as usize].next;
                        debug_assert!(
                            self.arena[live as usize].time >= slot_start,
                            "live entry behind its slot start"
                        );
                        self.insert(live);
                        live = next;
                    }
                    continue;
                }
            }
        }
    }

    /// Timestamp of the next (non-cancelled) pending event without
    /// delivering it. Does not advance the clock; lazily reclaims any
    /// cancelled entries it walks past.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.peek_key().map(|(t, _)| t)
    }

    /// The `(time, seq)` key of the next pending event, without
    /// delivering it or advancing the clock.
    ///
    /// This is the primitive the sharded engine's cross-wheel merge is
    /// built on: with one global sequence stamped across every wheel (see
    /// [`push_with_seq`](EventQueue::push_with_seq)), popping from the
    /// wheel whose peeked key is the minimum reproduces the exact
    /// delivery order of a single serial wheel. Staging the next window
    /// here makes the key exact — equal-time entries scattered across
    /// levels are cascaded down and `(time, seq)`-sorted before the head
    /// is reported — and amortizes to O(1) under repeated peeks.
    pub fn peek_key(&mut self) -> Option<(Time, u64)> {
        if !self.stage() {
            return None;
        }
        let (time, seq, _) = self.ready[self.ready_pos];
        Some((Time::from_nanos(time), seq))
    }

    /// Take a slab slot off the free list (or grow the arena) and fill it.
    fn alloc(&mut self, time: u64, seq: u64, payload: P) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let node = &mut self.arena[idx as usize];
            self.free_head = node.next;
            node.time = time;
            node.seq = seq;
            node.next = NIL;
            node.state = SlotState::Live;
            node.payload = Some(payload);
            idx
        } else {
            let idx = u32::try_from(self.arena.len()).expect("event arena exceeds u32 slots");
            assert!(idx != NIL, "event arena exceeds u32 slots");
            self.arena.push(Node {
                time,
                seq,
                next: NIL,
                gen: 0,
                state: SlotState::Live,
                payload: Some(payload),
            });
            idx
        }
    }

    /// Return a slab slot to the free list, bumping its generation so
    /// outstanding tokens for it become inert.
    fn free(&mut self, idx: u32) {
        let node = &mut self.arena[idx as usize];
        node.state = SlotState::Free;
        node.payload = None;
        node.gen = node.gen.wrapping_add(1);
        node.next = self.free_head;
        self.free_head = idx;
    }

    /// Sort the freshly staged batch in `ready` by `(time, seq)`.
    ///
    /// A window holds at most `1 << BASE_SHIFT` distinct time values, so
    /// large batches take a two-pass counting sort over the time offset
    /// `t - t0` (bucket 0 also absorbs pre-window parked entries via the
    /// saturating subtraction) followed by tiny per-bucket tie-break
    /// sorts. This is the hottest loop in a packed simulation — the e2e
    /// fig2 run stages ~70 events per window — and the counting sort cuts
    /// the per-event delivery cost well below a comparison sort's.
    fn sort_batch(&mut self, t0: u64) {
        const WINDOW: usize = 1 << BASE_SHIFT;
        if self.ready.len() <= 32 {
            // Below std's small-sort threshold a comparison sort wins over
            // two passes of 64-bucket bookkeeping.
            self.ready.sort_unstable();
            return;
        }
        let mut pos = [0u32; WINDOW];
        for &(t, _, _) in &self.ready {
            debug_assert!(t < t0 + WINDOW as u64);
            pos[t.saturating_sub(t0) as usize] += 1;
        }
        let mut acc = 0u32;
        let mut counts = [0u32; WINDOW];
        for (count, start) in counts.iter_mut().zip(pos.iter_mut()) {
            *count = *start;
            *start = acc;
            acc += *count;
        }
        self.scratch.clear();
        self.scratch.resize(self.ready.len(), (0, 0, 0));
        for &e in &self.ready {
            let o = e.0.saturating_sub(t0) as usize;
            self.scratch[pos[o] as usize] = e;
            pos[o] += 1;
        }
        std::mem::swap(&mut self.ready, &mut self.scratch);
        let mut start = 0usize;
        for &count in &counts {
            let end = start + count as usize;
            if count > 1 {
                // One time value per bucket (bucket 0 may mix parked
                // pre-window times), so this is the seq tie-break.
                self.ready[start..end].sort_unstable();
            }
            start = end;
        }
    }

    /// Thread a live entry onto the wheel (or the overflow heap).
    fn insert(&mut self, idx: u32) {
        let t = self.arena[idx as usize].time;
        let (level, slot) = if t <= self.elapsed {
            // Overdue relative to the internal cursor (legal: the cursor
            // may sit ahead of `now` after a jump to a far-off deadline).
            if self.ready_pos < self.ready.len() {
                // A staged batch is mid-delivery and this entry belongs
                // inside it: splice it in at its `(time, seq)` position so
                // it is not deferred behind later-timed staged entries.
                let seq = self.arena[idx as usize].seq;
                let pos = self.ready_pos
                    + self.ready[self.ready_pos..]
                        .partition_point(|&(bt, bs, _)| (bt, bs) < (t, seq));
                self.ready.insert(pos, (t, seq, idx));
                return;
            }
            // Otherwise park it on the cursor slot; the next staging pass
            // picks it up first and sorts the batch by (time, seq).
            (
                0,
                ((self.elapsed >> BASE_SHIFT) & (SLOTS as u64 - 1)) as usize,
            )
        } else {
            let dist = t ^ self.elapsed;
            if dist >= HORIZON {
                let seq = self.arena[idx as usize].seq;
                self.overflow.push(Reverse((t, seq, idx)));
                return;
            }
            let top = u64::BITS - 1 - dist.leading_zeros();
            let level = (top.saturating_sub(BASE_SHIFT) / LEVEL_BITS) as usize;
            let slot =
                ((t >> (BASE_SHIFT + LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            (level, slot)
        };
        self.arena[idx as usize].next = self.levels[level][slot];
        self.levels[level][slot] = idx;
        self.occupied[level] |= 1u64 << slot;
    }

    /// Migrate overflow entries that now fit inside the wheel horizon;
    /// also sheds cancelled entries surfacing at the overflow head.
    fn replenish(&mut self) {
        while let Some(&Reverse((t, _, idx))) = self.overflow.peek() {
            if self.arena[idx as usize].state == SlotState::Cancelled {
                self.overflow.pop();
                self.free(idx);
                continue;
            }
            if (t ^ self.elapsed) < HORIZON || t <= self.elapsed {
                self.overflow.pop();
                self.insert(idx);
                continue;
            }
            break;
        }
    }

    /// First occupied slot at/after the cursor position of `level`.
    fn next_occupied(&self, level: usize) -> Option<usize> {
        let cursor =
            (self.elapsed >> (BASE_SHIFT + LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1);
        // Bits behind the cursor may exist but are always stale (their
        // entries were all cancelled before the cursor jumped past them);
        // they are reclaimed when a later rotation scans them.
        let masked = self.occupied[level] & (!0u64 << cursor);
        if masked != 0 {
            Some(masked.trailing_zeros() as usize)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(30), 3);
        q.push(Time::from_nanos(10), 1);
        q.push(Time::from_nanos(20), 2);
        assert_eq!(q.pop(), Some((Time::from_nanos(10), 1)));
        assert_eq!(q.pop(), Some((Time::from_nanos(20), 2)));
        assert_eq!(q.pop(), Some((Time::from_nanos(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_micros(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Time::ZERO);
        q.push(Time::from_nanos(5), ());
        q.push(Time::from_nanos(9), ());
        q.pop();
        assert_eq!(q.now(), Time::from_nanos(5));
        q.pop();
        assert_eq!(q.now(), Time::from_nanos(9));
        assert_eq!(q.events_processed(), 2);
    }

    #[test]
    fn push_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(100), "a");
        q.pop();
        q.push_after(Time::from_nanos(50), "b");
        assert_eq!(q.pop(), Some((Time::from_nanos(150), "b")));
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let tok = q.push_cancellable(Time::from_nanos(10), "cancelled");
        q.push(Time::from_nanos(20), "kept");
        q.cancel(tok);
        assert_eq!(q.pop(), Some((Time::from_nanos(20), "kept")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_after_delivery_is_noop() {
        let mut q = EventQueue::new();
        let tok = q.push_cancellable(Time::from_nanos(10), 1);
        assert_eq!(q.pop(), Some((Time::from_nanos(10), 1)));
        q.cancel(tok); // must not panic or affect later events
        q.push(Time::from_nanos(20), 2);
        assert_eq!(q.pop(), Some((Time::from_nanos(20), 2)));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let tok = q.push_cancellable(Time::from_nanos(10), 1);
        q.push(Time::from_nanos(30), 2);
        q.cancel(tok);
        assert_eq!(q.peek_time(), Some(Time::from_nanos(30)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(10), 10u64);
        q.push(Time::from_nanos(40), 40);
        let (t, v) = q.pop().unwrap();
        assert_eq!((t.as_nanos(), v), (10, 10));
        q.push(Time::from_nanos(20), 20);
        q.push(Time::from_nanos(30), 30);
        let mut seen = Vec::new();
        while let Some((_, v)) = q.pop() {
            seen.push(v);
        }
        assert_eq!(seen, vec![20, 30, 40]);
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q = EventQueue::new();
        // Far beyond the 2^36 ns ≈ 68.7 s wheel horizon.
        q.push(Time::from_secs(1000), "far");
        q.push(Time::from_nanos(1), "near");
        assert_eq!(q.peek_time(), Some(Time::from_nanos(1)));
        assert_eq!(q.pop(), Some((Time::from_nanos(1), "near")));
        assert_eq!(q.pop(), Some((Time::from_secs(1000), "far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_events_interleave_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_secs(500);
        for i in 0..10 {
            q.push(t, i);
        }
        // A cancelled overflow entry in the middle.
        let tok = q.push_cancellable(t, 99);
        q.cancel(tok);
        for i in 10..20 {
            q.push(t, i);
        }
        for i in 0..20 {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_in_every_region() {
        let mut q = EventQueue::new();
        let near = q.push_cancellable(Time::from_nanos(3), "near");
        let mid = q.push_cancellable(Time::from_micros(50), "mid");
        let far = q.push_cancellable(Time::from_secs(200), "far");
        q.push(Time::from_millis(1), "kept");
        q.cancel(near);
        q.cancel(mid);
        q.cancel(far);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Time::from_millis(1), "kept")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_staged_entry_before_delivery() {
        // Two events at the same instant: deliver the first, then cancel
        // the second while it is already staged in the ready batch.
        let mut q = EventQueue::new();
        let t = Time::from_nanos(7);
        q.push(t, "first");
        let tok = q.push_cancellable(t, "second");
        q.push(Time::from_nanos(8), "third");
        assert_eq!(q.pop(), Some((t, "first")));
        q.cancel(tok);
        assert_eq!(q.pop(), Some((Time::from_nanos(8), "third")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_at_now_during_same_instant_is_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_nanos(100);
        q.push(t, 0);
        q.push(t, 1);
        assert_eq!(q.pop(), Some((t, 0)));
        // Pushed at the current instant, after two same-time events were
        // already staged: must still come out last (largest seq).
        q.push(t, 2);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_after_fire_leaves_no_residue() {
        // Regression test for the old HashSet design, where cancelling a
        // token after its event was delivered grew `cancelled` forever
        // (e.g. TCP RTO timers cancelled post-fire in long runs). The slab
        // must stay at its high-water mark of *concurrent* events.
        let mut q = EventQueue::new();
        let mut t = 0u64;
        for _ in 0..100_000 {
            t += 10;
            let tok = q.push_cancellable(Time::from_nanos(t), 0u8);
            let popped = q.pop();
            assert!(popped.is_some());
            q.cancel(tok); // after delivery: must be a no-op, not residue
        }
        assert!(q.is_empty());
        assert!(
            q.allocated_slots() <= 2,
            "slab grew to {} slots across cancel-after-fire cycles",
            q.allocated_slots()
        );
    }

    #[test]
    fn cancel_before_fire_reuses_slots() {
        let mut q = EventQueue::new();
        let mut t = 0u64;
        for _ in 0..10_000 {
            t += 10;
            let tok = q.push_cancellable(Time::from_nanos(t), 0u8);
            q.cancel(tok);
            assert_eq!(q.pop(), None);
        }
        assert!(
            q.allocated_slots() <= 2,
            "slab grew to {} slots across cancel cycles",
            q.allocated_slots()
        );
    }

    #[test]
    fn stale_token_cannot_cancel_reused_slot() {
        let mut q = EventQueue::new();
        let tok = q.push_cancellable(Time::from_nanos(1), 1);
        assert_eq!(q.pop(), Some((Time::from_nanos(1), 1)));
        // The slot is recycled for a new event; the old token must not
        // touch it.
        q.push(Time::from_nanos(2), 2);
        q.cancel(tok);
        assert_eq!(q.pop(), Some((Time::from_nanos(2), 2)));
    }

    #[test]
    fn wide_time_spread_pops_sorted() {
        // Deadlines scattered across every wheel level and the overflow.
        let mut q = EventQueue::new();
        let times: Vec<u64> = (0..200)
            .map(|i: u64| {
                let bucket = i % 8;
                1 + i + (1u64 << (4 * bucket)) // 1ns .. ~268s spread
            })
            .collect();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_nanos(t), i);
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let mut last = 0;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            assert!(
                t.as_nanos() >= last,
                "out of order: {} after {last}",
                t.as_nanos()
            );
            last = t.as_nanos();
            n += 1;
        }
        assert_eq!(n, times.len());
        assert_eq!(last, *sorted.last().unwrap());
    }

    #[test]
    fn peek_key_matches_pop_order() {
        let mut q = EventQueue::new();
        let t = Time::from_nanos(50);
        q.push(t, 0u64);
        q.push(Time::from_nanos(10), 1);
        q.push(t, 2);
        // peek_key reports the exact (time, seq) of the next pop.
        assert_eq!(q.peek_key(), Some((Time::from_nanos(10), 1)));
        q.pop();
        assert_eq!(q.peek_key(), Some((t, 0)));
        q.pop();
        assert_eq!(q.peek_key(), Some((t, 2)));
        q.pop();
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn push_with_seq_orders_by_supplied_seq() {
        // Two wheels fed from one global sequence: each wheel must
        // deliver its share in global-seq order at equal timestamps,
        // even though the seqs arrive at each wheel with gaps and (after
        // a mailbox-style replay) out of push order.
        let mut q = EventQueue::new();
        let t = Time::from_nanos(100);
        q.push_with_seq(t, 5, 5u64);
        q.push_with_seq(t, 1, 1);
        q.push_with_seq(t, 3, 3);
        q.push_with_seq(Time::from_nanos(90), 7, 7);
        assert_eq!(q.peek_key(), Some((Time::from_nanos(90), 7)));
        assert_eq!(q.pop(), Some((Time::from_nanos(90), 7)));
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 3)));
        assert_eq!(q.pop(), Some((t, 5)));
        // Internal stamping resumes past the largest supplied seq.
        q.push(t, 99);
        assert_eq!(q.peek_key(), Some((t, 8)));
        assert_eq!(q.pop(), Some((t, 99)));
    }

    #[test]
    fn push_after_peek_still_delivers_in_order() {
        // peek_key stages the upcoming window; a later push landing
        // before the staged entries must still deliver first.
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(1000), 1000u64);
        assert_eq!(q.peek_time(), Some(Time::from_nanos(1000)));
        q.push(Time::from_nanos(40), 40);
        q.push(Time::from_nanos(990), 990);
        assert_eq!(q.peek_key(), Some((Time::from_nanos(40), 1)));
        assert_eq!(q.pop(), Some((Time::from_nanos(40), 40)));
        assert_eq!(q.pop(), Some((Time::from_nanos(990), 990)));
        assert_eq!(q.pop(), Some((Time::from_nanos(1000), 1000)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn global_seq_merge_across_wheels_matches_serial() {
        // The sharded-engine contract in miniature: route events from one
        // serial reference stream across two wheels by a deterministic
        // owner function, stamp a shared global seq, and pop by minimum
        // peeked (time, seq). The merged stream must equal the serial one.
        let mut reference = EventQueue::new();
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for i in 0..2000u64 {
            let t = Time::from_nanos(1 + (i * 7919) % 4096);
            reference.push(t, i);
            let owner = if i % 3 == 0 { &mut a } else { &mut b };
            // The shared global seq is the push index.
            owner.push_with_seq(t, i, i);
        }
        loop {
            let ka = a.peek_key();
            let kb = b.peek_key();
            let merged = match (ka, kb) {
                (None, None) => None,
                (Some(_), None) => a.pop(),
                (None, Some(_)) => b.pop(),
                (Some(x), Some(y)) => {
                    if x <= y {
                        a.pop()
                    } else {
                        b.pop()
                    }
                }
            };
            let serial = reference.pop();
            assert_eq!(merged, serial);
            if serial.is_none() {
                break;
            }
        }
    }

    #[test]
    fn peek_matches_pop_under_churn() {
        let mut q = EventQueue::new();
        let mut toks = Vec::new();
        for i in 0..500u64 {
            let t = Time::from_nanos(1 + (i * 7919) % 100_000);
            if i % 3 == 0 {
                toks.push(q.push_cancellable(t, i));
            } else {
                q.push(t, i);
            }
        }
        for tok in toks.iter().step_by(2) {
            q.cancel(*tok);
        }
        loop {
            let peeked = q.peek_time();
            let popped = q.pop();
            match (peeked, popped) {
                (Some(pt), Some((t, _))) => assert_eq!(pt, t),
                (None, None) => break,
                (p, q) => panic!("peek {p:?} disagrees with pop {q:?}"),
            }
        }
    }

    #[test]
    fn len_tracks_live_events_only() {
        let mut wheel: EventQueue<u32> = EventQueue::new();
        let toks: Vec<_> = (0..100)
            .map(|i| wheel.push_cancellable(Time::from_nanos(10 + i), 0))
            .collect();
        assert_eq!(wheel.len(), 100);
        for t in &toks[..40] {
            wheel.cancel(*t);
        }
        assert_eq!(wheel.len(), 60, "cancel is reflected immediately");
        let mut n = 0;
        while wheel.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 60);
    }
}
