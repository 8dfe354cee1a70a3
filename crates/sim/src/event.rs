//! The event queue at the heart of the simulator: a hierarchical timing
//! wheel (Varghese & Lauck 1987) with an allocation-free hot path.
//!
//! The previous implementation was a binary heap + hash set of cancelled
//! tokens (kept, compiled for tests only, as `heap.rs`'s `HeapQueue`,
//! the differential tests' reference); the wheel replaces O(log n) sift
//! operations with O(1) amortized slot appends and bitmap scans.
//!
//! # Structure
//!
//! * [`LEVELS`] wheel levels of 64 slots each. Level `k` slots are
//!   `2^BASE_SHIFT * 64^k` ns wide: level 0 slots are 64 ns delivery
//!   windows (drained as one sorted batch, which amortizes staging
//!   bookkeeping across every event in the window) and the top level
//!   holds bit 63, so every `u64` deadline has a level.
//! * Each pending event is stored once, as an `Entry { time, seq,
//!   payload }` (32 bytes for a two-word payload). A slot holds its
//!   entries in push order as a run of fixed [`PAGE`]-entry pages; pages
//!   come from one shared free list, so a steady-state simulation
//!   performs no per-event allocation at all. Staging a level-0 slot
//!   copies its pages into the ready batch and frees them; a cascade
//!   re-files entries page by page.
//! * Every entry carries the monotone `seq` stamped at push time. A
//!   staged batch is ordered by `(time, seq)`, which restores global FIFO
//!   order for simultaneous events regardless of which level or path each
//!   entry took through the wheel; since pages hand equal-time entries
//!   over in push order, that usually needs no tie-break at all. See
//!   DESIGN.md §6 for the ordering proof sketch.
//! * Cancellation is off the hot path: a token is its entry's `seq`, and
//!   two small hash sets (pending cancellable seqs, cancelled seqs not yet
//!   shed) make `cancel` O(1). A cancelled entry rides the wheel like a
//!   live one and leaves it at the head of the staged batch; once nothing
//!   live is pending the wheel is dropped where it stands, so no residue
//!   stays — even when a token is cancelled after its event already fired.

use crate::{FxHashSet, Time};

/// Handle for a cancellable event, returned by
/// [`EventQueue::push_cancellable`].
///
/// Carries the event's sequence number. A token whose event already fired
/// or was already cancelled is no longer in the queue's set of pending
/// cancellable events, so stale cancels are harmless and cost O(1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventToken(pub(crate) u64);

/// log2 of the slot count per level.
const LEVEL_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// log2 of the level-0 slot width in ns. A level-0 slot is a 64 ns
/// delivery window: staging drains the whole window as one batch and the
/// `(time, seq)` order is restored there, which amortizes the bitmap scan
/// and cascade bookkeeping over every event in the window instead of
/// paying it per nanosecond-wide slot. It also shortens cascades: a
/// deadline `d` ns ahead sits `BASE_SHIFT` bits lower in the hierarchy
/// than it would with 1 ns slots.
const BASE_SHIFT: u32 = 6;
/// Number of wheel levels: enough that the top one holds bit 63, so any
/// `u64` deadline is wheel-resident (the top level uses 16 of its slots).
const LEVELS: usize = (u64::BITS - BASE_SHIFT).div_ceil(LEVEL_BITS) as usize;
/// Entries per page of a slot's run. Fixed pages, not a `Vec` per slot:
/// a slot gives its pages back as soon as it drains, so 640 slots never
/// each keep their own high-water capacity, and a cascade of a crowded
/// slot frees each page as it re-files it.
const PAGE: usize = 32;
/// Null page index.
const NIL: u32 = u32::MAX;

/// Size in bytes of one pending wheel entry for payload type `P`.
///
/// `Entry` itself is private, but embedders pin their per-event memory
/// footprint with `const` asserts. A payload is stored inside its entry,
/// written once by the push and read once by the pop (staging and
/// cascades copy whole entries page by page), so its size is the entry's
/// and the width it is written at is the width it should be read at.
pub const fn entry_size<P>() -> usize {
    std::mem::size_of::<Entry<P>>()
}

/// One pending event.
#[derive(Clone)]
struct Entry<P> {
    /// Absolute deadline in nanoseconds.
    time: u64,
    /// Global push order; the FIFO tie-break at equal timestamps.
    seq: u64,
    payload: P,
}

/// A slot's pages, first and last (`NIL` when the slot is empty). Only
/// the tail page can be part-filled.
#[derive(Clone, Copy)]
struct Run {
    head: u32,
    tail: u32,
}

const EMPTY: Run = Run {
    head: NIL,
    tail: NIL,
};

/// Per-page bookkeeping: the next page of the run (or of the free list)
/// and how many of the page's entries are filled.
#[derive(Clone, Copy)]
struct Page {
    next: u32,
    len: u32,
}

/// A deterministic future-event list.
///
/// Generic over the event payload `P`, which the embedding simulation
/// defines (an enum of "packet arrives", "timer fires", ... variants).
/// Payloads are cloned out of the wheel's pages, and a page keeps the
/// copies it handed out until it is refilled, so `P` should be plain
/// data — every payload in this workspace is `Copy`.
///
/// Events at equal timestamps are delivered in push order. Events pushed
/// for a time earlier than the last popped time are a logic error in the
/// caller and panic in debug builds.
pub struct EventQueue<P> {
    /// Page storage: page `p` is `entries[p * PAGE..(p + 1) * PAGE]`, of
    /// which the first `pages[p].len` are pending. Never shrinks.
    entries: Vec<Entry<P>>,
    pages: Vec<Page>,
    /// Head of the free-page list threaded through `pages` (NIL if empty).
    free_page: u32,
    /// Each slot's run of pages, `runs[level][slot]`.
    runs: [[Run; SLOTS]; LEVELS],
    /// One occupancy bit per slot (set iff the slot's run is non-empty),
    /// for O(1) next-slot scans.
    occupied: [u64; LEVELS],
    /// Delivery staging: the current level-0 batch sorted ascending by
    /// `(time, seq)`, consumed from `ready_pos`.
    ready: Vec<Entry<P>>,
    ready_pos: usize,
    /// Reused permutation buffer for the staging counting sort; its
    /// length only grows (entries past a batch are stale copies).
    scratch: Vec<Entry<P>>,
    /// Seqs of pending cancellable entries, and of cancelled entries not
    /// yet shed from the wheel. Both stay empty unless
    /// [`push_cancellable`](EventQueue::push_cancellable) is used; any
    /// other push touches neither, and a pop tests each for emptiness.
    cancellable: FxHashSet<u64>,
    cancelled: FxHashSet<u64>,
    /// Internal wheel cursor in ns. It only ever moves to the earliest
    /// filed entry (live or cancelled) or to the end of the window it
    /// stages, so no occupied slot lies behind it and the cursor never
    /// passes a live event.
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
    /// The most entries `len()` has counted at once.
    pending_hw: usize,
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
            entries: Vec::new(),
            pages: Vec::new(),
            free_page: NIL,
            runs: [[EMPTY; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            ready: Vec::new(),
            ready_pos: 0,
            scratch: Vec::new(),
            cancellable: FxHashSet::default(),
            cancelled: FxHashSet::default(),
            elapsed: 0,
            now: Time::ZERO,
            seq: 0,
            pushed: 0,
            popped: 0,
            cancels: 0,
            pending_hw: 0,
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

    /// High-water mark of concurrently pending events: the most entries
    /// [`len`](EventQueue::len) has counted at once. Bounded by what is
    /// pending together — *not* by the total event count — which the
    /// no-leak regression tests assert.
    #[inline]
    pub fn allocated_slots(&self) -> usize {
        self.pending_hw
    }

    /// Visit every pending (scheduled, non-cancelled) entry as
    /// `(time, seq, &payload)`, in arbitrary order.
    ///
    /// Snapshot capture walks the staged ready batch and every slot's
    /// pages, and normalizes order by sorting the collected `(time, seq)`
    /// keys at the serialization layer.
    pub fn for_each_pending<F: FnMut(Time, u64, &P)>(&self, mut f: F) {
        let mut visit = |e: &Entry<P>| {
            if !self.cancelled.contains(&e.seq) {
                f(Time::from_nanos(e.time), e.seq, &e.payload);
            }
        };
        self.ready[self.ready_pos..].iter().for_each(&mut visit);
        for run in self.runs.iter().flatten() {
            let mut p = run.head;
            while p != NIL {
                self.page(p).iter().for_each(&mut visit);
                p = self.pages[p as usize].next;
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

    /// Cancel a previously scheduled cancellable event in O(1). Cancelling
    /// an already-delivered or already-cancelled event is a no-op (its
    /// seq is no longer pending-cancellable) and leaves no residue.
    pub fn cancel(&mut self, token: EventToken) {
        if self.cancellable.remove(&token.0) {
            // The entry stays in the wheel until it reaches the head of a
            // staged batch, or nothing live is left and the wheel drops it.
            self.cancelled.insert(token.0);
            self.cancels += 1;
        }
    }

    /// Sizes of the two cancellation sets (pending cancellable, cancelled
    /// but not yet shed), for the no-residue tests.
    #[cfg(test)]
    pub(crate) fn cancel_sets(&self) -> (usize, usize) {
        (self.cancellable.len(), self.cancelled.len())
    }

    /// The filled part of page `p`.
    #[inline]
    fn page(&self, p: u32) -> &[Entry<P>] {
        let base = p as usize * PAGE;
        &self.entries[base..base + self.pages[p as usize].len as usize]
    }

    /// Return page `p` to the free list; yields the run's next page.
    #[inline]
    fn free_page(&mut self, p: u32) -> u32 {
        let page = &mut self.pages[p as usize];
        let next = page.next;
        page.next = self.free_page;
        page.len = 0;
        self.free_page = p;
        next
    }

    /// Nothing is pending, so whatever is still filed was cancelled: free
    /// every run where it stands — the cursor does not walk out to them —
    /// and forget the cancelled seqs with them.
    fn drop_wheel(&mut self) {
        for level in 0..LEVELS {
            let mut bits = std::mem::take(&mut self.occupied[level]);
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let mut p = std::mem::replace(&mut self.runs[level][slot], EMPTY).head;
                while p != NIL {
                    p = self.free_page(p);
                }
            }
        }
        self.cancelled.clear();
    }

    /// First occupied slot at/after the cursor position of `level`.
    fn next_occupied(&self, level: usize) -> Option<usize> {
        let cursor =
            (self.elapsed >> (BASE_SHIFT + LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1);
        let ahead = self.occupied[level] & (!0u64 << cursor);
        debug_assert_eq!(
            ahead, self.occupied[level],
            "occupied slot behind the cursor at level {level}"
        );
        if ahead != 0 {
            Some(ahead.trailing_zeros() as usize)
        } else {
            None
        }
    }
}

impl<P: Clone> EventQueue<P> {
    /// Schedule `payload` at absolute time `at`.
    #[inline]
    pub fn push(&mut self, at: Time, payload: P) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.schedule(at.as_nanos(), seq, payload);
    }

    /// Schedule `payload` at `at` carrying a caller-supplied sequence
    /// number *without* advancing the internal sequence counter.
    ///
    /// Snapshot restore uses this to re-insert pending entries under their
    /// recorded seqs, and the runtime for out-of-band entries stamped from
    /// a reserved sequence band (fault injections at `FAULT_SEQ_BASE`): a
    /// huge banded seq must not catapult the counter, or every
    /// subsequently pushed event would change sequence and break
    /// bit-identical replay. A supplied seq must not repeat one still
    /// pending: seqs name entries (a cancellation token is one).
    pub fn push_stamped(&mut self, at: Time, seq: u64, payload: P) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        self.schedule(at.as_nanos(), seq, payload);
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
        self.cancellable.insert(seq);
        self.schedule(at.as_nanos(), seq, payload);
        EventToken(seq)
    }

    /// Deliver the next event, advancing the clock. Cancelled events are
    /// skipped silently (and their storage reclaimed).
    pub fn pop(&mut self) -> Option<(Time, P)> {
        if !self.stage() {
            return None;
        }
        let Entry { time, seq, payload } = self.ready[self.ready_pos].clone();
        self.ready_pos += 1;
        if !self.cancellable.is_empty() {
            self.cancellable.remove(&seq);
        }
        let t = Time::from_nanos(time);
        debug_assert!(t >= self.now);
        self.now = t;
        self.popped += 1;
        Some((t, payload))
    }

    /// Timestamp of the next (non-cancelled) pending event without
    /// delivering it. Does not advance the clock; lazily reclaims any
    /// cancelled entries it walks past. Staging the next window here
    /// makes the answer exact — equal-time entries scattered across
    /// levels are cascaded down and `(time, seq)`-sorted first — and
    /// amortizes to O(1) under repeated peeks.
    pub fn peek_time(&mut self) -> Option<Time> {
        if !self.stage() {
            return None;
        }
        Some(Time::from_nanos(self.ready[self.ready_pos].time))
    }

    /// The payload the `k + 1`-th next [`pop`](EventQueue::pop) delivers
    /// if nothing is pushed or cancelled before it (`staged(0)` is the
    /// next pop's), when that entry is already in the staged batch;
    /// `None` when it is not staged yet, or when a cancelled entry not yet
    /// shed could sit in front of it. Reads only: the clock,
    /// [`len`](EventQueue::len) and
    /// [`events_processed`](EventQueue::events_processed) stay put and
    /// nothing is staged, so the event loop can look ahead for free (it
    /// prefetches what the arrivals it sees will touch).
    #[inline]
    pub fn staged(&self, k: usize) -> Option<&P> {
        if !self.cancelled.is_empty() {
            return None;
        }
        self.ready.get(self.ready_pos + k).map(|e| &e.payload)
    }

    /// Count a new pending entry and file it.
    #[inline]
    fn schedule(&mut self, time: u64, seq: u64, payload: P) {
        self.pushed += 1;
        let pending = self.len();
        if pending > self.pending_hw {
            self.pending_hw = pending;
        }
        self.insert(time, seq, payload);
    }

    /// Advance the staging machinery until `ready[ready_pos]` is a live
    /// entry — the exact next event by `(time, seq)` — or the queue is
    /// exhausted. Shared by [`pop`](EventQueue::pop) (which consumes the
    /// entry) and [`peek_time`](EventQueue::peek_time) (which only reads
    /// it); staging may advance the internal cursor but never the clock,
    /// and later pushes landing inside the staged window splice into the
    /// live batch at their `(time, seq)` position.
    fn stage(&mut self) -> bool {
        loop {
            // The one place a cancelled entry leaves the queue: the head
            // of the staged batch.
            while self.ready_pos < self.ready.len() {
                if self.cancelled.is_empty()
                    || !self.cancelled.remove(&self.ready[self.ready_pos].seq)
                {
                    return true;
                }
                self.ready_pos += 1;
            }
            self.ready.clear();
            self.ready_pos = 0;
            if self.is_empty() {
                self.drop_wheel();
                return false;
            }

            // The lowest level with an occupied slot at/after the cursor
            // holds the earliest filed deadline.
            let (level, slot) = (0..LEVELS)
                .find_map(|level| self.next_occupied(level).map(|slot| (level, slot)))
                .expect("a pending entry is filed");
            let shift = BASE_SHIFT + LEVEL_BITS * level as u32;
            // The cursor's bits above this level, then the slot's; the top
            // level has no bits above it.
            let above = u64::MAX.checked_shl(shift + LEVEL_BITS).unwrap_or(0);
            let start = (self.elapsed & above) | ((slot as u64) << shift);
            let mut p = std::mem::replace(&mut self.runs[level][slot], EMPTY).head;
            self.occupied[level] &= !(1u64 << slot);
            if level == 0 {
                // Stage the whole 64 ns window for delivery. The staged
                // slot is at/after the cursor slot, so the window end never
                // moves the cursor backwards (it may re-stage the cursor
                // slot itself when an overdue push parked there after the
                // previous batch drained).
                let end = start | ((1u64 << BASE_SHIFT) - 1);
                debug_assert!(end >= self.elapsed);
                while p != NIL {
                    let base = p as usize * PAGE;
                    let page = &self.entries[base..base + self.pages[p as usize].len as usize];
                    self.ready.extend_from_slice(page);
                    p = self.free_page(p);
                }
                // Committing to the window: later pushes that land inside
                // it take the overdue path and splice into the live batch,
                // so advancing to the window end jumps no live entry.
                self.elapsed = end;
                // FIFO restoration: order by (time, seq). Equal-time
                // entries deliver in push order; overdue entries parked
                // onto the cursor slot (time < start) order first.
                self.sort_batch(start);
            } else {
                // Cascade: advance the cursor to the slot's start and
                // re-distribute its entries into lower levels. The cursor's
                // own slot is never occupied above level 0, so this moves
                // it forward.
                debug_assert!(
                    start > self.elapsed,
                    "cascaded slot starts behind the cursor"
                );
                self.elapsed = start;
                while p != NIL {
                    let base = p as usize * PAGE;
                    for i in base..base + self.pages[p as usize].len as usize {
                        let Entry { time, seq, payload } = self.entries[i].clone();
                        debug_assert!(time >= start, "entry behind its slot start");
                        self.insert(time, seq, payload);
                    }
                    p = self.free_page(p);
                }
            }
        }
    }

    /// Order the freshly staged batch in `ready` by `(time, seq)`.
    ///
    /// A window holds at most `1 << BASE_SHIFT` distinct time values, so
    /// large batches take a stable two-pass counting sort over the time
    /// offset `t - t0` (bucket 0 also absorbs pre-window parked entries
    /// via the saturating subtraction). This is the hottest loop in a
    /// packed simulation — the e2e fig2 run stages ~70 events per window —
    /// and the counting sort cuts the per-event delivery cost well below
    /// a comparison sort's.
    ///
    /// Pages hand entries over in push order, and pushes stamp seqs in
    /// order, so after the stable sort every equal-time bucket is
    /// normally in seq order already: one linear check replaces the
    /// per-bucket tie sort. The check fails — and the buckets are sorted —
    /// where push order and seq order part: a bucket 0 holding parked
    /// pre-window times, `push_stamped`'s reserved band, or a cascade
    /// appending earlier-stamped entries behind later ones.
    fn sort_batch(&mut self, t0: u64) {
        const WINDOW: usize = 1 << BASE_SHIFT;
        let key = |e: &Entry<P>| (e.time, e.seq);
        let n = self.ready.len();
        if n <= 32 {
            // Below std's small-sort threshold a comparison sort wins over
            // two passes of 64-bucket bookkeeping (and is linear on a
            // batch already in order).
            self.ready.sort_unstable_by_key(key);
            return;
        }
        let mut pos = [0u32; WINDOW];
        for e in &self.ready {
            debug_assert!(e.time <= t0 | (WINDOW as u64 - 1));
            pos[e.time.saturating_sub(t0) as usize] += 1;
        }
        let mut acc = 0u32;
        let mut counts = [0u32; WINDOW];
        for (count, start) in counts.iter_mut().zip(pos.iter_mut()) {
            *count = *start;
            *start = acc;
            acc += *count;
        }
        if self.scratch.len() < n {
            self.scratch.resize(n, self.ready[0].clone());
        }
        for e in &self.ready {
            let o = e.time.saturating_sub(t0) as usize;
            self.scratch[pos[o] as usize] = e.clone();
            pos[o] += 1;
        }
        std::mem::swap(&mut self.ready, &mut self.scratch);
        self.ready.truncate(n);
        if self.ready.is_sorted_by_key(key) {
            return;
        }
        let mut start = 0usize;
        for &count in &counts {
            let end = start + count as usize;
            if count > 1 {
                // One time value per bucket (bucket 0 may mix parked
                // pre-window times), so this is the seq tie-break.
                self.ready[start..end].sort_unstable_by_key(key);
            }
            start = end;
        }
    }

    /// File an entry on the wheel (or the staged batch). Takes the
    /// entry's fields as scalars: built at the store, a payload is written
    /// at the width it arrived in.
    #[inline]
    fn insert(&mut self, time: u64, seq: u64, payload: P) {
        let (level, slot) = if time <= self.elapsed {
            // Overdue relative to the internal cursor (legal: the cursor
            // may sit ahead of `now` after a cascade or a staged window).
            if self.ready_pos < self.ready.len() {
                // A staged batch is mid-delivery and this entry belongs
                // inside it: splice it in at its `(time, seq)` position so
                // it is not deferred behind later-timed staged entries.
                let pos = self.ready_pos
                    + self.ready[self.ready_pos..]
                        .partition_point(|e| (e.time, e.seq) < (time, seq));
                self.ready.insert(pos, Entry { time, seq, payload });
                return;
            }
            // Otherwise park it on the cursor slot; the next staging pass
            // picks it up first and sorts the batch by (time, seq).
            (
                0,
                ((self.elapsed >> BASE_SHIFT) & (SLOTS as u64 - 1)) as usize,
            )
        } else {
            // The highest bit where the deadline and the cursor differ
            // picks the level; the top level holds bit 63.
            let top = u64::BITS - 1 - (time ^ self.elapsed).leading_zeros();
            let level = (top.saturating_sub(BASE_SHIFT) / LEVEL_BITS) as usize;
            let slot =
                ((time >> (BASE_SHIFT + LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            (level, slot)
        };
        // Append to the slot's tail page.
        let tail = self.runs[level][slot].tail;
        if tail != NIL {
            let page = &mut self.pages[tail as usize];
            if (page.len as usize) < PAGE {
                let i = tail as usize * PAGE + page.len as usize;
                page.len += 1;
                self.entries[i] = Entry { time, seq, payload };
                return;
            }
        }
        self.append_to_new_page(level, slot, time, seq, payload);
    }

    /// The slot is empty or its tail page is full: open a page — off the
    /// free list, or grown — link it as the run's tail and write the entry
    /// first in it. Out of line (one push in 32 to a busy slot lands
    /// here), so the common append keeps the payload in registers.
    #[cold]
    #[inline(never)]
    fn append_to_new_page(&mut self, level: usize, slot: usize, time: u64, seq: u64, payload: P) {
        let entry = Entry { time, seq, payload };
        let p = if self.free_page != NIL {
            let p = self.free_page;
            self.free_page = self.pages[p as usize].next;
            self.entries[p as usize * PAGE] = entry;
            p
        } else {
            let p = u32::try_from(self.pages.len()).expect("event pages exceed u32 indices");
            assert!(p != NIL, "event pages exceed u32 indices");
            self.pages.push(Page { next: NIL, len: 0 });
            // The storage must be initialised: copies of the entry fill
            // the page and are overwritten before they are read.
            self.entries.resize(self.entries.len() + PAGE, entry);
            p
        };
        self.pages[p as usize] = Page { next: NIL, len: 1 };
        let tail = self.runs[level][slot].tail;
        if tail == NIL {
            self.runs[level][slot] = Run { head: p, tail: p };
            self.occupied[level] |= 1u64 << slot;
        } else {
            self.pages[tail as usize].next = p;
            self.runs[level][slot].tail = p;
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
        assert_eq!(q.cancel_sets(), (0, 0), "a cancelled entry left residue");
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
        // (e.g. TCP RTO timers cancelled post-fire in long runs). Storage
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
            "pending high-water {} across cancel-after-fire cycles",
            q.allocated_slots()
        );
        assert_eq!(q.cancel_sets(), (0, 0));
        assert!(q.pages.len() <= 2, "{} pages", q.pages.len());
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
            "pending high-water {} across cancel cycles",
            q.allocated_slots()
        );
        assert_eq!(q.cancel_sets(), (0, 0));
        assert!(q.pages.len() <= 2, "{} pages", q.pages.len());
    }

    #[test]
    fn stale_token_cannot_cancel_a_later_event() {
        let mut q = EventQueue::new();
        let tok = q.push_cancellable(Time::from_nanos(1), 1);
        assert_eq!(q.pop(), Some((Time::from_nanos(1), 1)));
        // The entry's storage is reused by a new event; the old token
        // must not touch it.
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
    fn deadline_at_u64_max_pops() {
        // The last window of `u64` ends at u64::MAX itself: its end must
        // not be computed as start + width.
        let mut q = EventQueue::new();
        let top = [u64::MAX - 100, u64::MAX];
        q.push(Time::from_nanos(top[1]), 2);
        q.push(Time::from_nanos(5), 0);
        q.push(Time::from_nanos(top[0]), 1);
        assert_eq!(q.pop(), Some((Time::from_nanos(5), 0)));
        assert_eq!(q.peek_time(), Some(Time::from_nanos(top[0])));
        assert_eq!(q.pop(), Some((Time::from_nanos(top[0]), 1)));
        assert_eq!(q.pop(), Some((Time::from_nanos(top[1]), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_over_only_cancelled_entries_keeps_the_cursor() {
        // Nothing live is pending, so the pop drops the cancelled entry
        // where it stands instead of walking the cursor out to it (which
        // would send every later push down the overdue path).
        let mut q = EventQueue::new();
        let tok = q.push_cancellable(Time::from_secs(1), 1u32);
        q.cancel(tok);
        assert_eq!(q.pop(), None);
        assert!(
            q.elapsed < Time::from_secs(1).as_nanos(),
            "cursor walked to {}",
            q.elapsed
        );
        assert_eq!(q.cancel_sets(), (0, 0));
        assert!(q.pages.iter().all(|p| p.len == 0), "a page is still filled");
        q.push(Time::from_millis(2), 2);
        assert_eq!(q.pop(), Some((Time::from_millis(2), 2)));
    }

    #[test]
    fn crowded_slot_spans_pages_in_push_order() {
        // Several pages' worth of entries in one slot, at one instant and
        // spread over a window, through a cascade and through level 0.
        for base in [128u64, 1 << 20] {
            let mut q = EventQueue::new();
            let n = 5 * PAGE as u64 + 7;
            for i in 0..n {
                q.push(Time::from_nanos(base + (i % 3) * 20), i);
            }
            assert_eq!(q.pages.len(), 6, "one run of six pages");
            let mut out = Vec::new();
            while let Some((t, i)) = q.pop() {
                out.push((t.as_nanos(), i));
            }
            let mut want: Vec<_> = (0..n).map(|i| (base + (i % 3) * 20, i)).collect();
            want.sort_unstable();
            assert_eq!(out, want);
            assert!(q.pages.len() <= 7, "pages recycled: {}", q.pages.len());
        }
    }

    #[test]
    fn peek_time_matches_pop_order() {
        let mut q = EventQueue::new();
        let t = Time::from_nanos(50);
        q.push(t, 0u64);
        q.push(Time::from_nanos(10), 1);
        q.push(t, 2);
        assert_eq!(q.peek_time(), Some(Time::from_nanos(10)));
        assert_eq!(q.pop(), Some((Time::from_nanos(10), 1)));
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(q.pop(), Some((t, 0)));
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(q.pop(), Some((t, 2)));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn push_after_peek_still_delivers_in_order() {
        // peek_time stages the upcoming window; a later push landing
        // before the staged entries must still deliver first.
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(1000), 1000u64);
        assert_eq!(q.peek_time(), Some(Time::from_nanos(1000)));
        q.push(Time::from_nanos(40), 40);
        q.push(Time::from_nanos(990), 990);
        assert_eq!(q.peek_time(), Some(Time::from_nanos(40)));
        assert_eq!(q.pop(), Some((Time::from_nanos(40), 40)));
        assert_eq!(q.pop(), Some((Time::from_nanos(990), 990)));
        assert_eq!(q.pop(), Some((Time::from_nanos(1000), 1000)));
        assert_eq!(q.pop(), None);
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
        assert_eq!(q.cancel_sets(), (0, 0));
    }

    #[test]
    fn staged_lookahead_names_the_coming_pops() {
        // Seeded random interleavings of pops with near pushes (most land
        // inside the staged batch and splice into it), page-overflowing
        // bursts at one instant, far pushes (upper levels, overflow) and
        // cancellations. Whenever `staged(k)` answers, the k+1-th pop
        // after it — with nothing pushed or cancelled in between — must
        // deliver that payload; asking must move neither the clock nor
        // any counter.
        let mut answered = 0u64;
        for seed in 0..40 {
            let mut rng = crate::SimRng::seed_from(seed);
            let mut q = EventQueue::new();
            let mut id = 0u64;
            let mut toks = Vec::new();
            let mut push = |q: &mut EventQueue<u64>, at: Time| {
                id += 1;
                q.push(at, id);
            };
            for _ in 0..3_000 {
                let now = q.now();
                match rng.below(10) {
                    0..=2 => push(&mut q, now + Time::from_nanos(rng.below(200) as u64)),
                    3 => {
                        let at = now + Time::from_nanos(rng.below(100) as u64);
                        for _ in 0..2 * PAGE + rng.below(PAGE) {
                            push(&mut q, at);
                        }
                    }
                    4 => {
                        let far = 1u64 << (8 + 6 * rng.below(6));
                        push(&mut q, now + Time::from_nanos(far + rng.below(64) as u64));
                    }
                    5 => {
                        let at = now + Time::from_nanos(rng.below(500) as u64);
                        toks.push(q.push_cancellable(at, u64::MAX));
                        if rng.below(2) == 0 {
                            q.cancel(toks[rng.below(toks.len())]);
                        }
                    }
                    _ => {
                        let before = (q.now(), q.len(), q.events_processed());
                        let ahead: Vec<Option<u64>> =
                            (0..2 * PAGE).map(|k| q.staged(k).copied()).collect();
                        assert_eq!((q.now(), q.len(), q.events_processed()), before);
                        for want in ahead.into_iter().take(1 + rng.below(2 * PAGE)) {
                            let got = q.pop().map(|(_, p)| p);
                            if let Some(p) = want {
                                assert_eq!(got, Some(p), "seed {seed}: staged payload not popped");
                                answered += 1;
                            }
                        }
                    }
                }
            }
            while q.staged(0).is_some() || !q.is_empty() {
                let want = q.staged(0).copied();
                let got = q.pop().map(|(_, p)| p);
                assert!(want.is_none() || got == want, "seed {seed}: drain");
            }
        }
        assert!(answered > 10_000, "lookahead rarely answered: {answered}");
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
        assert_eq!(wheel.allocated_slots(), 100);
    }
}
