//! The pre-timing-wheel event queue: a `BinaryHeap` with a `HashSet` of
//! cancelled tokens.
//!
//! Kept in-tree as the *reference* the differential tests at the bottom
//! of this file compare the timing wheel's pop order against, and
//! carrying only the surface they call. The module is compiled for
//! `cargo test` only: nothing in the simulator runs on it.
//!
//! Known deficiency, by design left unfixed here: cancelling a token
//! *after* its event was delivered inserts into `cancelled` a token id
//! that no pop will ever remove, so long cancel-after-fire workloads grow
//! the set without bound. The timing wheel fixes this by only moving a
//! seq into its cancelled set while the entry is still pending.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use crate::event::EventToken;
use crate::Time;

struct Entry<P> {
    time: Time,
    seq: u64,
    token: u64, // 0 = not cancellable
    payload: P,
}

// BinaryHeap is a max-heap; invert the ordering to pop the earliest
// (time, seq) first. `seq` is a monotone counter, so two events scheduled
// for the same instant pop in the order they were pushed (FIFO). That
// tie-break is what makes simulations deterministic.
impl<P> Ord for Entry<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}
impl<P> PartialOrd for Entry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> PartialEq for Entry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<P> Eq for Entry<P> {}

/// The legacy binary-heap future-event list (see the module docs).
///
/// Events at equal timestamps are delivered in push order, exactly as
/// [`crate::EventQueue`] delivers them.
pub struct HeapQueue<P> {
    heap: BinaryHeap<Entry<P>>,
    seq: u64,
    next_token: u64,
    cancelled: HashSet<u64>,
    now: Time,
    popped: u64,
}

impl<P> HeapQueue<P> {
    /// An empty queue positioned at `Time::ZERO`.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            next_token: 1,
            cancelled: HashSet::new(),
            now: Time::ZERO,
            popped: 0,
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

    /// Pending events by definition: heap entries nobody has cancelled.
    /// A walk, so the wheel's derived count is checked against something
    /// that keeps no counter at all.
    pub fn len(&self) -> usize {
        self.heap
            .iter()
            .filter(|e| e.token == 0 || !self.cancelled.contains(&e.token))
            .count()
    }

    /// Position a fresh queue at a restored clock (the wheel's
    /// [`restore_clock`](crate::EventQueue::restore_clock)).
    pub fn restore_clock(&mut self, now: Time, seq: u64, popped: u64) {
        debug_assert!(self.heap.is_empty() && self.popped == 0);
        self.now = now;
        self.seq = seq;
        self.popped = popped;
    }

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
        self.heap.push(Entry {
            time: at,
            seq,
            token: 0,
            payload,
        });
    }

    /// Schedule `payload` at `at` under a caller-chosen `seq`, leaving the
    /// internal stamp alone: the wheel's
    /// [`push_stamped`](crate::EventQueue::push_stamped).
    pub fn push_keyed(&mut self, at: Time, seq: u64, payload: P) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.heap.push(Entry {
            time: at,
            seq,
            token: 0,
            payload,
        });
    }

    /// Schedule a cancellable event; keep the token to [`cancel`] it.
    ///
    /// [`cancel`]: HeapQueue::cancel
    pub fn push_cancellable(&mut self, at: Time, payload: P) -> EventToken {
        debug_assert!(at >= self.now, "scheduling into the past");
        let seq = self.seq;
        self.seq += 1;
        let token = self.next_token;
        self.next_token += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            token,
            payload,
        });
        EventToken(token)
    }

    /// Cancel a previously scheduled cancellable event. Cancelling an
    /// already-delivered or already-cancelled event is a no-op (but see
    /// the module docs: it leaks a set entry).
    pub fn cancel(&mut self, token: EventToken) {
        self.cancelled.insert(token.0);
    }

    /// Deliver the next event, advancing the clock. Cancelled events are
    /// skipped silently.
    pub fn pop(&mut self) -> Option<(Time, P)> {
        while let Some(e) = self.heap.pop() {
            if e.token != 0 && self.cancelled.remove(&e.token) {
                continue;
            }
            debug_assert!(e.time >= self.now);
            self.now = e.time;
            self.popped += 1;
            return Some((e.time, e.payload));
        }
        None
    }

    /// Timestamp of the next (non-cancelled) pending event without
    /// delivering it.
    pub fn peek_time(&mut self) -> Option<Time> {
        // Drain cancelled entries off the top so the answer is accurate.
        while let Some(e) = self.heap.peek() {
            if e.token != 0 && self.cancelled.contains(&e.token) {
                let e = self.heap.pop().expect("peeked entry exists");
                self.cancelled.remove(&e.token);
            } else {
                return Some(e.time);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventQueue, SimRng};

    #[test]
    fn pops_in_time_order_fifo_at_ties() {
        let mut q = HeapQueue::new();
        q.push(Time::from_nanos(30), 3);
        q.push(Time::from_nanos(10), 1);
        q.push(Time::from_nanos(10), 2);
        assert_eq!(q.pop(), Some((Time::from_nanos(10), 1)));
        assert_eq!(q.pop(), Some((Time::from_nanos(10), 2)));
        assert_eq!(q.pop(), Some((Time::from_nanos(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = HeapQueue::new();
        let tok = q.push_cancellable(Time::from_nanos(10), "cancelled");
        q.push(Time::from_nanos(20), "kept");
        q.cancel(tok);
        assert_eq!(q.pop(), Some((Time::from_nanos(20), "kept")));
        assert_eq!(q.pop(), None);
    }

    // ---- Differential: the timing wheel must replay this queue's
    // delivery order bit-for-bit. This is the determinism bar for the
    // queue swap: same operation sequence ⇒ identical `(time, payload)`
    // pop streams, including FIFO tie-breaks at equal timestamps,
    // cancellations in every region of the wheel (level 0, upper levels up
    // to the top one, and the staged ready batch), and cancel-after-fire
    // no-ops. The wheel keeps no pending count — it
    // derives `len()` from three single-writer counters — so `len()` and
    // `is_empty()` are compared with the reference's walk after every
    // operation, and `allocated_slots()` with the walk's high-water. ----

    /// What a scenario's operations hit. Cancels, read off the reference:
    /// an entry still pending (and, of those, one still ≥ 2^60 ns ahead —
    /// the wheel's top level), an entry that had already fired, and a
    /// token that had already been cancelled. Pops whose deadline differs
    /// from the clock before them at bit 60 or above: the wheel's cursor
    /// reaches those bits only by cascading a top-level slot. Keyed
    /// pushes: reserved-band `push_stamped` entries, ordinary pushes that
    /// landed behind one at its instant, and bursts of more than a page's
    /// entries at one instant.
    #[derive(Default)]
    struct Seen {
        live: u32,
        far: u32,
        fired: u32,
        repeated: u32,
        top_pops: u32,
        stamped: u32,
        overtaken: u32,
        bursts: u32,
    }

    /// Top-level distance: deadlines at least this far from the clock
    /// differ from it at bit 60 or above.
    const TOP: u64 = 1 << 60;

    /// The wheel's page size, which a burst must exceed.
    const PAGE: usize = 32;

    /// `push_stamped`'s reserved band (the runtime's fault seqs start here).
    const BAND: u64 = 1 << 62;

    /// The entries that break "push order is seq order", which the wheel's
    /// staging relies on to skip its tie sort: a reserved-band
    /// `push_stamped` entry aimed at an instant that already holds
    /// entries, with ordinary pushes then landing behind it at the same
    /// instant — plus bursts of more than a page into one slot, so such
    /// instants sit in batches large enough for the counting sort.
    #[derive(Default)]
    struct Keyed {
        /// Deadlines of the latest pushes.
        recent: Vec<Time>,
        next_stamp: u64,
    }

    impl Keyed {
        fn note(&mut self, at: Time) {
            if self.recent.len() == 16 {
                self.recent.remove(0);
            }
            self.recent.push(at);
        }

        /// A recent deadline not yet in the past, else `at`.
        fn instant(&self, rng: &mut SimRng, now: Time, at: Time) -> Time {
            let open: Vec<Time> = self.recent.iter().copied().filter(|&t| t >= now).collect();
            if open.is_empty() {
                at
            } else {
                open[rng.below(open.len())]
            }
        }

        /// One keyed operation at the drawn deadline `at`.
        fn push(
            &mut self,
            rng: &mut SimRng,
            wheel: &mut EventQueue<u64>,
            heap: &mut HeapQueue<u64>,
            at: Time,
            payload: &mut u64,
            seen: &mut Seen,
        ) {
            let now = wheel.now();
            match rng.below(3) {
                // A banded entry, then ordinary pushes behind it at its
                // instant: their smaller seqs must still pop first.
                0 | 1 => {
                    let t = self.instant(rng, now, at);
                    let seq = BAND + self.next_stamp;
                    self.next_stamp += 1;
                    wheel.push_stamped(t, seq, *payload);
                    heap.push_keyed(t, seq, *payload);
                    seen.stamped += 1;
                    for _ in 0..rng.below(4) {
                        *payload += 1;
                        wheel.push(t, *payload);
                        heap.push(t, *payload);
                        seen.overtaken += 1;
                    }
                }
                // More than a page into one slot, a few ns apart.
                _ => {
                    for _ in 0..PAGE + 1 + rng.below(2 * PAGE) {
                        let t = at + Time::from_nanos(7 * rng.below(3) as u64);
                        *payload += 1;
                        wheel.push(t, *payload);
                        heap.push(t, *payload);
                    }
                    self.note(at);
                    seen.bursts += 1;
                }
            }
        }
    }

    /// One randomized scenario: interleaved pushes (with a heavy-tailed time
    /// spread so every wheel level, the top one included, gets traffic),
    /// cancellations of a random subset, and batched pops — on a fresh
    /// queue, or (odd seeds) one positioned by `restore_clock` first. With
    /// `keyed`, a quarter of the pushes are [`Keyed`] operations.
    fn churn_scenario(seed: u64, ops: usize, peek: bool, keyed: bool, seen: &mut Seen) {
        let mut rng = SimRng::seed_from(seed);
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut tokens: Vec<(EventToken, EventToken, Time, bool)> = Vec::new();
        let mut keys = Keyed::default();
        let mut payload = 0u64;
        let mut restored = 0u64;
        let mut high_water = 0usize;
        if seed % 2 == 1 {
            let now = Time::from_nanos(rng.below(1 << 30) as u64);
            let seq = rng.below(1 << 20) as u64;
            restored = rng.below(1 << 20) as u64;
            wheel.restore_clock(now, seq, restored);
            heap.restore_clock(now, seq, restored);
            assert_eq!(wheel.len(), 0, "a restored clock has nothing pending");
            assert_eq!(wheel.now(), heap.now());
        }

        for _ in 0..ops {
            let pending = heap.len();
            high_water = high_water.max(pending);
            assert_eq!(wheel.len(), pending, "len diverged (seed {seed})");
            assert_eq!(wheel.is_empty(), pending == 0);
            assert_eq!(
                wheel.allocated_slots(),
                high_water,
                "pending high-water diverged (seed {seed})"
            );
            match rng.below(10) {
                // 0-5: push (sometimes cancellable) at a spread-out future time.
                0..=5 => {
                    let base = wheel.now();
                    // Room left below u64::MAX, short of a keyed burst's
                    // few ns past its deadline.
                    let room = u64::MAX - 64 - base.as_nanos();
                    // Heavy tail: mostly near, occasionally deep into upper
                    // levels or out to the top one, up to near u64::MAX.
                    let gap = match rng.below(13) {
                        0..=5 => rng.below(512) as u64,                 // level 0/1
                        6..=8 => rng.below(1 << 18) as u64,             // mid levels
                        9..=10 => rng.below(1 << 30) as u64,            // high levels
                        11 => (1u64 << 36) + rng.below(1 << 30) as u64, // level 5
                        _ => (room >> rng.below(4)).saturating_sub(rng.below(1 << 30) as u64),
                    };
                    let at = base + Time::from_nanos(gap.min(room));
                    payload += 1;
                    if keyed && rng.below(4) == 0 {
                        keys.push(&mut rng, &mut wheel, &mut heap, at, &mut payload, seen);
                        continue;
                    }
                    if keyed {
                        keys.note(at);
                    }
                    if rng.below(3) == 0 {
                        let tw = wheel.push_cancellable(at, payload);
                        let th = heap.push_cancellable(at, payload);
                        tokens.push((tw, th, at, false));
                    } else {
                        wheel.push(at, payload);
                        heap.push(at, payload);
                    }
                    // A burst of same-timestamp events now and then, to
                    // exercise the FIFO tie-break hard.
                    if rng.below(8) == 0 {
                        for _ in 0..rng.below(6) {
                            payload += 1;
                            wheel.push(at, payload);
                            heap.push(at, payload);
                        }
                    }
                }
                // 6: cancel a random token: still pending, already fired,
                // or (one time in four the token is kept for another go)
                // already cancelled — the last two must be no-ops on both
                // sides, for the count as for the pop stream.
                6 => {
                    if !tokens.is_empty() {
                        let i = rng.below(tokens.len());
                        let (tw, th, at, cancelled) = tokens[i];
                        if rng.below(4) == 0 {
                            tokens[i].3 = true;
                        } else {
                            tokens.swap_remove(i);
                        }
                        let before = heap.len();
                        wheel.cancel(tw);
                        heap.cancel(th);
                        if heap.len() < before {
                            seen.live += 1;
                            let ahead = at.as_nanos() - heap.now().as_nanos();
                            seen.far += u32::from(ahead >= TOP);
                        } else if cancelled {
                            seen.repeated += 1;
                        } else {
                            seen.fired += 1;
                        }
                    }
                }
                // 7-9: pop a small batch and compare the streams.
                _ => {
                    for _ in 0..=rng.below(4) {
                        if peek {
                            assert_eq!(wheel.peek_time(), heap.peek_time(), "peek diverged");
                        }
                        let before = heap.now().as_nanos();
                        let w = wheel.pop();
                        let h = heap.pop();
                        assert_eq!(w, h, "pop stream diverged (seed {seed})");
                        seen.top_pops += top_pop(before, &h);
                        assert_eq!(wheel.now(), heap.now());
                        assert_eq!(wheel.len(), heap.len(), "len diverged mid-batch");
                        if w.is_none() {
                            assert_eq!(wheel.len(), 0, "empty pop with entries counted");
                            break;
                        }
                    }
                }
            }
        }
        high_water = high_water.max(heap.len());
        assert_eq!(wheel.allocated_slots(), high_water);
        // Drain both to the end.
        loop {
            let before = heap.now().as_nanos();
            let w = wheel.pop();
            let h = heap.pop();
            assert_eq!(w, h, "drain diverged (seed {seed})");
            seen.top_pops += top_pop(before, &h);
            assert_eq!(wheel.len(), heap.len(), "len diverged in the drain");
            if w.is_none() {
                break;
            }
        }
        assert_eq!(wheel.events_processed(), heap.events_processed());
        assert!(wheel.events_processed() >= restored);
        assert!(wheel.is_empty());
        assert_eq!(wheel.len(), 0);
        // Neither a cancel after fire nor a repeated cancel left residue.
        assert_eq!(
            wheel.cancel_sets(),
            (0, 0),
            "cancellation sets not empty after the drain (seed {seed})"
        );
    }

    /// Whether a pop after clock `before` crossed bit 60.
    fn top_pop(before: u64, popped: &Option<(Time, u64)>) -> u32 {
        popped.map_or(0, |(t, _)| u32::from(t.as_nanos() ^ before >= TOP))
    }

    fn assert_every_cancel_kind(seen: &Seen) {
        assert!(
            seen.live > 0 && seen.far > 0 && seen.fired > 0 && seen.repeated > 0,
            "a cancel kind went unexercised: {} live ({} at the top level), {} fired, {} repeated",
            seen.live,
            seen.far,
            seen.fired,
            seen.repeated
        );
        assert!(seen.top_pops > 0, "no pop came through the top level");
    }

    #[test]
    fn replays_heap_order_across_seeds() {
        let mut seen = Seen::default();
        for seed in 0..20 {
            churn_scenario(seed, 4_000, false, false, &mut seen);
        }
        assert_every_cancel_kind(&seen);
    }

    #[test]
    fn replays_heap_order_with_interleaved_peeks() {
        let mut seen = Seen::default();
        for seed in 100..110 {
            churn_scenario(seed, 2_000, true, false, &mut seen);
        }
        assert_every_cancel_kind(&seen);
    }

    #[test]
    fn replays_heap_order_with_keyed_pushes() {
        let mut seen = Seen::default();
        for seed in 200..212 {
            churn_scenario(seed, 1_000, seed % 4 < 2, true, &mut seen);
        }
        assert_every_cancel_kind(&seen);
        assert!(
            seen.stamped > 0 && seen.overtaken > 0 && seen.bursts > 0,
            "a keyed kind went unexercised: {} stamped, {} overtaken, {} bursts",
            seen.stamped,
            seen.overtaken,
            seen.bursts
        );
    }
}
