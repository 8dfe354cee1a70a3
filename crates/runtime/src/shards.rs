//! The sharded event engine: one timing wheel per fabric shard, advanced
//! in conservative lookahead windows and merged deterministically.
//!
//! # The lookahead contract
//!
//! A [`ShardPlan`](drill_net::ShardPlan) splits the fabric so that every
//! cross-shard link has propagation delay ≥ `lookahead`. The engine
//! advances all shards through a window `[W, W + lookahead)` and only
//! exchanges cross-shard handoffs at the window barrier: an event emitted
//! at `now < W + lookahead` toward another shard is timestamped
//! `now + prop ≥ W + lookahead`, so deferring it to the barrier can never
//! starve the destination shard of an event it should have seen inside
//! the window. Handoffs travel through per-`(src, dst)` mailboxes that
//! the barrier drains in a fixed `(src, dst)`-major order.
//!
//! # Bit-identical merge
//!
//! Determinism goldens must replay identically at *any* shard count. The
//! engine guarantees this by stamping one **global** FIFO sequence across
//! every wheel at logical emit time (`push_*` consumes sequence numbers
//! in exactly the order a single serial wheel would) and popping the
//! wheel whose [`peek_key`](drill_sim::EventQueue::peek_key) is the
//! minimum `(time, seq)`. The merged pop order is therefore *equal* to
//! the serial order, windows and mailboxes included — the sharded
//! structure changes where events wait, never when they fire. The flip
//! side is that the merge itself is sequential; executing whole windows
//! concurrently additionally requires per-shard RNG streams and
//! flow-state ownership, which today's simulation shares globally (see
//! DESIGN.md §11 for what gates that step).

use drill_exec::inner_budget;
use drill_net::ShardPlan;
use drill_sim::{EventQueue, Time};

/// FNV-1a 64-bit offset/prime for the handoff-order fingerprint.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Minimum number of handoffs at one barrier before draining them on
/// scoped worker threads pays for the spawns (destinations are
/// independent wheels, so the parallel drain is trivially deterministic).
const PAR_DRAIN_MIN: usize = 512;

/// One mailbox: cross-shard events waiting for the next barrier, each
/// carrying its global sequence stamp.
type Mailbox<P> = Vec<(Time, u64, P)>;

/// The event queue behind [`World`](crate::world): the byte-identical
/// serial wheel, or the sharded windowed engine.
// One EngineQueue exists per World, and the serial wheel is the hot
// path — boxing `Serial` to shrink the enum would put a pointer deref
// on every serial push/pop for no aggregate memory win.
#[allow(clippy::large_enum_variant)]
pub(crate) enum EngineQueue<P> {
    /// The pre-sharding path: one wheel, internal sequence stamping.
    /// `DRILL_SHARDS=1` resolves here, so it *is* today's serial run.
    Serial(EventQueue<P>),
    /// Per-shard wheels + control wheel + mailboxes.
    Sharded(Box<Sharded<P>>),
}

impl<P: Send + Clone> EngineQueue<P> {
    pub fn serial() -> EngineQueue<P> {
        EngineQueue::Serial(EventQueue::new())
    }

    pub fn sharded(plan: &ShardPlan) -> EngineQueue<P> {
        EngineQueue::Sharded(Box::new(Sharded::new(plan)))
    }

    /// Schedule a world-level event (arrivals, timers, faults, sampling):
    /// owned by the driver, not by any fabric shard.
    #[inline]
    pub fn push_control(&mut self, at: Time, ev: P) {
        match self {
            EngineQueue::Serial(q) => q.push(at, ev),
            EngineQueue::Sharded(s) => s.push_control(at, ev),
        }
    }

    /// Schedule a network event owned by shard `dst`, emitted while
    /// dispatching in shard `src`. Same-shard (and serial) pushes go
    /// straight into the owner's wheel; cross-shard pushes enter the
    /// `(src, dst)` mailbox until the next window barrier.
    #[inline]
    pub fn push_shard(&mut self, at: Time, dst: u32, src: u32, ev: P) {
        match self {
            EngineQueue::Serial(q) => q.push(at, ev),
            EngineQueue::Sharded(s) => s.push_shard(at, dst, src, ev),
        }
    }

    #[inline]
    pub fn pop(&mut self) -> Option<(Time, P)> {
        match self {
            EngineQueue::Serial(q) => q.pop(),
            EngineQueue::Sharded(s) => s.pop(),
        }
    }

    /// The timestamp of the most recently popped event.
    #[inline]
    pub fn now(&self) -> Time {
        match self {
            EngineQueue::Serial(q) => q.now(),
            EngineQueue::Sharded(s) => s.now,
        }
    }

    /// Number of events delivered so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        match self {
            EngineQueue::Serial(q) => q.events_processed(),
            EngineQueue::Sharded(s) => s.popped,
        }
    }

    /// The next global FIFO sequence number — recorded by snapshots so a
    /// restored engine keeps stamping exactly where the saved one left
    /// off.
    #[inline]
    pub fn next_seq(&self) -> u64 {
        match self {
            EngineQueue::Serial(q) => q.next_seq(),
            EngineQueue::Sharded(s) => s.seq,
        }
    }

    /// Schedule a control event carrying a caller-supplied sequence
    /// number *without* consuming a global sequence (see
    /// [`drill_sim::EventQueue::push_stamped`]): fault injections are
    /// stamped from a reserved band so divergent fault schedules can be
    /// re-injected at restore without perturbing any other event's seq.
    #[inline]
    pub fn push_control_stamped(&mut self, at: Time, seq: u64, ev: P) {
        match self {
            EngineQueue::Serial(q) => q.push_stamped(at, seq, ev),
            EngineQueue::Sharded(s) => {
                let control = s.num_shards;
                s.wheels[control].push_stamped(at, seq, ev);
            }
        }
    }

    /// Visit every pending event as `(time, seq, &event)`, in arbitrary
    /// order. Mailboxed cross-shard handoffs are included — where an event
    /// *waits* is engine topology, not simulation state, so the snapshot
    /// layer records a flat `(time, seq)`-sorted list that restores into
    /// any engine shape.
    pub fn for_each_pending<F: FnMut(Time, u64, &P)>(&self, mut f: F) {
        match self {
            EngineQueue::Serial(q) => q.for_each_pending(&mut f),
            EngineQueue::Sharded(s) => {
                for w in &s.wheels {
                    w.for_each_pending(&mut f);
                }
                for mb in &s.mailboxes {
                    for (t, seq, ev) in mb {
                        f(*t, *seq, ev);
                    }
                }
            }
        }
    }

    /// Re-insert a pending network event owned by shard `dst` during
    /// restore, preserving its recorded global sequence. Goes straight
    /// into the owner's wheel — never a mailbox — which is safe because
    /// restore precedes the first window barrier (`window_end` is zero).
    #[inline]
    pub fn restore_net(&mut self, at: Time, seq: u64, dst: u32, ev: P) {
        match self {
            EngineQueue::Serial(q) => q.push_stamped(at, seq, ev),
            EngineQueue::Sharded(s) => s.wheels[dst as usize].push_stamped(at, seq, ev),
        }
    }

    /// Position a **fresh** engine at a restored clock: simulation time
    /// `now`, next global sequence `seq`, and `popped` delivered events.
    /// Must run before any `restore_net`/`push_control_stamped` calls.
    ///
    /// Every pending event restored afterwards carries `time >= now` (pop
    /// order is globally `(time, seq)`-sorted, so nothing earlier than
    /// the last popped instant can still be pending), which makes the
    /// per-wheel cursor jump safe on the sharded engine too. Window and
    /// handoff statistics restart from zero: they describe engine
    /// mechanics, not simulation state, and are excluded from determinism
    /// fingerprints.
    pub fn restore_clock(&mut self, now: Time, seq: u64, popped: u64) {
        match self {
            EngineQueue::Serial(q) => q.restore_clock(now, seq, popped),
            EngineQueue::Sharded(s) => {
                for w in &mut s.wheels {
                    w.restore_clock(now, 0, 0);
                }
                s.now = now;
                s.seq = seq;
                s.popped = popped;
                s.window_end = 0;
            }
        }
    }

    /// Timestamp of the next pending event anywhere — wheels *and*
    /// mailboxes (a mailboxed handoff can precede every wheel-resident
    /// event) — without delivering it. Drives the at-time checkpoint
    /// trigger: snapshot when the next event would cross the target.
    pub fn peek_time(&mut self) -> Option<Time> {
        match self {
            EngineQueue::Serial(q) => q.peek_time(),
            EngineQueue::Sharded(s) => {
                let mut best = s.min_key().map(|(t, _, _)| t);
                for mb in &s.mailboxes {
                    for &(t, _, _) in mb {
                        if best.is_none_or(|b| t < b) {
                            best = Some(t);
                        }
                    }
                }
                best
            }
        }
    }

    /// Slab slots ever allocated across the engine's wheels: the
    /// high-water mark of concurrently pending events (mailboxed
    /// handoffs excluded — they hold no slot until the barrier).
    pub fn allocated_slots(&self) -> usize {
        match self {
            EngineQueue::Serial(q) => q.allocated_slots(),
            EngineQueue::Sharded(s) => s.wheels.iter().map(EventQueue::allocated_slots).sum(),
        }
    }

    /// Record a fault strike against its owning shard (no-op when
    /// serial); faults are control events, but attributing them keeps the
    /// per-shard accounting honest and testable.
    #[inline]
    pub fn note_fault(&mut self, shard: u32) {
        if let EngineQueue::Sharded(s) = self {
            s.fault_strikes[shard as usize] += 1;
        }
    }

    /// `(handoffs, handoff order hash, windows)` for the run's stats;
    /// zeros when serial.
    pub fn shard_stats(&self) -> (u64, u64, u64) {
        match self {
            EngineQueue::Serial(_) => (0, 0, 0),
            EngineQueue::Sharded(s) => (s.handoffs, s.handoff_hash, s.windows),
        }
    }
}

/// The windowed multi-wheel engine (see the module docs).
pub(crate) struct Sharded<P> {
    /// One wheel per shard, plus the control wheel at index `num_shards`.
    wheels: Vec<EventQueue<P>>,
    /// Per-`(src, dst)` mailboxes, flattened `src * num_shards + dst`;
    /// only cross-shard pairs are ever populated.
    mailboxes: Vec<Mailbox<P>>,
    num_shards: usize,
    /// Window length in ns (the plan's lookahead bound).
    lookahead: u64,
    /// Events strictly before this instant may pop; crossing it forces a
    /// barrier. Starts at zero so the first pop opens the first window.
    window_end: u64,
    /// Global FIFO sequence, consumed in logical emit order.
    seq: u64,
    now: Time,
    popped: u64,
    /// Entries currently waiting in mailboxes.
    pending_handoffs: usize,
    /// Worker budget for barrier drains (its share of `DRILL_THREADS`,
    /// captured at construction; see `drill_exec::inner_budget`).
    drain_workers: usize,
    pub handoffs: u64,
    pub handoff_hash: u64,
    pub windows: u64,
    /// Fault strikes attributed to each shard (control wheel excluded).
    pub fault_strikes: Vec<u64>,
}

impl<P: Send + Clone> Sharded<P> {
    pub fn new(plan: &ShardPlan) -> Sharded<P> {
        let n = plan.num_shards as usize;
        assert!(n >= 2, "the serial path handles one shard");
        assert!(
            plan.lookahead > Time::ZERO && plan.lookahead != Time::MAX,
            "a multi-shard plan needs a finite positive lookahead"
        );
        Sharded {
            wheels: (0..=n).map(|_| EventQueue::new()).collect(),
            mailboxes: (0..n * n).map(|_| Vec::new()).collect(),
            num_shards: n,
            lookahead: plan.lookahead.as_nanos(),
            window_end: 0,
            seq: 0,
            now: Time::ZERO,
            popped: 0,
            pending_handoffs: 0,
            drain_workers: inner_budget(),
            handoffs: 0,
            handoff_hash: FNV_OFFSET,
            windows: 0,
            fault_strikes: vec![0; n],
        }
    }

    #[inline]
    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    #[inline]
    fn push_control(&mut self, at: Time, ev: P) {
        let seq = self.next_seq();
        let control = self.num_shards;
        self.wheels[control].push_with_seq(at, seq, ev);
    }

    #[inline]
    fn push_shard(&mut self, at: Time, dst: u32, src: u32, ev: P) {
        let seq = self.next_seq();
        if dst == src {
            self.wheels[dst as usize].push_with_seq(at, seq, ev);
        } else {
            // The conservative contract: a cross-shard event can never be
            // due inside the window that emitted it.
            debug_assert!(
                at.as_nanos() >= self.window_end,
                "cross-shard handoff due inside the emitting window"
            );
            self.mailboxes[src as usize * self.num_shards + dst as usize].push((at, seq, ev));
            self.pending_handoffs += 1;
        }
    }

    /// Minimum `(time, seq)` over every wheel and the wheel holding it.
    fn min_key(&mut self) -> Option<(Time, u64, usize)> {
        let mut best: Option<(Time, u64, usize)> = None;
        for (i, w) in self.wheels.iter_mut().enumerate() {
            if let Some((t, s)) = w.peek_key() {
                if best.is_none_or(|(bt, bs, _)| (t, s) < (bt, bs)) {
                    best = Some((t, s, i));
                }
            }
        }
        best
    }

    fn pop(&mut self) -> Option<(Time, P)> {
        loop {
            if let Some((t, _, w)) = self.min_key() {
                if t.as_nanos() < self.window_end {
                    let (pt, ev) = self.wheels[w].pop().expect("peeked entry pops");
                    debug_assert_eq!(pt, t);
                    self.now = t;
                    self.popped += 1;
                    return Some((t, ev));
                }
            } else if self.pending_handoffs == 0 {
                return None;
            }
            // Window barrier: exchange handoffs, then open the next
            // window at the earliest pending event anywhere.
            self.drain_mailboxes();
            let (start, _, _) = self.min_key().expect("barrier reached with events pending");
            self.window_end = start.as_nanos().saturating_add(self.lookahead);
            self.windows += 1;
        }
    }

    /// Deliver every mailbox into its destination wheel, in fixed
    /// `(src, dst)`-major order. The handoff fingerprint hashes the drain
    /// order serially first; delivery itself is per-destination
    /// independent (each entry carries its global seq, and each wheel
    /// re-sorts by `(time, seq)`), so large barriers hand the
    /// per-destination batches to scoped worker threads.
    fn drain_mailboxes(&mut self) {
        if self.pending_handoffs == 0 {
            return;
        }
        let n = self.num_shards;
        let mut hash = self.handoff_hash;
        for src in 0..n {
            for dst in 0..n {
                for &(t, seq, _) in &self.mailboxes[src * n + dst] {
                    for word in [src as u64, dst as u64, t.as_nanos(), seq] {
                        hash = (hash ^ word).wrapping_mul(FNV_PRIME);
                    }
                }
            }
        }
        self.handoff_hash = hash;
        self.handoffs += self.pending_handoffs as u64;
        if self.drain_workers > 1 && self.pending_handoffs >= PAR_DRAIN_MIN {
            // One worker per destination shard with pending mail; wheels
            // are disjoint, so plain scoped threads suffice.
            let mut batches: Vec<(usize, Vec<Mailbox<P>>)> = Vec::new();
            for dst in 0..n {
                let mut per_src: Vec<Mailbox<P>> = Vec::new();
                for src in 0..n {
                    per_src.push(std::mem::take(&mut self.mailboxes[src * n + dst]));
                }
                if per_src.iter().any(|b| !b.is_empty()) {
                    batches.push((dst, per_src));
                }
            }
            let mut rest: &mut [EventQueue<P>] = &mut self.wheels[..n];
            let mut offset = 0usize;
            std::thread::scope(|scope| {
                for (dst, per_src) in batches {
                    let (head, tail) = rest.split_at_mut(dst - offset + 1);
                    let wheel: &mut EventQueue<P> = head.last_mut().expect("split is non-empty");
                    rest = tail;
                    offset = dst + 1;
                    scope.spawn(move || {
                        for batch in per_src {
                            for (t, seq, ev) in batch {
                                wheel.push_with_seq(t, seq, ev);
                            }
                        }
                    });
                }
            });
        } else {
            for src in 0..n {
                for dst in 0..n {
                    let mut batch = std::mem::take(&mut self.mailboxes[src * n + dst]);
                    for (t, seq, ev) in batch.drain(..) {
                        self.wheels[dst].push_with_seq(t, seq, ev);
                    }
                    // Hand the allocation back for the next window.
                    self.mailboxes[src * n + dst] = batch;
                }
            }
        }
        self.pending_handoffs = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drill_net::{leaf_spine, LeafSpineSpec, DEFAULT_PROP};

    fn plan(shards: usize) -> ShardPlan {
        let topo = leaf_spine(&LeafSpineSpec {
            spines: 4,
            leaves: 4,
            hosts_per_leaf: 2,
            host_rate: 10_000_000_000,
            core_rate: 40_000_000_000,
            prop: DEFAULT_PROP,
        });
        ShardPlan::auto(&topo, shards)
    }

    /// Feed the same event stream through the serial engine and a
    /// sharded engine (round-robin ownership, cross-shard emissions
    /// mailboxed with lookahead-respecting timestamps); pops must match
    /// exactly.
    #[test]
    fn sharded_merge_equals_serial_order() {
        let p = plan(3);
        let la = p.lookahead.as_nanos();
        let mut serial: EngineQueue<u64> = EngineQueue::serial();
        let mut sharded: EngineQueue<u64> = EngineQueue::sharded(&p);
        // Seed both with one control event so the first window opens.
        serial.push_control(Time::ZERO, u64::MAX);
        sharded.push_control(Time::ZERO, u64::MAX);
        let mut emitted = 0u64;
        loop {
            let a = serial.pop();
            let b = sharded.pop();
            assert_eq!(a, b);
            let Some((now, _)) = a else { break };
            // Deterministic cascade: each pop emits a few future events,
            // some same-shard, some cross-shard at ≥ lookahead.
            while emitted < 3000 && emitted < serial.events_processed() * 3 {
                let src = (emitted % 3) as u32;
                let cross = emitted.is_multiple_of(5);
                let dst = if cross { (src + 1) % 3 } else { src };
                let delay = if cross {
                    la + emitted % 97
                } else {
                    1 + emitted % 61
                };
                let at = Time::from_nanos(now.as_nanos() + delay);
                serial.push_shard(at, dst, src, emitted);
                sharded.push_shard(at, dst, src, emitted);
                emitted += 1;
            }
        }
        assert_eq!(serial.events_processed(), sharded.events_processed());
        assert_eq!(serial.now(), sharded.now());
        let (handoffs, hash, windows) = sharded.shard_stats();
        assert!(handoffs > 0, "cross-shard traffic used the mailboxes");
        assert_ne!(hash, FNV_OFFSET, "handoff fingerprint accumulated");
        assert!(windows > 0, "the run advanced through barriers");
        assert_eq!(serial.shard_stats(), (0, 0, 0));
    }

    /// The drain order — and therefore the handoff fingerprint — is a
    /// pure function of the event stream, not of batch sizes or the
    /// parallel-drain path.
    #[test]
    fn handoff_fingerprint_is_reproducible() {
        let p = plan(2);
        let run = |workers: usize| {
            let mut e: EngineQueue<u64> = EngineQueue::sharded(&p);
            if let EngineQueue::Sharded(s) = &mut e {
                s.drain_workers = workers;
            }
            e.push_control(Time::ZERO, 0);
            let la = p.lookahead.as_nanos();
            // Burst well past PAR_DRAIN_MIN so the parallel path engages.
            for i in 0..2000u64 {
                e.push_shard(
                    Time::from_nanos(la + i % 13),
                    (i % 2) as u32,
                    ((i + 1) % 2) as u32,
                    i,
                );
            }
            let mut order = Vec::new();
            while let Some((t, v)) = e.pop() {
                order.push((t, v));
            }
            let (handoffs, hash, _) = e.shard_stats();
            assert_eq!(handoffs, 2000);
            (order, hash)
        };
        let (serial_order, serial_hash) = run(1);
        let (par_order, par_hash) = run(8);
        assert_eq!(serial_order, par_order);
        assert_eq!(serial_hash, par_hash);
    }

    #[test]
    fn fault_attribution_counts_per_shard() {
        let p = plan(3);
        let mut e: EngineQueue<u64> = EngineQueue::sharded(&p);
        e.note_fault(0);
        e.note_fault(2);
        e.note_fault(2);
        match &e {
            EngineQueue::Sharded(s) => assert_eq!(s.fault_strikes, vec![1, 0, 2]),
            EngineQueue::Serial(_) => unreachable!(),
        }
        let mut s: EngineQueue<u64> = EngineQueue::serial();
        s.note_fault(7); // no-op, must not panic
    }
}
