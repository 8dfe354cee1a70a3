//! Differential test: the timing wheel must replay the legacy binary-heap
//! queue's delivery order bit-for-bit.
//!
//! This is the determinism bar for the queue swap: same operation
//! sequence ⇒ identical `(time, payload)` pop streams, including FIFO
//! tie-breaks at equal timestamps, cancellations in every region of the
//! wheel (level 0, upper levels, the far-future overflow, and the staged
//! ready batch), and cancel-after-fire no-ops.

use drill_sim::{EventQueue, EventToken, HeapQueue, SimRng, Time};

/// One randomized scenario: interleaved pushes (with a heavy-tailed time
/// spread so every wheel level and the overflow heap get traffic),
/// cancellations of a random subset, and batched pops.
fn churn_scenario(seed: u64, ops: usize, peek: bool) {
    let mut rng = SimRng::seed_from(seed);
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapQueue<u64> = HeapQueue::new();
    let mut tokens: Vec<(EventToken, EventToken)> = Vec::new();
    let mut payload = 0u64;

    for _ in 0..ops {
        match rng.below(10) {
            // 0-5: push (sometimes cancellable) at a spread-out future time.
            0..=5 => {
                let base = wheel.now();
                // Heavy tail: mostly near, occasionally deep into upper
                // levels or past the 2^36 ns wheel horizon.
                let gap = match rng.below(12) {
                    0..=5 => rng.below(512) as u64,                // level 0/1
                    6..=8 => rng.below(1 << 18) as u64,            // mid levels
                    9..=10 => rng.below(1 << 30) as u64,           // high levels
                    _ => (1u64 << 36) + rng.below(1 << 30) as u64, // overflow
                };
                let at = base + Time::from_nanos(gap);
                payload += 1;
                if rng.below(3) == 0 {
                    let tw = wheel.push_cancellable(at, payload);
                    let th = heap.push_cancellable(at, payload);
                    tokens.push((tw, th));
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
            // 6: cancel a random outstanding token (possibly already
            // fired — both sides must treat that as a no-op).
            6 => {
                if !tokens.is_empty() {
                    let i = rng.below(tokens.len());
                    let (tw, th) = tokens.swap_remove(i);
                    wheel.cancel(tw);
                    heap.cancel(th);
                }
            }
            // 7-9: pop a small batch and compare the streams.
            _ => {
                for _ in 0..=rng.below(4) {
                    if peek {
                        assert_eq!(wheel.peek_time(), heap.peek_time(), "peek diverged");
                    }
                    let w = wheel.pop();
                    let h = heap.pop();
                    assert_eq!(w, h, "pop stream diverged (seed {seed})");
                    assert_eq!(wheel.now(), heap.now());
                    if w.is_none() {
                        break;
                    }
                }
            }
        }
    }
    // Drain both to the end.
    loop {
        let w = wheel.pop();
        let h = heap.pop();
        assert_eq!(w, h, "drain diverged (seed {seed})");
        if w.is_none() {
            break;
        }
    }
    assert_eq!(wheel.events_processed(), heap.events_processed());
    assert!(wheel.is_empty());
}

#[test]
fn replays_heap_order_across_seeds() {
    for seed in 0..20 {
        churn_scenario(seed, 4_000, false);
    }
}

#[test]
fn replays_heap_order_with_interleaved_peeks() {
    for seed in 100..110 {
        churn_scenario(seed, 2_000, true);
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
