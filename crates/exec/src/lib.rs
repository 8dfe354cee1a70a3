//! Deterministic parallel execution for sweeps.
//!
//! A sweep is a set of *independent* simulation points: each point builds
//! its own `World` from its own config and seed, so any execution order —
//! serial, interleaved, or across OS threads — produces the same per-point
//! results. This crate supplies the execution substrate that exploits that
//! independence without ever being allowed to influence it:
//!
//! * [`Executor`] — a fixed-size pool of worker threads (one scoped worker
//!   set per [`Executor::map`] call, sized once at construction).
//! * [`ChunkQueue`] — the shared work queue: workers claim contiguous index
//!   chunks with a single atomic `fetch_add`, so there is no locking on the
//!   hot path and no per-item contention.
//! * Ordered collection: every result is written to the slot of its input
//!   index, so the output `Vec` is always in input order regardless of
//!   which worker finished first.
//!
//! The determinism contract is therefore purely structural: workers share
//! *no* mutable simulation state, only the claim counter and the result
//! slots, and each slot is written exactly once. `DRILL_THREADS` picks the
//! worker count (default: available parallelism); it can change the wall
//! clock, never the results.
//!
//! Std-only by design — the workspace builds with zero external
//! dependencies (see the root `Cargo.toml`).

#![warn(missing_docs)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable selecting the worker count.
pub const THREADS_ENV: &str = "DRILL_THREADS";

/// Parse a `DRILL_THREADS`-style value. `None`, empty, unparsable, or zero
/// fall back to `default`.
pub fn parse_threads(val: Option<&str>, default: usize) -> usize {
    match val.and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => default.max(1),
    }
}

/// The worker count selected by `DRILL_THREADS`, defaulting to the
/// machine's available parallelism.
pub fn threads_from_env() -> usize {
    let default = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    parse_threads(std::env::var(THREADS_ENV).ok().as_deref(), default)
}

/// A chunked work queue over the index range `0..len`.
///
/// Workers call [`claim`](ChunkQueue::claim) in a loop; each call hands out
/// the next contiguous chunk of indices (or `None` when the range is
/// exhausted). Chunking amortizes the atomic operation over several items;
/// for heavy items a chunk size of 1 degenerates to plain work stealing,
/// which is what sweeps of multi-second simulation points want.
#[derive(Debug)]
pub struct ChunkQueue {
    next: AtomicUsize,
    len: usize,
    chunk: usize,
}

impl ChunkQueue {
    /// A queue over `0..len` handing out chunks of `chunk` indices
    /// (`chunk` is clamped to at least 1).
    pub fn new(len: usize, chunk: usize) -> ChunkQueue {
        ChunkQueue {
            next: AtomicUsize::new(0),
            len,
            chunk: chunk.max(1),
        }
    }

    /// Claim the next chunk, or `None` when the work is exhausted.
    pub fn claim(&self) -> Option<Range<usize>> {
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.len {
            return None;
        }
        Some(start..(start + self.chunk).min(self.len))
    }
}

/// A fixed-size thread pool for order-preserving parallel maps.
///
/// The pool size is fixed at construction; [`map`](Executor::map) runs the
/// closure over every item using at most that many OS threads, returning
/// results in input order. With one thread (or one item) the map runs
/// inline on the caller's thread — the serial path and the parallel path
/// execute the exact same per-item code.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// An executor with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Executor {
        Executor {
            threads: threads.max(1),
        }
    }

    /// An executor sized by `DRILL_THREADS` (default: available
    /// parallelism).
    pub fn from_env() -> Executor {
        Executor::new(threads_from_env())
    }

    /// A serial executor (one worker, runs inline).
    pub fn serial() -> Executor {
        Executor::new(1)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `f` to every item, in parallel, returning results in input
    /// order. `f` receives `(index, &item)`.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        // Simulation points are heavy (milliseconds to minutes each), so
        // bias toward fine-grained claims: chunks larger than 1 only when
        // there are many more items than claim slots.
        let chunk = (items.len() / (workers * 8)).max(1);
        let queue = ChunkQueue::new(items.len(), chunk);
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    while let Some(range) = queue.claim() {
                        for i in range {
                            let r = f(i, &items[i]);
                            *slots[i].lock().expect("result slot poisoned") = Some(r);
                        }
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("result slot poisoned")
                    .expect("every slot filled exactly once")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn parse_threads_fallbacks() {
        assert_eq!(parse_threads(None, 4), 4);
        assert_eq!(parse_threads(Some(""), 4), 4);
        assert_eq!(parse_threads(Some("abc"), 4), 4);
        assert_eq!(parse_threads(Some("0"), 4), 4);
        assert_eq!(parse_threads(Some("3"), 4), 3);
        assert_eq!(parse_threads(Some(" 12 "), 4), 12);
        assert_eq!(parse_threads(None, 0), 1, "default itself is clamped");
    }

    #[test]
    fn chunk_queue_covers_every_index_once() {
        for (len, chunk) in [(0, 1), (1, 1), (10, 3), (10, 1), (7, 7), (5, 100)] {
            let q = ChunkQueue::new(len, chunk);
            let mut seen = Vec::new();
            while let Some(r) = q.claim() {
                assert!(r.len() <= chunk.max(1));
                seen.extend(r);
            }
            assert_eq!(
                seen,
                (0..len).collect::<Vec<_>>(),
                "len={len} chunk={chunk}"
            );
            assert!(q.claim().is_none(), "stays exhausted");
        }
    }

    #[test]
    fn chunk_queue_is_shared_safely() {
        let q = ChunkQueue::new(1000, 7);
        let seen = Mutex::new(HashSet::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while let Some(r) = q.claim() {
                        let mut s = seen.lock().unwrap();
                        for i in r {
                            assert!(s.insert(i), "index {i} claimed twice");
                        }
                    }
                });
            }
        });
        assert_eq!(seen.into_inner().unwrap().len(), 1000);
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 3, 8, 64] {
            let ex = Executor::new(threads);
            let out = ex.map(&items, |i, &x| {
                assert_eq!(i as u64, x);
                x * x
            });
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_matches_serial_for_any_thread_count() {
        let items: Vec<u64> = (0..100).collect();
        let serial = Executor::serial().map(&items, |_, &x| x.wrapping_mul(0x9e3779b9));
        for threads in [2, 5, 16] {
            let par = Executor::new(threads).map(&items, |_, &x| x.wrapping_mul(0x9e3779b9));
            assert_eq!(par, serial);
        }
    }

    #[test]
    fn map_empty_and_single() {
        let ex = Executor::new(8);
        let empty: Vec<u32> = Vec::new();
        assert!(ex.map(&empty, |_, &x| x).is_empty());
        assert_eq!(ex.map(&[41u32], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn executor_clamps_to_one_thread() {
        assert_eq!(Executor::new(0).threads(), 1);
        assert_eq!(Executor::serial().threads(), 1);
    }
}
