//! Deterministic discrete-event simulation (DES) kernel.
//!
//! This crate is the substrate every other `drill-*` crate runs on. It is
//! deliberately tiny and dependency-free (std only, so the workspace
//! builds with zero network access):
//!
//! * [`Time`] — a nanosecond-resolution simulated clock value.
//! * [`EventQueue`] — a hierarchical timing wheel of `(Time, payload)`
//!   entries with FIFO ordering for simultaneous events, which makes
//!   whole simulations reproducible bit-for-bit given a seed. The legacy
//!   binary-heap implementation survives only under `cfg(test)`
//!   (`heap.rs`), as the reference its differential tests compare the
//!   wheel's pop order against.
//! * [`SimRng`] — a seedable, splittable random number generator so that
//!   independent components (switches, hosts, workload generators) each get
//!   their own deterministic stream.
//!
//! The kernel is synchronous and single-threaded by design: a datacenter
//! fabric simulation is CPU-bound, and determinism matters more than
//! intra-run parallelism (experiment *sweeps* are parallelized one run per
//! thread by `drill-runtime`).
//!
//! # Example
//!
//! ```
//! use drill_sim::{EventQueue, Time};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(Time::from_micros(2), "second");
//! q.push(Time::from_micros(1), "first");
//! q.push(Time::from_micros(2), "third"); // same timestamp: FIFO order
//!
//! let mut order = Vec::new();
//! while let Some((t, what)) = q.pop() {
//!     order.push((t.as_micros(), what));
//! }
//! assert_eq!(order, vec![(1, "first"), (2, "second"), (2, "third")]);
//! ```

#![warn(missing_docs)]

pub mod codec;
mod event;
mod fx;
#[cfg(test)]
mod heap;
mod rng;
mod time;

pub use event::{entry_size, EventQueue, EventToken};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use rng::SimRng;
pub use time::Time;
