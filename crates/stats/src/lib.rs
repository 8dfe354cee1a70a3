//! Statistics used throughout the DRILL reproduction.
//!
//! The paper's evaluation reports means, high percentiles (up to the
//! 99.99th), CDFs, time-averaged standard deviations of queue lengths, and
//! per-category (per-hop) breakdowns. This crate provides the corresponding
//! building blocks:
//!
//! * [`Moments`] — streaming count/mean/variance/min/max (Welford).
//! * [`Distribution`] — a sample store with quantiles and CDF export. Exact
//!   unless built with [`Distribution::sketched`]: it keeps every value,
//!   so the 99.99th percentile is a true order statistic at any sample
//!   count; the sketched form trades that for a bounded-memory
//!   [`QuantileSketch`] with a stated rank error.
//! * [`QuantileSketch`] — the underlying deterministic, mergeable,
//!   KLL-style sketch (O(k log n) memory, configured rank-error bound).
//! * [`Histogram`] — fixed-bin counts (used for the dup-ACK distribution).
//! * [`Table`] — minimal aligned-text table formatting for the experiment
//!   binaries, so every figure harness prints rows the same way.

#![warn(missing_docs)]

mod histogram;
mod moments;
mod percentile;
mod sketch;
mod table;

pub use histogram::Histogram;
pub use moments::{stdev_of, Moments};
pub use percentile::Distribution;
pub use sketch::{QuantileSketch, DEFAULT_SKETCH_K, MIN_LEVEL_CAP};
pub use table::{f3, Table};
