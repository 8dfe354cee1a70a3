//! Transport layer for the DRILL reproduction.
//!
//! The paper runs real Linux 2.6 TCP via the Network Simulation Cradle; we
//! model the behaviours its results depend on with a compact Reno/NewReno
//! implementation:
//!
//! * slow start / congestion avoidance / fast retransmit on 3 duplicate
//!   ACKs / fast recovery with NewReno partial ACKs;
//! * RTO per RFC 6298 (SRTT/RTTVAR estimators, exponential backoff,
//!   configurable RTOmin) with Karn's rule via receiver echo suppression
//!   on retransmitted segments;
//! * receiver-side cumulative ACKs, out-of-order segment tracking, and
//!   **duplicate-ACK accounting** (Figure 11a's metric);
//! * **GRO batch accounting** (§4 "Reordering can also increase receiver
//!   host CPU overhead"): per-flow batches formed by in-order arrivals up
//!   to 64 KB;
//! * the optional **reordering shim** ([`ShimBuffer`]) that Presto and
//!   "DRILL (with shim)" deploy below TCP to restore in-sequence delivery.

#![warn(missing_docs)]

mod shim;
mod tcp;

pub use shim::{ShimBuffer, SHIM_DEFAULT_TIMEOUT, SHIM_FLUSH_THRESHOLD};
pub use tcp::{TcpConfig, TcpFlow, DUPACK_THRESH, GRO_BATCH_LIMIT};
