//! The paper's contribution: **DRILL** (Distributed Randomized In-network
//! Localized Load-balancing).
//!
//! * [`DrillPolicy`] — the DRILL(d, m) per-packet scheduling algorithm
//!   (§3.2.2): every forwarding engine samples `d` random candidate output
//!   ports, compares them with its `m` remembered least-loaded ports, and
//!   enqueues the packet at the shortest of those queues.
//! * [`SymmetryEngine`] — the §3.4 control plane: the symmetric path
//!   decomposition that lets DRILL degrade gracefully to weighted
//!   ECMP-of-DRILL under asymmetry. It installs the group tables the
//!   paper's Quiver (§3.4.1, with the §3.4.3 capacity factors) defines,
//!   from symmetry classes of links and lazy per-entry quivers instead of
//!   the fabric's path population, and reconverges incrementally; each
//!   install returns a [`GroupingReport`].
//! * [`enumerate_shortest_paths`] — path enumeration over a route table's
//!   candidate sets, shared with the `drill-lb` baselines.
//! * [`stability`] — a discrete-time M×N queueing model, scheduled by
//!   [`DrillPolicy`] itself, reproducing the §3.2.4 stability results
//!   (DRILL(d,0) is unstable for admissible heterogeneous service rates;
//!   DRILL(d,m≥1) is stable).

#![warn(missing_docs)]

mod decompose;
mod drill;
mod quiver;
pub mod stability;
mod symmetry;

pub use decompose::GroupingReport;
pub use drill::DrillPolicy;
pub use quiver::enumerate_shortest_paths;
pub use symmetry::SymmetryEngine;
