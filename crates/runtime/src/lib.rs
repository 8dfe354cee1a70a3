//! Experiment runtime: glues the substrate crates into runnable
//! simulations.
//!
//! * [`Scheme`] — every load balancer evaluated in the paper, by name.
//! * [`TopoSpec`] — every topology evaluated in the paper, by name.
//! * [`ExperimentConfig`] — one simulation run: topology + scheme + load +
//!   workload + failures + switch/TCP knobs.
//! * [`run`] — execute one configuration deterministically; returns
//!   [`RunStats`] with every metric a paper figure needs (FCT
//!   distributions, queue-length STDV, per-hop queueing/loss, duplicate
//!   ACK histogram, GRO batches, elephant throughput).
//! * [`SweepSpec`] — a declarative sweep grid (scheme × load × engines ×
//!   variant × seed replication) executed in parallel on the
//!   `drill-exec` pool with results bit-identical to a serial replay;
//!   [`SweepResults`] gives ordered per-cell access and cross-seed
//!   aggregation via [`RunStats::merge`].
//! * [`run_many`] — parallel execution of a free-form config list.
//! * [`run_recorded`] / [`run_probed`] — the same run with the
//!   `drill-telemetry` flight recorder (or any custom
//!   [`Probe`](drill_telemetry::Probe)) attached; probes observe but never
//!   steer, so every metric is bit-identical with telemetry on or off.
//! * [`run_audited`] — the same run with the invariant auditor's
//!   watchdogs (packet conservation, stuck flows, queue
//!   ceilings, NIC backlog accounting, time monotonicity) evaluated at
//!   boundaries counted in events and in simulated time; audits observe
//!   but never steer, and a trip dumps the snapshot ring. Every entry
//!   point attaches the auditor when [`ExperimentConfig::audit`] is set;
//!   this one fills in a default. A trip is an [`AnomalyReport`]; an
//!   [`AuditSpec::sabotage`] breaks an invariant on purpose to prove the
//!   watchdogs catch it.
//! * [`rewind_replay`] — restore a trip's newest clean ring snapshot
//!   (named by its `anomaly.meta`, read as an [`AnomalyMeta`]) with any
//!   probe attached, to re-run the window up to the anomaly.

#![warn(missing_docs)]
// The 80-line limit (`clippy.toml`) for everything but the tests.
#![cfg_attr(not(test), warn(clippy::too_many_lines))]

mod audit;
mod config;
mod scheme;
pub mod snapshot;
mod stats;
mod sweep;
mod world;

pub use audit::{AnomalyKind, AnomalyReport, SabotageKind, SabotageSpec};
pub use config::{
    AuditSpec, CheckpointSpec, ExperimentConfig, ShardSpec, SyntheticMode, TopoSpec, WorkloadSpec,
};
pub use scheme::Scheme;
pub use snapshot::Snapshot;
pub use stats::{hop_index, HopReport, RunStats};
pub use sweep::{derive_seed, run_many, SweepPoint, SweepResults, SweepSpec};
pub use world::{
    random_leaf_spine_failures, rewind_replay, run, run_audited, run_probed, run_recorded,
    AnomalyMeta, World,
};
