//! # drill
//!
//! A from-scratch Rust reproduction of **DRILL: Micro Load Balancing for
//! Low-latency Data Center Networks** (SIGCOMM 2017): the paper's
//! per-packet, switch-local load balancing algorithm, the discrete-event
//! datacenter simulator its evaluation runs on, every baseline it is
//! compared against, and the experiment harness regenerating its tables
//! and figures.
//!
//! This crate re-exports the workspace's public API under stable module
//! names:
//!
//! * [`sim`] — deterministic discrete-event kernel (clock, event queue,
//!   splittable RNG).
//! * [`exec`] — fixed-size thread pool + chunked work queue driving
//!   deterministic parallel sweeps (`DRILL_THREADS`).
//! * [`stats`] — moments, percentiles/CDFs, histograms, text tables.
//! * [`net`] — packets, Clos topologies, switches with forwarding engines,
//!   host NICs, routing, the load-balancer plug-in API.
//! * [`core`] — DRILL(d, m), the §3.4 symmetric path decomposition
//!   (`SymmetryEngine`), the §3.2.4 stability model.
//! * [`lb`] — ECMP, per-packet Random/RR, WCMP, Presto, CONGA.
//! * [`transport`] — TCP Reno/NewReno, GRO accounting, reordering shim.
//! * [`workload`] — flow-size distributions, arrival processes, traffic
//!   patterns, incast.
//! * [`faults`] — the chaos engine: deterministic fault-injection
//!   schedules (link flaps, switch outages, degradation, lossy links).
//! * [`runtime`] — experiment configuration and execution.
//! * [`hw`] — the hardware area model.
//! * [`telemetry`] — zero-overhead probes, the flight recorder, queue
//!   time series, and the `DRILLTRC` trace format (`tracedump` reads it).
//! * [`audit`] — runtime invariant watchdogs, typed anomaly reports, and
//!   the in-memory `DRILLSNAP` ring behind rewind-replay diagnostics.
//! * [`snapshot`] — the `DRILLSNAP` checkpoint container (tagged
//!   sections, FNV-1a trailer checksum).
//!
//! # Example
//!
//! ```
//! use drill::net::{LeafSpineSpec, DEFAULT_PROP};
//! use drill::runtime::{run, ExperimentConfig, Scheme, TopoSpec};
//! use drill::sim::Time;
//!
//! let topo = TopoSpec::LeafSpine(LeafSpineSpec {
//!     spines: 2, leaves: 2, hosts_per_leaf: 2,
//!     host_rate: 10_000_000_000, core_rate: 40_000_000_000,
//!     prop: DEFAULT_PROP,
//! });
//! let mut cfg = ExperimentConfig::new(topo, Scheme::drill_default(), 0.3);
//! cfg.duration = Time::from_millis(1);
//! cfg.drain = Time::from_millis(50);
//! let stats = run(&cfg);
//! assert!(stats.completion_rate() > 0.9);
//! ```

pub use drill_audit as audit;
pub use drill_core as core;
pub use drill_exec as exec;
pub use drill_faults as faults;
pub use drill_hw as hw;
pub use drill_lb as lb;
pub use drill_net as net;
pub use drill_runtime as runtime;
pub use drill_runtime::snapshot;
pub use drill_sim as sim;
pub use drill_stats as stats;
pub use drill_telemetry as telemetry;
pub use drill_transport as transport;
pub use drill_workload as workload;
