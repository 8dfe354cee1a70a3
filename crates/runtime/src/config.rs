//! Experiment configuration.

use drill_faults::FaultSchedule;
use drill_net::{
    clos, fat_tree, fat_tree_custom, leaf_spine, leaf_spine_custom, vl2, ClosSpec, LeafSpineSpec,
    Topology, Vl2Spec, DEFAULT_PROP,
};
use drill_sim::Time;
use drill_transport::TcpConfig;
use drill_workload::{FlowSizeDist, IncastSpec, TrafficPattern};

use crate::Scheme;

/// Every topology the paper evaluates, by name.
#[derive(Clone, Debug)]
pub enum TopoSpec {
    /// A plain two-stage leaf-spine Clos.
    LeafSpine(LeafSpineSpec),
    /// Figure 13's heterogeneous striping: leaf `i` gets `extra_links`
    /// links to spines `i mod S` and `(i+1) mod S`, one link otherwise.
    HeteroStriped {
        /// The base leaf-spine shape.
        base: LeafSpineSpec,
        /// Parallel links to the two "neighbour" spines.
        extra_links: usize,
    },
    /// A VL2 three-stage Clos.
    Vl2(Vl2Spec),
    /// A k-ary fat-tree with uniform link rate.
    FatTree {
        /// Arity (even).
        k: usize,
        /// Link rate in bps.
        rate: u64,
    },
    /// A k-ary fat-tree with a custom (possibly oversubscribed) edge:
    /// `hosts_per_edge` hosts per edge switch instead of `k/2`. The
    /// `scalebench` 16k-host point is `k: 32, hosts_per_edge: 32` (2:1).
    FatTreeCustom {
        /// Arity (even).
        k: usize,
        /// Hosts attached to each edge switch.
        hosts_per_edge: usize,
        /// Fabric link rate in bps (hosts attach at the same rate).
        rate: u64,
    },
    /// A general three-tier folded Clos (independent tier widths).
    Clos(ClosSpec),
}

impl TopoSpec {
    /// Materialize the topology.
    pub fn build(&self) -> Topology {
        match self {
            TopoSpec::LeafSpine(spec) => leaf_spine(spec),
            TopoSpec::HeteroStriped { base, extra_links } => {
                let s = base.spines;
                leaf_spine_custom(base, |leaf, spine| {
                    let n = if spine == leaf % s || spine == (leaf + 1) % s {
                        *extra_links
                    } else {
                        1
                    };
                    vec![base.core_rate; n]
                })
            }
            TopoSpec::Vl2(spec) => vl2(spec),
            TopoSpec::FatTree { k, rate } => fat_tree(*k, *rate, DEFAULT_PROP),
            TopoSpec::FatTreeCustom {
                k,
                hosts_per_edge,
                rate,
            } => fat_tree_custom(*k, *hosts_per_edge, *rate, *rate, DEFAULT_PROP),
            TopoSpec::Clos(spec) => clos(spec),
        }
    }
}

/// What traffic to offer.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Offered core load in `[0, 1)`.
    pub load: f64,
    /// Flow-size distribution.
    pub sizes: FlowSizeDist,
    /// Destination pattern.
    pub pattern: TrafficPattern,
    /// Lognormal burstiness sigma; 0 = Poisson arrivals.
    pub burst_sigma: f64,
    /// Optional incast application layered on the background load.
    pub incast: Option<IncastSpec>,
}

impl WorkloadSpec {
    /// The paper's default: trace-driven sizes, Poisson arrivals, uniform
    /// inter-leaf destinations at the given load.
    pub fn trace_driven(load: f64) -> WorkloadSpec {
        WorkloadSpec {
            load,
            sizes: FlowSizeDist::fb_web(),
            pattern: TrafficPattern::Uniform,
            burst_sigma: 0.0,
            incast: None,
        }
    }
}

/// Table 1's synthetic elephant/mice mode.
#[derive(Clone, Debug)]
pub struct SyntheticMode {
    /// Elephant transfer size in bytes; each host keeps one elephant
    /// running to its pattern destination, starting the next transfer on
    /// completion (Shuffle advances to the next destination).
    pub elephant_bytes: u64,
    /// Mice flow size.
    pub mice_bytes: u64,
    /// Gap between mice flows per host.
    pub mice_period: Time,
}

impl Default for SyntheticMode {
    fn default() -> Self {
        SyntheticMode {
            elephant_bytes: 20_000_000,
            mice_bytes: 50_000,
            mice_period: Time::from_millis(100),
        }
    }
}

/// Inert, holds nothing: only the frozen `benchmark/` names it (gone at
/// its next re-base).
#[derive(Clone, Debug)]
pub struct ShardSpec;
impl ShardSpec {
    /// Inert: the count is ignored.
    pub fn count(_: usize) -> ShardSpec {
        ShardSpec
    }
}

/// One simulation run.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Topology.
    pub topo: TopoSpec,
    /// Load balancer under test.
    pub scheme: Scheme,
    /// Root RNG seed (same seed + same config = identical run).
    pub seed: u64,
    /// Background workload (ignored when `synthetic` is set).
    pub workload: WorkloadSpec,
    /// Table-1 style synthetic elephants+mice instead of background flows.
    pub synthetic: Option<SyntheticMode>,
    /// Explicit flows started at t=0 (src host, dst host, bytes;
    /// `u64::MAX` = persistent). Measured as elephants. Composable with
    /// the background workload.
    pub static_flows: Vec<(u32, u32, u64)>,
    /// Flow-arrival window; arrivals stop afterwards.
    pub duration: Time,
    /// Extra time to let in-flight flows finish after arrivals stop.
    pub drain: Time,
    /// Flows starting earlier than this are excluded from the statistics.
    pub warmup: Time,
    /// Forwarding engines per switch.
    pub engines: usize,
    /// Per-port buffer limit in bytes.
    pub queue_limit_bytes: u64,
    /// Model the §3.2.1 enqueue-commit visibility lag.
    pub model_commit: bool,
    /// TCP knobs.
    pub tcp: TcpConfig,
    /// Switch-to-switch link pairs (by switch id) failed before the run
    /// starts, with routing already reconverged (the "ideal DRILL" of
    /// §4). Links that die mid-run belong in `faults`.
    pub failed_links: Vec<(u32, u32)>,
    /// Chaos-engine fault schedule (link flaps, switch outages, capacity
    /// degradation, lossy links) driven through the run with staged
    /// detection and coalesced reconvergence after the schedule's
    /// `detection_delay` (see `drill-faults`).
    pub faults: Option<FaultSchedule>,
    /// Install DRILL's symmetric-component decomposition (§3.4) for
    /// schemes that micro load balance. Disable to ablate asymmetry
    /// handling (DRILL then treats all candidates as one group).
    pub asymmetry_handling: bool,
    /// Sample the Figure-2 queue-length STDV metric every 10 µs.
    pub sample_queues: bool,
    /// Open-loop packet-train mode (no TCP): used for the §3.2.3 queue
    /// studies, Figures 2 and 3.
    pub raw_packet_mode: bool,
    /// Hard cap on processed events (safety valve; 0 = unlimited).
    pub max_events: u64,
    /// Inert: `World` reads nothing from it (see [`ShardSpec`]).
    pub shards: Option<ShardSpec>,
    /// Write `DRILLSNAP` state snapshots while the run executes (off by
    /// default). Crash recovery resumes from the latest file via
    /// [`World::restore`](crate::World::restore).
    pub checkpoint: Option<CheckpointSpec>,
    /// Run the invariant auditor alongside the simulation (off by
    /// default), whichever entry point starts the run. Watchdogs fire at
    /// boundaries counted in events and in simulated time; results stay
    /// bit-identical either way (audits observe, never steer).
    pub audit: Option<AuditSpec>,
    /// Deliberately break an invariant mid-run (the auditor's negative
    /// tests; off by default). Only honored when `audit` is set;
    /// [`rewind_replay`](crate::rewind_replay) clears it.
    pub sabotage: Option<drill_faults::SabotageSpec>,
}

/// Invariant-auditor knobs (see `drill-audit` and DESIGN.md §14).
/// Attaching a spec to [`ExperimentConfig::audit`] makes the run evaluate
/// the watchdog suite at every boundary, retain the
/// [`SnapshotRing`](drill_audit::SnapshotRing), and on a trip dump ring +
/// faulted snapshot + `anomaly.meta` into `dump_dir`. The ring's bounds
/// (4 snapshots, 64 MiB) and the report cap (8) are constants.
#[derive(Clone, Debug)]
pub struct AuditSpec {
    /// Evaluate watchdogs (and ring a checkpoint) every this many
    /// processed events. 0 counts no boundary in events.
    pub every_events: u64,
    /// A started, uncompleted flow with no newly acknowledged byte for
    /// this long is reported stuck. It also sets the boundaries counted
    /// in simulated time: one falls `stuck_after / 4` after the last
    /// boundary if `every_events` has not brought one sooner, so any
    /// stall of 1.5 × `stuck_after` is reported however few events it
    /// spans (zero counts no boundary in time).
    pub stuck_after: Time,
    /// Where a trip dumps `ring-*.drillsnap`, `faulted.drillsnap`, and
    /// `anomaly.meta`. `None` records reports only.
    pub dump_dir: Option<std::path::PathBuf>,
}

impl Default for AuditSpec {
    fn default() -> AuditSpec {
        AuditSpec {
            every_events: 50_000,
            stuck_after: Time::from_millis(500),
            dump_dir: None,
        }
    }
}

/// Mid-run checkpoints: the crash-recovery cadence
/// (`scalebench --checkpoint-every`).
#[derive(Clone, Debug)]
pub struct CheckpointSpec {
    /// Snapshot every this many processed events, overwriting `path`.
    pub every_events: u64,
    /// Destination file, overwritten on each capture.
    pub path: std::path::PathBuf,
}

impl ExperimentConfig {
    /// A baseline config on the given topology and scheme: paper-default
    /// knobs, trace-driven workload at `load`.
    pub fn new(topo: TopoSpec, scheme: Scheme, load: f64) -> ExperimentConfig {
        ExperimentConfig {
            topo,
            scheme,
            seed: 1,
            workload: WorkloadSpec::trace_driven(load),
            synthetic: None,
            static_flows: Vec::new(),
            duration: Time::from_millis(30),
            drain: Time::from_millis(3000),
            warmup: Time::from_millis(2),
            engines: 1,
            queue_limit_bytes: 1_000_000,
            model_commit: true,
            tcp: TcpConfig::default(),
            failed_links: Vec::new(),
            faults: None,
            asymmetry_handling: true,
            sample_queues: false,
            raw_packet_mode: false,
            max_events: 0,
            shards: None,
            checkpoint: None,
            audit: None,
            sabotage: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topo_specs_build() {
        let ls = TopoSpec::LeafSpine(LeafSpineSpec::paper_baseline());
        assert_eq!(ls.build().num_hosts(), 320);
        let v = TopoSpec::Vl2(Vl2Spec::paper());
        assert_eq!(v.build().num_hosts(), 320);
        let f = TopoSpec::FatTree {
            k: 4,
            rate: 1_000_000_000,
        };
        assert_eq!(f.build().num_hosts(), 16);
        let fo = TopoSpec::FatTreeCustom {
            k: 4,
            hosts_per_edge: 4,
            rate: 1_000_000_000,
        };
        assert_eq!(fo.build().num_hosts(), 32);
        let c = TopoSpec::Clos(ClosSpec::smoke());
        assert_eq!(c.build().num_hosts(), 32);
    }

    #[test]
    fn hetero_striping_links() {
        let base = LeafSpineSpec {
            spines: 4,
            leaves: 4,
            hosts_per_leaf: 2,
            host_rate: 10_000_000_000,
            core_rate: 10_000_000_000,
            prop: DEFAULT_PROP,
        };
        let t = TopoSpec::HeteroStriped {
            base,
            extra_links: 2,
        }
        .build();
        let l0 = t.leaves()[0];
        // Leaf 0: 2 links each to spines 0 and 1, 1 link to spines 2, 3.
        assert_eq!(t.ports_to_switch(l0, drill_net::SwitchId(4)).len(), 2);
        assert_eq!(t.ports_to_switch(l0, drill_net::SwitchId(6)).len(), 1);
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = ExperimentConfig::new(
            TopoSpec::LeafSpine(LeafSpineSpec::paper_baseline()),
            Scheme::Ecmp,
            0.5,
        );
        assert_eq!(cfg.workload.load, 0.5);
        assert!(cfg.model_commit);
        assert!(cfg.warmup < cfg.duration);
    }
}
