//! The four workloads: what each one builds, from `(seed, scale)` alone.
//!
//! The program under test receives only the generated
//! [`ExperimentConfig`]; the seed never reaches it any other way. Sizes
//! are chosen so one repetition takes a few seconds on a 2-core host (see
//! README.md for why each workload exists and which layers it bypasses).

use drill_faults::FaultSchedule;
use drill_net::{ClosSpec, LeafSpineSpec, DEFAULT_PROP};
use drill_runtime::{
    random_leaf_spine_failures, ExperimentConfig, Scheme, ShardSpec, SweepSpec, TopoSpec,
};
use drill_sim::Time;

/// Every workload name, in report order.
pub const WORKLOADS: [&str; 4] = ["fabric_raw", "tcp_fct", "asym_scale", "fig_sweep"];

/// Worker threads `fig_sweep` runs on (fixed, so results from hosts with
/// more cores stay comparable).
pub const SWEEP_THREADS: usize = 2;

/// Detection delay of `asym_scale`'s fault schedule.
const ASYM_DETECT: Time = Time::from_micros(20);
/// `asym_scale`'s flap: the fifth picked uplink goes down, then up.
const ASYM_DOWN_AT: Time = Time::from_micros(100);
const ASYM_UP_AT: Time = Time::from_micros(200);
/// Seed of `asym_scale`'s failure set (scalebench's `clos16k_asym4f`
/// picks). The degraded fabric is part of the workload's *shape*, so it
/// does not vary with `--seed`; only the traffic does.
const ASYM_FAILURE_SEED: u64 = 0xA5F;

/// Benchmark scale: `Full` is what `BENCHMARK.json` measures, `Smoke` is
/// the seconds-scale variant `cargo test` drives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }
}

/// What one workload runs.
pub enum Plan {
    /// One `World`, stepped through `run_to`.
    Single {
        cfg: Box<ExperimentConfig>,
        /// Simulated instants at which a `Reconverge` event is due.
        reconverge_at: Vec<Time>,
    },
    /// A `SweepSpec` grid on the executor pool.
    Sweep(Box<SweepSpec>),
}

const DRILL_RAW: Scheme = Scheme::Drill {
    d: 2,
    m: 1,
    shim: false,
};

/// Pin everything `World` would otherwise resolve from the environment.
fn pinned(mut cfg: ExperimentConfig, seed: u64) -> ExperimentConfig {
    cfg.seed = seed;
    cfg.shards = Some(ShardSpec::count(1));
    cfg
}

fn fabric_raw(seed: u64, scale: Scale) -> ExperimentConfig {
    let n = if scale == Scale::Full { 20 } else { 6 };
    let topo = TopoSpec::LeafSpine(LeafSpineSpec {
        spines: n,
        leaves: n,
        hosts_per_leaf: n,
        host_rate: 10_000_000_000,
        core_rate: 10_000_000_000,
        prop: DEFAULT_PROP,
    });
    let mut cfg = ExperimentConfig::new(topo, DRILL_RAW, 0.8);
    cfg.engines = 4;
    cfg.raw_packet_mode = true;
    cfg.workload.burst_sigma = 2.0;
    cfg.queue_limit_bytes = 20_000_000;
    cfg.sample_queues = true;
    cfg.duration = if scale == Scale::Full {
        Time::from_millis(12)
    } else {
        Time::from_millis(3)
    };
    cfg.drain = Time::from_millis(5);
    pinned(cfg, seed)
}

fn tcp_fct(seed: u64, scale: Scale) -> ExperimentConfig {
    let spec = if scale == Scale::Full {
        LeafSpineSpec::paper_baseline()
    } else {
        LeafSpineSpec {
            leaves: 4,
            hosts_per_leaf: 8,
            ..LeafSpineSpec::paper_baseline()
        }
    };
    let mut cfg = ExperimentConfig::new(TopoSpec::LeafSpine(spec), Scheme::drill_default(), 0.8);
    if scale == Scale::Full {
        cfg.duration = Time::from_millis(8);
    } else {
        // The default 2 ms warm-up would swallow a smoke-sized window.
        cfg.duration = Time::from_micros(1500);
        cfg.warmup = Time::from_micros(300);
    }
    pinned(cfg, seed)
}

fn asym_scale(seed: u64, scale: Scale) -> (ExperimentConfig, Vec<Time>) {
    let spec = if scale == Scale::Full {
        ClosSpec {
            pods: 16,
            leaves_per_pod: 16,
            aggs_per_pod: 8,
            cores: 64,
            hosts_per_leaf: 64,
            host_rate: 10_000_000_000,
            leaf_agg_rate: 40_000_000_000,
            agg_core_rate: 40_000_000_000,
            prop: DEFAULT_PROP,
        }
    } else {
        ClosSpec {
            pods: 4,
            leaves_per_pod: 4,
            aggs_per_pod: 2,
            cores: 4,
            hosts_per_leaf: 8,
            ..ClosSpec::smoke()
        }
    };
    let topo = TopoSpec::Clos(spec);
    let picked = random_leaf_spine_failures(&topo.build(), 5, ASYM_FAILURE_SEED);
    assert_eq!(picked.len(), 5, "fabric has too few leaf uplinks to fail");
    let mut cfg = ExperimentConfig::new(topo, DRILL_RAW, 0.25);
    cfg.raw_packet_mode = true;
    cfg.failed_links = picked[..4].to_vec();
    cfg.duration = Time::from_micros(300);
    cfg.drain = Time::from_millis(5);
    cfg.warmup = Time::ZERO;
    let mut faults = FaultSchedule::new(ASYM_DETECT);
    let (a, b) = picked[4];
    faults.link_flap(a, b, ASYM_DOWN_AT, ASYM_UP_AT);
    cfg.faults = Some(faults);
    let due = vec![ASYM_DOWN_AT + ASYM_DETECT, ASYM_UP_AT + ASYM_DETECT];
    (pinned(cfg, seed), due)
}

/// The five schemes of the paper's FCT figures.
pub fn fct_schemes() -> Vec<Scheme> {
    vec![
        Scheme::Ecmp,
        Scheme::Conga,
        Scheme::presto(),
        Scheme::drill_no_shim(),
        Scheme::drill_default(),
    ]
}

pub const SWEEP_LOADS: [f64; 3] = [0.3, 0.5, 0.8];

fn fig_sweep(seed: u64, scale: Scale, threads: usize) -> SweepSpec {
    let topo = TopoSpec::LeafSpine(LeafSpineSpec {
        spines: 4,
        leaves: 4,
        hosts_per_leaf: 8,
        host_rate: 10_000_000_000,
        core_rate: 40_000_000_000,
        prop: DEFAULT_PROP,
    });
    let mut base = ExperimentConfig::new(topo, Scheme::Ecmp, SWEEP_LOADS[0]);
    if scale == Scale::Full {
        base.duration = Time::from_millis(3);
    } else {
        base.duration = Time::from_micros(400);
        base.warmup = Time::from_micros(100);
    }
    let reps = if scale == Scale::Full { 2 } else { 1 };
    SweepSpec::new(pinned(base, seed))
        .schemes(fct_schemes())
        .loads(SWEEP_LOADS.to_vec())
        .reps(reps)
        .threads(threads)
}

/// Build the plan for `name`, or `None` for an unknown workload.
/// `threads` only matters to `fig_sweep`.
pub fn plan(name: &str, seed: u64, scale: Scale, threads: usize) -> Option<Plan> {
    let single = |cfg| Plan::Single {
        cfg: Box::new(cfg),
        reconverge_at: Vec::new(),
    };
    Some(match name {
        "fabric_raw" => single(fabric_raw(seed, scale)),
        "tcp_fct" => single(tcp_fct(seed, scale)),
        "asym_scale" => {
            let (cfg, reconverge_at) = asym_scale(seed, scale);
            Plan::Single {
                cfg: Box::new(cfg),
                reconverge_at,
            }
        }
        "fig_sweep" => Plan::Sweep(Box::new(fig_sweep(seed, scale, threads))),
        _ => return None,
    })
}
