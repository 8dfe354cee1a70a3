//! The paper's evaluation (§4) as one table: every figure, Table 1, the
//! design ablations and the hardware-area note is a [`FigureSpec`] row of
//! [`FIGURES`], and [`run`] turns a row into its text rendering and its
//! manifest-stamped JSON, both from one in-memory result.
//!
//! A row names the sweeps its panels read (topology per [`Scale`],
//! base-config knobs, axes) and what each panel tabulates. Every sweep runs
//! once through [`SweepSpec`] at the harness seed, so a figure is a pure
//! function of its row, the scale and the seed. Every printed tail carries
//! its sample count and a distribution-free 95 % interval
//! ([`Distribution::quantile_interval`]; `inf` = unbounded). With few
//! samples the interpolated point estimate can sit below the interval's
//! lower order statistic: the interval is the statement to trust.

use drill_faults::{FaultKind, FaultSchedule};
use drill_hw::{estimate, HwSpec, TechNode};
use drill_net::HopClass::{AggDown, AggUp, HostUp, LeafUp, SpineDown, ToHost};
use drill_net::{HopClass, LeafSpineSpec, Vl2Spec, DEFAULT_PROP};
use drill_runtime::Scheme::{self, Conga, Ecmp, Presto, Random, RoundRobin};
use drill_runtime::{
    random_leaf_spine_failures, ExperimentConfig, RunStats, SweepPoint, SweepSpec, SyntheticMode,
    TopoSpec,
};
use drill_sim::Time;
use drill_stats::{f3, Distribution, Table};
use drill_transport::DUPACK_THRESH;
use drill_workload::{IncastSpec, TrafficPattern};

use crate::json::Json;
use crate::{banner_text, manifest, Scale};

/// One figure, table or note of the paper's evaluation.
pub struct FigureSpec {
    /// The name `figures` takes (`fig6`, `table1`, ...).
    pub name: &'static str,
    title: &'static str,
    /// The runs the panels read; each runs once.
    sweeps: &'static [Sweep],
    panels: &'static [Panel],
    /// The paper's expected shape, printed last.
    shape: &'static str,
}

/// One sweep: a topology and base-config knobs per scale, and the axes.
#[derive(Clone, Copy)]
struct Sweep {
    topo: fn(Scale) -> TopoSpec,
    /// The paper's fabric, printed beside ours.
    paper_topo: &'static str,
    schemes: fn(Scale) -> Vec<Scheme>,
    loads: fn(Scale) -> Vec<f64>,
    engines: fn(Scale) -> Vec<usize>,
    /// Variant labels (empty: no variant axis) and the knob they set.
    variants: &'static [&'static str],
    configure: fn(&mut ExperimentConfig, &SweepPoint),
    /// §3.2.3's queue-STDV setup: open-loop packet trains, sampled queues.
    raw: bool,
    /// Figure 14's incast application on top of the background load.
    incast: bool,
    /// Table 1's elephants and mice instead of the trace-driven workload.
    synthetic: bool,
    /// Leaf-spine links failed before the run, drawn at the harness seed
    /// plus `failure_seed`.
    failures: fn(Scale) -> usize,
    failure_seed: u64,
}

/// One printed table: its caption, the sweep it reads and what it shows.
struct Panel {
    caption: &'static str,
    sweep: usize,
    metric: Metric,
}

const fn panel(caption: &'static str, sweep: usize, metric: Metric) -> Panel {
    Panel {
        caption,
        sweep,
        metric,
    }
}

/// What a panel tabulates. Columns are sweep points (scheme, or variant
/// and scheme) unless noted.
#[derive(Clone, Copy)]
enum Metric {
    /// `stat` per load (rows).
    VsLoad(Stat),
    /// Queue STDV per engine count (rows) at `load`.
    StdvVsEngines { load: f64 },
    /// Queue STDV with the scheme axis folded into rows of
    /// `header.len() - 1`, each labelled by `axis` of its first scheme.
    StdvFolded {
        header: &'static [&'static str],
        axis: fn(Scheme) -> usize,
    },
    /// FCT at `points` evenly spaced CDF fractions (rows) at `load`.
    Cdf { load: f64, points: usize },
    /// Each of `stats` (rows) at each of `loads` on the sweep's axis.
    ByStat {
        loads: &'static [f64],
        stats: &'static [Stat],
    },
    /// `stat`, plus the last point's change over the first in percent.
    Change(Stat),
    /// Per variant, each stat of every scheme over the first scheme's.
    OverFirst(&'static [Stat]),
    /// The `drill-hw` gate inventory of the reference switch.
    AreaInventory,
    /// `drill-hw` area over engines, (d, m) and ports.
    AreaSensitivity,
}

/// A per-run quantity.
#[derive(Clone, Copy)]
enum Stat {
    MeanFct,
    /// A percentile of FCT; of incast-flow FCT; of Table 1's mice FCT.
    Fct(f64),
    IncastFct(f64),
    MiceFct(f64),
    MiceMean,
    /// Table 1's mean elephant throughput.
    Elephant,
    /// An FCT quantile (a CDF point), without an interval.
    Quantile(f64),
    QueueStdv,
    /// Shares of flows with at least this many dupACKs / reordered packets.
    DupAcksAtLeast(u32),
    ReorderedAtLeast(usize),
    GroPerPkt,
    Retx,
    /// Mean queueing time, and loss rate, at a hop.
    HopWait(HopClass),
    HopLoss(HopClass),
}

use Metric::*;
use Stat::*;

/// The FCT sweep: the five schemes over the scale's loads on Figure 6's
/// fabric. Rows override what differs.
const FCT: Sweep = Sweep {
    topo: |s| leaf_spine(4, s.dim(4, 8, 16), s.dim(8, 16, 20), 10, 40),
    paper_topo: "4 x 16 x 20",
    schemes: |_| {
        let (presto, no_shim) = (Scheme::presto(), Scheme::drill_no_shim());
        vec![Ecmp, Conga, presto, no_shim, Scheme::drill_default()]
    },
    loads: Scale::loads,
    engines: |_| vec![1],
    variants: &[],
    configure: |_, _| {},
    raw: false,
    incast: false,
    synthetic: false,
    failures: |_| 0,
    failure_seed: 0,
};

/// Figure 7's scale-out fabric: as many spines as leaves, all 10G.
const SCALE_OUT: Sweep = Sweep {
    topo: |s| leaf_spine(s.dim(4, 8, 16), s.dim(4, 8, 16), s.dim(8, 16, 20), 10, 10),
    paper_topo: "16 x 16 x 20, all 10G",
    ..FCT
};

const AT_80: Sweep = Sweep {
    loads: |_| vec![0.8],
    ..FCT
};

/// Figure 2's queue-STDV sweep on an n x n x n fabric.
const RAW: Sweep = Sweep {
    topo: |s| leaf_spine(s.dim(4, 8, 48), s.dim(4, 8, 48), s.dim(4, 8, 48), 10, 10),
    paper_topo: "48 x 48 x 48",
    schemes: |_| [PER_PACKET, [drill(2, 1), drill(12, 1), drill(2, 11)]].concat(),
    loads: |_| vec![0.8, 0.3],
    engines: |s| match s {
        Scale::Quick => vec![1, 4],
        Scale::Default => vec![1, 4, 12],
        Scale::Full => vec![1, 2, 4, 8, 16, 32, 48],
    },
    raw: true,
    ..FCT
};

/// Figure 3's sweep: the scheme axis carries the (d, m) pairs.
const SYNC: Sweep = Sweep {
    schemes: |s| fig3(s, |d| [drill(d, 1), drill(d, 2)]),
    loads: |_| vec![0.8],
    engines: |s| vec![s.dim(8, 16, 48)],
    ..RAW
};

/// Figure 14's incast tails and all-flow mean.
const INCAST: [Stat; 5] = [
    IncastFct(50.0),
    IncastFct(99.0),
    IncastFct(99.9),
    IncastFct(99.99),
    MeanFct,
];

/// Every row of the paper's evaluation, in paper order.
pub const FIGURES: &[FigureSpec] = &[
    FigureSpec {
        name: "fig2",
        title: "Figure 2: queue-length STDV vs engines (a: 80% load, b: 30% load)",
        sweeps: &[RAW],
        panels: &[
            panel("(a) 80% load — mean queue length STDV [packets]", 0, StdvVsEngines { load: 0.8 }),
            panel("(b) 30% load — mean queue length STDV [packets]", 0, StdvVsEngines { load: 0.3 }),
        ],
        shape: "expected shape (paper): DRILL(2,1) well below Random/RR at all engine\n\
counts; ECMP far above all per-packet schemes; the gap grows with load.",
    },
    FigureSpec {
        name: "fig3",
        title: "Figure 3: synchronization effect (48-engine switches, 80% load)",
        sweeps: &[SYNC, Sweep { schemes: |s| fig3(s, |m| [drill(1, m), drill(2, m)]), ..SYNC }],
        panels: &[
            panel("(left) mean queue length STDV vs number of samples d", 0, StdvFolded {
                header: &["samples d", "DRILL(d,1)", "DRILL(d,2)"],
                axis: |s| dm(s).0,
            }),
            panel("(right) mean queue length STDV vs units of memory m", 1, StdvFolded {
                header: &["memory m", "DRILL(1,m)", "DRILL(2,m)"],
                axis: |s| dm(s).1,
            }),
        ],
        shape: "expected shape (paper): the first extra choice/memory unit helps; large\n\
d or m re-inflates the STDV on many-engine switches (engines synchronize\n\
onto the same 'shortest' ports).",
    },
    FigureSpec {
        name: "fig6",
        title: "Figure 6: symmetric Clos, trace-driven workload",
        sweeps: &[FCT],
        panels: &[
            panel("(a) mean FCT [ms] vs offered core load", 0, VsLoad(MeanFct)),
            panel("(b) 99.99th percentile FCT [ms] vs offered core load", 0, VsLoad(Fct(99.99))),
            panel("(c) mean queueing time per hop", 0, ByStat {
                loads: &[0.1, 0.5, 0.8],
                stats: &[HopWait(LeafUp), HopWait(SpineDown), HopWait(ToHost)],
            }),
            panel("FCT CDF at 80% load [ms]", 0, Cdf { load: 0.8, points: 10 }),
        ],
        shape: "expected shape (paper): DRILL < Presto < CONGA < ECMP in mean FCT under\n\
load (1.3x/1.4x/1.6x at 80%); the benefit comes from hop-1 (leaf-up)\n\
queueing, which DRILL cuts by >2x; DRILL with and without the shim are\n\
nearly identical.",
    },
    FigureSpec {
        name: "fig7",
        title: "Figure 7: scale-out topology (16 spines x 16 leaves, all 10G)",
        sweeps: &[SCALE_OUT],
        panels: &[
            panel("(a) mean FCT [ms] vs offered core load", 0, VsLoad(MeanFct)),
            panel("(b) 99.99th percentile FCT [ms] vs offered core load", 0, VsLoad(Fct(99.99))),
        ],
        shape: "expected shape (paper): every scheme degrades vs Figure 6 (slower links\n\
drain queues more slowly), but DRILL degrades most gracefully: at 80%\n\
load it cuts mean FCT of ECMP/CONGA by 2.1x/1.6x.",
    },
    FigureSpec {
        name: "fig8",
        title: "Figure 8: FCT CDFs on the scale-out topology",
        sweeps: &[Sweep { loads: |_| vec![0.3, 0.8], ..SCALE_OUT }],
        panels: &[
            panel("(a) 30% load — FCT [ms] at CDF fractions", 0, Cdf { load: 0.3, points: 12 }),
            panel("(b) 80% load — FCT [ms] at CDF fractions", 0, Cdf { load: 0.8, points: 12 }),
        ],
        shape: "expected shape (paper): curves nearly coincide at 30% load; at 80% the\n\
DRILL curves rise leftmost (stochastically smallest FCT), ECMP rightmost.",
    },
    FigureSpec {
        name: "fig9",
        title: "Figure 9: 1:1 and 5:3 over-subscription, 80% load",
        sweeps: &[
            Sweep { topo: |s| oversubscribed(s, 5, 5), paper_topo: "20 x 16 x 20", ..AT_80 },
            Sweep { topo: |s| oversubscribed(s, 3, 5), paper_topo: "12 x 16 x 20", ..AT_80 },
        ],
        panels: &[
            panel("(a) 1:1 — FCT [ms] at CDF fractions", 0, Cdf { load: 0.8, points: 12 }),
            panel("(b) 5:3 — FCT [ms] at CDF fractions", 1, Cdf { load: 0.8, points: 12 }),
        ],
        shape: "expected shape (paper): no significant qualitative change across\n\
over-subscription ratios with identical load and link speeds; the\n\
scheme ordering (DRILL best, ECMP worst) is preserved in both.",
    },
    FigureSpec {
        name: "fig10",
        title: "Figure 10: VL2 three-stage Clos",
        sweeps: &[Sweep {
            topo: vl2,
            paper_topo: "16 ToRs x 20 hosts, 8 Agg, 4 Int",
            loads: |_| vec![0.2, 0.7],
            ..FCT
        }],
        panels: &[
            panel("(a) 20% load — FCT [ms] at CDF fractions", 0, Cdf { load: 0.2, points: 12 }),
            panel("(b) 70% load — FCT [ms] at CDF fractions", 0, Cdf { load: 0.7, points: 12 }),
        ],
        shape: "expected shape (paper): DRILL keeps FCT short in 3-stage Clos networks;\n\
the ordering matches the 2-stage results, with larger gaps at 70% load.",
    },
    FigureSpec {
        name: "fig11",
        title: "Figure 11: reordering (a) and single link failure (b, c)",
        sweeps: &[
            Sweep {
                schemes: |_| {
                    let (presto, no_shim) = (Presto { shim: false }, Scheme::drill_no_shim());
                    [PER_PACKET, [presto, no_shim, Scheme::drill_default()]].concat()
                },
                ..AT_80
            },
            Sweep { failures: |_| 1, ..FCT },
        ],
        panels: &[
            panel("(a) reordering at 80% load (per flow)", 0, ByStat {
                loads: &[0.8],
                // The second row: flows that crossed the transport's own
                // fast-retransmit threshold.
                stats: &[DupAcksAtLeast(1), DupAcksAtLeast(DUPACK_THRESH), ReorderedAtLeast(1), GroPerPkt],
            }),
            panel("GRO batches per packet, DRILL vs ECMP (paper: < +0.5%)", 0, Change(GroPerPkt)),
            panel("(b) mean FCT [ms] vs load, 1 link failure", 1, VsLoad(MeanFct)),
            panel("(c) 99.99th percentile FCT [ms] vs load, 1 link failure", 1, VsLoad(Fct(99.99))),
        ],
        shape: "expected shape (paper): (a) DRILL has dramatically less reordering than\n\
Random/RR at identical granularity, and almost never crosses the 3-dupACK\n\
retransmit threshold; (b,c) DRILL and Presto handle a single failure best.",
    },
    FigureSpec {
        name: "fig12",
        title: "Figure 12: ten random link failures",
        sweeps: &[
            Sweep { failures: |s| s.dim(3, 6, 10), ..SCALE_OUT },
            Sweep {
                schemes: |_| vec![Scheme::drill_default()],
                loads: |_| vec![0.7],
                variants: &["ideal", "ospf-delayed"],
                configure: delayed_routing,
                failures: |s| s.dim(3, 5, 5),
                failure_seed: 1,
                ..SCALE_OUT
            },
        ],
        panels: &[
            panel("(a) mean FCT [ms] vs load, with failures", 0, VsLoad(MeanFct)),
            panel("(b) 99.99th percentile FCT [ms] vs load, with failures", 0, VsLoad(Fct(99.99))),
            panel("ideal-DRILL vs OSPF-delayed DRILL, 70% load (paper: < 0.6%)", 1, Change(Fct(50.0))),
        ],
        shape: "expected shape (paper): DRILL and CONGA tolerate many failures best —\n\
CONGA shifts load toward surviving capacity, DRILL breaks asymmetric-path\n\
rate dependencies via its symmetric decomposition; Presto's static\n\
weights and ECMP degrade most.",
    },
    FigureSpec {
        name: "fig13",
        title: "Figure 13: heterogeneous striping (extra parallel links)",
        sweeps: &[Sweep {
            topo: |s| {
                let n = s.dim(4, 8, 16);
                TopoSpec::HeteroStriped { base: spec(n, n, s.dim(8, 16, 48), 10, 10), extra_links: 2 }
            },
            paper_topo: "16 x 16 x 48, 2 links to spines i and i+1 from leaf i, 1 otherwise",
            schemes: |_| {
                let (no_shim, drill) = (Scheme::drill_no_shim(), Scheme::drill_default());
                vec![Scheme::presto(), Scheme::Wcmp, Conga, no_shim, drill]
            },
            ..FCT
        }],
        panels: &[
            panel("(a) mean FCT [ms] vs load", 0, VsLoad(MeanFct)),
            panel("(b) 99.99th percentile FCT [ms] vs load", 0, VsLoad(Fct(99.99))),
        ],
        shape: "expected shape (paper): DRILL and CONGA exploit the extra capacity\n\
(load-aware) and beat the static-weight schemes Presto and WCMP,\n\
especially under heavy load.",
    },
    FigureSpec {
        name: "fig14",
        title: "Figure 14: incast",
        sweeps: &[Sweep { loads: |_| vec![0.2, 0.3], incast: true, ..FCT }],
        panels: &[
            panel("(a) 20% background load — incast flow completion times", 0, ByStat {
                loads: &[0.2],
                stats: &INCAST,
            }),
            panel("(b) 30% background load — incast flow completion times", 0, ByStat {
                loads: &[0.3],
                stats: &INCAST,
            }),
            panel("(c) where queueing and loss happen at 20% load", 0, ByStat {
                loads: &[0.2],
                stats: &[
                    HopWait(LeafUp), HopWait(SpineDown), HopWait(ToHost),
                    HopLoss(LeafUp), HopLoss(SpineDown), HopLoss(ToHost),
                ],
            }),
        ],
        shape: "expected shape (paper): DRILL cuts the incast tail (2.1x/2.6x lower\n\
99.99p than CONGA/Presto at 20% load) by instantly diverting microbursts;\n\
it nearly eliminates hop-1 queueing and drops, and reduces hop-2's.",
    },
    FigureSpec {
        name: "table1",
        title: "Table 1: synthetic workloads (normalized to ECMP)",
        sweeps: &[Sweep {
            topo: |_| leaf_spine(4, 4, 8, 1, 1),
            paper_topo: "4 x 4 x 8, all 1G",
            schemes: |_| vec![Ecmp, Conga, Scheme::presto(), Scheme::drill_default()],
            loads: |_| vec![0.0],
            variants: &["Stride(8)", "Bijection", "Shuffle"],
            configure: pattern,
            synthetic: true,
            ..FCT
        }],
        panels: &[panel(
            "normalized to ECMP; a p99.99 ratio's interval divides the two 95% intervals (coverage >= 90%)",
            0,
            OverFirst(&[Elephant, MiceMean, MiceFct(99.99)]),
        )],
        shape: "paper values (throughput higher=better, FCT lower=better):\n  \
Stride    tput 1.55/1.71/1.80  meanFCT 0.51/0.41/0.21  tail 0.20/0.15/0.04\n  \
Bijection tput 1.46/1.62/1.78  meanFCT 0.71/0.63/0.45  tail 0.22/0.18/0.08\n  \
Shuffle   tput 1.00/1.10/1.10  meanFCT 0.95/0.91/0.86  tail 0.86/0.79/0.68\n\
expected shape: DRILL best on Stride/Bijection (tput up, mice FCT down);\n\
Shuffle is last-hop-bottlenecked, so no scheme helps much.",
    },
    FigureSpec {
        name: "ablation",
        title: "Ablations: visibility lag, shim, asymmetry handling",
        sweeps: &[
            Sweep {
                schemes: |_| vec![Scheme::drill_no_shim()],
                loads: |_| vec![0.8],
                engines: |_| vec![1, 4, 16],
                variants: &["lagged", "perfect"],
                configure: |cfg, p| cfg.model_commit = p.variant == "lagged",
                raw: true,
                ..FCT
            },
            Sweep { schemes: |_| vec![Scheme::drill_default(), Scheme::drill_no_shim()], ..AT_80 },
            Sweep {
                schemes: |_| vec![Scheme::drill_default()],
                loads: |_| vec![0.7],
                variants: &["groups", "naive"],
                configure: |cfg, p| cfg.asymmetry_handling = p.variant == "groups",
                failures: |_| 2,
                ..FCT
            },
        ],
        panels: &[
            panel(
                "(1) queue-visibility lag x forwarding engines, DRILL(2,1), 80% load: lagged (paper model) vs perfect info",
                0,
                StdvVsEngines { load: 0.8 },
            ),
            panel("(2) the reordering shim, 80% load TCP workload", 1, ByStat {
                loads: &[0.8],
                stats: &[MeanFct, DupAcksAtLeast(1), Retx],
            }),
            panel("(3) symmetric decomposition (§3.4 groups vs naive), 2 link failures, 70% load", 2, ByStat {
                loads: &[0.7],
                stats: &[MeanFct, Fct(99.9), HopWait(LeafUp), Retx],
            }),
        ],
        shape: "notes: (1) is the paper's stated future work — lag barely hurts DRILL(2,1)\n\
at few engines and grows with engine count; (2) the shim trades a hair of\n\
latency for an order less reordering visible to TCP; (3) grouping protects\n\
elephants' bandwidth (see examples/failure_asymmetry.rs) at some cost in\n\
path diversity for short flows on small fabrics.",
    },
    FigureSpec {
        name: "hw_area",
        title: "Hardware area estimate (Verilog-substitute model)",
        sweeps: &[],
        panels: &[
            panel("gate inventory: DRILL(2,1), 48 ports, 1 engine, 16-bit queue counters", 0, AreaInventory),
            panel("sensitivity to engines, (d, m) and ports", 0, AreaSensitivity),
        ],
        shape: "conclusion (matches paper): DRILL's data-plane logic is a vanishing\n\
fraction of a switch chip and scales linearly in d + m and engines.",
    },
];

fn spec(spines: usize, leaves: usize, hosts: usize, host_g: u64, core_g: u64) -> LeafSpineSpec {
    LeafSpineSpec {
        spines,
        leaves,
        hosts_per_leaf: hosts,
        host_rate: host_g * 1_000_000_000,
        core_rate: core_g * 1_000_000_000,
        prop: DEFAULT_PROP,
    }
}

fn leaf_spine(spines: usize, leaves: usize, hosts: usize, host_g: u64, core_g: u64) -> TopoSpec {
    TopoSpec::LeafSpine(spec(spines, leaves, hosts, host_g, core_g))
}

/// Figure 9: spines per leaf at `num / den` of its hosts, all 10G.
fn oversubscribed(s: Scale, num: usize, den: usize) -> TopoSpec {
    let hosts = s.dim(8, 16, 20);
    leaf_spine((hosts * num).div_ceil(den), s.dim(4, 8, 16), hosts, 10, 10)
}

/// Figure 10's VL2 fabric: the paper's at full scale.
fn vl2(s: Scale) -> TopoSpec {
    TopoSpec::Vl2(Vl2Spec {
        tors: s.dim(4, 8, 16),
        aggs: s.dim(2, 4, 8),
        ints: s.dim(2, 4, 4),
        hosts_per_tor: s.dim(4, 10, 20),
        ..Vl2Spec::paper()
    })
}

fn drill(d: usize, m: usize) -> Scheme {
    Scheme::Drill { d, m, shim: false }
}

/// The (d, m) of a DRILL scheme.
fn dm(s: Scheme) -> (usize, usize) {
    let Scheme::Drill { d, m, .. } = s else {
        unreachable!("a DRILL scheme")
    };
    (d, m)
}

const PER_PACKET: [Scheme; 3] = [Ecmp, Random, RoundRobin];

/// Figure 3's scheme axis: `pair(x)` for each d (or m) on the axis.
fn fig3(s: Scale, pair: fn(usize) -> [Scheme; 2]) -> Vec<Scheme> {
    let axis = match s {
        Scale::Quick => vec![1, 2, 8],
        Scale::Default => vec![1, 2, 4, 8, 12, 20],
        Scale::Full => vec![1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20],
    };
    axis.into_iter().flat_map(pair).collect()
}

/// §4's "OSPF-delayed" variant: the same links die at 1 ms and routing
/// reconverges 1 ms later.
fn delayed_routing(cfg: &mut ExperimentConfig, p: &SweepPoint) {
    if p.variant == "ospf-delayed" {
        let mut s = FaultSchedule::new(Time::from_millis(1));
        for (a, b) in cfg.failed_links.drain(..) {
            s.push(Time::from_millis(1), FaultKind::LinkDown { a, b });
        }
        cfg.faults = Some(s);
    }
}

/// Table 1's destination pattern per variant.
fn pattern(cfg: &mut ExperimentConfig, p: &SweepPoint) {
    cfg.workload.pattern = match p.variant_idx {
        0 => TrafficPattern::Stride(8),
        1 => TrafficPattern::Bijection,
        _ => TrafficPattern::Shuffle,
    };
}

/// One table cell: a label, a number and how it prints, or a tail with its
/// sample count and 95 % interval (`None` = unbounded).
enum Cell {
    Label(String),
    Num(f64, fn(f64) -> String),
    Tail {
        value: f64,
        n: usize,
        lo: Option<f64>,
        hi: Option<f64>,
    },
}

impl Cell {
    fn text(&self) -> String {
        let bound = |b: Option<f64>, inf: &str| b.map_or(inf.to_string(), f3);
        match self {
            Cell::Label(s) => s.clone(),
            Cell::Num(x, fmt) => fmt(*x),
            Cell::Tail { value, n, lo, hi } => {
                let (lo, hi) = (bound(*lo, "-inf"), bound(*hi, "inf"));
                format!("{} [{lo}, {hi}] n={n}", f3(*value))
            }
        }
    }

    fn json(&self) -> Json {
        match self {
            Cell::Label(s) => Json::from(s.as_str()),
            Cell::Num(x, _) => Json::Num(*x),
            Cell::Tail { value, n, lo, hi } => {
                let mut o = Json::obj();
                o.set("value", *value)
                    .set("n", *n)
                    .set("lo", *lo)
                    .set("hi", *hi);
                o
            }
        }
    }

    fn value(&self) -> f64 {
        match self {
            Cell::Num(x, _) | Cell::Tail { value: x, .. } => *x,
            Cell::Label(_) => f64::NAN,
        }
    }

    /// This cell over `base`, to two decimals. A tail ratio's interval
    /// divides the two 95 % intervals, so it covers with at least 90 %;
    /// FCTs are positive, so an unknown lower bound is 0.
    fn over(&self, base: &Cell) -> Cell {
        let value = self.value() / base.value().max(1e-9);
        match (self, base) {
            (
                Cell::Tail { n, lo, hi, .. },
                Cell::Tail {
                    lo: b_lo, hi: b_hi, ..
                },
            ) => Cell::Tail {
                value,
                n: *n,
                lo: Some(lo.zip(*b_hi).map_or(0.0, |(a, b)| a / b)),
                hi: hi.zip(*b_lo).map(|(a, b)| a / b.max(1e-9)),
            },
            _ => Cell::Num(value, |x| format!("{x:.2}")),
        }
    }
}

fn four(x: f64) -> String {
    format!("{x:.4}")
}

fn int(x: u64) -> Cell {
    Cell::Num(x as f64, |x| format!("{x}"))
}

/// The `p`-th percentile of `d` with its sample count and 95 % interval.
fn tail(d: &mut Distribution, p: f64) -> Cell {
    let (lo, hi) = d.quantile_interval(p / 100.0).unwrap_or((None, None));
    let (value, n) = (d.percentile(p), d.count());
    Cell::Tail { value, n, lo, hi }
}

/// The paper numbers the three hops of a two-stage path; the 3-stage
/// classes and the NIC hop get names without a number.
fn hop(h: HopClass) -> &'static str {
    match h {
        HostUp => "host-up",
        LeafUp => "hop1 leaf-up",
        AggUp => "agg-up",
        SpineDown => "hop2 spine-down",
        AggDown => "agg-down",
        ToHost => "hop3 to-host",
    }
}

impl Stat {
    fn label(self) -> String {
        match self {
            MeanFct => "mean FCT [ms]".into(),
            Fct(p) => format!("p{p} FCT [ms]"),
            IncastFct(p) => format!("incast FCT p{p} [ms]"),
            MiceFct(p) => format!("mice p{p} FCT"),
            MiceMean => "mice mean FCT".into(),
            Elephant => "elephant throughput".into(),
            Quantile(q) => format!("FCT at CDF {q:.2} [ms]"),
            QueueStdv => "queue STDV [pkts]".into(),
            DupAcksAtLeast(k) => format!("frac >={k} dupACK"),
            ReorderedAtLeast(k) => format!("frac >={k} reorder"),
            GroPerPkt => "GRO batches/pkt".into(),
            Retx => "retx".into(),
            HopWait(h) => format!("q {} [us]", hop(h)),
            HopLoss(h) => format!("loss {} %", hop(h)),
        }
    }

    fn cell(self, st: &mut RunStats) -> Cell {
        let gro = st.gro_batches as f64 / st.data_pkts_delivered.max(1) as f64;
        match self {
            MeanFct => Cell::Num(st.fct_ms.mean(), f3),
            Fct(p) => tail(&mut st.fct_ms, p),
            IncastFct(p) => tail(&mut st.fct_incast_ms, p),
            MiceFct(p) => tail(&mut st.fct_mice_ms, p),
            MiceMean => Cell::Num(st.fct_mice_ms.mean(), f3),
            Elephant => Cell::Num(st.elephant_gbps.mean(), f3),
            Quantile(q) => Cell::Num(st.fct_ms.quantile(q), f3),
            QueueStdv => Cell::Num(st.queue_stdv.mean(), f3),
            DupAcksAtLeast(k) => Cell::Num(st.dupacks.frac_at_least(k as usize), four),
            ReorderedAtLeast(k) => Cell::Num(st.reorders.frac_at_least(k), four),
            GroPerPkt => Cell::Num(gro, four),
            Retx => int(st.retransmissions),
            HopWait(h) => Cell::Num(st.hops.mean_wait_us(h), f3),
            HopLoss(h) => Cell::Num(st.hops.loss_rate(h) * 100.0, f3),
        }
    }
}

/// A sweep after it ran: its setup text and every point's stats in grid
/// order (load → engines → variant → scheme).
#[derive(Default)]
struct SweepRun {
    setup: String,
    schemes: Vec<Scheme>,
    loads: Vec<f64>,
    engines: Vec<usize>,
    variants: Vec<&'static str>,
    stats: Vec<RunStats>,
}

impl SweepRun {
    fn run(sw: &Sweep, scale: Scale, seed: u64) -> SweepRun {
        let (topo, schemes, loads) = ((sw.topo)(scale), (sw.schemes)(scale), (sw.loads)(scale));
        let (engines, variants) = ((sw.engines)(scale), sw.variants.to_vec());
        let mut cfg = ExperimentConfig::new(topo.clone(), schemes[0], loads[0]);
        cfg.seed = seed;
        cfg.duration = scale.duration();
        let mut setup = format!("topology: {} (paper: {})\n", describe(&topo), sw.paper_topo);
        if engines != [1] {
            setup += &format!("forwarding engines per switch: {engines:?}\n");
        }
        if sw.raw {
            cfg.raw_packet_mode = true;
            cfg.sample_queues = true;
            cfg.queue_limit_bytes = 20_000_000;
            cfg.workload.burst_sigma = 2.0;
            cfg.drain = Time::from_millis(5);
            setup += "open-loop packet trains (no TCP), queue lengths sampled every 10 us\n";
        }
        if sw.incast {
            let epoch_gap = Time::from_millis(2);
            cfg.workload.incast = Some(IncastSpec {
                epoch_gap,
                ..Default::default()
            });
            setup += "incast: every 2 ms, 10% of hosts fetch 10KB from 10% of hosts\n";
        }
        if sw.synthetic {
            let elephant_bytes = scale.dim(2, 10, 50) as u64 * 1_000_000;
            let (mice_bytes, period) = (50_000, scale.dim(4, 10, 10) as u64);
            let mice_period = Time::from_millis(period);
            cfg.synthetic = Some(SyntheticMode {
                elephant_bytes,
                mice_bytes,
                mice_period,
            });
            cfg.duration = Time::from_millis(scale.dim(30, 150, 600) as u64);
            cfg.drain = Time::from_millis(1500);
            setup +=
                &format!("{elephant_bytes} B elephants, {mice_bytes} B mice every {period} ms\n");
        }
        let failures = (sw.failures)(scale);
        if failures > 0 {
            let seed = seed.wrapping_add(sw.failure_seed);
            cfg.failed_links = random_leaf_spine_failures(&topo.build(), failures, seed);
            let link = |(l, s): &(u32, u32)| format!("leaf {l} <-> spine {s}");
            let links: Vec<String> = cfg.failed_links.iter().map(link).collect();
            setup += &format!("{} failed links: {}\n", links.len(), links.join(", "));
        }
        let mut spec = SweepSpec::new(cfg)
            .schemes(schemes.clone())
            .loads(loads.clone())
            .engines(engines.clone())
            .configure(sw.configure);
        if !variants.is_empty() {
            spec = spec.variants(variants.clone());
        }
        let stats = spec.run().into_stats();
        SweepRun {
            setup,
            schemes,
            loads,
            engines,
            variants,
            stats,
        }
    }

    fn load_idx(&self, load: f64) -> Option<usize> {
        self.loads.iter().position(|&l| l == load)
    }

    /// Grid index of `(load, engines, variant, scheme)`.
    fn idx(&self, l: usize, e: usize, v: usize, s: usize) -> usize {
        ((l * self.engines.len() + e) * self.variants.len().max(1) + v) * self.schemes.len() + s
    }

    /// Point `i`'s column label: its variant if the sweep has any, then its
    /// scheme if the sweep has several.
    fn label(&self, i: usize) -> String {
        let (ns, nv) = (self.schemes.len(), self.variants.len().max(1));
        let variant = self.variants.get(i / ns % nv).map(|v| v.to_string());
        let scheme = (self.variants.is_empty() || ns > 1).then(|| self.schemes[i % ns].name());
        let parts: Vec<String> = variant.into_iter().chain(scheme).collect();
        parts.join(" ")
    }
}

fn describe(t: &TopoSpec) -> String {
    let g = |bps: u64| bps / 1_000_000_000;
    match t {
        TopoSpec::LeafSpine(s) => {
            let (n, l, h) = (s.spines, s.leaves, s.hosts_per_leaf);
            let (edge, core) = (g(s.host_rate), g(s.core_rate));
            format!("{n} spines x {l} leaves x {h} hosts, {edge}G edge / {core}G core")
        }
        TopoSpec::HeteroStriped { base, extra_links } => {
            let base = describe(&TopoSpec::LeafSpine(base.clone()));
            format!("{base}; {extra_links} links to spines i and i+1 from leaf i")
        }
        TopoSpec::Vl2(v) => {
            let (tors, hosts, aggs, ints) = (v.tors, v.hosts_per_tor, v.aggs, v.ints);
            let (edge, core) = (g(v.host_rate), g(v.core_rate));
            format!(
                "VL2: {tors} ToRs x {hosts} hosts at {edge}G, {aggs} Agg, {ints} Int, {core}G core"
            )
        }
        other => format!("{other:?}"),
    }
}

/// A panel's column headers and rows.
type Tabulated = (Vec<String>, Vec<Vec<Cell>>);

/// Tabulate one panel. Every metric but the area model is a pivot: each
/// row is a label, a stat and the first of `width` consecutive points it
/// reads, one column per point.
fn tabulate(metric: Metric, run: &mut SweepRun) -> Tabulated {
    let (n, per_load) = (run.schemes.len(), run.stats.len() / run.loads.len().max(1));
    let at = |l: usize| run.idx(l, 0, 0, 0);
    let pct = |l: usize| format!("{:.0}", run.loads[l] * 100.0);
    let (corner, rows, width): (String, Vec<(String, Stat, usize)>, usize) = match metric {
        VsLoad(stat) => {
            let rows = (0..run.loads.len()).map(|l| (pct(l), stat, at(l)));
            ("load %".into(), rows.collect(), n)
        }
        StdvVsEngines { load } => {
            let l = run.load_idx(load).expect("the panel's load is on the axis");
            let rows = run.engines.iter().enumerate();
            let rows = rows.map(|(e, k)| (k.to_string(), QueueStdv, run.idx(l, e, 0, 0)));
            (
                "engines".into(),
                rows.collect(),
                per_load / run.engines.len(),
            )
        }
        StdvFolded { header, axis } => {
            let width = header.len() - 1;
            let rows = (0..run.stats.len()).step_by(width);
            let rows = rows.map(|i| (axis(run.schemes[i]).to_string(), QueueStdv, i));
            (header[0].into(), rows.collect(), width)
        }
        Cdf { load, points } => {
            let first = at(run.load_idx(load).expect("the panel's load is on the axis"));
            let q = |k: usize| k as f64 / points as f64;
            let rows = (1..=points).map(|k| (format!("{:.2}", q(k)), Quantile(q(k)), first));
            ("CDF".into(), rows.collect(), n)
        }
        ByStat { loads, stats } => {
            let on_axis = loads.iter().filter_map(|&load| run.load_idx(load));
            let label = |l: usize, s: Stat| match loads.len() {
                1 => s.label(),
                _ => format!("{}% {}", pct(l), s.label()),
            };
            let rows = on_axis.flat_map(|l| stats.iter().map(move |&s| (label(l, s), s, at(l))));
            ("stat".into(), rows.collect(), per_load)
        }
        Change(stat) => (
            "stat".into(),
            vec![(stat.label(), stat, 0)],
            run.stats.len(),
        ),
        OverFirst(stats) => {
            let first = |v: usize| run.idx(0, 0, v, 0);
            let rows = run.variants.iter().enumerate().flat_map(|(v, name)| {
                stats
                    .iter()
                    .map(move |&s| (format!("{name}: {}", s.label()), s, first(v)))
            });
            let corner = format!("metric (normalized to {})", run.schemes[0].name());
            (corner, rows.collect(), n)
        }
        AreaInventory => return area_inventory(),
        AreaSensitivity => return area_sensitivity(),
    };
    let first = rows.first().map_or(0, |r| r.2);
    let columns = (first..first + width).map(|i| run.label(i));
    let mut header: Vec<String> = std::iter::once(corner).chain(columns).collect();
    let mut table = Vec::new();
    for (label, stat, first) in rows {
        let cells = run.stats[first..first + width].iter_mut();
        let mut cells: Vec<Cell> = cells.map(|st| stat.cell(st)).collect();
        if let OverFirst(_) = metric {
            let base = cells.remove(0);
            cells = cells.iter().map(|c| c.over(&base)).collect();
        }
        if let Change(_) = metric {
            let change = (cells[width - 1].value() / cells[0].value() - 1.0) * 100.0;
            cells.push(Cell::Num(change, |c| format!("{c:+.2}")));
        }
        table.push(row(label, cells));
    }
    match metric {
        StdvFolded { header: h, .. } => header = h.iter().map(|h| h.to_string()).collect(),
        OverFirst(_) => {
            header.truncate(1);
            header.extend(run.schemes[1..].iter().map(Scheme::name));
        }
        Change(_) => header.push("change %".into()),
        _ => {}
    }
    (header, table)
}

fn strings<const N: usize>(header: [&str; N]) -> Vec<String> {
    header.map(String::from).to_vec()
}

fn row(label: String, cells: impl IntoIterator<Item = Cell>) -> Vec<Cell> {
    std::iter::once(Cell::Label(label)).chain(cells).collect()
}

fn area_inventory() -> Tabulated {
    let est = estimate(&HwSpec::paper_default(), &TechNode::default());
    let mut rows = Vec::new();
    for c in &est.inventory {
        let gates = [c.instances, c.gates_each, c.instances * c.gates_each];
        rows.push(row(c.component.into(), gates.map(int)));
    }
    let blank = || Cell::Label(String::new());
    rows.push(row(
        "total".into(),
        [blank(), blank(), int(est.total_gates)],
    ));
    (
        strings(["component", "instances", "gates each", "gates total"]),
        rows,
    )
}

fn area_sensitivity() -> Tabulated {
    let (base, tech) = (HwSpec::paper_default(), TechNode::default());
    let p = base.ports;
    let mut rows = Vec::new();
    for (d, m, engines, ports) in [
        (2, 1, 1, p),
        (2, 1, 48, p),
        (12, 1, 1, p),
        (2, 11, 1, p),
        (2, 1, 1, 256),
    ] {
        let mut spec = base;
        (spec.d, spec.m, spec.engines, spec.ports) = (d, m, engines, ports);
        let e = estimate(&spec, &tech);
        let (area, share) = (e.area_mm2, e.fraction_of_chip * 100.0);
        let name = format!("DRILL({d},{m}), {engines} engines, {ports} ports");
        rows.push(row(
            name,
            [
                int(e.total_gates),
                Cell::Num(area, four),
                Cell::Num(share, four),
            ],
        ));
    }
    let area = format!("mm^2 at {} um^2/gate (paper: 0.04)", tech.nand2_um2);
    let share = format!("% of a {} mm^2 chip (paper: < 1)", tech.chip_mm2);
    (strings(["configuration", "gates", &area, &share]), rows)
}

/// Run one row at `scale` and `seed`: its text rendering and its JSON,
/// both from the same tabulated panels.
pub fn run(fig: &FigureSpec, scale: Scale, seed: u64) -> (String, Json) {
    let start = std::time::Instant::now();
    let run_sweep = |sw| SweepRun::run(sw, scale, seed);
    let mut runs: Vec<SweepRun> = fig.sweeps.iter().map(run_sweep).collect();
    // The area panels read no sweep: give them an empty one.
    runs.resize_with(runs.len().max(1), SweepRun::default);
    let tab = |p: &Panel| tabulate(p.metric, &mut runs[p.sweep]);
    let panels: Vec<Tabulated> = fig.panels.iter().map(tab).collect();
    let wall_secs = start.elapsed().as_secs_f64();

    let mut text = banner_text(fig.title, scale, seed);
    let mut panels_json = Vec::new();
    for (i, (p, (header, rows))) in fig.panels.iter().zip(&panels).enumerate() {
        let setup = &runs[p.sweep].setup;
        if fig.panels[..i].iter().all(|q| q.sweep != p.sweep) && !setup.is_empty() {
            text += &format!("{setup}\n");
        }
        let mut t = Table::new(header.clone());
        for row in rows {
            t.row(row.iter().map(Cell::text));
        }
        text += &format!("{}\n{}\n", p.caption, t.render());
        let json_row = |r: &Vec<Cell>| Json::Arr(r.iter().map(Cell::json).collect());
        let mut o = Json::obj();
        o.set("caption", p.caption).set("columns", header.clone());
        o.set("rows", rows.iter().map(json_row).collect::<Vec<_>>());
        panels_json.push(o);
    }
    text += fig.shape;
    text.push('\n');

    let setups = runs.iter().map(|r| r.setup.trim_end());
    let setups = setups.filter(|s| !s.is_empty());
    let mut json = Json::obj();
    json.set("figure", fig.name)
        .set("title", fig.title)
        .set("manifest", manifest::collect(seed, scale.name(), wall_secs))
        .set("setups", setups.map(Json::from).collect::<Vec<_>>())
        .set("panels", panels_json)
        .set("expected_shape", fig.shape);
    (text, json)
}

/// The row named `name`.
pub fn find(name: &str) -> Option<&'static FigureSpec> {
    FIGURES.iter().find(|f| f.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11a_counts_a_flow_at_exactly_the_fast_retransmit_threshold() {
        let fig11 = find("fig11").expect("a fig11 row");
        let ByStat { stats, .. } = fig11.panels[0].metric else {
            panic!("fig11a tabulates stats");
        };
        let mut st = RunStats::new("DRILL".into());
        st.dupacks.add(3);
        assert_eq!(stats[1].label(), "frac >=3 dupACK");
        let frac = stats[1].cell(&mut st).value();
        assert_eq!(frac, 1.0, "the flow with 3 dupACKs crossed the threshold");
    }

    #[test]
    fn every_hop_class_has_its_own_label() {
        let all = [HostUp, LeafUp, AggUp, SpineDown, AggDown, ToHost];
        let mut labels: Vec<&str> = all.into_iter().map(hop).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len(), "{labels:?}");
    }

    #[test]
    fn every_row_names_a_distinct_figure_and_real_sweeps() {
        let mut names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 14, "fourteen distinct figure names");
        for f in FIGURES {
            let sweeps = f.sweeps.len().max(1);
            assert!(f.panels.iter().all(|p| p.sweep < sweeps), "{}", f.name);
        }
    }

    #[test]
    fn tails_print_n_and_their_interval() {
        let mut d = Distribution::new();
        for x in 1..=100 {
            d.add(f64::from(x));
        }
        let median = tail(&mut d, 50.0);
        assert_eq!(median.text(), "50.50 [40.00, 61.00] n=100");
        let json = median.json().render();
        assert_eq!(json, r#"{"value": 50.5, "n": 100, "lo": 40, "hi": 61}"#);
        // 100 samples cannot bound a p99.99 from above.
        let p9999 = tail(&mut d, 99.99);
        assert_eq!(p9999.text(), "99.99 [100.0, inf] n=100");
        let json = p9999.json().render();
        assert!(
            json.ends_with(r#""n": 100, "lo": 100, "hi": null}"#),
            "{json}"
        );
    }

    #[test]
    fn a_ratio_of_tails_divides_the_intervals() {
        let tail = |value, lo, hi| Cell::Tail {
            value,
            n: 10,
            lo,
            hi,
        };
        let r = tail(2.0, Some(1.0), Some(4.0)).over(&tail(4.0, Some(2.0), Some(8.0)));
        assert_eq!(r.text(), "0.5000 [0.1250, 2.00] n=10");
        let r = tail(2.0, Some(1.0), None).over(&tail(4.0, Some(2.0), None));
        assert_eq!(r.text(), "0.5000 [0, inf] n=10");
    }
}
