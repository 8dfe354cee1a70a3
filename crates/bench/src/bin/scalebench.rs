//! scalebench: how the simulator scales with fabric size.
//!
//! Runs a ladder of topologies from the paper's 320-host leaf-spine up to
//! a 16k-host oversubscribed k=32 fat-tree (plus a build-only k=64 point,
//! 65k hosts) and records, per point:
//!
//! * **events/sec** — wall-clock event throughput of the run. The wall
//!   includes the `World`'s own route-compute + structural group install
//!   (asymmetry handling is on at every point); the separately reported
//!   `cp_install_secs` prices that one-time cost, so subtracting it
//!   recovers the simulation-only throughput (`cp_refine_secs` /
//!   `cp_fingerprint_secs` split the engine's share of it by phase, and
//!   `cp_signatures_walked` counts the subgraph walks it needed);
//! * **bytes/host** — payload bytes delivered per host (work actually
//!   simulated, so throughput numbers are comparable across sizes);
//! * **fct_retained** — samples held by the FCT distribution: one per
//!   measured flow, since the run's store is exact (the `--sketch`
//!   section prices the bounded-memory sketch instead);
//! * **peak RSS** — `VmHWM` from `/proc/self/status` (kB; 0 off-Linux),
//!   and beside it where the control plane's share of it sits after the
//!   cold install: `cp_table_bytes` (`RouteTable::heap_bytes`),
//!   `cp_engine_bytes` (`SymmetryEngine::heap_bytes`), and how few
//!   distinct things the `cp_entries` say — `cp_distinct_cand_lists`,
//!   `cp_distinct_group_tables`.
//!
//! Ladder points run open-loop packet trains (`raw_packet_mode`) with the
//! arrival window shrunk as the fabric grows, keeping every point within
//! a few million events. RSS is a process-wide high-water mark, so
//! `scripts/scalebench.sh` runs each point in a fresh process
//! (`--point NAME`) and assembles `results/scalebench.json`; invoking the
//! binary with no arguments runs the ladder in-process (ascending size,
//! so the per-point attribution stays honest) and prints a JSON array.
//!
//! `--quick` swaps in a seconds-scale ladder for CI smoke.
//!
//! Crash recovery: `--checkpoint-every N` makes the traffic run write a
//! `DRILLSNAP` checkpoint (`--checkpoint-path`, default
//! `scalebench.ckpt`) every N events; `--die-after M` aborts the process
//! after M events without reporting (a deterministic stand-in for a
//! kill); `--resume PATH` restores the checkpoint in a fresh process and
//! runs it to completion, reporting the same JSON — `scripts/ci.sh`
//! smokes kill → resume and asserts the resumed totals match an
//! uninterrupted run.

use std::path::PathBuf;
use std::time::Instant;

use drill_core::SymmetryEngine;
use drill_faults::{FaultInjector, FaultKind};
use drill_net::{ClosSpec, LeafSpineSpec, RouteTable, DEFAULT_PROP};
use drill_runtime::{
    random_leaf_spine_failures, run, CheckpointSpec, ExperimentConfig, Scheme, Snapshot, TopoSpec,
    World,
};
use drill_sim::Time;

/// One ladder entry: a named topology plus the arrival window that keeps
/// its event count in the millions, or a build-only probe of topology +
/// routing construction.
struct Point {
    name: &'static str,
    topo: fn() -> TopoSpec,
    /// Arrival window in microseconds; 0 = build-only (no traffic).
    window_us: u64,
    /// Leaf-uplinks to fail before the run (deterministic picks). The
    /// `*_asym*f` points use this to put the §3.4 control plane under
    /// genuine asymmetry at scale; the probe then fails one *more* link
    /// to time a warm reconvergence.
    failures: usize,
}

fn leafspine320() -> TopoSpec {
    TopoSpec::LeafSpine(LeafSpineSpec::paper_baseline())
}

fn clos512() -> TopoSpec {
    TopoSpec::Clos(ClosSpec {
        pods: 8,
        leaves_per_pod: 4,
        aggs_per_pod: 4,
        cores: 8,
        hosts_per_leaf: 16,
        host_rate: 10_000_000_000,
        leaf_agg_rate: 40_000_000_000,
        agg_core_rate: 40_000_000_000,
        prop: DEFAULT_PROP,
    })
}

fn clos_smoke() -> TopoSpec {
    TopoSpec::Clos(ClosSpec::smoke())
}

fn ft(k: usize) -> TopoSpec {
    TopoSpec::FatTree {
        k,
        rate: 10_000_000_000,
    }
}

/// k=32 with a 2:1 oversubscribed edge: 512 edge switches x 32 hosts =
/// 16384 hosts, the acceptance-scale point.
fn ft32x2() -> TopoSpec {
    TopoSpec::FatTreeCustom {
        k: 32,
        hosts_per_edge: 32,
        rate: 10_000_000_000,
    }
}

/// 16384-host three-tier Clos with 8 core planes, the large asymmetric
/// ladder point (failed uplinks make the striping genuinely uneven).
fn clos16k() -> TopoSpec {
    TopoSpec::Clos(ClosSpec {
        pods: 16,
        leaves_per_pod: 16,
        aggs_per_pod: 8,
        cores: 64,
        hosts_per_leaf: 64,
        host_rate: 10_000_000_000,
        leaf_agg_rate: 40_000_000_000,
        agg_core_rate: 40_000_000_000,
        prop: DEFAULT_PROP,
    })
}

const FULL: &[Point] = &[
    Point {
        name: "leafspine_320h",
        topo: leafspine320,
        window_us: 2000,
        failures: 0,
    },
    Point {
        name: "clos_512h",
        topo: clos512,
        window_us: 1000,
        failures: 0,
    },
    Point {
        name: "fattree16_1024h",
        topo: || ft(16),
        window_us: 600,
        failures: 0,
    },
    Point {
        name: "fattree32_8192h",
        topo: || ft(32),
        window_us: 250,
        failures: 0,
    },
    Point {
        name: "fattree32x2_16384h",
        topo: ft32x2,
        window_us: 200,
        failures: 0,
    },
    // Asymmetric ladder: the same acceptance-scale fabrics with failed
    // uplinks, so the structural §3.4 control plane has real work (the
    // eager enumeration needed ~9 GB and minutes at k=32; the class
    // decomposition must stay well under 1 GB).
    Point {
        name: "fattree32_8192h_asym4f",
        topo: || ft(32),
        window_us: 250,
        failures: 4,
    },
    Point {
        name: "fattree32x2_16384h_asym4f",
        topo: ft32x2,
        window_us: 200,
        failures: 4,
    },
    Point {
        name: "clos16k_asym4f",
        topo: clos16k,
        window_us: 150,
        failures: 4,
    },
    Point {
        name: "fattree64_65536h_build",
        topo: || ft(64),
        window_us: 0,
        failures: 0,
    },
];

const QUICK: &[Point] = &[
    Point {
        name: "leafspine_320h",
        topo: leafspine320,
        window_us: 300,
        failures: 0,
    },
    Point {
        name: "clos_smoke_32h",
        topo: clos_smoke,
        window_us: 300,
        failures: 0,
    },
    Point {
        name: "fattree8_128h",
        topo: || ft(8),
        window_us: 300,
        failures: 0,
    },
    // CI smoke for the asymmetric control plane: small fat-tree, two
    // failed uplinks, full probe + traffic in well under a second.
    Point {
        name: "fattree8_128h_asym2f",
        topo: || ft(8),
        window_us: 300,
        failures: 2,
    },
];

/// Peak resident set (`VmHWM`) in kB; 0 when `/proc` is unavailable.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Crash-recovery knobs (see the module docs).
#[derive(Default)]
struct RecoveryOpts {
    checkpoint_every: Option<u64>,
    checkpoint_path: PathBuf,
    die_after: Option<u64>,
    resume: Option<PathBuf>,
}

fn point_cfg(p: &Point, failed: &[(u32, u32)]) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(
        (p.topo)(),
        Scheme::Drill {
            d: 2,
            m: 1,
            shim: false,
        },
        0.25,
    );
    // The structural §3.4 control plane decomposes one symmetry-class
    // representative per distinct routing neighbourhood instead of
    // enumerating every leaf-pair shortest path, so it is affordable at
    // every ladder point (the old eager enumeration was O(leaves^2 *
    // paths) — gigabytes and minutes at k=32, and scalebench used to
    // disable it). Leave it on: the ladder now measures control-plane
    // scaling too, and the `*_asym*f` points rely on it.
    cfg.asymmetry_handling = true;
    cfg.failed_links = failed.to_vec();
    cfg.raw_packet_mode = true;
    cfg.duration = Time::from_micros(p.window_us);
    cfg.drain = Time::from_millis(5);
    cfg.warmup = Time::ZERO;
    cfg
}

fn run_point(p: &Point, rec: &RecoveryOpts) -> String {
    let spec = (p.topo)();
    let build_start = Instant::now();
    let mut topo = spec.build();
    let routes = RouteTable::compute(&topo);
    let build_secs = build_start.elapsed().as_secs_f64();
    let hosts = topo.num_hosts();
    let switches = topo.num_switches();
    let link_entries = topo.links().len();
    drop(routes);

    // Control-plane probe: time a cold structural §3.4 install on the
    // point's fabric (with its failure set applied), then — when the
    // point has failures — fail one *extra* uplink and time the warm
    // reconvergence (routes + incremental reinstall on the same engine).
    let pairs = if p.failures > 0 {
        let picked = random_leaf_spine_failures(&topo, p.failures + 1, 0xA5F);
        assert_eq!(
            picked.len(),
            p.failures + 1,
            "{}: fabric has too few leaf uplinks to fail",
            p.name
        );
        picked
    } else {
        Vec::new()
    };
    let mut faults = FaultInjector::new();
    for &(a, b) in pairs.iter().take(p.failures) {
        faults.apply(&mut topo, FaultKind::LinkDown { a, b });
    }
    let cp_start = Instant::now();
    let mut cp_routes = RouteTable::compute(&topo);
    let mut engine = SymmetryEngine::new();
    let report = engine.install(&topo, &mut cp_routes);
    let cp_install_secs = cp_start.elapsed().as_secs_f64();
    let (cp_table_bytes, cp_engine_bytes) = (cp_routes.heap_bytes(), engine.heap_bytes());
    let cp_cand_lists = cp_routes.distinct_cand_lists();
    let cp_group_tables = cp_routes.distinct_group_tables();
    let cp_reconverge_secs = if let Some(&(a, b)) = pairs.get(p.failures) {
        faults.apply(&mut topo, FaultKind::LinkDown { a, b });
        let t = Instant::now();
        let mut reconv_routes = RouteTable::compute(&topo);
        engine.install(&topo, &mut reconv_routes);
        t.elapsed().as_secs_f64()
    } else {
        0.0
    };
    drop(engine);
    drop(cp_routes);
    drop(topo);

    let (wall, events, flows, bytes, fct_retained, fct_exact, hw) = if p.window_us == 0 {
        // Build-only probe: topology + routing construction at a scale
        // (65k hosts) where a traffic run would be CI-hostile.
        (0.0, 0, 0, 0, 0, true, (0, 0, 0))
    } else {
        let mut cfg = point_cfg(p, &pairs[..p.failures]);
        let start = Instant::now();
        let stats = if let Some(path) = &rec.resume {
            let snap =
                Snapshot::load(path).unwrap_or_else(|e| panic!("resume {}: {e}", path.display()));
            World::restore(&snap, &cfg)
                .unwrap_or_else(|e| panic!("resume {}: {e}", path.display()))
                .finish()
        } else {
            if let Some(n) = rec.checkpoint_every {
                cfg.checkpoint = Some(CheckpointSpec {
                    every_events: n,
                    path: rec.checkpoint_path.clone(),
                });
            }
            if let Some(n) = rec.die_after {
                cfg.max_events = n;
            }
            run(&cfg)
        };
        if let Some(n) = rec.die_after {
            // Simulated kill: the run stopped mid-flight after ~n events;
            // exit without reporting, leaving only the checkpoint file.
            eprintln!(
                "scalebench: dying after {} events (--die-after {n})",
                stats.events
            );
            std::process::exit(42);
        }
        (
            start.elapsed().as_secs_f64(),
            stats.events,
            stats.flows_started,
            stats.bytes_delivered,
            stats.fct_ms.retained(),
            stats.fct_ms.is_exact(),
            (
                stats.wheel_slots_hw,
                stats.arena_slots_hw,
                stats.nic_pending_at_end,
            ),
        )
    };
    let eps = if wall > 0.0 {
        events as f64 / wall
    } else {
        0.0
    };
    format!(
        "{{\"point\": \"{}\", \"hosts\": {hosts}, \"switches\": {switches}, \"link_entries\": {link_entries}, \
\"build_secs\": {build_secs:.3}, \"window_us\": {}, \"failures\": {}, \
\"cp_install_secs\": {cp_install_secs:.4}, \"cp_refine_secs\": {:.4}, \
\"cp_fingerprint_secs\": {:.4}, \"cp_signatures_walked\": {}, \
\"cp_reconverge_secs\": {cp_reconverge_secs:.4}, \
\"cp_entries\": {}, \"cp_classes\": {}, \"cp_entries_reused\": {}, \"cp_paths\": {}, \
\"asym_entries\": {}, \"wall_secs\": {wall:.3}, \"events\": {events}, \
\"events_per_sec\": {eps:.0}, \"flows_started\": {flows}, \"bytes_delivered\": {bytes}, \
\"bytes_per_host\": {:.1}, \"fct_retained\": {fct_retained}, \"fct_exact\": {fct_exact}, \
\"wheel_slots_hw\": {}, \"arena_slots_hw\": {}, \"nic_pending_at_end\": {}, \
\"cp_table_bytes\": {cp_table_bytes}, \"cp_engine_bytes\": {cp_engine_bytes}, \
\"cp_distinct_cand_lists\": {cp_cand_lists}, \
\"cp_distinct_group_tables\": {cp_group_tables}, \
\"peak_rss_kb\": {}}}",
        p.name,
        p.window_us,
        p.failures,
        report.refine_ns as f64 / 1e9,
        report.fingerprint_ns as f64 / 1e9,
        report.signatures_walked,
        report.entries,
        report.classes,
        report.entries_reused,
        report.paths_enumerated,
        report.asymmetric_entries,
        bytes as f64 / hosts as f64,
        hw.0,
        hw.1,
        hw.2,
        peak_rss_kb()
    )
}

/// Sketch-scaling section: feed n heavy-tailed samples into a forced-sketch
/// [`drill_stats::Distribution`] and report retained memory plus the
/// measured rank error of p50/p90/p99 against the exact order statistics —
/// the "peak memory sublinear in flow count" evidence at sample counts the
/// exact store could not hold per-run.
fn sketch_ladder(quick: bool) {
    use drill_stats::Distribution;
    let ns: &[usize] = if quick {
        &[100_000, 1_000_000]
    } else {
        &[100_000, 1_000_000, 10_000_000]
    };
    println!("[");
    for (i, &n) in ns.iter().enumerate() {
        let mut rng = drill_sim::SimRng::seed_from(0x5CA1E);
        let mut sk = Distribution::sketched();
        let mut exact: Vec<f64> = Vec::with_capacity(n);
        for _ in 0..n {
            // Pareto-ish heavy tail, the shape of FCT distributions.
            let u = (rng.below(u32::MAX as usize) as f64 + 1.0) / (u32::MAX as f64 + 1.0);
            let x = 1.0 / u.powf(0.5);
            sk.add(x);
            exact.push(x);
        }
        exact.sort_unstable_by(|a, b| a.total_cmp(b));
        let rank_err = |q: f64, est: f64| -> f64 {
            let r = exact.partition_point(|&v| v <= est);
            (r as f64 / n as f64 - q).abs()
        };
        let (p50, p90, p99) = (sk.quantile(0.5), sk.quantile(0.9), sk.quantile(0.99));
        let comma = if i + 1 < ns.len() { "," } else { "" };
        println!(
            "  {{\"samples\": {n}, \"retained\": {}, \"eps_bound\": {:.5}, \
\"p50_rank_err\": {:.5}, \"p90_rank_err\": {:.5}, \"p99_rank_err\": {:.5}}}{comma}",
            sk.retained(),
            sk.rank_error_bound().expect("sketch mode"),
            rank_err(0.5, p50),
            rank_err(0.9, p90),
            rank_err(0.99, p99),
        );
    }
    println!("]");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    if args.iter().any(|a| a == "--sketch") {
        sketch_ladder(quick);
        return;
    }
    let flag_val = |flag: &str| -> Option<String> {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{flag} VALUE"))
                .clone()
        })
    };
    let rec = RecoveryOpts {
        checkpoint_every: flag_val("--checkpoint-every")
            .map(|v| v.parse().expect("--checkpoint-every EVENTS")),
        checkpoint_path: flag_val("--checkpoint-path")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("scalebench.ckpt")),
        die_after: flag_val("--die-after").map(|v| v.parse().expect("--die-after EVENTS")),
        resume: flag_val("--resume").map(PathBuf::from),
    };
    let ladder = if quick { QUICK } else { FULL };
    if args.iter().any(|a| a == "--list") {
        for p in ladder {
            println!("{}", p.name);
        }
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--point") {
        let name = args.get(i + 1).expect("--point NAME");
        // The active ladder wins when a name appears in both (the quick
        // ladder reuses full-ladder names with smaller arrival windows).
        let other = if quick { FULL } else { QUICK };
        let p = ladder
            .iter()
            .chain(other.iter())
            .find(|p| p.name == *name)
            .unwrap_or_else(|| panic!("unknown point {name}"));
        println!("{}", run_point(p, &rec));
        return;
    }
    // In-process ladder, ascending size so the RSS high-water mark per
    // point remains attributable.
    println!("[");
    for (i, p) in ladder.iter().enumerate() {
        let comma = if i + 1 < ladder.len() { "," } else { "" };
        println!("  {}{comma}", run_point(p, &rec));
    }
    println!("]");
}
