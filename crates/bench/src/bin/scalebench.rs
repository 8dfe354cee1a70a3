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
//! Each point is one line of JSON (`drill_bench::json`) ending in a
//! `manifest`: git revision, seed, ladder, rustc, host and wall seconds.
//!
//! Ladder points run open-loop packet trains (`raw_packet_mode`) with the
//! arrival window shrunk as the fabric grows, keeping every point within
//! a few million events. RSS is a process-wide high-water mark, so one
//! process runs one point:
//!
//! ```text
//! scalebench [--quick] --list          # the ladder's point names
//! scalebench [--quick] --point NAME    # one point's JSON line
//! scalebench [--quick] --sketch        # the sketch-scaling section
//! ```
//!
//! `--quick` swaps in a seconds-scale ladder for CI smoke.
//! `scripts/scalebench.sh` runs every point in a fresh process and
//! assembles `results/scalebench.json`. Any other command line exits 2.

use std::time::Instant;

use drill_bench::json::Json;
use drill_bench::manifest;
use drill_core::SymmetryEngine;
use drill_faults::{FaultInjector, FaultKind};
use drill_net::{ClosSpec, LeafSpineSpec, RouteTable, DEFAULT_PROP};
use drill_runtime::{random_leaf_spine_failures, run, ExperimentConfig, Scheme, TopoSpec};
use drill_sim::Time;

/// One ladder entry: a named topology plus the arrival window that keeps
/// its event count in the millions, or a build-only probe of topology +
/// routing construction.
#[derive(Debug)]
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
    let rate = 10_000_000_000;
    TopoSpec::Clos(ClosSpec::fat_tree(k, k / 2, rate, rate, DEFAULT_PROP))
}

/// k=32 with a 2:1 oversubscribed edge: 512 edge switches x 32 hosts =
/// 16384 hosts, the acceptance-scale point.
fn ft32x2() -> TopoSpec {
    let rate = 10_000_000_000;
    TopoSpec::Clos(ClosSpec::fat_tree(32, 32, rate, rate, DEFAULT_PROP))
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

const fn point(
    name: &'static str,
    topo: fn() -> TopoSpec,
    window_us: u64,
    failures: usize,
) -> Point {
    Point {
        name,
        topo,
        window_us,
        failures,
    }
}

const FULL: &[Point] = &[
    point("leafspine_320h", leafspine320, 2000, 0),
    point("clos_512h", clos512, 1000, 0),
    point("fattree16_1024h", || ft(16), 600, 0),
    point("fattree32_8192h", || ft(32), 250, 0),
    point("fattree32x2_16384h", ft32x2, 200, 0),
    // Asymmetric ladder: the same acceptance-scale fabrics with failed
    // uplinks, so the structural §3.4 control plane has real work (the
    // eager enumeration needed ~9 GB and minutes at k=32; the class
    // decomposition must stay well under 1 GB).
    point("fattree32_8192h_asym4f", || ft(32), 250, 4),
    point("fattree32x2_16384h_asym4f", ft32x2, 200, 4),
    point("clos16k_asym4f", clos16k, 150, 4),
    point("fattree64_65536h_build", || ft(64), 0, 0),
];

const QUICK: &[Point] = &[
    point("leafspine_320h", leafspine320, 300, 0),
    point("clos_smoke_32h", clos_smoke, 300, 0),
    point("fattree8_128h", || ft(8), 300, 0),
    // CI smoke for the asymmetric control plane: small fat-tree, two
    // failed uplinks, full probe + traffic in well under a second.
    point("fattree8_128h_asym2f", || ft(8), 300, 2),
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

/// The seed of every traffic run.
const SEED: u64 = 1;

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
    cfg.seed = SEED;
    cfg.failed_links = failed.to_vec();
    cfg.raw_packet_mode = true;
    cfg.duration = Time::from_micros(p.window_us);
    cfg.drain = Time::from_millis(5);
    cfg.warmup = Time::ZERO;
    cfg
}

/// Run one ladder point (`ladder` names the ladder for the manifest).
fn run_point(p: &Point, ladder: &str) -> Json {
    let started = Instant::now();
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
        let cfg = point_cfg(p, &pairs[..p.failures]);
        let start = Instant::now();
        let stats = run(&cfg);
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
    let mut o = Json::obj();
    o.set("point", p.name)
        .set("hosts", hosts)
        .set("switches", switches)
        .set("link_entries", link_entries)
        .set("build_secs", Json::Fixed(build_secs, 3))
        .set("window_us", p.window_us)
        .set("failures", p.failures)
        .set("cp_install_secs", Json::Fixed(cp_install_secs, 4))
        .set(
            "cp_refine_secs",
            Json::Fixed(report.refine_ns as f64 / 1e9, 4),
        )
        .set(
            "cp_fingerprint_secs",
            Json::Fixed(report.fingerprint_ns as f64 / 1e9, 4),
        )
        .set("cp_signatures_walked", report.signatures_walked)
        .set("cp_reconverge_secs", Json::Fixed(cp_reconverge_secs, 4))
        .set("cp_entries", report.entries)
        .set("cp_classes", report.classes)
        .set("cp_entries_reused", report.entries_reused)
        .set("cp_paths", report.paths_enumerated)
        .set("asym_entries", report.asymmetric_entries)
        .set("wall_secs", Json::Fixed(wall, 3))
        .set("events", events)
        .set("events_per_sec", Json::Fixed(eps, 0))
        .set("flows_started", flows)
        .set("bytes_delivered", bytes)
        .set(
            "bytes_per_host",
            Json::Fixed(bytes as f64 / hosts as f64, 1),
        )
        .set("fct_retained", fct_retained)
        .set("fct_exact", fct_exact)
        .set("wheel_slots_hw", hw.0)
        .set("arena_slots_hw", hw.1)
        .set("nic_pending_at_end", hw.2)
        .set("cp_table_bytes", cp_table_bytes)
        .set("cp_engine_bytes", cp_engine_bytes)
        .set("cp_distinct_cand_lists", cp_cand_lists)
        .set("cp_distinct_group_tables", cp_group_tables)
        .set("peak_rss_kb", peak_rss_kb())
        .set(
            "manifest",
            manifest::collect(SEED, ladder, started.elapsed().as_secs_f64()),
        );
    o
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
        let eps_bound = sk.rank_error_bound().expect("sketch mode");
        let mut o = Json::obj();
        o.set("samples", n)
            .set("retained", sk.retained())
            .set("eps_bound", Json::Fixed(eps_bound, 5))
            .set("p50_rank_err", Json::Fixed(rank_err(0.5, p50), 5))
            .set("p90_rank_err", Json::Fixed(rank_err(0.9, p90), 5))
            .set("p99_rank_err", Json::Fixed(rank_err(0.99, p99), 5));
        let comma = if i + 1 < ns.len() { "," } else { "" };
        println!("  {}{comma}", o.render());
    }
    println!("]");
}

/// What one invocation does.
#[derive(Debug)]
enum Mode {
    /// Print the ladder's point names, one a line.
    List,
    /// Run one point and print its JSON line.
    Point(&'static Point),
    /// Run the sketch-scaling section.
    Sketch,
}

const USAGE: &str =
    "usage: scalebench [--quick] (--list | --point NAME | --sketch); --list names the points";

/// The point called `name`. The active ladder wins when a name appears
/// in both (the quick ladder reuses full-ladder names with smaller
/// arrival windows).
fn find_point(name: &str, quick: bool) -> Option<&'static Point> {
    let (active, other) = if quick { (QUICK, FULL) } else { (FULL, QUICK) };
    active.iter().chain(other).find(|p| p.name == name)
}

/// Parse `[--quick] (--list | --point NAME | --sketch)`, flags in any
/// order, into whether the quick ladder is active and the one mode.
fn parse_args<S: AsRef<str>>(args: &[S]) -> Result<(bool, Mode), String> {
    const ONE_MODE: &str = "give one of --list, --point NAME, --sketch";
    let mut quick = false;
    // The mode flag and, for `--point`, its name: resolved once `--quick`
    // is known, since it may come last.
    let mut mode = None;
    let mut args = args.iter().map(AsRef::as_ref);
    while let Some(arg) = args.next() {
        let flag = match arg {
            "--quick" if !quick => {
                quick = true;
                continue;
            }
            "--list" | "--sketch" => (arg, ""),
            "--point" => (arg, args.next().ok_or("--point needs a point name")?),
            _ => return Err(format!("unexpected argument {arg:?}")),
        };
        if mode.replace(flag).is_some() {
            return Err(ONE_MODE.into());
        }
    }
    let mode = match mode.ok_or(ONE_MODE)? {
        ("--list", _) => Mode::List,
        ("--sketch", _) => Mode::Sketch,
        (_, name) => {
            Mode::Point(find_point(name, quick).ok_or_else(|| format!("unknown point {name:?}"))?)
        }
    };
    Ok((quick, mode))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, mode) = parse_args(&args).unwrap_or_else(|problem| {
        eprintln!("scalebench: {problem}");
        eprintln!("{USAGE}");
        std::process::exit(2)
    });
    let (ladder, ladder_name) = if quick {
        (QUICK, "quick")
    } else {
        (FULL, "full")
    };
    match mode {
        Mode::List => {
            for p in ladder {
                println!("{}", p.name);
            }
        }
        Mode::Point(p) => println!("{}", run_point(p, ladder_name).render()),
        Mode::Sketch => sketch_ladder(quick),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(bool, Mode), String> {
        parse_args(&line.split_whitespace().collect::<Vec<_>>())
    }

    #[test]
    fn every_valid_form_parses() {
        for (line, quick) in [
            ("--list", false),
            ("--quick --list", true),
            ("--list --quick", true),
        ] {
            assert!(
                matches!(parse(line), Ok((q, Mode::List)) if q == quick),
                "{line}"
            );
        }
        for (line, quick) in [("--sketch", false), ("--sketch --quick", true)] {
            assert!(
                matches!(parse(line), Ok((q, Mode::Sketch)) if q == quick),
                "{line}"
            );
        }
        // `--quick` before or after `--point` picks the quick window; a
        // name only the other ladder has still resolves.
        for (line, window_us) in [
            ("--point leafspine_320h", 2000),
            ("--point leafspine_320h --quick", 300),
            ("--quick --point leafspine_320h", 300),
            ("--point fattree8_128h", 300),
            ("--quick --point clos16k_asym4f", 150),
        ] {
            let Ok((_, Mode::Point(p))) = parse(line) else {
                panic!("{line}: {:?}", parse(line))
            };
            let mut named = line.split_whitespace().skip_while(|&a| a != "--point");
            assert_eq!(named.nth(1), Some(p.name), "{line}");
            assert_eq!(p.window_us, window_us, "{line}");
        }
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for (line, expect) in [
            ("", "give one of"),
            ("--quick", "give one of"),
            ("--list --sketch", "give one of"),
            ("--point leafspine_320h --list", "give one of"),
            ("--quick --quick --list", "\"--quick\""),
            ("--point", "needs a point name"),
            ("--point nope", "unknown point \"nope\""),
            ("--point --quick", "unknown point \"--quick\""),
            ("--list extra", "\"extra\""),
            ("--point leafspine_320h --resume x.ckpt", "\"--resume\""),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains(expect), "{line}: {err}");
        }
    }
}
