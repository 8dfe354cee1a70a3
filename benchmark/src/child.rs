//! One repetition of one workload, in this (fresh) process.
//!
//! The parent spawns `drillbench child ...` per repetition so that every
//! timing starts from a cold allocator and `VmHWM` is the repetition's own
//! peak. The simulator is driven only through its public API: `World::new`
//! → `run_to` → `finish`, `snapshot`/`restore`, `SweepSpec::run`,
//! `run_recorded`, `run_audited`. The result goes to stdout as one JSON
//! line.

use std::time::Instant;

use drill_net::HopClass;
use drill_runtime::{
    hop_index, run_audited, run_recorded, ExperimentConfig, RunStats, ShardSpec, SweepSpec, World,
};
use drill_sim::Time;
use drill_stats::Distribution;

use crate::digest::Digest;
use crate::json::Json;
use crate::summary::median;
use crate::trace::{spans_to_json, Tracer};
use crate::workloads::{fct_schemes, plan, Plan, Scale, SWEEP_LOADS};

/// What the repetition does besides running the workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    /// The timed repetition end-to-end metrics come from.
    Timed,
    /// Same run, stepped in eight slices with spans recorded.
    Traced,
    /// `ShardSpec::count(2)` instead of the serial engine.
    Shards2,
    /// `run_recorded`: flight recorder + queue sampler attached.
    Recorded,
    /// `run_audited`: invariant watchdogs attached.
    Audited,
    /// Mid-run `snapshot` + `restore`, then both worlds finished.
    Snapshot,
}

impl Variant {
    pub fn name(self) -> &'static str {
        match self {
            Variant::Timed => "timed",
            Variant::Traced => "traced",
            Variant::Shards2 => "shards2",
            Variant::Recorded => "recorded",
            Variant::Audited => "audited",
            Variant::Snapshot => "snapshot",
        }
    }

    pub fn parse(s: &str) -> Option<Variant> {
        [
            Variant::Timed,
            Variant::Traced,
            Variant::Shards2,
            Variant::Recorded,
            Variant::Audited,
            Variant::Snapshot,
        ]
        .into_iter()
        .find(|v| v.name() == s)
    }
}

pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub scale: Scale,
    pub variant: Variant,
    /// Sweep worker threads (`fig_sweep` only).
    pub threads: usize,
    /// Divide the arrival window by this (the A/B ratio runs use a
    /// shorter `fabric_raw`; a ratio needs equal work on both sides, not
    /// the full size).
    pub window_div: u64,
}

/// Set-ups faster than this are repeated and the median reported: a
/// millisecond `World::new` is otherwise all timer noise.
const QUICK_SETUP_S: f64 = 0.2;
/// Repeat a quick set-up this many times, or until this much time has
/// gone into it.
const QUICK_SETUP_REPEATS: usize = 30;
const QUICK_SETUP_BUDGET_S: f64 = 0.25;

/// Arrival-window slices of the traced run (the drain is the eighth).
const WINDOW_SLICES: u64 = 7;

/// Peak resident set (`VmHWM`) of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn mean_wait_us(s: &RunStats) -> f64 {
    let samples: u64 = s.hops.wait_samples.iter().sum();
    if samples == 0 {
        0.0
    } else {
        s.hops.wait_ns.iter().sum::<u64>() as f64 / samples as f64 / 1000.0
    }
}

/// Everything the parent needs from a finished run (or merged group of
/// runs): counts for the op-count estimates and the simulated metrics.
/// `fct` is the sample the simulated FCT metrics describe.
fn put_run_stats(m: &mut Json, all: &RunStats, mut fct: Distribution) {
    // `HopReport` covers switch ports only. Under the uniform inter-leaf
    // pattern every packet a NIC sends is next offered to a leaf uplink,
    // so that hop's offered count stands in for NIC transmissions.
    let leaf_up = hop_index(HopClass::LeafUp);
    let tx_host = all.hops.tx[leaf_up] + all.hops.drops[leaf_up];
    let tx_switch: u64 = all.hops.tx.iter().sum();
    let drops: u64 = all.hops.drops.iter().sum();
    for (k, v) in [
        ("events", all.events),
        ("bytes_delivered", all.bytes_delivered),
        ("data_pkts_delivered", all.data_pkts_delivered),
        ("flows_started", all.flows_started),
        ("flows_completed", all.flows_completed),
        ("tx_host", tx_host),
        ("tx_switch", tx_switch),
        (
            "lb_decisions",
            all.hops.tx[leaf_up] + all.hops.tx[hop_index(HopClass::AggUp)],
        ),
        ("drops", drops),
        ("blackholed", all.blackholed),
        ("nic_drops", all.nic_drops),
        ("queue_samples", all.queue_stdv.count()),
        ("fct_samples", all.fct_ms.count() as u64),
        ("retransmissions", all.retransmissions),
        ("timeouts", all.timeouts),
        ("fault_events", all.fault_events),
        ("reconvergences", all.reconvergences),
        ("arena_live_at_end", all.arena_live_at_end),
        ("shard_handoffs", all.shard_handoffs),
        ("shard_windows", all.shard_windows),
    ] {
        m.set(k, v);
    }
    m.set("sim_queue_stdv_pkts", all.queue_stdv.mean());
    m.set("sim_queue_wait_us", mean_wait_us(all));
    if fct.count() > 0 {
        m.set("sim_fct_mean_ms", fct.mean());
        m.set("sim_fct_p99_ms", fct.quantile(0.99));
    }
}

/// Time `setup` once, or — when it is quick — repeatedly, and return the
/// last value built with the median set-up time.
fn timed_setup<T>(tr: &mut Tracer, mut setup: impl FnMut() -> T) -> (T, f64) {
    let (mut built, first) = tr.span("runtime.world_new", |_| setup());
    if first >= QUICK_SETUP_S {
        return (built, first);
    }
    let mut times = vec![first];
    while times.len() < QUICK_SETUP_REPEATS && times.iter().sum::<f64>() < QUICK_SETUP_BUDGET_S {
        // Drop before rebuilding, so two copies never inflate the peak.
        drop(built);
        let (b, t) = tr.span("runtime.world_new", |_| setup());
        built = b;
        times.push(t);
    }
    (built, median(&times))
}

#[derive(Clone, Copy, PartialEq)]
enum Stop {
    SliceEnd,
    BeforeReconverge,
    AfterReconverge,
}

/// Step a world through its arrival window and finish it, timing the
/// reconvergence brackets (always) and the window slices (traced only).
fn drive(
    mut world: World,
    cfg: &ExperimentConfig,
    reconverge_at: &[Time],
    tr: &mut Tracer,
    m: &mut Json,
) -> RunStats {
    let mut stops: Vec<(Time, Stop)> = Vec::new();
    if tr.recording() {
        for i in 1..=WINDOW_SLICES {
            let t = Time::from_nanos(cfg.duration.as_nanos() * i / WINDOW_SLICES);
            stops.push((t, Stop::SliceEnd));
        }
    }
    for &due in reconverge_at {
        // `run_to(t)` stops before events at `t`, so the second call
        // dispatches exactly the events due at `due` — the `Reconverge`.
        stops.push((due, Stop::BeforeReconverge));
        stops.push((due + Time::from_nanos(1), Stop::AfterReconverge));
    }
    stops.sort_by_key(|&(t, _)| t);

    let loop_start = Instant::now();
    let mut reconverge_s = 0.0;
    let mut slice_eps: Vec<f64> = Vec::new();
    let (mut slice_wall, mut slice_events) = (0.0, 0u64);
    for (t, stop) in stops {
        let before = world.events_processed();
        let name = if stop == Stop::AfterReconverge {
            "runtime.reconverge"
        } else {
            "runtime.run_to"
        };
        let ((), wall) = tr.span(name, |_| world.run_to(t));
        if stop == Stop::AfterReconverge {
            reconverge_s += wall;
        } else {
            slice_wall += wall;
            slice_events += world.events_processed() - before;
        }
        if stop == Stop::SliceEnd {
            slice_eps.push(slice_events as f64 / slice_wall.max(1e-9));
            (slice_wall, slice_events) = (0.0, 0);
        }
    }
    let before = world.events_processed();
    let (stats, finish_s) = tr.span("runtime.finish", |_| world.finish());
    let run_s = loop_start.elapsed().as_secs_f64();

    m.set("run_s", run_s);
    m.set("reconverge_s", reconverge_s);
    if tr.recording() {
        m.set("eps_first_window", slice_eps[0]);
        m.set("eps_mid_window", median(&slice_eps[1..]));
        m.set(
            "eps_drain_window",
            (stats.events - before) as f64 / finish_s.max(1e-9),
        );
    }
    stats
}

fn single(
    args: &ChildArgs,
    mut cfg: ExperimentConfig,
    reconverge_at: Vec<Time>,
    tr: &mut Tracer,
    m: &mut Json,
) -> String {
    if args.window_div > 1 {
        cfg.duration = Time::from_nanos(cfg.duration.as_nanos() / args.window_div);
    }
    let mut digest = Digest::new();
    let stats = match args.variant {
        Variant::Timed | Variant::Traced | Variant::Shards2 => {
            if args.variant == Variant::Shards2 {
                cfg.shards = Some(ShardSpec::count(2));
            }
            let (world, setup_s) = timed_setup(tr, || World::new(&cfg));
            m.set("setup_s", setup_s);
            drive(world, &cfg, &reconverge_at, tr, m)
        }
        Variant::Recorded | Variant::Audited => {
            // Whole-run entry points: the wall includes the build, and
            // the parent compares it against a plain run's build + loop.
            let start = Instant::now();
            let stats = if args.variant == Variant::Recorded {
                run_recorded(&cfg).0
            } else {
                let (stats, reports) = run_audited(&cfg);
                m.set("anomalies", reports.len() as f64);
                stats
            };
            m.set("setup_s", 0.0);
            m.set("run_s", start.elapsed().as_secs_f64());
            m.set("reconverge_s", 0.0);
            stats
        }
        Variant::Snapshot => {
            let (mut world, setup_s) = timed_setup(tr, || World::new(&cfg));
            m.set("setup_s", setup_s);
            world.run_to(Time::from_nanos(cfg.duration.as_nanos() / 2));
            let (snap, snap_s) = tr.span("runtime.snapshot", |_| world.snapshot());
            let (restored, restore_s) = tr.span("runtime.restore", |_| {
                World::restore(&snap, &cfg).expect("restore of a snapshot just taken")
            });
            m.set("snapshot_ms", snap_s * 1e3);
            m.set("restore_ms", restore_s * 1e3);
            m.set("snapshot_bytes", snap.payload_bytes() as f64);
            let mut d = Digest::new();
            d.run(&restored.finish());
            m.set("restored_digest", d.hex());
            let start = Instant::now();
            let stats = world.finish();
            m.set("run_s", start.elapsed().as_secs_f64());
            m.set("reconverge_s", 0.0);
            stats
        }
    };
    digest.run(&stats);
    put_run_stats(m, &stats, stats.fct_ms.clone());
    digest.hex()
}

fn sweep(spec: SweepSpec, tr: &mut Tracer, m: &mut Json) -> String {
    // Set-up: every grid point's `World` built once, serially. The grid
    // run below builds them again inside its own wall; this isolates
    // what thirty builds cost.
    let points = spec.points();
    let ((), setup_s) = timed_setup(tr, || {
        for (_, cfg) in &points {
            drop(World::new(cfg));
        }
    });
    drop(points);
    m.set("setup_s", setup_s);
    let (results, run_s) = tr.span("runtime.sweep_run", |_| spec.run());
    m.set("run_s", run_s);
    m.set("reconverge_s", 0.0);

    let mut digest = Digest::new();
    for (_, s) in results.iter() {
        digest.run(s);
    }
    // Headline FCT population: the DRILL(2,1) cells at every load, merged
    // across replications. The ECMP/DRILL ratio is read at load 0.8.
    let schemes = fct_schemes();
    let drill_idx = schemes.len() - 1;
    let top_load = SWEEP_LOADS.len() - 1;
    let mut drill = results.merged(0, 0, 0, drill_idx);
    for li in 1..SWEEP_LOADS.len() {
        drill.merge(&results.merged(li, 0, 0, drill_idx));
    }
    let ecmp_mean = results.merged(top_load, 0, 0, 0).fct_ms.mean();
    let drill_mean = results.merged(top_load, 0, 0, drill_idx).fct_ms.mean();
    if drill_mean > 0.0 {
        m.set("fct_ecmp_over_drill", ecmp_mean / drill_mean);
    }
    // Totals over every cell. Scheme names differ, so fold the counters
    // into a relabelled clone rather than `merge`-ing unlike schemes.
    let mut all: Option<RunStats> = None;
    for (_, s) in results.iter() {
        let mut s = s.clone();
        s.scheme = "grid".into();
        match &mut all {
            None => all = Some(s),
            Some(acc) => acc.merge(&s),
        }
    }
    let all = all.expect("non-empty grid");
    put_run_stats(m, &all, drill.fct_ms);
    digest.hex()
}

/// Run the repetition and print its one-line JSON result.
pub fn run(args: &ChildArgs) -> Result<(), String> {
    let plan = plan(&args.workload, args.seed, args.scale, args.threads)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let mut tr = Tracer::new(args.variant == Variant::Traced);
    let mut m = Json::obj();
    let digest = match plan {
        Plan::Single { cfg, reconverge_at } => single(args, *cfg, reconverge_at, &mut tr, &mut m),
        Plan::Sweep(spec) => {
            if !matches!(args.variant, Variant::Timed | Variant::Traced) {
                return Err(format!(
                    "variant {} does not apply to a sweep",
                    args.variant.name()
                ));
            }
            sweep(*spec, &mut tr, &mut m)
        }
    };
    m.set("peak_rss_mb", peak_rss_mb());
    let mut out = Json::obj();
    out.set("digest", digest)
        .set("m", m)
        .set("spans", spans_to_json(tr.spans(), &args.workload));
    println!("{out}");
    Ok(())
}
