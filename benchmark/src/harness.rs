//! The parent side: spawns one fresh child process per repetition, checks
//! what came back, and turns it into metrics.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use drill_faults::FaultKind;
use drill_runtime::Scheme;

use crate::child::Variant;
use crate::json::{self, Json};
use crate::metrics::{self, applies, END_TO_END};
use crate::micro::{self, Shape};
use crate::summary::{median, summarize};
use crate::trace::{spans_from_json, spans_to_json, Span, Tracer};
use crate::workloads::{plan, Plan, Scale, SWEEP_LOADS, SWEEP_THREADS};

/// Environment the simulator reads; scrubbed from every child so an
/// ambient setting cannot silently change what is measured.
const SCRUBBED_ENV: [&str; 5] = [
    "DRILL_SHARDS",
    "DRILL_THREADS",
    "DRILL_AUDIT",
    "DRILL_SCALE",
    "DRILL_SEED",
];

/// Fewest timed repetitions a median is taken over.
pub const MIN_REPS: usize = 3;

/// Arrival-window divisor of the `fabric_raw` A/B ratio runs.
const AB_WINDOW_DIV: u64 = 4;

/// The traced run may cost at most this much more than an untraced one.
/// Same-commit repetitions scatter by more than that on a shared host, so
/// the check fails only when the overhead is resolved from the noise: the
/// fastest traced repetition against the slowest untraced one.
const TRACE_OVERHEAD_LIMIT: f64 = 1.10;
/// Traced repetitions per traced run. An untraced one runs between each
/// two, so that a slow spell of the host that sets in part-way falls on
/// both kinds.
const TRACED_REPS: usize = 2;

pub struct Opts {
    pub seed: u64,
    pub scale: Scale,
    /// Keep running timed repetitions until this much time has been
    /// measured (and at least `min_reps` are in).
    pub seconds: f64,
    pub min_reps: usize,
    /// Also do the traced run and the per-layer measurements, with the
    /// timed repetitions as their untraced base line.
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// One child process's result.
struct Rep {
    digest: String,
    m: Json,
    spans: Vec<Span>,
}

impl Rep {
    fn get(&self, key: &str) -> f64 {
        self.m.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }
}

/// Everything measured for one workload.
pub struct WorkloadResult {
    pub name: String,
    pub digest: String,
    /// Samples (one per timed repetition) of each applicable end-to-end
    /// metric, in catalogue order.
    pub e2e: Vec<(&'static str, Vec<f64>)>,
    /// Applicable per-layer values (traced runs only).
    pub layer: Vec<(String, f64)>,
    /// Correctness checks that failed (empty = correct).
    pub failures: Vec<String>,
    /// Simulation runs started / that crashed or failed a check.
    pub attempted: u64,
    pub failed: u64,
}

fn spawn(
    workload: &str,
    opts: &Opts,
    variant: Variant,
    threads: usize,
    window_div: u64,
) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--scale", opts.scale.name()])
        .args(["--variant", variant.name()])
        .args(["--threads", &threads.to_string()])
        .args(["--window-div", &window_div.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    if workload == "fig_sweep" {
        // The spec pins its own thread count; the variable is set as well
        // so nested machinery that consults it agrees.
        cmd.env("DRILL_THREADS", threads.to_string());
    }
    // `output` waits for the child to end before returning.
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {} child: {e}", variant.name()))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} {} child exited with {}",
            variant.name(),
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} child printed nothing"))?;
    let j = json::parse(line).map_err(|e| format!("{workload} child output: {e}"))?;
    Ok(Rep {
        digest: j.str("digest")?.to_string(),
        m: j.get("m").cloned().ok_or("child output lacks \"m\"")?,
        spans: spans_from_json(j.get("spans").ok_or("child output lacks \"spans\"")?)?,
    })
}

/// The end-to-end metrics one repetition yields, by name.
fn e2e_of(workload: &str, rep: &Rep) -> Vec<(&'static str, f64)> {
    let run_s = rep.get("run_s");
    let data_plane_s = (run_s - rep.get("reconverge_s")).max(1e-9);
    let raw = workload == "fabric_raw" || workload == "asym_scale";
    let failed_share = if raw {
        // Packets are conserved: every one injected was delivered, lost,
        // or is still in the arena when the drain ends.
        let lost = rep.get("drops") + rep.get("blackholed") + rep.get("nic_drops");
        let injected = rep.get("data_pkts_delivered") + lost + rep.get("arena_live_at_end");
        lost / injected.max(1.0)
    } else {
        let started = rep.get("flows_started");
        (started - rep.get("flows_completed")) / started.max(1.0)
    };
    END_TO_END
        .iter()
        .filter(|m| applies(m.applies, workload))
        .map(|m| {
            let v = match m.name {
                "events_per_sec" => rep.get("events") / data_plane_s,
                "sim_mb_per_sec" => rep.get("bytes_delivered") / 1e6 / run_s.max(1e-9),
                "ops_failed_share" => failed_share,
                name => rep.get(name),
            };
            (m.name, v)
        })
        .collect()
}

struct Checker {
    failures: Vec<String>,
}

/// Per-layer values by name, in measurement order.
#[derive(Default)]
struct Values(Vec<(String, f64)>);

impl Values {
    fn put(&mut self, name: &str, v: f64) {
        self.0.push((name.to_string(), v));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }
}

impl Checker {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// The workload's configuration the layer micros are shaped after, and
/// the link its fault schedule flaps (if any).
fn shape_inputs(
    workload: &str,
    opts: &Opts,
) -> (drill_runtime::ExperimentConfig, Option<(u32, u32)>) {
    match plan(workload, opts.seed, opts.scale, SWEEP_THREADS).expect("known workload") {
        Plan::Single { cfg, .. } => {
            let flap = cfg.faults.as_ref().and_then(|f| {
                f.events().iter().find_map(|e| match e.kind {
                    FaultKind::LinkDown { a, b } => Some((a, b)),
                    _ => None,
                })
            });
            (*cfg, flap)
        }
        // The grid's heaviest cell: DRILL with the shim at the top load.
        Plan::Sweep(spec) => {
            let top = SWEEP_LOADS.len() - 1;
            let cfg = spec
                .points()
                .into_iter()
                .find(|(p, _)| p.scheme == Scheme::drill_default() && p.load_idx == top)
                .map(|(_, cfg)| cfg)
                .expect("grid has a DRILL cell");
            (cfg, None)
        }
    }
}

/// Grid points of `fig_sweep` and how many of them install symmetric
/// groups (the DRILL cells).
fn sweep_counts(opts: &Opts) -> (f64, f64) {
    match plan("fig_sweep", opts.seed, opts.scale, SWEEP_THREADS).expect("known workload") {
        Plan::Sweep(spec) => {
            let points = spec.points();
            let drill = points
                .iter()
                .filter(|(p, _)| p.scheme.wants_symmetric_groups())
                .count();
            (points.len() as f64, drill as f64)
        }
        Plan::Single { .. } => unreachable!("fig_sweep is a sweep"),
    }
}

/// The traced run, the workload-specific probes and the layer micros.
#[allow(clippy::too_many_lines)]
fn trace_workload(
    workload: &str,
    opts: &Opts,
    base: &[Rep],
    attempted: &mut u64,
    ck: &mut Checker,
) -> Result<Vec<(String, f64)>, String> {
    let mut tr = Tracer::new(true);
    let mut vals = Values::default();
    let first = &base[0];
    let med = |key: &str| median(&base.iter().map(|r| r.get(key)).collect::<Vec<_>>());
    let run_s = med("run_s");
    let setup_s = med("setup_s");
    let single = workload != "fig_sweep";
    let run_s_of = |reps: &[Rep]| -> Vec<f64> { reps.iter().map(|r| r.get("run_s")).collect() };

    // 1. The same run again, stepped and recorded.
    let mut plain_s = run_s_of(base);
    let mut traced_reps = Vec::new();
    for i in 0..TRACED_REPS {
        if i > 0 {
            *attempted += 1;
            let rep = spawn(workload, opts, Variant::Timed, SWEEP_THREADS, 1)?;
            ck.check(rep.digest == first.digest, || {
                format!(
                    "interleaved repetition digest {} differs from {}",
                    rep.digest, first.digest
                )
            });
            plain_s.push(rep.get("run_s"));
        }
        *attempted += 1;
        let (rep, _) = tr.span("drillbench.traced_run", |tr| {
            let rep = spawn(workload, opts, Variant::Traced, SWEEP_THREADS, 1)?;
            tr.adopt(&rep.spans);
            Ok::<Rep, String>(rep)
        });
        traced_reps.push(rep?);
    }
    for rep in &traced_reps {
        ck.check(rep.digest == first.digest, || {
            format!(
                "traced run digest {} differs from untraced {}",
                rep.digest, first.digest
            )
        });
    }
    let (plain, stepped) = (summarize(&plain_s), summarize(&run_s_of(&traced_reps)));
    // A smoke-scale run lasts milliseconds: scheduling noise, exempt.
    ck.check(
        stepped.min <= TRACE_OVERHEAD_LIMIT * plain.max || opts.scale == Scale::Smoke,
        || {
            format!(
                "every traced repetition ({:.3} s at best) took over {TRACE_OVERHEAD_LIMIT} times the slowest untraced one ({:.3} s)",
                stepped.min, plain.max
            )
        },
    );
    vals.put(
        "runtime.trace_overhead_ratio",
        stepped.min / plain.min.max(1e-9),
    );
    // The window rates are read off the faster repetition.
    traced_reps.sort_by(|a, b| a.get("run_s").total_cmp(&b.get("run_s")));
    let traced = &traced_reps[0];
    for k in ["eps_first_window", "eps_mid_window", "eps_drain_window"] {
        vals.put(&format!("runtime.{k}"), traced.get(k));
    }

    // 2. Workload-specific probes, each in its own child.
    match workload {
        "fabric_raw" => {
            let mut ab = |variant| {
                *attempted += 1;
                tr.span(&format!("drillbench.ab_{}", Variant::name(variant)), |_| {
                    spawn(workload, opts, variant, SWEEP_THREADS, AB_WINDOW_DIV)
                })
                .0
            };
            let plain = ab(Variant::Timed)?;
            let shards2 = ab(Variant::Shards2)?;
            let recorded = ab(Variant::Recorded)?;
            let audited = ab(Variant::Audited)?;
            for (name, rep) in [
                ("shards2", &shards2),
                ("recorded", &recorded),
                ("audited", &audited),
            ] {
                ck.check(rep.get("events") == plain.get("events"), || {
                    format!(
                        "{name} run processed {} events, plain {}",
                        rep.get("events"),
                        plain.get("events")
                    )
                });
                ck.check(rep.digest == plain.digest, || {
                    format!("{name} run digest differs from the plain run's")
                });
            }
            ck.check(audited.get("anomalies") == 0.0, || {
                format!("auditor reported {} anomalies", audited.get("anomalies"))
            });
            let plain_loop = plain.get("run_s").max(1e-9);
            let plain_whole = plain.get("setup_s") + plain.get("run_s");
            vals.put("runtime.shards2_ratio", shards2.get("run_s") / plain_loop);
            vals.put("runtime.shard_handoffs", shards2.get("shard_handoffs"));
            vals.put("runtime.shard_windows", shards2.get("shard_windows"));
            vals.put(
                "telemetry.record_overhead_ratio",
                recorded.get("run_s") / plain_whole,
            );
            vals.put("audit.overhead_ratio", audited.get("run_s") / plain_whole);
        }
        "tcp_fct" => {
            *attempted += 1;
            let (snap, _) = tr.span("drillbench.snapshot_probe", |_| {
                spawn(workload, opts, Variant::Snapshot, SWEEP_THREADS, 1)
            });
            let snap = snap?;
            ck.check(snap.digest == first.digest, || {
                "snapshotted run digest differs from the plain run's".to_string()
            });
            ck.check(
                snap.m.get("restored_digest").and_then(Json::as_str) == Some(&first.digest),
                || "restored world finished with a different digest".to_string(),
            );
            vals.put("runtime.snapshot_ms", snap.get("snapshot_ms"));
            vals.put("runtime.restore_ms", snap.get("restore_ms"));
            vals.put("snapshot.bytes", snap.get("snapshot_bytes"));
        }
        "fig_sweep" => {
            *attempted += 1;
            let (one, _) = tr.span("drillbench.sweep_threads1", |_| {
                spawn(workload, opts, Variant::Timed, 1, 1)
            });
            let one = one?;
            ck.check(one.digest == first.digest, || {
                format!(
                    "fig_sweep digest at 1 thread {} differs from {} at {SWEEP_THREADS}",
                    one.digest, first.digest
                )
            });
            vals.put(
                "runtime.sweep_threads2_speedup",
                one.get("run_s") / run_s.max(1e-9),
            );
            vals.put("lb.fct_ecmp_over_drill", first.get("fct_ecmp_over_drill"));
        }
        _ => {}
    }

    // 3. Layer micros, in this process, shaped after the workload.
    let (cfg, flap) = shape_inputs(workload, opts);
    let shape = Shape {
        cfg: &cfg,
        flap,
        fct_samples: first.get("fct_samples") as usize,
        quick: opts.scale == Scale::Smoke,
    };
    let mut micro = Values::default();
    for (k, v) in micro::run_all(&shape, &mut tr) {
        micro.put(k, v);
    }
    let mv = |name: &str| micro.get(name).unwrap_or(0.0);
    if single {
        // Hang the standalone control-plane spans under the traced
        // `World::new`, so its self time is what the runtime adds.
        if let Some(parent) = tr.find_last("runtime.world_new") {
            for name in ["net.topo_build", "net.route_compute", "core.install_cold"] {
                if let Some(i) = tr.find_last(name) {
                    tr.set_parent(i, parent);
                }
            }
        }
    }

    // 4. Counts, and the estimated split of the event loop.
    vals.put("net.tx_pkts", first.get("tx_switch"));
    vals.put("net.drops", first.get("drops") + first.get("nic_drops"));
    vals.put("net.blackholed", first.get("blackholed"));
    vals.put("net.sim_queue_wait_us", first.get("sim_queue_wait_us"));
    vals.put("transport.retransmissions", first.get("retransmissions"));
    vals.put("transport.timeouts", first.get("timeouts"));
    vals.put("workload.flows_started", first.get("flows_started"));

    let control_plane_s =
        mv("net.topo_build_s") + mv("net.route_compute_s") + mv("core.install_cold_s");
    let world_new_self = if single {
        setup_s - control_plane_s
    } else {
        let (points, drill_points) = sweep_counts(opts);
        setup_s
            - points * (mv("net.topo_build_s") + mv("net.route_compute_s"))
            - drill_points * mv("core.install_cold_s")
    };
    vals.put("runtime.world_new_self_s", world_new_self);

    let tcp = applies(&["tcp_fct", "fig_sweep"], workload);
    let reconvs = first.get("reconvergences");
    let select_ns = mv("core.select_ns_per_pkt");
    let est_sim = first.get("events") * mv("sim.queue_hold_ns_per_op") * 1e-9;
    let est_net = (first.get("tx_switch") * (mv("net.switch_fwd_ns_per_pkt") - select_ns).max(0.0)
        + first.get("tx_host") * (mv("net.nic_ns_per_pkt") + mv("net.arena_ns_per_pkt")))
        * 1e-9
        + reconvs * mv("net.route_compute_s");
    let est_core = first.get("lb_decisions") * select_ns * 1e-9
        + if reconvs > 0.0 {
            mv("core.reconverge_new_s") + mv("core.reconverge_replay_s")
        } else {
            0.0
        };
    let shim_ns = if cfg.scheme.uses_shim() {
        mv("transport.shim_ns_per_pkt")
    } else {
        0.0
    };
    let est_transport = if tcp {
        first.get("data_pkts_delivered") * (mv("transport.tcp_ns_per_pkt") + shim_ns) * 1e-9
    } else {
        0.0
    };
    let est_stats =
        (first.get("fct_samples") + first.get("queue_samples")) * mv("stats.add_ns") * 1e-9;
    // On the sweep the layer estimates are CPU seconds across the pool,
    // the wall is shared by its threads.
    let cpu_s = run_s * if single { 1.0 } else { SWEEP_THREADS as f64 };
    let mut explained = 0.0;
    for (layer, est) in [
        ("sim", est_sim),
        ("net", est_net),
        ("core", est_core),
        ("transport", est_transport),
        ("stats", est_stats),
    ] {
        let share = est / cpu_s.max(1e-9);
        explained += share;
        vals.put(&format!("runtime.loop_est_share.{layer}"), share);
    }
    vals.put("runtime.loop_est_share.self", 1.0 - explained);

    let mut doc = Json::obj();
    doc.set("workload", workload)
        .set("seed", opts.seed)
        .set("scale", opts.scale.name())
        .set("spans", spans_to_json(tr.spans(), workload));
    write_file(
        &opts.out_dir.join(format!("trace-{workload}.json")),
        &doc.pretty(),
    )?;

    // Keep only what applies here, in catalogue order.
    vals.0.extend(micro.0);
    let mut ordered = Vec::new();
    for l in metrics::LAYERS {
        if !applies(l.applies, workload) {
            continue;
        }
        let v = vals
            .get(l.name)
            .ok_or_else(|| format!("per-layer metric {} was not measured", l.name))?;
        ordered.push((l.name.to_string(), v));
    }
    Ok(ordered)
}

/// Measure one workload: timed repetitions, checks, and (with
/// `opts.trace`) the traced run.
pub fn measure(workload: &str, opts: &Opts) -> WorkloadResult {
    let mut ck = Checker {
        failures: Vec::new(),
    };
    let mut attempted = 0u64;
    let mut crashed = 0u64;
    let mut reps: Vec<Rep> = Vec::new();
    let start = Instant::now();
    while reps.len() < opts.min_reps || start.elapsed().as_secs_f64() < opts.seconds {
        attempted += 1;
        match spawn(workload, opts, Variant::Timed, SWEEP_THREADS, 1) {
            Ok(rep) => reps.push(rep),
            Err(e) => {
                crashed += 1;
                ck.failures.push(e);
                break;
            }
        }
    }

    let mut result = WorkloadResult {
        name: workload.to_string(),
        digest: reps.first().map_or(String::new(), |r| r.digest.clone()),
        e2e: Vec::new(),
        layer: Vec::new(),
        failures: Vec::new(),
        attempted,
        failed: crashed,
    };
    if let Some(first) = reps.first() {
        for (i, r) in reps.iter().enumerate() {
            ck.check(r.digest == first.digest, || {
                format!(
                    "repetition {i} digest {} differs from {}",
                    r.digest, first.digest
                )
            });
        }
        if workload == "asym_scale" {
            ck.check(
                first.get("fault_events") == 2.0 && first.get("reconvergences") == 2.0,
                || {
                    format!(
                        "asym_scale saw {} fault events and {} reconvergences, expected 2 and 2",
                        first.get("fault_events"),
                        first.get("reconvergences")
                    )
                },
            );
        }
        if workload == "tcp_fct" {
            // The leak check. A drained run ends with an empty arena; a
            // flow still unfinished when the drain ends may hold at most
            // a window of segments and their ACKs, so a leak (which grows
            // with the traffic) still fails a run that did not drain.
            let tcp = shape_inputs(workload, opts).0.tcp;
            let window = tcp.max_cwnd_bytes.div_ceil(u64::from(tcp.mss)) as f64;
            let unfinished = first.get("flows_started") - first.get("flows_completed");
            let allowed = unfinished * 2.0 * window;
            ck.check(first.get("arena_live_at_end") <= allowed, || {
                format!(
                    "tcp_fct ended with {} packets in the arena; its {unfinished} unfinished flows account for at most {allowed}",
                    first.get("arena_live_at_end")
                )
            });
        }
        ck.check(first.get("events") > 0.0, || {
            "run processed no events".to_string()
        });
        let per_rep: Vec<Vec<(&'static str, f64)>> =
            reps.iter().map(|r| e2e_of(workload, r)).collect();
        for (i, &(name, _)) in per_rep[0].iter().enumerate() {
            result
                .e2e
                .push((name, per_rep.iter().map(|rep| rep[i].1).collect()));
        }
        if opts.trace && ck.failures.is_empty() {
            match trace_workload(workload, opts, &reps, &mut result.attempted, &mut ck) {
                Ok(layer) => result.layer = layer,
                Err(e) => {
                    result.failed += 1;
                    ck.failures.push(e);
                }
            }
        }
    }
    // Every failed check spoils the run it was made on; crashes were
    // counted already.
    result.failed = result
        .failed
        .max(ck.failures.len() as u64)
        .min(result.attempted);
    result.failures = ck.failures;
    result
}

pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Human-readable report of one workload, every metric by name with its
/// unit.
pub fn print_report(r: &WorkloadResult) {
    println!("== {} (sim_digest {})", r.name, r.digest);
    println!(
        "  {:<34} {:>8} {:>16} {:>16} {:>16} {:>3}",
        "end-to-end metric", "unit", "median", "q1", "q3", "n"
    );
    for (name, samples) in &r.e2e {
        let unit = metrics::end_to_end(name).unit;
        let s = summarize(samples);
        println!(
            "  {:<34} {:>8} {:>16.6} {:>16.6} {:>16.6} {:>3}",
            name, unit, s.median, s.q1, s.q3, s.n
        );
    }
    if !r.layer.is_empty() {
        println!("  {:<34} {:>8} {:>16}", "per-layer metric", "unit", "value");
        for (name, v) in &r.layer {
            let unit = metrics::layer_unit(name);
            println!("  {name:<34} {unit:>8} {v:>16.6}");
        }
    }
    for f in &r.failures {
        println!("  CHECK FAILED: {f}");
    }
}

/// Whether this host can run `workload` at all.
pub fn runnable(workload: &str) -> Result<(), String> {
    if workload == "fig_sweep" && crate::manifest::cores() < SWEEP_THREADS {
        return Err(format!(
            "fig_sweep runs on {SWEEP_THREADS} threads and this host offers {}; refusing to measure it",
            crate::manifest::cores()
        ));
    }
    Ok(())
}
