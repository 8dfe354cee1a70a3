//! tracedump: analyze a DRILL flight recording into human-readable
//! tables — the Fig. 2-style queue-depth timeline, per-packet trip
//! summaries, the reordering-degree histogram and per-engine decision
//! quality (§3.2.1: how often an engine's pick was the true shortest
//! queue).
//!
//! Modes:
//!
//! * default — run a small Fig. 2-shaped experiment (open-loop packet
//!   trains, DRILL(2,1), 2 engines) with the flight recorder attached,
//!   then analyze the recording in-process. `DRILL_SCALE` / `DRILL_SEED`
//!   apply as in the other harness binaries.
//! * `--sabotage <leak|blackhole> --audit-dir <dir>` — run a small
//!   deterministic experiment with the `drill-audit` watchdogs attached
//!   and a deliberately broken runtime (a leaked arena handle or a
//!   blackholed flow). The trip dumps the snapshot ring, the faulted
//!   instant and `anomaly.meta` into `<dir>` and prints the typed report.
//! * `--replay-from <dir>` — automatic rewind-replay: parse
//!   `<dir>/anomaly.meta`, restore the newest clean ring snapshot with
//!   the flight recorder attached, re-run exactly the window up to the
//!   anomalous boundary, and print the decision-quality and queue tables
//!   for that window alone.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use drill_bench::{banner, base_config, seed_from_env, Scale};
use drill_faults::{SabotageKind, SabotageSpec};
use drill_net::{LeafSpineSpec, DEFAULT_PROP};
use drill_runtime::run_recorded;
use drill_runtime::{run_audited, AuditSpec, ExperimentConfig, Scheme, Snapshot, TopoSpec, World};
use drill_sim::Time;
use drill_stats::{f3, Table};
use drill_telemetry::analyze::{
    decision_quality, depth_stdev_timeline, fault_timeline, packet_trips, queue_timelines,
    reordering,
};
use drill_telemetry::{fault_kind, FlightRecorder, RingKind, TraceEvent, DEFAULT_RING_CAPACITY};

/// Sampling bucket for the reconstructed queue timelines (Fig. 2 samples
/// every 10 µs).
const BUCKET: Time = Time::from_micros(10);

/// Cap on printed timeline rows; longer timelines are decimated evenly.
const MAX_ROWS: usize = 24;

fn recorded_trace() -> FlightRecorder {
    let scale = Scale::from_env();
    let n = scale.dim(4, 8, 16);
    let topo = TopoSpec::LeafSpine(LeafSpineSpec {
        spines: n,
        leaves: n,
        hosts_per_leaf: n,
        host_rate: 10_000_000_000,
        core_rate: 10_000_000_000,
        prop: DEFAULT_PROP,
    });
    let mut cfg = base_config(
        topo,
        Scheme::Drill {
            d: 2,
            m: 1,
            shim: false,
        },
        0.8,
        scale,
    );
    cfg.duration = Time::from_millis(2);
    cfg.drain = Time::from_millis(2);
    cfg.raw_packet_mode = true;
    cfg.queue_limit_bytes = 20_000_000;
    cfg.workload.burst_sigma = 2.0;
    cfg.engines = 2;
    // A short chaos flap mid-run so the fault timeline below has content:
    // one leaf-spine pair dies at 0.5 ms and recovers at 1.5 ms.
    let pair = drill_runtime::random_leaf_spine_failures(&cfg.topo.build(), 1, seed_from_env())[0];
    let mut sched = drill_faults::FaultSchedule::new(Time::from_micros(200));
    sched.link_flap(
        pair.0,
        pair.1,
        Time::from_micros(500),
        Time::from_micros(1500),
    );
    cfg.faults = Some(sched);
    println!(
        "recording: {n}x{n}x{n} leaf-spine, DRILL(2,1), 2 engines, 80% load, seed {}",
        seed_from_env()
    );
    let (stats, recorder) = run_recorded(&cfg);
    println!(
        "run: {} events, {} data pkts delivered, {} recorder events ({} overwritten)\n",
        stats.events,
        stats.data_pkts_delivered,
        recorder.event_count(),
        recorder.overwritten()
    );
    recorder
}

fn header(trace: &FlightRecorder) {
    println!(
        "trace: {} switches x {} engines, {} rings, {} events, {} overwritten",
        trace.num_switches(),
        trace.engines(),
        trace.ring_count(),
        trace.event_count(),
        trace.overwritten()
    );
    // Switch events across all switches, per engine; dequeues and
    // engine-less drops (`u16::MAX`) share one row.
    let mut per_engine: BTreeMap<u16, usize> = BTreeMap::new();
    let mut host_events = 0usize;
    let mut control_events = 0usize;
    for idx in 0..trace.ring_count() {
        let (kind, ring) = trace.ring_at(idx);
        match kind {
            RingKind::Switch { .. } => {
                for ev in ring.iter() {
                    let engine = match ev {
                        TraceEvent::EngineChoice { engine, .. }
                        | TraceEvent::Enqueue { engine, .. }
                        | TraceEvent::Drop { engine, .. } => *engine,
                        _ => u16::MAX,
                    };
                    *per_engine.entry(engine).or_default() += 1;
                }
            }
            RingKind::Host => host_events += ring.len(),
            RingKind::Control => control_events += ring.len(),
        }
    }
    let mut t = Table::new(vec!["ring".to_string(), "events".to_string()]);
    for (&e, n) in &per_engine {
        let label = match e {
            u16::MAX => "switch, no engine".to_string(),
            e => format!("engine {e}"),
        };
        t.row(vec![label, n.to_string()]);
    }
    t.row(vec!["host".into(), host_events.to_string()]);
    t.row(vec!["control".into(), control_events.to_string()]);
    println!("{}", t.render());
}

/// The chaos-engine fault timeline: every fault application, coalesced
/// reconvergence and return-to-stability the control ring captured.
fn fault_report(trace: &FlightRecorder) {
    let tl = fault_timeline(trace);
    if tl.is_empty() {
        println!("no fault events in trace\n");
        return;
    }
    println!("fault timeline ({} control events):", tl.len());
    let mut t = Table::new(vec![
        "t [us]".to_string(),
        "event".to_string(),
        "a".to_string(),
        "b".to_string(),
        "param".to_string(),
    ]);
    for e in &tl {
        let cell = |v: u32| {
            if v == u32::MAX {
                "-".to_string()
            } else {
                v.to_string()
            }
        };
        t.row(vec![
            (e.t_ns / 1000).to_string(),
            fault_kind::name(e.kind).to_string(),
            cell(e.a),
            cell(e.b),
            e.param.to_string(),
        ]);
    }
    println!("{}", t.render());
}

/// The switch with the most enqueue events, and the set of ports its
/// engines actually chose (the load-balanced fabric ports — Fig. 2's
/// uplink group, recovered from the trace alone).
fn busiest_switch(trace: &FlightRecorder) -> Option<(u32, Vec<u16>)> {
    let mut enq: BTreeMap<u32, u64> = BTreeMap::new();
    let mut chosen: BTreeMap<u32, Vec<u16>> = BTreeMap::new();
    for ev in trace.merged_events() {
        match ev {
            TraceEvent::Enqueue { switch, .. } => *enq.entry(*switch).or_default() += 1,
            TraceEvent::EngineChoice { switch, choice, .. } => {
                let ports = chosen.entry(*switch).or_default();
                if !ports.contains(&choice.chosen) {
                    ports.push(choice.chosen);
                }
            }
            _ => {}
        }
    }
    let (&sw, _) = enq.iter().max_by_key(|&(_, n)| n)?;
    let mut ports = chosen.remove(&sw).unwrap_or_default();
    ports.sort_unstable();
    Some((sw, ports))
}

fn fig2_timeline(trace: &FlightRecorder) {
    let (sw, ports) = match busiest_switch(trace) {
        Some((sw, ports)) if ports.len() >= 2 => (sw, ports),
        _ => {
            println!("no switch with >=2 engine-chosen ports in trace; skipping timeline\n");
            return;
        }
    };
    let timelines = queue_timelines(trace, BUCKET);
    let stdev = depth_stdev_timeline(&timelines, sw, &ports);
    if stdev.is_empty() {
        println!("ports {ports:?} of switch {sw} have no depth samples; skipping timeline\n");
        return;
    }
    println!(
        "Fig. 2-style queue timeline — switch {sw}, fabric ports {ports:?}, {} µs buckets",
        BUCKET.as_nanos() / 1000
    );
    let mut hdr = vec!["t [us]".to_string()];
    hdr.extend(ports.iter().map(|p| format!("q{p} [pkts]")));
    hdr.push("stdev".into());
    let mut t = Table::new(hdr);
    let step = stdev.len().div_ceil(MAX_ROWS);
    let mut cursors = vec![0usize; ports.len()];
    let mut depths = vec![0u32; ports.len()];
    for (row, &(b, sd)) in stdev.iter().enumerate() {
        // Forward-fill each port's depth up to this bucket.
        for (i, p) in ports.iter().enumerate() {
            let series = &timelines[&(sw, *p)];
            while cursors[i] < series.len() && series[cursors[i]].0 <= b {
                depths[i] = series[cursors[i]].1;
                cursors[i] += 1;
            }
        }
        if row % step != 0 {
            continue;
        }
        let mut cells = vec![(b * BUCKET.as_nanos() / 1000).to_string()];
        cells.extend(depths.iter().map(|d| d.to_string()));
        cells.push(f3(sd));
        t.row(cells);
    }
    println!("{}", t.render());
    let mean_sd = stdev.iter().map(|&(_, s)| s).sum::<f64>() / stdev.len() as f64;
    println!("mean cross-port depth stdev: {} pkts\n", f3(mean_sd));
}

fn trip_summary(trace: &FlightRecorder) {
    let trips = packet_trips(trace);
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    let mut lat_sum = 0u64;
    let mut lat_max = 0u64;
    let mut lats = 0u64;
    let mut hops_sum = 0u64;
    let mut wait_sum = 0u64;
    for trip in trips.values() {
        if trip.dropped {
            dropped += 1;
        }
        if trip.recv_ns.is_some() {
            delivered += 1;
            hops_sum += trip.hops as u64;
            wait_sum += trip.wait_ns;
        }
        if let Some(l) = trip.latency_ns() {
            lats += 1;
            lat_sum += l;
            lat_max = lat_max.max(l);
        }
    }
    println!(
        "packet trips: {} traced, {} delivered, {} dropped",
        trips.len(),
        delivered,
        dropped
    );
    if lats > 0 {
        println!(
            "latency (send->recv, {lats} complete trips): mean {} us, max {} us",
            f3(lat_sum as f64 / lats as f64 / 1000.0),
            f3(lat_max as f64 / 1000.0)
        );
    }
    if delivered > 0 {
        println!(
            "per delivered packet: mean {} hops, mean {} us queue+tx wait\n",
            f3(hops_sum as f64 / delivered as f64),
            f3(wait_sum as f64 / delivered as f64 / 1000.0)
        );
    }
}

fn reorder_report(trace: &FlightRecorder) {
    let rep = reordering(trace, 8);
    println!(
        "reordering: {} flows, {} deliveries, {} inversions ({}%)",
        rep.flows,
        rep.deliveries,
        rep.inversions,
        f3(100.0 * rep.inversions as f64 / rep.deliveries.max(1) as f64)
    );
    let mut t = Table::new(vec!["degree".to_string(), "count".to_string()]);
    for (d, &n) in rep.degree_hist.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let label = if d + 1 == rep.degree_hist.len() {
            format!(">={d}")
        } else {
            d.to_string()
        };
        t.row(vec![label, n.to_string()]);
    }
    println!("{}", t.render());
}

fn decision_report(trace: &FlightRecorder) {
    let dq = decision_quality(trace);
    if dq.is_empty() {
        println!("no engine-choice events in trace");
        return;
    }
    println!("engine decision quality (chosen vs true shortest queue, §3.2.1):");
    let mut t = Table::new(vec![
        "switch".to_string(),
        "engine".to_string(),
        "choices".to_string(),
        "optimal %".to_string(),
        "mean excess".to_string(),
        "max excess".to_string(),
    ]);
    // The busiest few (switch, engine) pairs, plus the aggregate.
    let mut rows: Vec<(&(u32, u16), &_)> = dq.iter().collect();
    rows.sort_by_key(|(_, q)| std::cmp::Reverse(q.choices));
    for ((sw, eng), q) in rows.iter().take(8) {
        t.row(vec![
            sw.to_string(),
            eng.to_string(),
            q.choices.to_string(),
            f3(100.0 * q.optimal_frac()),
            f3(q.mean_excess()),
            q.max_excess.to_string(),
        ]);
    }
    let mut total = drill_telemetry::analyze::DecisionQuality::default();
    for q in dq.values() {
        total.choices += q.choices;
        total.optimal += q.optimal;
        total.excess_sum += q.excess_sum;
        total.max_excess = total.max_excess.max(q.max_excess);
    }
    t.row(vec![
        "all".into(),
        "all".into(),
        total.choices.to_string(),
        f3(100.0 * total.optimal_frac()),
        f3(total.mean_excess()),
        total.max_excess.to_string(),
    ]);
    println!("{}", t.render());
}

/// The deterministic demo experiment shared by `--sabotage` and
/// `--replay-from`: both modes must rebuild the identical config, since a
/// ring snapshot only restores against the experiment shape that wrote
/// it. Closed-loop TCP (not raw packet trains) so the stuck-flow watchdog
/// has per-flow progress to observe.
fn audit_demo_cfg() -> ExperimentConfig {
    let n = 4;
    let topo = TopoSpec::LeafSpine(LeafSpineSpec {
        spines: n,
        leaves: n,
        hosts_per_leaf: n,
        host_rate: 10_000_000_000,
        core_rate: 10_000_000_000,
        prop: DEFAULT_PROP,
    });
    let mut cfg = ExperimentConfig::new(
        topo,
        Scheme::Drill {
            d: 2,
            m: 1,
            shim: false,
        },
        0.8,
    );
    cfg.duration = Time::from_millis(2);
    cfg.drain = Time::from_millis(2);
    cfg.queue_limit_bytes = 20_000_000;
    cfg.engines = 2;
    cfg
}

/// The audit knobs for the demo: boundaries every 5k events so the ring
/// holds several snapshots before the trip, and a stall threshold well
/// inside the 4 ms run so a blackholed flow is caught before drain ends.
fn audit_demo_spec() -> AuditSpec {
    AuditSpec {
        every_events: 5_000,
        stuck_after: Time::from_millis(1),
        ..AuditSpec::default()
    }
}

/// `--sabotage`: break the runtime on purpose, let the watchdogs trip,
/// and dump the diagnostics bundle for `--replay-from`.
fn sabotage_run(sabotage: SabotageSpec, dir: &Path) {
    let mut cfg = audit_demo_cfg();
    let mut spec = audit_demo_spec();
    spec.dump_dir = Some(dir.to_path_buf());
    cfg.audit = Some(spec);
    cfg.sabotage = Some(sabotage);
    println!(
        "sabotage: {:?} at {} us, audit dump dir {}",
        sabotage.kind,
        sabotage.at.as_nanos() / 1000,
        dir.display()
    );
    let (stats, reports) = run_audited(&cfg);
    println!(
        "run: {} events, {} data pkts delivered, {} anomalies",
        stats.events, stats.data_pkts_delivered, stats.anomalies
    );
    for r in &reports {
        println!("anomaly: {r}");
    }
    assert!(
        !reports.is_empty(),
        "sabotaged run tripped no watchdog — the auditor missed it"
    );
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("audit dump dir")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    println!("dumped: {}", names.join(", "));
    println!("\nnext: tracedump --replay-from {}", dir.display());
}

/// `--replay-from`: the automatic rewind-replay loop. Everything needed —
/// which snapshot to rewind to and how far to run — comes from
/// `anomaly.meta`; no knowledge of the original run is required beyond
/// the shared demo config.
fn replay_from(dir: &Path) {
    let meta_path = dir.join("anomaly.meta");
    let text = std::fs::read_to_string(&meta_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", meta_path.display()));
    let kv: BTreeMap<&str, &str> = text.lines().filter_map(|l| l.split_once('=')).collect();
    let get = |k: &str| {
        *kv.get(k)
            .unwrap_or_else(|| panic!("anomaly.meta lacks {k}="))
    };
    let kind = get("kind");
    let at_ns: u64 = get("at_ns").parse().expect("at_ns");
    let events: u64 = get("events").parse().expect("events");
    let rewind = kv.get("rewind").copied().unwrap_or_else(|| {
        panic!("anomaly.meta has no rewind= line — the ring held no clean snapshot")
    });
    let rewind_events: u64 = get("rewind_events").parse().expect("rewind_events");
    println!(
        "anomaly: {kind} at {} us (event {events}); rewinding to {rewind} (event {rewind_events})",
        at_ns / 1000
    );

    let snap = Snapshot::load(dir.join(rewind))
        .unwrap_or_else(|e| panic!("cannot load ring snapshot {rewind}: {e}"));
    let mut cfg = audit_demo_cfg();
    // Stop the restored world exactly at the anomalous boundary: the
    // flight recorder then covers nothing but the rewind window.
    cfg.max_events = events;
    let recorder = FlightRecorder::new(
        cfg.topo.build().num_switches(),
        cfg.engines,
        DEFAULT_RING_CAPACITY,
    );
    let w = World::restore_probed(&snap, &cfg, recorder)
        .unwrap_or_else(|e| panic!("cannot restore {rewind}: {e}"));
    let (stats, recorder, _reports) = w.finish_parts();
    println!(
        "replayed window: events {rewind_events}..{} ({} recorder events)\n",
        stats.events.min(events),
        recorder.event_count()
    );

    header(&recorder);
    fig2_timeline(&recorder);
    trip_summary(&recorder);
    decision_report(&recorder);
}

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Mode {
    /// Record and analyze the Fig. 2-shaped run.
    Record,
    /// Sabotage the audit demo and dump its diagnostics into `dir`.
    Sabotage {
        sabotage: SabotageSpec,
        dir: PathBuf,
    },
    /// Rewind-replay from the dump in this directory.
    Replay(PathBuf),
}

/// Parse the arguments after the program name.
fn parse<S: AsRef<str>>(args: &[S]) -> Result<Mode, String> {
    let (mut sabotage, mut audit_dir, mut replay) = (None, None, None);
    let mut args = args.iter().map(AsRef::as_ref);
    while let Some(flag) = args.next() {
        let slot = match flag {
            "--sabotage" => &mut sabotage,
            "--audit-dir" => &mut audit_dir,
            "--replay-from" => &mut replay,
            other => return Err(format!("unknown argument {other:?}")),
        };
        *slot = Some(args.next().ok_or(format!("{flag} needs a value"))?);
    }
    match (sabotage, audit_dir, replay) {
        (None, None, None) => Ok(Mode::Record),
        (Some(kind), Some(dir), None) => {
            // The leak strikes mid-run so the ring holds clean snapshots
            // first; the blackhole starts at t=0 so flow 0 — the earliest
            // arrival — is swallowed from its very first data packet and
            // can never complete.
            let (kind, at) = match kind {
                "leak" => (SabotageKind::LeakPacket, Time::from_micros(500)),
                "blackhole" => (SabotageKind::BlackholeFlow { flow: 0 }, Time::ZERO),
                other => return Err(format!("unknown sabotage kind {other:?}")),
            };
            let sabotage = SabotageSpec { at, kind };
            Ok(Mode::Sabotage {
                sabotage,
                dir: dir.into(),
            })
        }
        (Some(_), None, None) => Err("--sabotage needs --audit-dir".into()),
        (None, None, Some(dir)) => Ok(Mode::Replay(dir.into())),
        _ => Err("--audit-dir goes with --sabotage, and --replay-from stands alone".into()),
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("tracedump: {problem}");
    eprintln!(
        "usage: tracedump [--sabotage leak|blackhole --audit-dir <dir> | --replay-from <dir>]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).unwrap_or_else(|e| usage(&e)) {
        Mode::Record => {
            banner(
                "tracedump: record + analyze a Fig. 2-shaped run",
                Scale::from_env(),
            );
            let trace = recorded_trace();
            header(&trace);
            fault_report(&trace);
            fig2_timeline(&trace);
            trip_summary(&trace);
            reorder_report(&trace);
            decision_report(&trace);
        }
        Mode::Sabotage { sabotage, dir } => {
            banner("tracedump: sabotage + audit dump", Scale::from_env());
            sabotage_run(sabotage, &dir);
        }
        Mode::Replay(dir) => {
            banner(
                "tracedump: rewind-replay from audit dump",
                Scale::from_env(),
            );
            replay_from(&dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rejects(args: &[&str], problem: &str) {
        let err = parse(args).unwrap_err();
        assert!(err.contains(problem), "{args:?}: {err}");
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        rejects(&["--sabotage"], "--sabotage needs a value");
        rejects(&["--replay-from"], "--replay-from needs a value");
        rejects(&["--sabotage", "leak", "--audit-dir"], "--audit-dir needs");
        rejects(
            &["--sabotage", "flood", "--audit-dir", "d"],
            "sabotage kind",
        );
        rejects(&["--trace", "t.bin"], "unknown argument \"--trace\"");
        rejects(&["--sabotage", "leak"], "needs --audit-dir");
        rejects(&["--audit-dir", "d"], "goes with --sabotage");
        rejects(
            &["--replay-from", "d", "--sabotage", "leak"],
            "stands alone",
        );
    }

    #[test]
    fn every_valid_form_parses() {
        assert_eq!(parse::<&str>(&[]), Ok(Mode::Record));
        assert_eq!(
            parse(&["--sabotage", "leak", "--audit-dir", "d"]),
            Ok(Mode::Sabotage {
                sabotage: SabotageSpec {
                    at: Time::from_micros(500),
                    kind: SabotageKind::LeakPacket
                },
                dir: "d".into()
            })
        );
        assert_eq!(
            parse(&["--audit-dir", "d", "--sabotage", "blackhole"]),
            Ok(Mode::Sabotage {
                sabotage: SabotageSpec {
                    at: Time::ZERO,
                    kind: SabotageKind::BlackholeFlow { flow: 0 }
                },
                dir: "d".into()
            })
        );
        assert_eq!(parse(&["--replay-from", "d"]), Ok(Mode::Replay("d".into())));
    }
}
