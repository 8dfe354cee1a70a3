//! Black-box auditor tests: the invariant watchdogs must stay silent on
//! every healthy figure scenario (positive control), trip with the right
//! typed [`AnomalyKind`] on deliberately broken runs (negative control),
//! never perturb a single stat, and produce a dump bundle that
//! rewind-replay can consume hands-free.
//!
//! `tests/determinism_golden.rs` runs every single-run golden under the
//! auditor too, pinning auditor-on runs to the auditor-off goldens.

use std::path::PathBuf;

use drill::audit::{AnomalyKind, AnomalyReport};
use drill::faults::{FaultKind, FaultSchedule, SabotageKind, SabotageSpec};
use drill::net::{LeafSpineSpec, Vl2Spec, DEFAULT_PROP};
use drill::runtime::{
    random_leaf_spine_failures, rewind_replay, run, run_audited, run_recorded, AnomalyMeta,
    AuditSpec, ExperimentConfig, RunStats, Scheme, Snapshot, SyntheticMode, TopoSpec, World,
};
use drill::sim::codec::codec_error;
use drill::sim::Time;
use drill::snapshot::SnapshotBuilder;
use drill::telemetry::{FlightRecorder, NoopProbe};
use drill::workload::{IncastSpec, TrafficPattern};

fn small_leaf_spine() -> TopoSpec {
    TopoSpec::LeafSpine(LeafSpineSpec {
        spines: 4,
        leaves: 4,
        hosts_per_leaf: 3,
        host_rate: 10_000_000_000,
        core_rate: 40_000_000_000,
        prop: DEFAULT_PROP,
    })
}

/// A quick-scale config with the auditor's boundary cadence tightened so
/// even short runs cross many watchdog evaluations. `stuck_after` stays
/// at its 500 ms default: sim time never exceeds duration + drain
/// (~102 ms here), so only a genuinely wedged flow could ever trip it.
fn audited(topo: TopoSpec, scheme: Scheme, load: f64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(topo, scheme, load);
    cfg.duration = Time::from_millis(2);
    cfg.drain = Time::from_millis(100);
    cfg.warmup = Time::from_micros(200);
    cfg.audit = Some(AuditSpec {
        every_events: 2_000,
        ..AuditSpec::default()
    });
    cfg
}

/// The 13 figure/table scenarios of the paper's evaluation, shrunk to
/// test scale but keeping each one's distinctive knobs (raw packet
/// trains, VL2/hetero topologies, failures, incast, synthetic patterns,
/// lagged-commit ablation).
fn figure_scenarios() -> Vec<(&'static str, ExperimentConfig)> {
    let raw = |mut cfg: ExperimentConfig| {
        cfg.raw_packet_mode = true;
        cfg.sample_queues = true;
        cfg.queue_limit_bytes = 20_000_000;
        cfg.workload.burst_sigma = 2.0;
        cfg
    };
    let mut out: Vec<(&'static str, ExperimentConfig)> = vec![
        (
            "fig2_queue_stdv",
            raw(audited(small_leaf_spine(), Scheme::drill_no_shim(), 0.8)),
        ),
        (
            "fig3_dm_variants",
            raw(audited(
                small_leaf_spine(),
                Scheme::Drill {
                    d: 3,
                    m: 2,
                    shim: false,
                },
                0.8,
            )),
        ),
        (
            "fig6_fct_drill",
            audited(small_leaf_spine(), Scheme::drill_default(), 0.5),
        ),
        (
            "fig7_fct_conga",
            audited(small_leaf_spine(), Scheme::Conga, 0.7),
        ),
        (
            "fig8_fct_presto",
            audited(small_leaf_spine(), Scheme::presto(), 0.5),
        ),
        (
            "fig9_fct_ecmp_high_load",
            audited(small_leaf_spine(), Scheme::Ecmp, 0.8),
        ),
        (
            "fig10_vl2",
            audited(
                TopoSpec::Vl2(Vl2Spec {
                    tors: 4,
                    aggs: 4,
                    ints: 2,
                    hosts_per_tor: 3,
                    host_rate: 1_000_000_000,
                    core_rate: 10_000_000_000,
                    tor_uplinks: 2,
                    prop: DEFAULT_PROP,
                }),
                Scheme::drill_default(),
                0.4,
            ),
        ),
        (
            "fig11_reordering",
            audited(small_leaf_spine(), Scheme::drill_no_shim(), 0.8),
        ),
        (
            "fig13_hetero_striped",
            audited(
                TopoSpec::HeteroStriped {
                    base: LeafSpineSpec {
                        spines: 4,
                        leaves: 4,
                        hosts_per_leaf: 3,
                        host_rate: 10_000_000_000,
                        core_rate: 40_000_000_000,
                        prop: DEFAULT_PROP,
                    },
                    extra_links: 2,
                },
                Scheme::Wcmp,
                0.5,
            ),
        ),
    ];

    // Fig. 12: FCT under a mid-run link failure with delayed OSPF
    // reconvergence.
    let mut fail = audited(small_leaf_spine(), Scheme::drill_default(), 0.7);
    let (a, b) = random_leaf_spine_failures(&fail.topo.build(), 1, 0xF16)[0];
    let mut s = FaultSchedule::new(Time::from_millis(1));
    s.push(Time::from_millis(1), FaultKind::LinkDown { a, b });
    fail.faults = Some(s);
    out.push(("fig12_failure", fail));

    // Fig. 14: many-to-one incast over background load.
    let mut incast = audited(small_leaf_spine(), Scheme::drill_default(), 0.3);
    incast.workload.incast = Some(IncastSpec::default());
    out.push(("fig14_incast", incast));

    // Ablation: the lagged-commit queue-occupancy model.
    let mut lagged = raw(audited(small_leaf_spine(), Scheme::drill_no_shim(), 0.8));
    lagged.model_commit = true;
    out.push(("ablation_lagged_commit", lagged));

    // Table 1: synthetic elephant/mice workload on a fixed pattern.
    let mut synth = audited(small_leaf_spine(), Scheme::drill_default(), 0.0);
    synth.synthetic = Some(SyntheticMode::default());
    synth.workload.pattern = TrafficPattern::Stride(1);
    out.push(("table1_synthetic_stride", synth));

    out
}

/// The pinned chaos schedule from the determinism goldens: two link
/// flaps, a capacity degradation, and a switch crash + recovery.
fn chaos_schedule(topo: &TopoSpec) -> FaultSchedule {
    let pairs = random_leaf_spine_failures(&topo.build(), 4, 0xC405);
    let mut s = FaultSchedule::new(Time::from_micros(300));
    s.link_flap(
        pairs[0].0,
        pairs[0].1,
        Time::from_micros(500),
        Time::from_micros(900),
    );
    s.link_flap(
        pairs[1].0,
        pairs[1].1,
        Time::from_micros(1100),
        Time::from_micros(1600),
    );
    s.degrade_window(
        pairs[2].0,
        pairs[2].1,
        1,
        4,
        Time::from_micros(700),
        Time::from_micros(1400),
    );
    s.switch_outage(pairs[3].1, Time::from_micros(1800), Time::from_micros(2300));
    s
}

/// Positive control: every figure scenario of the evaluation runs with
/// all watchdogs armed and trips nothing. An empty report list is the
/// auditor's verdict that packet conservation, flow progress, queue
/// ceilings, NIC backlog accounting and clock monotonicity held at every
/// boundary.
#[test]
fn figure_scenarios_trip_no_watchdogs() {
    for (name, cfg) in figure_scenarios() {
        let (stats, reports) = run_audited(&cfg);
        assert!(stats.events > 2_000, "{name}: too few events to audit");
        assert!(
            reports.is_empty(),
            "{name}: tripped {} watchdog(s): {}",
            reports.len(),
            reports
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );
        assert_eq!(stats.anomalies, 0, "{name}: RunStats disagrees");
    }
}

/// Positive control under chaos: the pinned fault schedule (flaps,
/// degradation, switch crash/recovery) exercises blackholes, fault drops
/// and routing rebuilds — all of which release arena slots through paths
/// the conservation watchdog must account for.
#[test]
fn chaos_schedule_trips_no_watchdogs() {
    let mut cfg = audited(small_leaf_spine(), Scheme::drill_default(), 0.4);
    cfg.faults = Some(chaos_schedule(&cfg.topo));
    let (stats, reports) = run_audited(&cfg);
    assert!(stats.fault_events >= 8, "schedule did not fully fire");
    assert!(
        reports.is_empty(),
        "chaos run tripped: {}",
        reports
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    );
}

/// The observation fingerprint a paper figure reads; the auditor must
/// leave every slot bit-identical.
fn fingerprint(st: &mut RunStats) -> Vec<u64> {
    vec![
        st.flows_started,
        st.flows_completed,
        st.events,
        st.data_pkts_delivered,
        st.retransmissions,
        st.timeouts,
        st.blackholed,
        st.nic_drops,
        st.sim_end.as_nanos(),
        st.fct_ms.count() as u64,
        st.mean_fct_ms().to_bits(),
        st.fct_ms.quantile(0.99).to_bits(),
        st.dupacks.total(),
        st.reorders.total(),
    ]
}

/// Audits observe, never steer: the full stats fingerprint of an audited
/// run — with telemetry riding along too — is bit-identical to the plain
/// run's. (`RunStats::anomalies` is deliberately outside the fingerprint;
/// it is the one field only the auditor writes.)
#[test]
fn auditor_is_invisible_to_the_simulation() {
    let plain_cfg = {
        let mut c = audited(small_leaf_spine(), Scheme::drill_default(), 0.6);
        c.audit = None;
        c
    };
    let mut plain = run(&plain_cfg);

    let audited_cfg = audited(small_leaf_spine(), Scheme::drill_default(), 0.6);
    let mut auditd = run(&audited_cfg);
    assert_eq!(
        fingerprint(&mut plain),
        fingerprint(&mut auditd),
        "auditor perturbed the simulation"
    );

    let both_cfg = audited(small_leaf_spine(), Scheme::drill_default(), 0.6);
    let mut both = run_recorded(&both_cfg).0;
    assert_eq!(
        fingerprint(&mut plain),
        fingerprint(&mut both),
        "auditor + telemetry perturbed the simulation"
    );
}

/// A throwaway dump directory under the target-adjacent temp root.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "drill-audit-{tag}-{}-{}",
        std::process::id(),
        std::thread::current().name().unwrap_or("t").len()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A run whose runtime leaks one arena handle at 500 µs, audited every
/// 2 000 events and dumping into `dump` when given.
fn leak_cfg(dump: Option<PathBuf>) -> ExperimentConfig {
    let mut cfg = audited(small_leaf_spine(), Scheme::drill_default(), 0.5);
    cfg.audit = Some(AuditSpec {
        every_events: 2_000,
        dump_dir: dump,
        ..AuditSpec::default()
    });
    cfg.sabotage = Some(SabotageSpec {
        at: Time::from_micros(500),
        kind: SabotageKind::LeakPacket,
    });
    cfg
}

/// Negative control: a runtime that leaks an arena handle trips
/// `PacketConservation` deterministically — same boundary, same counts,
/// run after run — and dumps the ring + faulted snapshot + meta bundle.
#[test]
fn leaked_handle_trips_packet_conservation() {
    let dir = scratch_dir("leak");

    let (stats, reports) = run_audited(&leak_cfg(Some(dir.clone())));
    assert!(!reports.is_empty(), "leak went unnoticed");
    assert_eq!(stats.anomalies, reports.len() as u64);
    let first = &reports[0];
    match first.kind {
        AnomalyKind::PacketConservation { live, holders } => {
            assert_eq!(live, holders + 1, "exactly one leaked handle");
        }
        ref k => panic!("expected PacketConservation, got {k:?}"),
    }
    assert!(
        first.at >= Time::from_micros(500),
        "tripped before sabotage"
    );

    // The dump bundle: anomaly.meta + faulted instant + ring of clean
    // pre-anomaly snapshots.
    let names: Vec<String> = std::fs::read_dir(&dir)
        .expect("dump dir exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(names.iter().any(|n| n == "anomaly.meta"), "{names:?}");
    assert!(names.iter().any(|n| n == "faulted.drillsnap"), "{names:?}");
    assert!(
        names.iter().any(|n| n.starts_with("ring-")),
        "no ring snapshots dumped: {names:?}"
    );
    let meta = std::fs::read_to_string(dir.join("anomaly.meta")).unwrap();
    assert!(meta.contains("kind=packet_conservation"), "{meta}");

    // Deterministic: a second run (no dump dir) reports the identical
    // first trip.
    let (_, again) = run_audited(&leak_cfg(None));
    assert!(!again.is_empty());
    assert_eq!(again[0].at, first.at);
    assert_eq!(again[0].events, first.events);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A run whose receiver discards flow 0's data packets from t = 0, with
/// a 1 ms stall threshold.
fn blackhole_cfg() -> ExperimentConfig {
    let mut cfg = audited(small_leaf_spine(), Scheme::drill_default(), 0.4);
    cfg.drain = Time::from_millis(30);
    cfg.audit = Some(AuditSpec {
        every_events: 2_000,
        stuck_after: Time::from_millis(1),
        ..AuditSpec::default()
    });
    cfg.sabotage = Some(SabotageSpec {
        at: Time::from_nanos(0),
        kind: SabotageKind::BlackholeFlow { flow: 0 },
    });
    cfg
}

/// Negative control: blackholing one flow's data packets (every ACK
/// starves) trips `StuckFlow` for exactly that flow.
#[test]
fn blackholed_flow_trips_stuck_flow() {
    let (_, reports) = run_audited(&blackhole_cfg());
    assert!(
        reports
            .iter()
            .any(|r| matches!(r.kind, AnomalyKind::StuckFlow { flow: 0, .. })),
        "no StuckFlow for flow 0: {reports:?}"
    );
}

/// A stall in an idle fabric is still seen: one flow whose only path
/// drops every packet for 3 × `stuck_after` spans a few thousand events,
/// well short of one event-counted boundary, and the boundaries counted
/// in simulated time report it stuck.
#[test]
fn stall_in_an_idle_fabric_trips_stuck_flow() {
    let topo = TopoSpec::LeafSpine(LeafSpineSpec {
        spines: 1,
        leaves: 2,
        hosts_per_leaf: 1,
        host_rate: 10_000_000_000,
        core_rate: 10_000_000_000,
        prop: DEFAULT_PROP,
    });
    let (a, b) = random_leaf_spine_failures(&topo.build(), 1, 1)[0];
    let stuck_after = Time::from_millis(20);
    let mut cfg = ExperimentConfig::new(topo, Scheme::Ecmp, 0.0);
    cfg.duration = Time::from_millis(1);
    cfg.static_flows = vec![(0, 1, 1_000_000)];
    cfg.tcp.rto_init = Time::from_millis(1);
    cfg.tcp.rto_min = Time::from_millis(1);
    cfg.tcp.rto_max = Time::from_millis(8);
    let mut s = FaultSchedule::default();
    s.lossy_window(a, b, 1_000_000, Time::ZERO, stuck_after.mul(3));
    cfg.faults = Some(s);
    cfg.audit = Some(AuditSpec {
        stuck_after,
        ..AuditSpec::default()
    });
    let (stats, reports) = run_audited(&cfg);
    assert!(
        stats.events < AuditSpec::default().every_events,
        "{} events reach an event-counted boundary",
        stats.events
    );
    assert!(
        stats.bytes_delivered >= 1_000_000,
        "the transfer completes once the loss clears"
    );
    assert!(
        reports
            .iter()
            .any(|r| matches!(r.kind, AnomalyKind::StuckFlow { flow: 0, .. })),
        "no StuckFlow for flow 0: {reports:?}"
    );
}

/// Every entry point honours `cfg.audit`: the leak run driven stepwise
/// through `World::new` reports exactly what `run_audited` reports.
#[test]
fn stepwise_world_honours_the_audit_spec() {
    let cfg = leak_cfg(None);
    let (_, straight) = run_audited(&cfg);
    assert!(!straight.is_empty(), "leak went unnoticed");
    let mut w = World::new(&cfg);
    for us in [300, 700, 1_500] {
        w.run_to(Time::from_micros(us));
    }
    let (stats, _, stepwise) = w.finish_parts();
    assert_eq!(stepwise, straight);
    assert_eq!(stats.anomalies, straight.len() as u64);
}

/// A bit-flipped snapshot never decodes: the FNV-1a trailer catches the
/// flip, and the decode error maps onto a typed `CorruptSnapshot` report.
#[test]
fn bit_flipped_snapshot_maps_to_corrupt_snapshot() {
    let cfg = {
        let mut c = audited(small_leaf_spine(), Scheme::drill_default(), 0.4);
        c.audit = None;
        c
    };
    let mut w = World::new(&cfg);
    w.run_to(Time::from_micros(800));
    let mut bytes = w.snapshot().to_bytes();

    // Flip one bit somewhere in the body (past the magic, before the
    // checksum trailer).
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    let err = match Snapshot::from_bytes(&bytes) {
        Err(e) => e,
        Ok(snap) => World::restore(&snap, &cfg)
            .err()
            .expect("corrupt snapshot restored cleanly"),
    };
    let report = AnomalyReport::from_decode_error(&err, Time::from_micros(800), 1234);
    match &report.kind {
        AnomalyKind::CorruptSnapshot { detail } => {
            assert!(!detail.is_empty());
        }
        k => panic!("expected CorruptSnapshot, got {k:?}"),
    }
    assert_eq!(report.kind.name(), "corrupt_snapshot");
    assert!(report.meta_lines().iter().any(|l| l.starts_with("kind=")));
}

/// The typed codec error carries the section tag and byte offset through
/// the `io::Error` wrapper: a structurally valid `DRILLSNAP` container
/// whose META section is truncated mid-varint surfaces a downcastable
/// `CodecError` naming section 1.
#[test]
fn truncated_section_carries_typed_codec_error() {
    let cfg = {
        let mut c = audited(small_leaf_spine(), Scheme::drill_default(), 0.4);
        c.audit = None;
        c
    };
    // Section tag 1 is SEC_META, the first section restore decodes. A
    // lone 0x80 is a varint continuation byte with no terminator.
    let mut b = SnapshotBuilder::new();
    b.section(1, vec![0x80]);
    let snap = b.finish();
    let err = match World::restore(&snap, &cfg) {
        Err(e) => e,
        Ok(_) => panic!("truncated META decoded"),
    };
    let ce = codec_error(&err).expect("error downcasts to CodecError");
    assert_eq!(ce.section, Some(1), "wrong section tag: {ce:?}");
    assert_eq!(ce.offset, Some(1), "wrong byte offset: {ce:?}");
}

/// The full hands-free loop: sabotage → trip → dump → rewind-replay
/// from `anomaly.meta` alone, with a flight recorder attached. The replay
/// must start at the newest clean ring snapshot, cover the window
/// (recorder events present) and stop at the anomaly's event count.
#[test]
fn rewind_replay_covers_the_anomaly_window() {
    let dir = scratch_dir("rewind");
    let cfg = leak_cfg(Some(dir.clone()));
    let (_, reports) = run_audited(&cfg);
    assert!(!reports.is_empty());

    let (meta, w) = rewind_replay(&dir, &cfg, recorder_for(&cfg)).expect("ring snapshot restores");
    let anomaly_events = meta.events;
    assert!(meta.rewind_events < anomaly_events);
    assert_eq!(w.events_processed(), meta.rewind_events);
    let (stats, recorder, _reports) = w.finish_parts();
    assert!(
        stats.events >= anomaly_events && stats.events <= anomaly_events + 1,
        "replay ran past the anomaly: {} vs {anomaly_events}",
        stats.events
    );
    assert!(
        recorder.event_count() > 0,
        "replay window captured no recorder events"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A flight recorder sized for `cfg`'s fabric.
fn recorder_for(cfg: &ExperimentConfig) -> FlightRecorder {
    FlightRecorder::new(cfg.topo.build().num_switches(), cfg.engines, 4096)
}

/// Rewind-replay serves any audited run's dump, not one pinned demo: a
/// blackholed flow's `StuckFlow` dump rewinds to its own newest clean
/// snapshot and replays to the tripped boundary.
#[test]
fn rewind_replay_reaches_a_stuck_flow_boundary() {
    let dir = scratch_dir("stuck");
    let mut cfg = blackhole_cfg();
    cfg.audit.as_mut().unwrap().dump_dir = Some(dir.clone());
    let (_, reports) = run_audited(&cfg);
    assert!(
        matches!(reports[0].kind, AnomalyKind::StuckFlow { flow: 0, .. }),
        "{reports:?}"
    );

    let (meta, w) = rewind_replay(&dir, &cfg, recorder_for(&cfg)).expect("ring snapshot restores");
    assert_eq!(meta.kind, "stuck_flow");
    assert_eq!((meta.at, meta.events), (reports[0].at, reports[0].events));
    assert!(meta.rewind_events < meta.events);
    assert_eq!(w.events_processed(), meta.rewind_events);
    let (stats, recorder, replay_reports) = w.finish_parts();
    assert!(
        stats.events >= meta.events && stats.events <= meta.events + 1,
        "replay ran past the anomaly: {} vs {}",
        stats.events,
        meta.events
    );
    assert!(recorder.event_count() > 0);
    assert!(replay_reports.is_empty(), "the replay runs unaudited");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A ring snapshot with one bit flipped is refused with an error.
#[test]
fn rewind_replay_refuses_a_bit_flipped_ring_snapshot() {
    let dir = scratch_dir("flip");
    let cfg = leak_cfg(Some(dir.clone()));
    run_audited(&cfg);
    let ring = AnomalyMeta::read(&dir).unwrap().rewind;
    let mut bytes = std::fs::read(&ring).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&ring, bytes).unwrap();

    assert!(rewind_replay(&dir, &cfg, NoopProbe).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A config that describes another experiment shape than the one that
/// wrote the dump is refused with an error.
#[test]
fn rewind_replay_refuses_a_mismatched_config() {
    let dir = scratch_dir("mismatch");
    let cfg = leak_cfg(Some(dir.clone()));
    run_audited(&cfg);
    let mut other = cfg.clone();
    if let TopoSpec::LeafSpine(spec) = &mut other.topo {
        spec.hosts_per_leaf += 1;
    }

    let err = rewind_replay(&dir, &other, NoopProbe)
        .err()
        .expect("mismatch restored");
    assert!(err.to_string().contains("differs from config"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
