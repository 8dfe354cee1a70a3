//! `DRILLSNAP` resume goldens: a run checkpointed at time T and restored
//! from the serialized bytes — as a fresh process would — must replay
//! bit-identically to the uninterrupted run. The same discipline as
//! `determinism_golden.rs`, extended over a save/restore boundary.

use drill::faults::FaultSchedule;
use drill::net::{LeafSpineSpec, DEFAULT_PROP};
use drill::runtime::{
    random_leaf_spine_failures, run, CheckpointPolicy, CheckpointSpec, ExperimentConfig, RunStats,
    Scheme, Snapshot, SweepSpec, TopoSpec, World,
};
use drill::sim::Time;

fn golden_cfg(scheme: Scheme) -> ExperimentConfig {
    let topo = TopoSpec::LeafSpine(LeafSpineSpec {
        spines: 4,
        leaves: 4,
        hosts_per_leaf: 2,
        host_rate: 10_000_000_000,
        core_rate: 40_000_000_000,
        prop: DEFAULT_PROP,
    });
    let mut cfg = ExperimentConfig::new(topo, scheme, 0.4);
    cfg.seed = 0xD211;
    cfg.duration = Time::from_millis(3);
    cfg.drain = Time::from_millis(50);
    cfg.warmup = Time::from_micros(100);
    cfg
}

fn tiny_cfg(scheme: Scheme) -> ExperimentConfig {
    let topo = TopoSpec::LeafSpine(LeafSpineSpec {
        spines: 2,
        leaves: 2,
        hosts_per_leaf: 2,
        host_rate: 10_000_000_000,
        core_rate: 40_000_000_000,
        prop: DEFAULT_PROP,
    });
    let mut cfg = ExperimentConfig::new(topo, scheme, 0.3);
    cfg.duration = Time::from_millis(2);
    cfg.drain = Time::from_millis(50);
    cfg.warmup = Time::from_micros(100);
    cfg
}

/// Every metric a figure reads (same slots as `determinism_golden.rs`),
/// floats by bit pattern.
fn full_fingerprint(st: &mut RunStats) -> Vec<u64> {
    let mut fp = vec![
        st.flows_started,
        st.flows_completed,
        st.events,
        st.gro_batches,
        st.data_pkts_delivered,
        st.retransmissions,
        st.timeouts,
        st.blackholed,
        st.nic_drops,
        st.sim_end.as_nanos(),
        st.fct_ms.count() as u64,
        st.fct_incast_ms.count() as u64,
        st.fct_mice_ms.count() as u64,
        st.elephant_gbps.count() as u64,
        st.dupacks.total(),
        st.reorders.total(),
        st.queue_stdv.count(),
        st.queue_stdv.mean().to_bits(),
        st.mean_fct_ms().to_bits(),
        st.fct_ms.quantile(0.5).to_bits(),
        st.fct_ms.quantile(0.99).to_bits(),
        st.fct_ms.quantile(0.9999).to_bits(),
        st.dupacks.frac(0).to_bits(),
        st.reorders.frac(0).to_bits(),
        st.elephant_gbps.mean().to_bits(),
        st.fault_events,
        st.reconvergences,
        st.fault_blackholed,
        st.fault_window_ns,
        st.stable_at.as_nanos(),
        st.fct_fault_ms.count() as u64,
        st.fct_fault_ms.mean().to_bits(),
        st.fct_clear_ms.count() as u64,
        st.fct_clear_ms.mean().to_bits(),
        st.bytes_delivered,
        st.fct_ms.digest(),
        st.arena_live_at_end,
    ];
    fp.extend_from_slice(&st.hops.wait_ns);
    fp.extend_from_slice(&st.hops.wait_samples);
    fp.extend_from_slice(&st.hops.drops);
    fp.extend_from_slice(&st.hops.tx);
    fp
}

/// Run `cfg` to `at`, serialize, decode the bytes back (the fresh-process
/// boundary), restore, and run to completion.
fn snapshot_resume(cfg: &ExperimentConfig, at: Time) -> RunStats {
    let mut w = World::new(cfg);
    w.run_to(at);
    let bytes = w.snapshot().to_bytes();
    drop(w);
    let snap = Snapshot::from_bytes(&bytes).expect("round-trip decode");
    World::restore(&snap, cfg).expect("restore").finish()
}

/// The central golden: checkpoint the golden config mid-run, restore from
/// bytes, and demand the full fingerprint — FCT digest and arena leak
/// check included — match the uninterrupted run.
#[test]
fn resume_replays_uninterrupted_run() {
    for scheme in [Scheme::Ecmp, Scheme::drill_default()] {
        let cfg = golden_cfg(scheme);
        let mut cold = run(&cfg);
        let mut resumed = snapshot_resume(&cfg, Time::from_millis(1));
        assert_eq!(
            full_fingerprint(&mut cold),
            full_fingerprint(&mut resumed),
            "{} resumed at 1ms diverged from the uninterrupted run",
            scheme.name()
        );
    }
}

/// The resumed run also replays the pinned golden constants — the same
/// numbers `determinism_golden.rs` pins for uninterrupted runs.
#[test]
fn resumed_run_hits_pinned_goldens() {
    for (scheme, events, started, completed) in [
        (Scheme::Ecmp, 1_282_646, 1060, 1058),
        (Scheme::drill_default(), 1_283_055, 1060, 1058),
    ] {
        let st = snapshot_resume(&golden_cfg(scheme), Time::from_micros(1500));
        assert_eq!(
            (st.events, st.flows_started, st.flows_completed),
            (events, started, completed),
            "{} diverged from its golden trace across the resume boundary",
            scheme.name()
        );
        assert_eq!(st.arena_live_at_end, 0, "{} leaked", scheme.name());
    }
}

/// Re-snapshotting a just-restored world reproduces the original bytes:
/// the encoding is canonical, so resumed checkpoints don't drift.
#[test]
fn snapshot_roundtrip_is_canonical() {
    let cfg = tiny_cfg(Scheme::drill_default());
    let mut w = World::new(&cfg);
    w.run_to(Time::from_millis(1));
    let bytes = w.snapshot().to_bytes();
    let snap = Snapshot::from_bytes(&bytes).unwrap();
    let again = World::restore(&snap, &cfg).unwrap().snapshot().to_bytes();
    assert_eq!(bytes, again, "restore → snapshot changed the state");
}

/// Seeded randomized round-trips: many snapshot instants across schemes
/// (shim and shim-less, host-policy-stateful Presto included), each
/// restored from bytes and run to completion against the cold run.
#[test]
fn randomized_snapshot_instants_roundtrip() {
    // xorshift64*: fixed-seed pseudorandom snapshot times in [50µs, 2.3ms].
    let mut s: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next_at = || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        let r = s.wrapping_mul(0x2545_F491_4F6C_DD1D);
        Time::from_nanos(50_000 + r % 2_250_000)
    };
    for scheme in [Scheme::drill_default(), Scheme::Random, Scheme::presto()] {
        let cfg = tiny_cfg(scheme);
        let mut cold = run(&cfg);
        let cold_fp = full_fingerprint(&mut cold);
        for _ in 0..3 {
            let at = next_at();
            let mut resumed = snapshot_resume(&cfg, at);
            assert_eq!(
                cold_fp,
                full_fingerprint(&mut resumed),
                "{} resumed at {at:?} diverged",
                scheme.name()
            );
        }
    }
}

/// `determinism_golden.rs`'s timeout-heavy config (30 KB queues at load
/// 0.9 under a 1–8 ms RTO): no other config here ever fires an RTO, so
/// none notices timer state a snapshot forgot. Most of each run's
/// hundreds of timeouts fall after these restore points; they fire only
/// if every flow's deadline and live-wake time came back with it.
#[test]
fn resume_replays_timeouts_after_the_restore_point() {
    for scheme in [Scheme::Ecmp, Scheme::drill_default(), Scheme::presto()] {
        let mut cfg = golden_cfg(scheme);
        cfg.topo = TopoSpec::LeafSpine(LeafSpineSpec {
            spines: 4,
            leaves: 4,
            hosts_per_leaf: 4,
            host_rate: 10_000_000_000,
            core_rate: 10_000_000_000,
            prop: DEFAULT_PROP,
        });
        cfg.workload.load = 0.9;
        cfg.duration = Time::from_millis(4);
        cfg.drain = Time::from_millis(60);
        cfg.queue_limit_bytes = 30_000;
        cfg.tcp.rto_min = Time::from_millis(1);
        cfg.tcp.rto_init = Time::from_millis(1);
        cfg.tcp.rto_max = Time::from_millis(8);
        let mut cold = run(&cfg);
        assert!(cold.timeouts >= 100, "{}: {}", scheme.name(), cold.timeouts);
        let cold_fp = full_fingerprint(&mut cold);
        // Mid-window (restarts, back-offs and shrinks all in flight) and
        // early in the drain (long backed-off deadlines pending).
        for us in [2_000u64, 4_500] {
            let mut resumed = snapshot_resume(&cfg, Time::from_micros(us));
            assert_eq!(
                cold_fp,
                full_fingerprint(&mut resumed),
                "{} resumed at {us}µs diverged",
                scheme.name()
            );
        }
    }
}

/// `determinism_golden.rs`'s cut-off raw-packet config: no other config
/// here runs raw mode, whose unsent backlog lives in NIC train descriptors
/// and whose flows leave only counters behind. At each restore point most
/// NICs hold a half-sent train (and at the end still do: the 200 µs drain
/// cuts the run off), so a train field or counter the snapshot forgot
/// shows in the fingerprint.
#[test]
fn resume_replays_raw_trains() {
    let mut cfg = golden_cfg(Scheme::drill_no_shim());
    cfg.workload.load = 0.9;
    cfg.workload.burst_sigma = 2.0;
    cfg.raw_packet_mode = true;
    cfg.sample_queues = true;
    cfg.queue_limit_bytes = 20_000_000;
    cfg.drain = Time::from_micros(200);
    let mut cold = run(&cfg);
    assert!(cold.nic_drops > 0 && cold.arena_live_at_end > 0);
    let cold_fp = full_fingerprint(&mut cold);
    for us in [300u64, 1_000, 2_500] {
        let mut resumed = snapshot_resume(&cfg, Time::from_micros(us));
        assert_eq!(
            cold_fp,
            full_fingerprint(&mut resumed),
            "raw run resumed at {us}µs diverged"
        );
    }
}

/// The pinned chaos schedule of `determinism_golden.rs`: snapshots taken
/// inside a fault window (reconvergence pending) and after recovery must
/// both resume bit-identically — this exercises the applied-prefix
/// replay, the route recompute at the reconvergence boundary, and
/// re-injection of the not-yet-struck suffix.
#[test]
fn mid_fault_snapshot_resumes_bit_identically() {
    let mut cfg = golden_cfg(Scheme::drill_default());
    let built = cfg.topo.build();
    let pairs = random_leaf_spine_failures(&built, 2, 0xC405);
    let mut s = FaultSchedule::new(Time::from_micros(300));
    s.link_flap(
        pairs[0].0,
        pairs[0].1,
        Time::from_micros(500),
        Time::from_micros(900),
    );
    s.switch_outage(pairs[1].1, Time::from_micros(1800), Time::from_micros(2300));
    cfg.faults = Some(s);
    let mut cold = run(&cfg);
    let cold_fp = full_fingerprint(&mut cold);
    assert!(cold.fault_events >= 4, "schedule actually struck");
    // 700µs: flap down, reconvergence pending. 1500µs: recovered, next
    // outage still in the future. 2000µs: mid-outage.
    for us in [700u64, 1500, 2000] {
        let mut resumed = snapshot_resume(&cfg, Time::from_micros(us));
        assert_eq!(
            cold_fp,
            full_fingerprint(&mut resumed),
            "chaos run resumed at {us}µs diverged"
        );
    }
}

/// `ExperimentConfig::checkpoint`: the event loop writes the snapshot
/// file at the configured point, and a fresh process loading that file
/// finishes with the uninterrupted run's exact results — the
/// crash-recovery path `scalebench --checkpoint-every` smokes end to end.
#[test]
fn checkpoint_policy_files_are_resumable() {
    let dir = std::env::temp_dir();
    for (tag, policy) in [
        ("at", CheckpointPolicy::AtTime(Time::from_millis(1))),
        // The tiny run processes ~150k events, so the file is rewritten
        // three times; the survivor is the 150k-event checkpoint.
        ("every", CheckpointPolicy::EveryEvents(50_000)),
    ] {
        let path = dir.join(format!("drillsnap-test-{}-{tag}.snap", std::process::id()));
        let mut cfg = tiny_cfg(Scheme::drill_default());
        cfg.checkpoint = Some(CheckpointSpec {
            policy,
            path: path.clone(),
        });
        let mut cold = run(&cfg);
        let snap = Snapshot::load(&path).expect("checkpoint file written");
        std::fs::remove_file(&path).ok();
        cfg.checkpoint = None;
        let mut resumed = World::restore(&snap, &cfg).unwrap().finish();
        assert_eq!(
            full_fingerprint(&mut cold),
            full_fingerprint(&mut resumed),
            "resume from {tag}-policy checkpoint diverged"
        );
    }
}

/// Warm-started sweeps produce tables byte-identical to cold sweeps:
/// variants fork divergent fault timelines off one shared warmed-up
/// snapshot per (scheme, load, engines, rep) group.
#[test]
fn warm_start_sweep_matches_cold_sweep() {
    let spec = || {
        let mut base = tiny_cfg(Scheme::Ecmp);
        base.drain = Time::from_millis(30);
        let pair = random_leaf_spine_failures(&base.topo.build(), 1, 7)[0];
        SweepSpec::new(base)
            .schemes(vec![Scheme::Ecmp, Scheme::drill_default()])
            .variants(vec!["clear", "flap"])
            .reps(2)
            .threads(4)
            .configure(move |cfg, p| {
                if p.variant == "flap" {
                    let mut s = FaultSchedule::new(Time::from_micros(200));
                    s.link_flap(
                        pair.0,
                        pair.1,
                        Time::from_micros(1300),
                        Time::from_micros(1700),
                    );
                    cfg.faults = Some(s);
                }
            })
    };
    let cold = spec().run().into_stats();
    let warm = spec().warm_start(Time::from_millis(1)).run().into_stats();
    assert_eq!(cold.len(), warm.len());
    for (i, (mut c, mut w)) in cold.into_iter().zip(warm).enumerate() {
        assert_eq!(
            full_fingerprint(&mut c),
            full_fingerprint(&mut w),
            "warm-started point {i} diverged from the cold sweep"
        );
    }
}

/// A variant whose fault timeline diverges *before* the snapshot point
/// violates the warm-start contract and must be rejected loudly.
#[test]
#[should_panic(expected = "incompatible with its group snapshot")]
fn warm_start_rejects_pre_snapshot_divergence() {
    let mut base = tiny_cfg(Scheme::Ecmp);
    let pair = random_leaf_spine_failures(&base.topo.build(), 1, 7)[0];
    base.drain = Time::from_millis(30);
    SweepSpec::new(base)
        .variants(vec!["clear", "early-flap"])
        .threads(1)
        .configure(move |cfg, p| {
            if p.variant == "early-flap" {
                let mut s = FaultSchedule::new(Time::from_micros(200));
                s.link_flap(
                    pair.0,
                    pair.1,
                    Time::from_micros(300),
                    Time::from_micros(600),
                );
                cfg.faults = Some(s);
            }
        })
        .warm_start(Time::from_millis(1))
        .run();
}

/// Restoring against an incompatible config errors instead of silently
/// simulating the wrong experiment.
#[test]
fn restore_rejects_mismatched_configs() {
    let cfg = tiny_cfg(Scheme::drill_default());
    let mut w = World::new(&cfg);
    w.run_to(Time::from_millis(1));
    let snap = w.snapshot();
    drop(w);

    let mut bigger = cfg.clone();
    bigger.topo = TopoSpec::LeafSpine(LeafSpineSpec {
        spines: 2,
        leaves: 2,
        hosts_per_leaf: 4,
        host_rate: 10_000_000_000,
        core_rate: 40_000_000_000,
        prop: DEFAULT_PROP,
    });
    assert!(World::restore(&snap, &bigger).is_err(), "host count");

    let mut engines = cfg.clone();
    engines.engines = 4;
    assert!(World::restore(&snap, &engines).is_err(), "engine count");
}

/// A divergent fault prefix — a strike the snapshot already applied that
/// the restore timeline disagrees with — is rejected.
#[test]
fn restore_rejects_divergent_applied_fault_prefix() {
    let mut cfg = tiny_cfg(Scheme::Ecmp);
    let pairs = random_leaf_spine_failures(&cfg.topo.build(), 2, 11);
    let schedule = |pair: (u32, u32)| {
        let mut s = FaultSchedule::new(Time::from_micros(200));
        s.link_flap(
            pair.0,
            pair.1,
            Time::from_micros(400),
            Time::from_micros(800),
        );
        s
    };
    cfg.faults = Some(schedule(pairs[0]));
    let mut w = World::new(&cfg);
    w.run_to(Time::from_millis(1));
    let snap = w.snapshot();
    drop(w);

    let mut forked = cfg.clone();
    forked.faults = Some(schedule(pairs[1]));
    let err = match World::restore(&snap, &forked) {
        Ok(_) => panic!("divergent applied prefix restored"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("prefix diverges"),
        "unexpected error: {err}"
    );
}

/// End-to-end corruption hardening: truncations and bit flips of the
/// serialized bytes surface as errors — from the container decoder or the
/// state decoder — never as a panic or a silently wrong world.
#[test]
fn corrupted_snapshot_bytes_never_restore() {
    let cfg = tiny_cfg(Scheme::drill_default());
    let mut w = World::new(&cfg);
    w.run_to(Time::from_micros(500));
    let bytes = w.snapshot().to_bytes();
    drop(w);
    assert!(Snapshot::from_bytes(&bytes).is_ok());

    for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            Snapshot::from_bytes(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes decoded"
        );
    }
    let mut pos = 3usize;
    while pos < bytes.len() {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x40;
        if let Ok(snap) = Snapshot::from_bytes(&bad) {
            // The container checksum catches almost every flip; anything
            // that slips through must fail in the state decoder.
            assert!(
                World::restore(&snap, &cfg).is_err(),
                "bit flip at {pos} restored"
            );
        }
        pos += 97;
    }
}
