//! Determinism goldens: a fixed seed must reproduce bit-identical run
//! outcomes across machines, runs, *and refactors of the event core*.
//!
//! The constants below were captured from a run of this configuration; if
//! a change breaks them it has changed simulation behaviour — event
//! delivery order, RNG streams, or the TCP/switch models — and is not a
//! pure refactor. Update the constants only when a behaviour change is
//! intended, and say so in the commit.

use drill::faults::FaultSchedule;
use drill::net::{ClosSpec, LeafSpineSpec, DEFAULT_PROP};
use drill::runtime::{
    random_leaf_spine_failures, run, run_recorded, ExperimentConfig, RunStats, Scheme, ShardSpec,
    SweepSpec, TelemetrySpec, TopoSpec,
};
use drill::sim::Time;
use drill::stats::Distribution;

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
    // CI runs the golden suite twice: plain, and with DRILL_TELEMETRY=1 to
    // prove the flight recorder leaves every golden constant untouched.
    if std::env::var("DRILL_TELEMETRY").as_deref() == Ok("1") {
        cfg.telemetry = Some(TelemetrySpec::default());
    }
    // Same contract for the invariant auditor: DRILL_AUDIT=1 attaches the
    // watchdogs, and every golden constant must survive unchanged.
    if std::env::var("DRILL_AUDIT").as_deref() == Ok("1") {
        cfg.audit = Some(drill::runtime::AuditSpec::default());
    }
    cfg
}

fn golden_run(scheme: Scheme) -> RunStats {
    run(&golden_cfg(scheme))
}

/// Every metric a figure reads, floats by bit pattern (`to_bits`): any
/// behavioural difference between two runs of the same config shows here.
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
    ];
    fp.extend_from_slice(&st.hops.wait_ns);
    fp.extend_from_slice(&st.hops.wait_samples);
    fp.extend_from_slice(&st.hops.drops);
    fp.extend_from_slice(&st.hops.tx);
    // Appended last: earlier slots are indexed by position (see the chaos
    // test's point[25..29] reads, which the slots below must not shift).
    fp.push(st.bytes_delivered);
    fp.push(st.fct_ms.digest());
    fp.push(st.arena_live_at_end);
    fp
}

fn assert_golden(scheme: Scheme, events: u64, flows_started: u64, flows_completed: u64) {
    let stats = golden_run(scheme);
    assert_eq!(
        (stats.events, stats.flows_started, stats.flows_completed),
        (events, flows_started, flows_completed),
        "{} diverged from its golden trace",
        scheme.name()
    );
    // Arena leak check: the drain phase runs until the network empties, so
    // every packet interned during the run must have been taken (delivered)
    // or freed (dropped) by the end.
    assert_eq!(
        stats.arena_live_at_end,
        0,
        "{} leaked packet-arena slots",
        scheme.name()
    );
}

#[test]
fn ecmp_replays_golden_trace() {
    assert_golden(Scheme::Ecmp, 1_282_646, 1060, 1058);
}

#[test]
fn drill_2_1_replays_golden_trace() {
    assert_golden(Scheme::drill_default(), 1_283_055, 1060, 1058);
}

#[test]
fn random_replays_golden_trace() {
    assert_golden(Scheme::Random, 1_294_326, 1060, 1060);
}

/// The telemetry determinism contract: a run with the flight recorder +
/// queue sampler attached must match the probe-free build on *every*
/// metric, bit for bit — the probes observe the simulation but carry no
/// way to steer it (no RNG, event-queue or packet access).
#[test]
fn telemetry_probe_is_invisible_to_every_metric() {
    for scheme in [Scheme::Ecmp, Scheme::drill_default()] {
        let mut cfg = golden_cfg(scheme);
        cfg.telemetry = None;
        let mut plain = run(&cfg);
        cfg.telemetry = Some(TelemetrySpec::default());
        let (mut recorded, tel) = run_recorded(&cfg);
        assert!(
            tel.recorder.event_count() > 10_000,
            "{}: recorder actually saw the run",
            scheme.name()
        );
        assert_eq!(
            full_fingerprint(&mut plain),
            full_fingerprint(&mut recorded),
            "{}: telemetry perturbed the simulation",
            scheme.name()
        );
    }
}

/// The pinned chaos schedule for the golden topology: two link flaps, one
/// capacity degradation, and one full switch crash + recovery, all inside
/// the 3 ms arrival window. Pair selection goes through
/// `random_leaf_spine_failures` with a fixed seed, so the schedule is a
/// deterministic function of the topology alone.
fn chaos_schedule(topo: &TopoSpec) -> FaultSchedule {
    let built = topo.build();
    let pairs = random_leaf_spine_failures(&built, 4, 0xC405);
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

/// Chaos determinism golden: a nontrivial fault schedule (flaps +
/// degradation + switch crash/recover, with staged reconvergence) must
/// replay bit-identically across serial vs 8-thread sweep execution and
/// with the telemetry recorder on vs off. This pins the entire fault
/// pipeline — injection order, detection-window bookkeeping, atomic
/// reinstall — to the deterministic-replay contract.
#[test]
fn chaos_schedule_replays_bit_identically_across_threads_and_telemetry() {
    let fingerprint = |telemetry: bool, threads: Option<usize>| -> Vec<Vec<u64>> {
        let mut base = golden_cfg(Scheme::drill_default());
        base.telemetry = telemetry.then(TelemetrySpec::default);
        base.faults = Some(chaos_schedule(&base.topo));
        let mut spec = SweepSpec::new(base)
            .schemes(vec![Scheme::Ecmp, Scheme::drill_default()])
            .loads(vec![0.4]);
        let res = if let Some(t) = threads {
            spec = spec.threads(t);
            spec.run()
        } else {
            spec.run_serial()
        };
        res.into_stats()
            .into_iter()
            .map(|mut st| full_fingerprint(&mut st))
            .collect()
    };

    let serial = fingerprint(false, None);
    assert_eq!(serial.len(), 2);
    // The schedule actually fired: 2 flaps (4 events) + degrade window
    // (2) + switch outage (2) = 8, with at least one reconvergence and a
    // nonempty graceful-degradation window on every scheme.
    for (point, scheme) in serial.iter().zip(["ECMP", "DRILL(2,1)"]) {
        // full_fingerprint positions: fault_events is directly after the
        // 25 headline slots (see the vec! above).
        let fault_events = point[25];
        let reconvergences = point[26];
        let window_ns = point[28];
        assert_eq!(fault_events, 8, "{scheme}: schedule did not fully fire");
        assert!(reconvergences >= 1, "{scheme}: no reconvergence happened");
        assert!(window_ns > 0, "{scheme}: no degradation window recorded");
        // Leak check under chaos: blackholed, fault-dropped and
        // rebuild-discarded packets must all release their arena slots
        // (arena_live_at_end is the last fingerprint slot).
        let arena_live = *point.last().expect("nonempty fingerprint");
        assert_eq!(arena_live, 0, "{scheme}: leaked packet-arena slots");
    }

    for telemetry in [false, true] {
        for threads in [Some(1), Some(8)] {
            assert_eq!(
                serial,
                fingerprint(telemetry, threads),
                "chaos replay diverged (telemetry={telemetry}, threads={threads:?})"
            );
        }
    }
    // Telemetry-on serial replay matches too.
    assert_eq!(serial, fingerprint(true, None));
}

/// Satellite regression: fault events scheduled after the last packet has
/// drained must be inert — filtered at prime time, never enqueued — so
/// they neither hang the timing wheel waiting on far-future slots nor
/// perturb a single stat relative to the fault-free run.
#[test]
fn post_drain_faults_are_inert() {
    let cfg = golden_cfg(Scheme::drill_default());
    let mut plain = run(&cfg);

    let mut chaotic_cfg = golden_cfg(Scheme::drill_default());
    let topo = chaotic_cfg.topo.build();
    let pairs = random_leaf_spine_failures(&topo, 1, 0xC405);
    let past = chaotic_cfg.duration + chaotic_cfg.drain + Time::from_millis(1);
    let mut s = FaultSchedule::new(Time::from_micros(300));
    s.link_flap(pairs[0].0, pairs[0].1, past, past + Time::from_millis(2));
    s.switch_outage(
        pairs[0].1,
        past + Time::from_millis(5),
        past + Time::from_millis(6),
    );
    chaotic_cfg.faults = Some(s);
    let mut chaotic = run(&chaotic_cfg);

    assert_eq!(chaotic.fault_events, 0, "post-drain faults must never fire");
    assert_eq!(
        full_fingerprint(&mut plain),
        full_fingerprint(&mut chaotic),
        "post-drain fault schedule perturbed the simulation"
    );
}

/// The executor's determinism contract, tested differentially: the same
/// sweep grid run serially and on 1/2/8-thread pools must agree bit for
/// bit on every per-point metric — event counts exactly, floating-point
/// aggregates via `to_bits` (not an epsilon).
#[test]
fn sweep_results_are_bit_identical_across_thread_counts() {
    let topo = TopoSpec::LeafSpine(LeafSpineSpec {
        spines: 2,
        leaves: 2,
        hosts_per_leaf: 2,
        host_rate: 10_000_000_000,
        core_rate: 10_000_000_000,
        prop: DEFAULT_PROP,
    });
    let mut base = ExperimentConfig::new(topo, Scheme::Ecmp, 0.3);
    base.seed = 0xD211;
    base.duration = Time::from_millis(2);
    base.drain = Time::from_millis(50);
    base.sample_queues = true;
    let spec = |threads: Option<usize>| {
        let mut s = SweepSpec::new(base.clone())
            .schemes(vec![Scheme::Ecmp, Scheme::drill_default()])
            .loads(vec![0.3, 0.8])
            .reps(2);
        if let Some(t) = threads {
            s = s.threads(t);
        }
        s
    };

    // Fingerprint every per-point metric the figures read, with float
    // bits so "close enough" cannot mask a divergence.
    let fingerprint =
        |res: drill::runtime::SweepResults| -> Vec<(u64, u64, u64, u64, u64, u64, u64)> {
            res.into_stats()
                .into_iter()
                .map(|mut st| {
                    (
                        st.events,
                        st.flows_completed,
                        st.queue_stdv.mean().to_bits(),
                        st.queue_stdv.count(),
                        st.fct_ms.quantile(0.50).to_bits(),
                        st.fct_ms.quantile(0.9999).to_bits(),
                        st.fct_ms.count() as u64,
                    )
                })
                .collect()
        };

    let serial = fingerprint(spec(None).run_serial());
    assert_eq!(serial.len(), 8);
    // The grid is not degenerate: loads differ, so points differ.
    assert_ne!(serial[0], serial[4]);
    for threads in [1usize, 2, 8] {
        let parallel = fingerprint(spec(Some(threads)).run());
        assert_eq!(
            serial, parallel,
            "sweep diverged from serial replay at {threads} threads"
        );
    }
}

/// `ShardSpec` is an inert shim kept for the frozen benchmark, whose
/// `Shards2` variant attaches `ShardSpec::count(2)` and demands the plain
/// run's digest: the spec must steer nothing, and both shard counters the
/// benchmark reads stay 0.
#[test]
fn shard_spec_shim_is_inert() {
    for scheme in [Scheme::Ecmp, Scheme::drill_default()] {
        let fingerprint = |count: usize| {
            let mut cfg = golden_cfg(scheme);
            cfg.shards = Some(ShardSpec::count(count));
            let mut st = run(&cfg);
            assert_eq!(
                (st.shard_handoffs, st.shard_windows),
                (0, 0),
                "{}: a shard counter moved",
                scheme.name()
            );
            full_fingerprint(&mut st)
        };
        assert_eq!(
            fingerprint(2),
            fingerprint(1),
            "{}: ShardSpec::count(2) changed the run",
            scheme.name()
        );
    }
}

/// Three-tier Clos determinism golden: the smoke-scale Clos fabric (4
/// pods x (2 leaves + 2 aggs), 4 cores, 32 hosts), a fabric with an
/// aggregation tier between the leaves and the cores. The event-count
/// constants were captured from a run of this configuration (see the
/// module doc for the update policy).
#[test]
fn clos_smoke_replays_golden_trace() {
    let mut cfg = golden_cfg(Scheme::drill_default());
    cfg.topo = TopoSpec::Clos(ClosSpec::smoke());
    let st = run(&cfg);
    assert_eq!(
        (st.events, st.flows_started, st.flows_completed),
        (CLOS_GOLDEN.0, CLOS_GOLDEN.1, CLOS_GOLDEN.2),
        "Clos smoke run diverged from its golden trace"
    );
    assert_eq!(st.arena_live_at_end, 0, "leaked packet-arena slots");
}

/// Golden constants for `clos_smoke_replays_golden_trace`:
/// (events, flows_started, flows_completed).
const CLOS_GOLDEN: (u64, u64, u64) = (1_623_884, 1_105, 1_105);

/// Sketch differential golden: on every figure-scale golden run the FCT
/// store is still exact; replaying those exact samples through a
/// forced-sketch [`Distribution`] must land p50/p90/p99 within the
/// sketch's configured rank-error bound of the exact order statistics.
/// This pins the error contract on real simulation output (heavy-tailed
/// FCTs), not just synthetic streams.
#[test]
fn sketch_quantiles_match_exact_stats_within_configured_bound() {
    for scheme in [Scheme::Ecmp, Scheme::drill_default(), Scheme::Random] {
        let st = golden_run(scheme);
        let samples = st
            .fct_ms
            .exact_samples()
            .expect("figure-scale runs stay exact")
            .to_vec();
        assert!(samples.len() > 500, "{}: too few FCTs", scheme.name());
        let mut sk = Distribution::sketched();
        for &x in &samples {
            sk.add(x);
        }
        assert!(!sk.is_exact());
        assert_eq!(sk.count(), samples.len());
        let eps = sk.rank_error_bound().expect("sketch mode");
        let mut sorted = samples.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let n = sorted.len();
        for q in [0.5, 0.9, 0.99] {
            let est = sk.quantile(q);
            // Measured rank of the estimate vs the requested rank.
            let rank = sorted.partition_point(|&v| v <= est) as f64 / n as f64;
            assert!(
                (rank - q).abs() <= eps,
                "{}: sketch p{} = {est} has rank error {} > bound {eps}",
                scheme.name(),
                q * 100.0,
                (rank - q).abs()
            );
        }
        // Extrema stay exact in sketch mode.
        assert_eq!(sk.min(), *sorted.first().unwrap());
        assert_eq!(sk.max(), *sorted.last().unwrap());
    }
}

/// The sketch-merge determinism contract behind the sweep executor: rep
/// sketches built on 1/2/8 worker threads and merged in fixed slot order
/// must produce byte-identical merged state (equal digests). Thread count
/// may change *when* each rep sketch is built, never *what* the merge
/// produces — the same property the executor relies on when it folds
/// per-rep `RunStats` into a sweep cell.
#[test]
fn sketch_merge_is_bit_identical_across_thread_counts() {
    const REPS: usize = 8;
    const PER_REP: usize = 50_000;
    let build_rep = |r: usize| -> Distribution {
        let mut rng = drill::sim::SimRng::seed_from(0xABC0 + r as u64);
        let mut d = Distribution::sketched();
        for _ in 0..PER_REP {
            let u = (rng.below(u32::MAX as usize) as f64 + 1.0) / (u32::MAX as f64 + 1.0);
            d.add(1.0 / u.powf(0.5));
        }
        d
    };
    let merged_digest = |threads: usize| -> u64 {
        let mut slots: Vec<Option<Distribution>> = (0..REPS).map(|_| None).collect();
        std::thread::scope(|s| {
            for (t, chunk) in slots.chunks_mut(REPS.div_ceil(threads)).enumerate() {
                let base = t * REPS.div_ceil(threads);
                s.spawn(move || {
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        *slot = Some(build_rep(base + i));
                    }
                });
            }
        });
        let mut acc = Distribution::sketched();
        for slot in slots {
            acc.merge(&slot.expect("all reps built"));
        }
        assert_eq!(acc.count(), REPS * PER_REP);
        assert!(!acc.is_exact());
        acc.digest()
    };
    let serial = merged_digest(1);
    for threads in [2usize, 8] {
        assert_eq!(
            serial,
            merged_digest(threads),
            "sketch merge diverged at {threads} threads"
        );
    }
}

/// The golden fabric pushed into timeouts: shallow 30 KB queues at load
/// 0.9 with a 1–8 ms RTO, so hundreds of RTOs fire (and back off, and
/// shrink again) inside the 64 ms horizon. The plain goldens above never
/// fire one — their horizon is 53 ms under a 200 ms floor.
fn timeout_heavy_cfg(scheme: Scheme) -> ExperimentConfig {
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
    cfg
}

/// Timer-path golden: `[sim_end ns, flows started, flows completed,
/// bytes_delivered, retransmissions, timeouts, FCT digest, events]` per
/// scheme. Every constant but `events` was captured from the commit
/// *before* the one-wake-per-flow timer, which pushed one `TcpTimer` per
/// RTO restart and ignored the stale pops: RTOs must keep firing at the
/// same nanoseconds. `events` is the one field allowed to move — it falls
/// by the stale pops that no longer exist.
#[test]
fn timeout_heavy_runs_replay_golden_trace() {
    // (`events` with per-restart timers: 543_268 / 912_340 / 705_585.)
    #[rustfmt::skip]
    let rows = [
        (Scheme::Ecmp,            [64_063_674, 783, 759, 33_367_390, 488, 400, 0xaa04_cdc1_ec36_22eb, 524_647]),
        (Scheme::drill_default(), [64_360_275, 783, 775, 56_635_987, 314, 182, 0x39c7_50df_7b79_074a, 878_811]),
        (Scheme::presto(),        [64_299_418, 783, 760, 43_691_143, 424, 315, 0x2aec_8c4b_1d60_a536, 681_458]),
    ];
    for (scheme, golden) in rows {
        let st = run(&timeout_heavy_cfg(scheme));
        // The digest is read before any quantile query: a query sorts
        // the exact sample store the digest hashes.
        let got = [
            st.sim_end.as_nanos(),
            st.flows_started,
            st.flows_completed,
            st.bytes_delivered,
            st.retransmissions,
            st.timeouts,
            st.fct_ms.digest(),
            st.events,
        ];
        assert_eq!(got, golden, "{} diverged", scheme.name());
        assert_eq!(st.arena_live_at_end, 0, "{} leaked", scheme.name());
    }
}

/// The golden fabric as a Figure-2 raw-packet run, cut off mid-flight:
/// open-loop packet trains at load 0.9 with bursty arrivals overflow the
/// 4 MB NIC buffers, and a 200 µs drain stops the run with most of the
/// accepted backlog still unsent. (`tests/snapshot_resume.rs` resumes the
/// same config.)
fn raw_cutoff_cfg() -> ExperimentConfig {
    let mut cfg = golden_cfg(Scheme::drill_no_shim());
    cfg.workload.load = 0.9;
    cfg.workload.burst_sigma = 2.0;
    cfg.raw_packet_mode = true;
    cfg.sample_queues = true;
    cfg.queue_limit_bytes = 20_000_000;
    cfg.drain = Time::from_micros(200);
    cfg
}

/// Raw-mode golden: the full fingerprint, captured from the commit
/// *before* NIC trains, when every segment of a flow was built, interned
/// and queued (or dropped and freed) at the flow's arrival. Building a
/// segment only when the serializer takes it must not move one slot —
/// `arena_live_at_end`, the last one, counts the 26 731 accepted segments
/// the deadline cut off wherever they wait, in an arena or in a train.
#[test]
fn raw_cutoff_run_replays_golden_trace() {
    #[rustfmt::skip]
    let golden: [u64; 61] = [
        2415, 0, 222_744, 0, 15_455, 0, 0, 0, 89_912, 3_200_062, 0, 0, 0, 0, 2415, 2415,
        2400, 0x3fcb_55c5_d481_c120, 0, 0, 0, 0, 0x3ff0_0000_0000_0000, 0x3ff0_0000_0000_0000,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        // hops: wait_ns, wait_samples, drops, tx.
        0, 513, 0, 279_344, 0, 4_880_269_129,
        0, 21_009, 0, 21_004, 0, 15_460,
        0, 0, 0, 0, 0, 0,
        0, 21_008, 0, 21_002, 0, 15_455,
        21_864_727, 0xcbf2_9ce4_8422_2325, 26_731,
    ];
    let mut st = run(&raw_cutoff_cfg());
    assert_eq!(full_fingerprint(&mut st), golden);
    assert!(st.nic_drops > 0 && st.arena_live_at_end > 0);
}
