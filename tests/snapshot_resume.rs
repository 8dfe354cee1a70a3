//! `DRILLSNAP` resume goldens: a run checkpointed at time T and restored
//! from the serialized bytes — as a fresh process would — must replay
//! bit-identically to the uninterrupted run. The same discipline as
//! `determinism_golden.rs`, extended over a save/restore boundary.

mod support;

use drill::faults::FaultSchedule;
use drill::net::{LeafSpineSpec, DEFAULT_PROP};
use drill::runtime::{
    random_leaf_spine_failures, run, CheckpointSpec, ExperimentConfig, RunStats, Scheme, Snapshot,
    TopoSpec, World,
};
use drill::sim::codec::{put_varint, Decoder};
use drill::sim::Time;
use drill::snapshot::SnapshotBuilder;
use support::golden::{full_fingerprint, golden_cfg, raw_cutoff_cfg, timeout_heavy_cfg, GOLDENS};

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
/// rows `determinism_golden.rs` pins for uninterrupted runs.
#[test]
fn resumed_run_hits_pinned_goldens() {
    for (scheme, events, started, completed) in GOLDENS {
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

/// [`timeout_heavy_cfg`] (30 KB queues at load 0.9 under a 1–8 ms RTO),
/// which `determinism_golden.rs` pins: no other config here fires an
/// RTO, so none notices timer state a snapshot forgot. Most of each run's
/// hundreds of timeouts fall after these restore points; they fire only
/// if every flow's deadline and live-wake time came back with it.
#[test]
fn resume_replays_timeouts_after_the_restore_point() {
    for scheme in [Scheme::Ecmp, Scheme::drill_default(), Scheme::presto()] {
        let cfg = timeout_heavy_cfg(scheme);
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

/// [`raw_cutoff_cfg`], which `determinism_golden.rs` pins, is the one
/// raw-mode config here: its unsent backlog lives in NIC train descriptors
/// and its flows leave only counters behind. At each restore point most
/// of its NICs hold a half-sent train (and at the end still do: the
/// 200 µs drain cuts the run off), so a train field or counter the
/// snapshot forgot shows in the fingerprint.
#[test]
fn resume_replays_raw_trains() {
    let cfg = raw_cutoff_cfg();
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

/// A chaos schedule on the golden fabric: a link flap, a capacity
/// degradation inside it (so WCMP's reinstalled weights differ from its
/// build-time ones), then a switch outage.
fn chaos_cfg(scheme: Scheme) -> ExperimentConfig {
    let mut cfg = golden_cfg(scheme);
    let built = cfg.topo.build();
    let pairs = random_leaf_spine_failures(&built, 3, 0xC405);
    let mut s = FaultSchedule::new(Time::from_micros(300));
    s.link_flap(
        pairs[0].0,
        pairs[0].1,
        Time::from_micros(500),
        Time::from_micros(900),
    );
    s.degrade_window(
        pairs[2].0,
        pairs[2].1,
        1,
        4,
        Time::from_micros(600),
        Time::from_micros(1600),
    );
    s.switch_outage(pairs[1].1, Time::from_micros(1800), Time::from_micros(2300));
    cfg.faults = Some(s);
    cfg
}

/// Snapshots taken inside a fault window (reconvergence pending) and
/// after recovery must both resume bit-identically — this exercises the
/// applied-prefix replay, the control-plane reinstall at the
/// reconvergence boundary, and re-injection of the not-yet-struck suffix.
/// WCMP and Presto rebuild switch and host policies at that reinstall,
/// so each scheme covers its own restore branch.
#[test]
fn mid_fault_snapshot_resumes_bit_identically() {
    for scheme in [Scheme::drill_default(), Scheme::Wcmp, Scheme::presto()] {
        let cfg = chaos_cfg(scheme);
        let mut cold = run(&cfg);
        let cold_fp = full_fingerprint(&mut cold);
        assert!(cold.fault_events >= 6, "schedule actually struck");
        // 700µs: flap down and degradation, reconvergence pending. 1000µs:
        // both installed, the link-up pending. 1500µs: recovered but for
        // the degraded link, the outage still in the future. 2000µs:
        // mid-outage.
        for us in [700u64, 1000, 1500, 2000] {
            let mut resumed = snapshot_resume(&cfg, Time::from_micros(us));
            assert_eq!(
                cold_fp,
                full_fingerprint(&mut resumed),
                "{} chaos run resumed at {us}µs diverged",
                scheme.name()
            );
        }
    }
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The `DRILLSNAP` bytes themselves, pinned at three instants: a TCP run
/// with shims, a raw-train run, and a run inside a fault window. The
/// canonical-roundtrip check holds under any consistent change of
/// format; this one moves with any byte.
#[test]
fn drillsnap_bytes_are_pinned() {
    let us = Time::from_micros;
    for (what, cfg, at, len, hash) in [
        (
            "tcp",
            tiny_cfg(Scheme::drill_default()),
            us(1000),
            29_637,
            0x7d37_f4ce_cf22_f5c9_u64,
        ),
        (
            "raw",
            raw_cutoff_cfg(),
            us(1000),
            85_689,
            0x4df7_2f98_82f5_b225,
        ),
        (
            "chaos",
            chaos_cfg(Scheme::drill_default()),
            us(700),
            59_497,
            0x067c_4178_b43d_d078,
        ),
    ] {
        let mut w = World::new(&cfg);
        w.run_to(at);
        let bytes = w.snapshot().to_bytes();
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (len, hash),
            "{what}: DRILLSNAP bytes moved"
        );
    }
}

/// `ExperimentConfig::checkpoint`: the event loop writes the snapshot
/// file every `every_events`, on the straight-through and the stepwise
/// path alike, and a fresh process loading that file finishes with the
/// uninterrupted run's exact results (its full fingerprint, `events` and
/// `bytes_delivered` among them) — crash recovery, end to end.
#[test]
fn checkpoint_policy_files_are_resumable() {
    let cfg = tiny_cfg(Scheme::drill_default());
    let mut cold = run(&cfg);
    let cold_fp = full_fingerprint(&mut cold);
    let mut w = World::new(&cfg);
    w.run_to(Time::from_millis(1));
    let by_1ms = w.events_processed();
    drop(w);
    // The tiny run processes ~150k events, so at 50k the file is rewritten
    // three times and the survivor is the 150k-event checkpoint. The
    // second input stops the run before its second checkpoint, so the one
    // it writes is `run_to(1 ms)`'s last event: only a `run_to` that
    // honours checkpoints writes it on the stepwise path.
    for (every_events, max_events) in [(50_000, 0), (by_1ms, 2 * by_1ms - 1)] {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let path = |how| dir.join(format!("drillsnap-test-{pid}-{every_events}-{how}.snap"));
        let with = |path| {
            let mut cfg = cfg.clone();
            cfg.checkpoint = Some(CheckpointSpec { every_events, path });
            cfg.max_events = max_events;
            cfg
        };
        run(&with(path("run")));
        let mut w = World::new(&with(path("step")));
        w.run_to(Time::from_millis(1));
        w.finish();
        let read = |how| {
            let bytes = std::fs::read(path(how));
            std::fs::remove_file(path(how)).ok();
            bytes.unwrap_or_else(|e| panic!("{how} wrote no checkpoint every {every_events}: {e}"))
        };
        let bytes = read("run");
        assert!(
            bytes == read("step"),
            "stepwise checkpoint every {every_events} differs"
        );
        let snap = Snapshot::from_bytes(&bytes).expect("checkpoint decodes");
        let mut resumed = World::restore(&snap, &cfg).unwrap().finish();
        assert_eq!(
            cold_fp,
            full_fingerprint(&mut resumed),
            "resume from the checkpoint every {every_events} events diverged"
        );
    }
}

/// A restore config whose fault timeline holds a strike the snapshot's
/// clock has already passed — but the saved run never applied — cannot
/// be replayed faithfully and is rejected.
#[test]
fn restore_rejects_pre_snapshot_divergence() {
    let cfg = tiny_cfg(Scheme::Ecmp);
    let pair = random_leaf_spine_failures(&cfg.topo.build(), 1, 7)[0];
    let mut w = World::new(&cfg);
    w.run_to(Time::from_millis(1));
    let snap = w.snapshot();
    drop(w);

    let mut early_flap = cfg.clone();
    let mut s = FaultSchedule::new(Time::from_micros(200));
    s.link_flap(
        pair.0,
        pair.1,
        Time::from_micros(300),
        Time::from_micros(600),
    );
    early_flap.faults = Some(s);
    let err = match World::restore(&snap, &early_flap) {
        Ok(_) => panic!("an unapplied strike before the snapshot clock restored"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("precedes the restored clock"),
        "unexpected error: {err}"
    );
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

/// `snap` rebuilt with section `tag`'s body replaced by `edit(body)`.
fn tamper(snap: &Snapshot, tag: u8, edit: impl Fn(&[u8]) -> Vec<u8>) -> Snapshot {
    let mut b = SnapshotBuilder::new();
    for t in 0..=u8::MAX {
        if let Some(body) = snap.section(t) {
            b.section(t, if t == tag { edit(body) } else { body.to_vec() });
        }
    }
    b.finish()
}

/// Pending events that break the wheel's seq contract are refused, though
/// each entry decodes on its own: an `EVENTS` list written out twice
/// (every entry pending twice) and a `META` seq counter rewound to 0
/// (every pending seq at or past it, for a fresh push to reuse). The
/// writer emits neither.
#[test]
fn restore_rejects_pending_events_that_break_the_seq_contract() {
    let cfg = tiny_cfg(Scheme::drill_default());
    let mut w = World::new(&cfg);
    w.run_to(Time::from_millis(1));
    let snap = w.snapshot();
    drop(w);
    assert!(World::restore(&tamper(&snap, 10, <[u8]>::to_vec), &cfg).is_ok());

    // Tag 10 is EVENTS: a varint count, then the entries.
    let doubled = tamper(&snap, 10, |body| {
        let mut d = Decoder::new(body);
        let n = d.varint().expect("event count");
        let entries = &body[d.position()..];
        let mut out = Vec::new();
        put_varint(&mut out, 2 * n);
        out.extend_from_slice(entries);
        out.extend_from_slice(entries);
        out
    });
    // Tag 1 is META: switch, host and engine counts, then the clock, the
    // seq counter and the events popped.
    let rewound = tamper(&snap, 1, |body| {
        let mut d = Decoder::new(body);
        let mut out = Vec::new();
        for i in 0..6 {
            let v = d.varint().expect("META field");
            put_varint(&mut out, if i == 4 { 0 } else { v });
        }
        out
    });
    for (bad, why) in [
        (doubled, "out of (time, seq) order"),
        (rewound, "past the restored counter"),
    ] {
        match World::restore(&bad, &cfg) {
            Ok(_) => panic!("a snapshot with pending events {why} restored"),
            Err(e) => assert!(e.to_string().contains(why), "unexpected error: {e}"),
        }
    }
}

/// A pending event naming a switch, port, host or engine the restored
/// world lacks is refused at restore; left in, its dispatch would index
/// past the world's tables (or, for a commit port past the switch's last,
/// land on the next engine's pending row). So is an entry of a kind no
/// event has, or a fault strike, which the writer never emits. Each case
/// rewrites one entry of a real `EVENTS` section in place, keeping its
/// time and seq.
#[test]
fn restore_rejects_events_naming_missing_devices() {
    let cfg = tiny_cfg(Scheme::drill_default());
    let mut w = World::new(&cfg);
    w.run_to(Time::from_millis(1));
    let snap = w.snapshot();
    drop(w);

    // An `EVENTS` entry: time, seq, kind byte, hi, lo, then the arrivals'
    // packet handle (index, generation) or one word for every other kind.
    type Entry = (u64, u64, u8, u64, u64, Vec<u64>);
    let body = snap.section(10).expect("EVENTS section");
    let mut d = Decoder::new(body);
    let entries: Vec<Entry> = (0..d.varint().unwrap())
        .map(|_| {
            let (t, seq, kind) = (d.varint().unwrap(), d.varint().unwrap(), d.u8().unwrap());
            let (hi, lo) = (d.varint().unwrap(), d.varint().unwrap());
            let words = if kind <= 1 { 2 } else { 1 };
            (
                t,
                seq,
                kind,
                hi,
                lo,
                (0..words).map(|_| d.varint().unwrap()).collect(),
            )
        })
        .collect();
    assert_eq!(d.remaining(), 0);
    let encode = |entries: &[Entry]| {
        let mut out = Vec::new();
        put_varint(&mut out, entries.len() as u64);
        for (t, seq, kind, hi, lo, words) in entries {
            for v in [*t, *seq] {
                put_varint(&mut out, v);
            }
            out.push(*kind);
            for &v in [*hi, *lo].iter().chain(words) {
                put_varint(&mut out, v);
            }
        }
        out
    };
    assert!(World::restore(&tamper(&snap, 10, |_| encode(&entries)), &cfg).is_ok());

    let arrival = entries
        .iter()
        .position(|e| e.2 <= 1)
        .expect("a pending arrival");
    let other = entries
        .iter()
        .position(|e| e.2 > 1)
        .expect("a pending non-arrival");
    let engines = cfg.engines as u64;
    let (missing, unknown) = ("missing device", "unknown pending event kind");
    // (entry, kind, hi, lo, word 0 for a non-arrival, expected error)
    let cases = [
        (other, 2, 0, 1_000_000, 0, missing), // SwitchTxDone on a missing switch
        (other, 2, 1_000, 0, 0, missing),     // SwitchTxDone on a missing port
        (arrival, 0, 1_000, 0, 0, missing),   // ArriveSwitch on a missing ingress
        (arrival, 1, 0, 1_000_000, 0, missing), // ArriveHost at a missing host
        (other, 3, 0, 1_000_000, 0, missing), // HostTxDone at a missing host
        (other, 4, 1_000, 0, 1, missing),     // EnqueueCommit on a missing port
        (other, 4, 0, 0, 1 | engines << 32, missing), // EnqueueCommit by a missing engine
        (other, 11, 0, 0, 0, unknown),        // a fault strike
        (other, 13, 0, 0, 0, unknown),        // no event's kind
    ];
    for (i, kind, hi, lo, word0, why) in cases {
        let mut bad = entries.clone();
        let e = &mut bad[i];
        (e.2, e.3, e.4) = (kind, hi, lo);
        if i == other {
            e.5 = vec![word0];
        }
        match World::restore(&tamper(&snap, 10, |_| encode(&bad)), &cfg) {
            Ok(_) => panic!("kind {kind} naming ({hi}, {lo}, {word0:#x}) restored"),
            Err(e) => assert!(
                e.to_string().contains(why),
                "kind {kind}: unexpected error: {e}"
            ),
        }
    }
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
