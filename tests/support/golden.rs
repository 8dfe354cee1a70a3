//! The golden configuration, its variants, its fingerprint and its pinned
//! outcomes, shared by `determinism_golden.rs` (uninterrupted runs),
//! `snapshot_resume.rs` (runs resumed from a snapshot) and
//! `audit_invariants.rs` (audited runs).
//!
//! The pins were captured from runs of [`golden_cfg`]; a change that moves
//! them has changed simulation behaviour — event delivery order, RNG
//! streams, or the TCP/switch models — and is not a pure refactor. Update
//! [`GOLDENS`] only when a behaviour change is intended, and say so in the
//! commit.

use drill::faults::FaultSchedule;
use drill::net::{LeafSpineSpec, DEFAULT_PROP};
use drill::runtime::{random_leaf_spine_failures, ExperimentConfig, RunStats, Scheme, TopoSpec};
use drill::sim::Time;

/// Pinned `(scheme, events, flows_started, flows_completed)` of
/// [`golden_cfg`], plain or resumed.
pub const GOLDENS: [(Scheme, u64, u64, u64); 3] = [
    (Scheme::Ecmp, 1_282_646, 1060, 1058),
    // `Scheme::drill_default()`: DRILL(2,1) with the shim.
    (
        Scheme::Drill {
            d: 2,
            m: 1,
            shim: true,
        },
        1_283_055,
        1060,
        1058,
    ),
    (Scheme::Random, 1_294_326, 1060, 1060),
];

pub fn golden_cfg(scheme: Scheme) -> ExperimentConfig {
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

/// The golden fabric pushed into timeouts: shallow 30 KB queues at load
/// 0.9 with a 1–8 ms RTO, so hundreds of RTOs fire (and back off, and
/// shrink again) inside the 64 ms horizon. The plain goldens never fire
/// one — their horizon is 53 ms under a 200 ms floor.
pub fn timeout_heavy_cfg(scheme: Scheme) -> ExperimentConfig {
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
    cfg.tcp.rto_max = Time::from_millis(8);
    cfg
}

/// The golden fabric as a Figure-2 raw-packet run, cut off mid-flight:
/// open-loop packet trains at load 0.9 with bursty arrivals overflow the
/// 4 MB NIC buffers, and a 200 µs drain stops the run with most of the
/// accepted backlog still unsent in NIC train descriptors.
pub fn raw_cutoff_cfg() -> ExperimentConfig {
    let mut cfg = golden_cfg(Scheme::drill_no_shim());
    cfg.workload.load = 0.9;
    cfg.workload.burst_sigma = 2.0;
    cfg.raw_packet_mode = true;
    cfg.sample_queues = true;
    cfg.queue_limit_bytes = 20_000_000;
    cfg.drain = Time::from_micros(200);
    cfg
}

/// The pinned chaos schedule for a leaf-spine `topo`: two link flaps, one
/// capacity degradation, and one full switch crash + recovery, all inside
/// the golden 3 ms arrival window. Pair selection goes through
/// `random_leaf_spine_failures` with a fixed seed, so the schedule is a
/// deterministic function of the topology alone.
pub fn chaos_schedule(topo: &TopoSpec) -> FaultSchedule {
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

/// Every metric a figure reads, floats by bit pattern (`to_bits`): any
/// behavioural difference between two runs of the same config shows here.
pub fn full_fingerprint(st: &mut RunStats) -> Vec<u64> {
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
