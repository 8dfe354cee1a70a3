//! The golden configuration, its fingerprint and its pinned outcomes,
//! shared by `determinism_golden.rs` (uninterrupted runs) and
//! `snapshot_resume.rs` (runs resumed from a snapshot).
//!
//! The pins were captured from runs of [`golden_cfg`]; a change that moves
//! them has changed simulation behaviour — event delivery order, RNG
//! streams, or the TCP/switch models — and is not a pure refactor. Update
//! [`GOLDENS`] only when a behaviour change is intended, and say so in the
//! commit.

use drill::net::{LeafSpineSpec, DEFAULT_PROP};
use drill::runtime::{ExperimentConfig, RunStats, Scheme, TopoSpec};
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
