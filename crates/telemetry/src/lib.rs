//! Zero-overhead flight recorder and queue time-series telemetry for the
//! DRILL reproduction.
//!
//! The simulator's end-of-run aggregates (`drill-stats`) cannot show the
//! paper's *micro*-scale behaviours: the per-engine queue imbalance of
//! Fig. 2, the decision quality of engines acting on lagged queue state
//! (§3.2.1), or the reordering degree behind §5. This crate adds that
//! visibility without taxing the hot path:
//!
//! * [`Probe`] — static-dispatch observation hooks on the packet lifecycle
//!   (host send/recv, engine choice, enqueue/dequeue, drops). Hook sites
//!   in `drill-net`/`drill-runtime` are generic over `P: Probe` and gate
//!   probe-only work on [`Probe::ENABLED`], so the [`NoopProbe`] path
//!   monomorphizes to exactly the pre-telemetry code.
//! * [`FlightRecorder`] — captures events into bounded [`EventRing`]s, one
//!   per switch in hook order (newest kept, overwrites counted). A
//!   recording lives in memory only: the caller keeps the recorder the
//!   run returns.
//! * [`analyze`] — analyzers turning a recorder into queue-depth
//!   timelines, per-packet trips, reordering histograms, and engine
//!   decision-quality summaries (the `tracedump` tables).
//!
//! # Determinism contract
//!
//! Probes observe and never steer: no hook can reach the simulation RNG,
//! the event queue, or packet contents, so every `RunStats` metric is
//! bit-identical with telemetry on or off (enforced by the golden suite).

#![warn(missing_docs)]

pub mod analyze;
mod probe;
mod record;

pub use probe::{
    fault_kind, meta_flags, DropReason, EngineChoice, FaultInfo, NoopProbe, PacketMeta, Probe,
};
pub use record::{EventRing, FlightRecorder, RingKind, TraceEvent, DEFAULT_RING_CAPACITY};

#[cfg(test)]
mod tests {
    use super::*;
    use drill_sim::Time;

    /// End to end: events recorded through the probe API land in the
    /// recorder's ring layout and merge back in time order.
    #[test]
    fn recorder_keeps_ring_layout_and_merge_order() {
        let mut rec = FlightRecorder::new(2, 2, 8);
        let m = PacketMeta {
            id: 3,
            flow: 1,
            src: 0,
            dst: 5,
            size: 1500,
            seq: 1442,
            emit_idx: 2,
            flags: meta_flags::DATA,
        };
        rec.on_host_send(Time::from_nanos(100), 0, &m);
        rec.on_engine_choice(
            Time::from_nanos(700),
            1,
            1,
            &EngineChoice {
                chosen: 2,
                chosen_pkts: 1,
                best: 2,
                best_pkts: 1,
                candidates: 2,
            },
        );
        rec.on_enqueue(Time::from_nanos(700), 1, 2, 1, &m, 1, 1500);
        rec.on_dequeue(Time::from_nanos(1900), 1, 2, 3, 0, 1200);
        rec.on_drop(Time::from_nanos(2000), 0, 1, 0, &m, DropReason::TailDrop);
        rec.on_nic_drop(Time::from_nanos(2100), 4, &m);
        rec.on_host_recv(Time::from_nanos(2400), 5, &m);
        rec.on_fault(
            Time::from_nanos(2500),
            &FaultInfo {
                kind: fault_kind::LINK_DOWN,
                a: 0,
                b: 1,
                param: 0,
            },
        );

        assert_eq!(rec.num_switches(), 2);
        assert_eq!(rec.engines(), 2);
        assert_eq!(rec.ring_count(), 4);
        assert_eq!(rec.event_count(), 8);
        assert_eq!(rec.overwritten(), 0);
        assert_eq!(rec.ring_at(3).0, RingKind::Control);

        let merged = rec.merged_events();
        assert_eq!(merged.len(), 8);
        assert!(
            merged.windows(2).all(|w| w[0].time() <= w[1].time()),
            "merged events are chronological"
        );
        match merged[0] {
            TraceEvent::HostSend { t, host, pkt } => {
                assert_eq!(*t, Time::from_nanos(100));
                assert_eq!(*host, 0);
                assert_eq!(pkt, &m);
            }
            other => panic!("unexpected first event {other:?}"),
        }
    }

    /// The disabled probe must stay a zero-sized type — that is what lets
    /// monomorphized hook sites erase it entirely.
    #[test]
    fn noop_probe_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoopProbe>(), 0);
        const { assert!(!NoopProbe::ENABLED) };
    }
}
