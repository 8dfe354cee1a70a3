//! The flight recorder explains a run correctly: its recording reproduces
//! the hook stream it saw, and a recorder attached to a restored world records
//! exactly what a straight run records from the restore instant on.
//!
//! Shape: tracedump's quick-scale recording run without its link flap — a
//! 4×4×4 leaf-spine under DRILL(2,1) at 80 % load, 2 ms of arrivals plus
//! 2 ms of drain — with raw packet trains and with TCP, at one and at two
//! forwarding engines per switch.

use std::collections::BTreeMap;

use drill::net::{LeafSpineSpec, DEFAULT_PROP};
use drill::runtime::{run_probed, ExperimentConfig, Scheme, TopoSpec, World};
use drill::sim::Time;
use drill::telemetry::analyze::queue_timelines;
use drill::telemetry::{FlightRecorder, PacketMeta, Probe};

/// Large enough that no ring of these runs wraps.
const RING_CAPACITY: usize = 1 << 22;

const BUCKET: Time = Time::from_micros(10);

fn cfg(raw: bool, engines: usize) -> ExperimentConfig {
    let topo = TopoSpec::LeafSpine(LeafSpineSpec {
        spines: 4,
        leaves: 4,
        hosts_per_leaf: 4,
        host_rate: 10_000_000_000,
        core_rate: 10_000_000_000,
        prop: DEFAULT_PROP,
    });
    let scheme = Scheme::Drill {
        d: 2,
        m: 1,
        shim: false,
    };
    let mut cfg = ExperimentConfig::new(topo, scheme, 0.8);
    cfg.duration = Time::from_millis(2);
    cfg.drain = Time::from_millis(2);
    cfg.raw_packet_mode = raw;
    cfg.queue_limit_bytes = 20_000_000;
    cfg.workload.burst_sigma = 2.0;
    cfg.engines = engines;
    cfg
}

fn recorder(cfg: &ExperimentConfig) -> FlightRecorder {
    FlightRecorder::new(cfg.topo.build().num_switches(), cfg.engines, RING_CAPACITY)
}

/// `rec`, checked to hold every event of its run.
fn unwrapped(rec: &FlightRecorder) -> &FlightRecorder {
    assert_eq!(rec.overwritten(), 0, "a ring wrapped; raise RING_CAPACITY");
    rec
}

type Timelines = BTreeMap<(u32, u16), Vec<(u64, u32)>>;

/// The last depth per (switch, port, bucket), in the order the hooks fire.
#[derive(Default)]
struct DepthProbe(Timelines);

impl DepthProbe {
    fn record(&mut self, now: Time, switch: u32, port: u16, depth: u32) {
        let b = now.as_nanos() / BUCKET.as_nanos();
        let series = self.0.entry((switch, port)).or_default();
        match series.last_mut() {
            Some((last, d)) if *last == b => *d = depth,
            _ => series.push((b, depth)),
        }
    }
}

impl Probe for DepthProbe {
    fn on_enqueue(&mut self, t: Time, s: u32, p: u16, _: u16, _: &PacketMeta, d: u32, _: u64) {
        self.record(t, s, p, d);
    }
    fn on_dequeue(&mut self, t: Time, s: u32, p: u16, _: u64, d: u32, _: u64) {
        self.record(t, s, p, d);
    }
}

/// Probes never steer, so the recorded run and the probed run see the
/// same hook stream; the recording's timelines must be that stream's.
#[test]
fn trace_timelines_follow_hook_order() {
    for raw in [true, false] {
        for engines in [1, 2] {
            let cfg = cfg(raw, engines);
            let (_, rec) = run_probed(&cfg, recorder(&cfg));
            let from_trace = queue_timelines(unwrapped(&rec), BUCKET);
            let (_, DepthProbe(from_hooks)) = run_probed(&cfg, DepthProbe::default());
            assert_eq!(
                from_trace.keys().collect::<Vec<_>>(),
                from_hooks.keys().collect::<Vec<_>>()
            );
            let differ = from_hooks
                .iter()
                .filter(|(port, series)| from_trace[*port] != **series)
                .count();
            assert_eq!(
                differ,
                0,
                "raw={raw} engines={engines}: {differ} of {} ports end a bucket on another depth",
                from_hooks.len()
            );
        }
    }
}

/// A recorder attached by `restore_probed` at 1 ms records, ring for ring,
/// the straight run's events from 1 ms on.
#[test]
fn restored_recorder_matches_the_straight_run() {
    let at = Time::from_millis(1);
    for raw in [true, false] {
        for engines in [1, 2] {
            let cfg = cfg(raw, engines);
            let (_, straight) = run_probed(&cfg, recorder(&cfg));
            let mut w = World::new(&cfg);
            w.run_to(at);
            let snap = w.snapshot();
            let w = World::restore_probed(&snap, &cfg, recorder(&cfg)).unwrap();
            let (_, restored, _) = w.finish_parts();
            let (straight, restored) = (unwrapped(&straight), unwrapped(&restored));
            assert_eq!(straight.ring_count(), restored.ring_count());
            let differ = (0..straight.ring_count())
                .filter(|&i| {
                    let ((sk, s), (rk, r)) = (straight.ring_at(i), restored.ring_at(i));
                    assert_eq!(sk, rk);
                    let tail: Vec<_> = s.iter().filter(|e| e.time() >= at).collect();
                    tail != r.iter().collect::<Vec<_>>()
                })
                .count();
            assert_eq!(
                differ,
                0,
                "raw={raw} engines={engines}: {differ} of {} rings differ",
                straight.ring_count()
            );
        }
    }
}
