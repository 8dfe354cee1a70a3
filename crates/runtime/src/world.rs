//! The simulation world: event loop tying every substrate together.

use drill_audit::{AnomalyReport, BoundarySample, FlowProgress, InvariantAuditor, SnapshotRing};
use drill_core::SymmetryEngine;
use drill_faults::{FaultInjector, FaultKind, SabotageKind, SabotageSpec};
use drill_net::{
    BufPool, EventSink, HopClass, HostId, HostNic, HostPolicy, NetEvent, Packet, PacketArena,
    PacketBufPool, PacketRef, RouteTable, Switch, SwitchConfig, SwitchId, Topology, Train,
};
use drill_sim::{EventQueue, SimRng, Time};
use drill_stats::stdev_of;
use drill_telemetry::{fault_kind, FaultInfo, FlightRecorder, NoopProbe, Probe, QueueSampler};
use drill_transport::{ShimBuffer, TcpFlow};
use drill_workload::{aggregate_flow_rate, ArrivalProcess, FlowSpec, TrafficPattern, WorkloadGen};

use crate::config::{CheckpointPolicy, CheckpointSpec, ExperimentConfig};
use crate::stats::{hop_index, RunStats};
use crate::Scheme;

/// `DRILLSNAP` state capture and restore — a child module so it can walk
/// `World`'s private fields without widening their visibility.
#[path = "snapshot.rs"]
mod snapshot;

pub(crate) use snapshot::FAULT_SEQ_BASE;

/// Queue-STDV sampling period (the paper samples every 10 µs).
const SAMPLE_PERIOD: Time = Time::from_micros(10);

#[derive(Debug)]
enum Event {
    Net(NetEvent),
    FlowArrival,
    IncastEpoch,
    MiceTick,
    /// The flow's RTO wake (see [`World::schedule_rto`]): at most one is
    /// live per flow, so it carries no generation.
    TcpTimer {
        flow: u32,
    },
    ShimTimer {
        flow: u32,
        gen: u64,
    },
    SampleQueues,
    /// The `idx`-th entry of the run's fault timeline strikes.
    Fault {
        idx: u32,
    },
    /// A staged reconvergence (routing recompute + symmetric
    /// re-decomposition) comes due. Stale generations — superseded by a
    /// later fault whose detection window subsumed this one — are popped
    /// and ignored, coalescing back-to-back faults into one recompute.
    Reconverge {
        gen: u64,
    },
}

/// The stored form of an [`Event`]: two machine words.
///
/// What the wheel copies is written and read at one width. `Event` is a
/// 24-byte enum of 2-, 4- and 8-byte fields; stored as such, a push
/// assembles it with narrow stores and the node copy reloads it 16 bytes
/// at a time — a store-to-load forward that cannot succeed, so the load
/// waits for every older store to drain. `Packed` is built and taken
/// apart in registers by the `From` pair below, and `Event` only ever
/// exists as a value between `Event::from(packed)` and the `match` that
/// consumes it (DESIGN.md §10 "Slim events" has the measurements).
///
/// | kind | word 1: `kind << 56 \| u16 << 32 \| u32` | word 0 |
/// |---|---|---|
/// | `ArriveSwitch` | `ingress`, `switch` | `pkt` bits |
/// | `ArriveHost` | –, `host` | `pkt` bits |
/// | `SwitchTxDone` | `port`, `switch` | 0 |
/// | `HostTxDone` | –, `host` | 0 |
/// | `EnqueueCommit` | `port`, `switch` | `bytes \| engine << 32` |
/// | `TcpTimer` / `Fault` | –, `flow` / `idx` | 0 |
/// | `ShimTimer` | –, `flow` | `gen` |
/// | `Reconverge` | –, – | `gen` |
/// | `FlowArrival`, `IncastEpoch`, `MiceTick`, `SampleQueues` | –, – | 0 |
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Packed(u64, u64);

const K_ARRIVE_SWITCH: u8 = 0;
const K_ARRIVE_HOST: u8 = 1;
const K_SWITCH_TX_DONE: u8 = 2;
const K_HOST_TX_DONE: u8 = 3;
const K_ENQUEUE_COMMIT: u8 = 4;
const K_FLOW_ARRIVAL: u8 = 5;
const K_INCAST_EPOCH: u8 = 6;
const K_MICE_TICK: u8 = 7;
const K_TCP_TIMER: u8 = 8;
const K_SHIM_TIMER: u8 = 9;
const K_SAMPLE_QUEUES: u8 = 10;
const K_FAULT: u8 = 11;
const K_RECONVERGE: u8 = 12;

impl Packed {
    #[inline]
    const fn new(kind: u8, hi: u16, lo: u32, word0: u64) -> Packed {
        Packed(word0, (kind as u64) << 56 | (hi as u64) << 32 | lo as u64)
    }
}

impl From<Event> for Packed {
    #[inline]
    fn from(ev: Event) -> Packed {
        match ev {
            Event::Net(NetEvent::ArriveSwitch {
                switch,
                ingress,
                pkt,
            }) => Packed::new(K_ARRIVE_SWITCH, ingress, switch.0, pkt.to_bits()),
            Event::Net(NetEvent::ArriveHost { host, pkt }) => {
                Packed::new(K_ARRIVE_HOST, 0, host.0, pkt.to_bits())
            }
            Event::Net(NetEvent::SwitchTxDone { switch, port }) => {
                Packed::new(K_SWITCH_TX_DONE, port, switch.0, 0)
            }
            Event::Net(NetEvent::HostTxDone { host }) => Packed::new(K_HOST_TX_DONE, 0, host.0, 0),
            Event::Net(NetEvent::EnqueueCommit {
                switch,
                port,
                bytes,
                engine,
            }) => Packed::new(
                K_ENQUEUE_COMMIT,
                port,
                switch.0,
                bytes as u64 | (engine as u64) << 32,
            ),
            Event::FlowArrival => Packed::new(K_FLOW_ARRIVAL, 0, 0, 0),
            Event::IncastEpoch => Packed::new(K_INCAST_EPOCH, 0, 0, 0),
            Event::MiceTick => Packed::new(K_MICE_TICK, 0, 0, 0),
            Event::TcpTimer { flow } => Packed::new(K_TCP_TIMER, 0, flow, 0),
            Event::ShimTimer { flow, gen } => Packed::new(K_SHIM_TIMER, 0, flow, gen),
            Event::SampleQueues => Packed::new(K_SAMPLE_QUEUES, 0, 0, 0),
            Event::Fault { idx } => Packed::new(K_FAULT, 0, idx, 0),
            Event::Reconverge { gen } => Packed::new(K_RECONVERGE, 0, 0, gen),
        }
    }
}

impl From<Packed> for Event {
    #[inline]
    fn from(Packed(word0, word1): Packed) -> Event {
        let (hi, lo) = ((word1 >> 32) as u16, word1 as u32);
        match (word1 >> 56) as u8 {
            K_ARRIVE_SWITCH => Event::Net(NetEvent::ArriveSwitch {
                switch: SwitchId(lo),
                ingress: hi,
                pkt: PacketRef::from_bits(word0),
            }),
            K_ARRIVE_HOST => Event::Net(NetEvent::ArriveHost {
                host: HostId(lo),
                pkt: PacketRef::from_bits(word0),
            }),
            K_SWITCH_TX_DONE => Event::Net(NetEvent::SwitchTxDone {
                switch: SwitchId(lo),
                port: hi,
            }),
            K_HOST_TX_DONE => Event::Net(NetEvent::HostTxDone { host: HostId(lo) }),
            K_ENQUEUE_COMMIT => Event::Net(NetEvent::EnqueueCommit {
                switch: SwitchId(lo),
                port: hi,
                bytes: word0 as u32,
                engine: (word0 >> 32) as u16,
            }),
            K_FLOW_ARRIVAL => Event::FlowArrival,
            K_INCAST_EPOCH => Event::IncastEpoch,
            K_MICE_TICK => Event::MiceTick,
            K_TCP_TIMER => Event::TcpTimer { flow: lo },
            K_SHIM_TIMER => Event::ShimTimer {
                flow: lo,
                gen: word0,
            },
            K_SAMPLE_QUEUES => Event::SampleQueues,
            K_FAULT => Event::Fault { idx: lo },
            K_RECONVERGE => Event::Reconverge { gen: word0 },
            kind => panic!("unknown packed event kind {kind}"),
        }
    }
}

/// Two words exactly: a third would be a third store per push and load
/// per pop, and anything narrower is what this type exists to avoid.
const _: () = assert!(std::mem::size_of::<Packed>() == 16);

/// Whole-entry size: the payload's two words + the wheel's `time` and
/// `seq`, and nothing else — two entries to a cache line.
const _: () = assert!(drill_sim::entry_size::<Packed>() == 32);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FlowClass {
    Background,
    Incast,
    Mice,
    Elephant,
}

/// One experiment mid-flight: the topology, every component's state, and
/// the event engine. Built by [`World::new`], advanced by
/// [`World::run_to`], captured/resumed by [`World::snapshot`] and
/// [`World::restore`], and finished into [`RunStats`] by
/// [`World::finish`]. The free functions [`run`]/[`run_probed`] drive the
/// same type end to end.
pub struct World<P: Probe = NoopProbe> {
    cfg: ExperimentConfig,
    topo: Topology,
    routes: RouteTable,
    /// Structural §3.4 control plane. Persists interned structure across
    /// reconvergences so a fault only re-decomposes entries whose
    /// fingerprint changed.
    symmetry: SymmetryEngine,
    switches: Vec<Switch>,
    nics: Vec<HostNic>,
    host_policies: Vec<Box<dyn HostPolicy>>,
    /// Per-flow records, TCP runs only: a raw-packet flow is handed to
    /// its NIC whole and nothing asks about it again, so it leaves no
    /// entry in these vectors — only the `raw_*` counters below.
    flows: Vec<TcpFlow>,
    classes: Vec<FlowClass>,
    measured: Vec<bool>,
    shims: Vec<Option<ShimBuffer>>,
    /// Timer generation the flow's current RTO deadline was taken at.
    sched_gen: Vec<u64>,
    /// Deadline of the flow's latest RTO restart (that of `sched_gen`).
    rto_due: Vec<Time>,
    /// Time of the flow's one live `TcpTimer` wake in the wheel
    /// (`Time::MAX` = none pending). Never later than `rto_due` while
    /// `sched_gen` is current.
    rto_wake: Vec<Time>,
    /// Raw-packet flows started so far (the next one's flow id).
    raw_flows: u32,
    /// Of those, the measured non-elephants: each is owed a zero
    /// `dupacks`/`reorders` sample at [`finalize`](World::finalize).
    raw_measured: u64,
    /// Raw elephants (always measured): each is owed a zero
    /// `elephant_gbps` sample. No figure or workload makes one.
    raw_elephants: u64,
    queue: EventQueue<Packed>,
    rng_net: SimRng,
    rng_wl: SimRng,
    pkt_ids: u64,
    gen: Option<WorkloadGen>,
    pending_flow: Option<FlowSpec>,
    synth_pattern: Option<TrafficPattern>,
    net_buf: EventSink,
    /// Every in-flight packet, interned between host send and final
    /// delivery/drop; events and queues carry [`PacketRef`] handles.
    arena: PacketArena,
    /// Recycled `Vec<Packet>` buffers for TCP/ACK emission batches.
    pkt_pool: PacketBufPool,
    /// Recycled `Vec<PacketRef>` buffers for shim release batches.
    ref_pool: BufPool<PacketRef>,
    /// Scratch for per-sample queue lengths in `sample_queues`.
    lens_scratch: Vec<f64>,
    stats: RunStats,
    arrivals_end: Time,
    leaf_of: Vec<u32>,
    leaf_up_ports: Vec<Vec<(usize, u16)>>,
    spine_down_ports: Vec<Vec<(usize, u16)>>,
    shim_enabled: bool,
    data_delivered: u64,
    bytes_delivered: u64,
    /// The run's fault timeline: `(strike time, kind, detection delay)`,
    /// time-sorted (legacy `failed_links`/`fail_at` entries first on
    /// ties). Indexed by `Event::Fault`.
    faults: Vec<(Time, FaultKind, Time)>,
    injector: FaultInjector,
    /// Timeline entries that have struck so far (`faults[..faults_applied]`
    /// are applied to the topology). Restore replays exactly this prefix.
    faults_applied: u64,
    /// `faults_applied` at the moment of the last reconvergence — the
    /// fault prefix the current routing state was computed against.
    faults_applied_at_reconv: u64,
    /// Latest scheduled reconvergence generation; only the newest
    /// generation's `Reconverge` pop actually recomputes.
    reconv_gen: u64,
    /// Open fault window: when the oldest still-unreconverged fault
    /// struck (`None` = routing is stable).
    window_open_at: Option<Time>,
    /// Total switch blackhole count when the open window started.
    blackhole_mark: u64,
    /// Closed fault windows, for FCT in/out-of-window classification.
    fault_windows: Vec<(Time, Time)>,
    /// Telemetry probe. `NoopProbe` monomorphizes every hook away; a
    /// recording probe observes but never steers (no access to RNGs, the
    /// event queue, or packets), so metrics are bit-identical either way.
    probe: P,
    /// Invariant auditor, attached by the audited run entry points. It
    /// observes boundary samples but never steers, so auditor-on
    /// fingerprints are pinned bit-identical to auditor-off. `None` on
    /// every other run, which then has no boundaries (`audit_every` is 0)
    /// and honours no sabotage.
    audit: Option<InvariantAuditor>,
    /// Recycled per-flow progress rows for audit boundaries.
    audit_scratch: Vec<FlowProgress>,
    /// Last-K `DRILLSNAP` ring retaining the most recent *clean*
    /// boundaries (audited runs only); the rewind pool a trip dumps.
    audit_ring: Option<SnapshotRing>,
    /// Audit boundary period in processed events (0 = no boundaries).
    audit_every: u64,
    /// A trip dumps ring + faulted snapshot + meta exactly once.
    audit_dumped: bool,
    /// `cfg.sabotage` on audited runs, `None` otherwise; the one-shot
    /// `LeakPacket` clears it when it fires.
    sabotage: Option<SabotageSpec>,
}

/// Fail the link pair `(a, b)`, trying both orientations, and panic with
/// a clear message if no live link matches — identical behaviour whether
/// failures apply at build time or at the `fail_at` event.
fn apply_failure(topo: &mut Topology, a: u32, b: u32) {
    let ok = topo.fail_switch_link(SwitchId(a), SwitchId(b), 0)
        || topo.fail_switch_link(SwitchId(b), SwitchId(a), 0);
    assert!(
        ok,
        "failed link ({a},{b}) matches no live switch-to-switch link in the topology"
    );
}

/// Pick `n` random distinct, currently-alive leaf-to-spine link pairs
/// (as `(leaf switch id, spine-side switch id)`), for the failure
/// experiments (Figures 11b/c and 12).
pub fn random_leaf_spine_failures(topo: &Topology, n: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = topo
        .links()
        .iter()
        .filter(|l| l.up && l.hop == HopClass::LeafUp)
        .filter_map(|l| match (l.src, l.dst) {
            (drill_net::NodeRef::Switch(a), drill_net::NodeRef::Switch(b)) => Some((a.0, b.0)),
            _ => None,
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut rng = SimRng::seed_from(seed ^ 0xfa11_fa11);
    rng.shuffle(&mut pairs);
    pairs.truncate(n);
    pairs
}

/// Execute one experiment configuration to completion.
///
/// With `cfg.telemetry` unset (the default) this runs the probe-free
/// build; with a [`TelemetrySpec`](crate::config::TelemetrySpec) attached
/// it records a flight-recorder trace (see [`run_recorded`]) and discards
/// the telemetry, returning the — bit-identical — stats either way.
pub fn run(cfg: &ExperimentConfig) -> RunStats {
    if cfg.telemetry.is_some() {
        run_recorded(cfg).0
    } else {
        run_probed(cfg, NoopProbe).0
    }
}

/// Execute one experiment with a caller-supplied telemetry probe, returning
/// the stats together with the probe for inspection. `run_probed(cfg,
/// NoopProbe)` compiles to exactly the probe-free simulation.
///
/// With `cfg.audit` attached the invariant auditor rides along (reports
/// are counted into [`RunStats::anomalies`] and any trip dumps to the
/// spec's `dump_dir`); without it the run has no audit boundaries.
pub fn run_probed<P: Probe>(cfg: &ExperimentConfig, probe: P) -> (RunStats, P) {
    let (stats, probe, _reports) = run_parts(cfg, probe);
    (stats, probe)
}

fn run_parts<P: Probe>(cfg: &ExperimentConfig, probe: P) -> (RunStats, P, Vec<AnomalyReport>) {
    let mut w = World::build(cfg.clone(), probe, cfg.audit.is_some());
    w.prime();
    w.finish_parts()
}

/// Execute one experiment under the invariant auditor (using `cfg.audit`,
/// or [`Default`] knobs when unset) and return the stats together with
/// every anomaly report. An empty report list is the auditor's verdict
/// that all watchdog invariants held at every boundary.
pub fn run_audited(cfg: &ExperimentConfig) -> (RunStats, Vec<AnomalyReport>) {
    let mut cfg = cfg.clone();
    cfg.audit.get_or_insert_with(Default::default);
    let (stats, _, reports) = run_parts(&cfg, NoopProbe);
    (stats, reports)
}

/// The telemetry captured by a recorded run.
pub struct Telemetry {
    /// Per-(switch, engine) lifecycle-event rings.
    pub recorder: FlightRecorder,
    /// Queue-depth time series and high-water marks.
    pub sampler: QueueSampler,
}

/// Execute one experiment with the flight recorder and queue sampler
/// attached (using `cfg.telemetry`, or [`Default`] knobs when unset), and
/// write the trace file if the spec names a path.
pub fn run_recorded(cfg: &ExperimentConfig) -> (RunStats, Telemetry) {
    let spec = cfg.telemetry.clone().unwrap_or_default();
    let topo = cfg.topo.build();
    let recorder = FlightRecorder::new(topo.num_switches(), cfg.engines, spec.ring_capacity);
    let sampler = QueueSampler::new(spec.sample_every);
    let (stats, (recorder, sampler)) = run_probed(cfg, (recorder, sampler));
    if let Some(path) = &spec.trace_path {
        let file = std::fs::File::create(path)
            .unwrap_or_else(|e| panic!("telemetry trace {}: {e}", path.display()));
        let mut w = std::io::BufWriter::new(file);
        drill_telemetry::write_trace(&recorder, &mut w)
            .unwrap_or_else(|e| panic!("telemetry trace {}: {e}", path.display()));
    }
    (stats, Telemetry { recorder, sampler })
}

impl World<NoopProbe> {
    /// Build and prime an experiment without running it — the entry point
    /// for stepwise execution: [`run_to`](World::run_to) →
    /// [`snapshot`](World::snapshot) → [`finish`](World::finish).
    pub fn new(cfg: &ExperimentConfig) -> World<NoopProbe> {
        let mut w = World::build(cfg.clone(), NoopProbe, false);
        w.prime();
        w
    }
}

impl<P: Probe> World<P> {
    /// Advance the simulation until the next pending event would be at or
    /// past `t` — the state "as of `t⁻`" — honouring the run deadline and
    /// `max_events` exactly like a straight-through run.
    pub fn run_to(&mut self, t: Time) {
        let deadline = self.cfg.duration + self.cfg.drain;
        loop {
            match self.queue.peek_time() {
                Some(next) if next < t => {}
                _ => break,
            }
            let Some((now, ev)) = self.pop_within(deadline) else {
                break;
            };
            self.dispatch(now, ev);
        }
    }

    /// Run every remaining event and produce the final statistics.
    pub fn finish(mut self) -> RunStats {
        self.event_loop();
        self.finalize().0
    }

    /// Run every remaining event and return the stats together with the
    /// probe and the auditor's anomaly reports (empty when none rode
    /// along) — the stepwise analogue of [`run_probed`], used by
    /// rewind-replay to recover the [`FlightRecorder`] attached to a
    /// restored world.
    pub fn finish_parts(mut self) -> (RunStats, P, Vec<AnomalyReport>) {
        self.event_loop();
        self.finalize()
    }

    /// Events processed so far — stepwise progress inspection between
    /// [`run_to`](World::run_to) calls.
    pub fn events_processed(&self) -> u64 {
        self.queue.events_processed()
    }
}

impl<P: Probe> World<P> {
    /// `audited` attaches the invariant auditor `cfg.audit` describes;
    /// stepwise and restored worlds pass `false` and ignore the spec.
    fn build(cfg: ExperimentConfig, probe: P, audited: bool) -> World<P> {
        let mut topo = cfg.topo.build();
        // Validate the failure list up front, whether failures apply now
        // or at `fail_at`: a pair that matches no switch-to-switch link is
        // a config bug and must fail loudly in both modes (the
        // ApplyFailures event used to ignore unknown pairs silently).
        for &(a, b) in &cfg.failed_links {
            assert!(
                (a as usize) < topo.num_switches()
                    && (b as usize) < topo.num_switches()
                    && (!topo.ports_to_switch(SwitchId(a), SwitchId(b)).is_empty()
                        || !topo.ports_to_switch(SwitchId(b), SwitchId(a)).is_empty()),
                "failed link ({a},{b}) matches no live switch-to-switch link in the topology"
            );
        }
        if cfg.fail_at.is_none() {
            for &(a, b) in &cfg.failed_links {
                apply_failure(&mut topo, a, b);
            }
        }
        let mut routes = RouteTable::compute(&topo);
        let mut symmetry = SymmetryEngine::new();
        if cfg.scheme.wants_symmetric_groups() && cfg.asymmetry_handling {
            symmetry.install(&topo, &mut routes);
        }

        let sw_cfg = SwitchConfig {
            engines: cfg.engines,
            queue_limit_bytes: cfg.queue_limit_bytes,
            model_enqueue_commit: cfg.model_commit,
        };
        let mut switches: Vec<Switch> = (0..topo.num_switches())
            .map(|i| {
                let id = SwitchId(i as u32);
                let policy = cfg
                    .scheme
                    .make_switch_policy(&topo, &routes, id, cfg.engines);
                Switch::new(id, topo.num_ports(id), sw_cfg.clone(), policy)
            })
            .collect();
        for sw in switches.iter_mut() {
            sw.sync_link_state(&topo);
        }
        let nics: Vec<HostNic> = (0..topo.num_hosts() as u32)
            .map(|h| HostNic::new(HostId(h)))
            .collect();
        let host_policies: Vec<Box<dyn HostPolicy>> = (0..topo.num_hosts() as u32)
            .map(|h| cfg.scheme.make_host_policy(&topo, &routes, HostId(h)))
            .collect();

        let leaf_of: Vec<u32> = (0..topo.num_hosts() as u32)
            .map(|h| topo.host_leaf_index(HostId(h)))
            .collect();

        // Queue-STDV sampling port lists.
        let n_leaves = topo.num_leaves();
        let mut leaf_up_ports = vec![Vec::new(); n_leaves];
        let mut spine_down_ports = vec![Vec::new(); n_leaves];
        for l in topo.links() {
            if let (drill_net::NodeRef::Switch(src), drill_net::NodeRef::Switch(dst)) =
                (l.src, l.dst)
            {
                if l.hop == HopClass::LeafUp {
                    let li = topo.leaf_index(src).expect("leaf-up from a leaf") as usize;
                    leaf_up_ports[li].push((src.index(), l.src_port));
                } else if l.hop == HopClass::SpineDown {
                    if let Some(li) = topo.leaf_index(dst) {
                        spine_down_ports[li as usize].push((src.index(), l.src_port));
                    }
                }
            }
        }

        let mut rng_wl = SimRng::derive(cfg.seed, "workload", 0);
        let rng_net = SimRng::derive(cfg.seed, "net", 0);

        let gen = if cfg.synthetic.is_none() && cfg.workload.load > 0.0 {
            let mean = cfg.workload.sizes.mean();
            // Offered load is defined against the *available* core capacity
            // (the paper loads "up to 90% of the available core capacity"
            // in its failure experiments), so count only live links.
            let avail_core_bps: u64 = topo
                .links()
                .iter()
                .filter(|l| l.up && l.hop == HopClass::LeafUp)
                .map(|l| l.rate_bps)
                .sum();
            let rate = aggregate_flow_rate(cfg.workload.load, avail_core_bps, mean);
            let arrivals = if cfg.workload.burst_sigma > 0.0 {
                ArrivalProcess::lognormal(rate, cfg.workload.burst_sigma)
            } else {
                ArrivalProcess::poisson(rate)
            };
            Some(WorkloadGen::new(
                cfg.workload.sizes.clone(),
                arrivals,
                cfg.workload.pattern.clone(),
                leaf_of.clone(),
                &mut rng_wl,
            ))
        } else {
            None
        };
        let synth_pattern = cfg.synthetic.as_ref().map(|_| {
            cfg.workload
                .pattern
                .clone()
                .bind(leaf_of.clone(), &mut rng_wl)
        });

        let stats = RunStats::new(cfg.scheme.name());
        let shim_enabled = cfg.scheme.uses_shim();
        let arrivals_end = cfg.duration;

        // Fold the legacy one-shot (`failed_links` at `fail_at`, detected
        // after `ospf_delay`) and the chaos schedule into one timeline.
        // The sort is stable, so legacy entries precede schedule entries
        // striking at the same instant.
        let mut faults: Vec<(Time, FaultKind, Time)> = Vec::new();
        if let Some(at) = cfg.fail_at {
            for &(a, b) in &cfg.failed_links {
                faults.push((at, FaultKind::LinkDown { a, b }, cfg.ospf_delay));
            }
        }
        if let Some(sched) = &cfg.faults {
            for e in sched.events() {
                faults.push((e.at, e.kind, sched.detection_delay));
            }
        }
        faults.sort_by_key(|&(at, _, _)| at);

        // Audit plumbing: the auditor, boundary cadence, ring and
        // sabotage exist only on audited runs.
        let (audit, audit_every, audit_ring, sabotage) =
            match cfg.audit.as_ref().filter(|_| audited) {
                Some(spec) => {
                    // The ring is only ever observable through a trip
                    // dump, so it is armed — and the per-boundary snapshot
                    // cost paid — only when the spec names a dump_dir.
                    // Watchdog-only audit runs pay just the holder walk at
                    // each boundary.
                    let ring = spec
                        .dump_dir
                        .is_some()
                        .then(|| SnapshotRing::new(spec.ring_entries, spec.ring_bytes));
                    let auditor = InvariantAuditor::new(spec.stuck_after, spec.max_reports);
                    (Some(auditor), spec.every_events, ring, cfg.sabotage)
                }
                None => (None, 0, None, None),
            };
        World {
            cfg,
            topo,
            routes,
            symmetry,
            switches,
            nics,
            host_policies,
            flows: Vec::new(),
            classes: Vec::new(),
            measured: Vec::new(),
            shims: Vec::new(),
            sched_gen: Vec::new(),
            rto_due: Vec::new(),
            rto_wake: Vec::new(),
            raw_flows: 0,
            raw_measured: 0,
            raw_elephants: 0,
            queue: EventQueue::new(),
            rng_net,
            rng_wl,
            pkt_ids: 0,
            gen,
            pending_flow: None,
            synth_pattern,
            net_buf: Vec::new(),
            arena: PacketArena::new(),
            pkt_pool: PacketBufPool::new(),
            ref_pool: BufPool::new(),
            lens_scratch: Vec::new(),
            stats,
            arrivals_end,
            leaf_of,
            leaf_up_ports,
            spine_down_ports,
            shim_enabled,
            data_delivered: 0,
            bytes_delivered: 0,
            faults,
            injector: FaultInjector::new(),
            faults_applied: 0,
            faults_applied_at_reconv: 0,
            reconv_gen: 0,
            window_open_at: None,
            blackhole_mark: 0,
            fault_windows: Vec::new(),
            probe,
            audit,
            audit_scratch: Vec::new(),
            audit_ring,
            audit_every,
            audit_dumped: false,
            sabotage,
        }
    }

    /// Schedule the initial events.
    fn prime(&mut self) {
        if let Some(g) = self.gen.as_mut() {
            let spec = g.next_flow(&mut self.rng_wl);
            self.queue
                .push(Time::ZERO + spec.gap, Event::FlowArrival.into());
            self.pending_flow = Some(spec);
        }
        if let Some(incast) = &self.cfg.workload.incast {
            self.queue.push(
                self.cfg.warmup + incast.epoch_gap,
                Event::IncastEpoch.into(),
            );
        }
        if let Some(synth) = self.cfg.synthetic.clone() {
            // One elephant per host, started immediately.
            for src in 0..self.topo.num_hosts() as u32 {
                let dst = self
                    .synth_pattern
                    .as_mut()
                    .expect("synthetic mode has a bound pattern")
                    .pick_dst(src, &mut self.rng_wl);
                self.start_flow(
                    src,
                    dst,
                    synth.elephant_bytes,
                    FlowClass::Elephant,
                    Time::ZERO,
                );
            }
            self.queue.push(synth.mice_period, Event::MiceTick.into());
        }
        if self.cfg.sample_queues {
            self.queue.push(SAMPLE_PERIOD, Event::SampleQueues.into());
        }
        for &(src, dst, bytes) in &self.cfg.static_flows.clone() {
            self.start_flow(src, dst, bytes, FlowClass::Elephant, Time::ZERO);
        }
        // Fault events past the run's deadline are filtered here, not at
        // pop time: the timing wheel counts every pop (including
        // deadline-discarded ones) in `events_processed`, so enqueueing
        // them would perturb the event-count golden of an otherwise
        // identical run — and a fault nobody can observe is a no-op.
        // Faults are stamped from the reserved sequence band (they pop
        // after every ordinary event sharing their timestamp) so that a
        // restored run — which re-injects its not-yet-struck suffix from
        // the restore config's timeline — reproduces the cold run's tie
        // order exactly, and a warm-started fork can substitute a
        // divergent schedule without perturbing any other event's seq.
        let deadline = self.cfg.duration + self.cfg.drain;
        for (idx, &(at, _, _)) in self.faults.iter().enumerate() {
            if at <= deadline {
                self.queue.push_stamped(
                    at,
                    FAULT_SEQ_BASE + idx as u64,
                    Event::Fault { idx: idx as u32 }.into(),
                );
            }
        }
    }

    /// Pop the next event, or `None` when the run is over: the queue is
    /// empty, the event lies past `deadline`, or it is the first beyond
    /// `max_events` (a popped-and-discarded event still counts in
    /// `events_processed`, which the goldens pin). The event stays packed
    /// — two words in registers — until [`dispatch`](World::dispatch)
    /// unpacks it straight into its `match`.
    #[inline]
    fn pop_within(&mut self, deadline: Time) -> Option<(Time, Packed)> {
        let (now, ev) = self.queue.pop()?;
        if now > deadline {
            return None;
        }
        if self.cfg.max_events > 0 && self.queue.events_processed() > self.cfg.max_events {
            return None;
        }
        Some((now, ev))
    }

    fn event_loop(&mut self) {
        let deadline = self.cfg.duration + self.cfg.drain;
        let ckpt = self.cfg.checkpoint.clone();
        // An at-time checkpoint fires once, when the next pending event
        // would reach the target instant (state "as of t⁻").
        let mut at_armed = matches!(
            ckpt,
            Some(CheckpointSpec {
                policy: CheckpointPolicy::AtTime(_),
                ..
            })
        );
        loop {
            if at_armed {
                if let Some(CheckpointSpec {
                    policy: CheckpointPolicy::AtTime(t),
                    path,
                }) = ckpt.as_ref()
                {
                    if self.queue.peek_time().is_none_or(|next| next >= *t) {
                        self.snapshot()
                            .save(path)
                            .unwrap_or_else(|e| panic!("checkpoint {}: {e}", path.display()));
                        at_armed = false;
                    }
                }
            }
            let Some((now, ev)) = self.pop_within(deadline) else {
                break;
            };
            // Sabotage hook (audited runs only; negative tests and the
            // tracedump demo): a one-shot LeakPacket interns a dummy
            // packet and drops the handle the moment its time comes.
            if let Some(SabotageSpec {
                at,
                kind: SabotageKind::LeakPacket,
            }) = self.sabotage
            {
                if now >= at {
                    self.sabotage = None;
                    self.pkt_ids += 1;
                    let p = Packet::data(
                        self.pkt_ids,
                        drill_net::FlowId(u32::MAX),
                        HostId(0),
                        HostId(0),
                        0,
                        0,
                        1,
                        now,
                    );
                    let _leaked = self.arena.insert(p);
                }
            }
            self.dispatch(now, ev);
            if let Some(CheckpointSpec {
                policy: CheckpointPolicy::EveryEvents(n),
                path,
            }) = ckpt.as_ref()
            {
                if *n > 0 && self.queue.events_processed().is_multiple_of(*n) {
                    self.snapshot()
                        .save(path)
                        .unwrap_or_else(|e| panic!("checkpoint {}: {e}", path.display()));
                }
            }
            if self.audit_every > 0
                && self
                    .queue
                    .events_processed()
                    .is_multiple_of(self.audit_every)
            {
                self.audit_boundary();
            }
        }
    }

    /// Assemble one [`BoundarySample`] — between dispatches, so every
    /// count is consistent — and hand it to the auditor. Clean boundaries
    /// feed the snapshot ring; the first tripped boundary dumps it.
    fn audit_boundary(&mut self) {
        let now = self.queue.now();
        let events = self.queue.events_processed();

        // Holder walk: every live arena handle is in exactly one of the
        // switch queues (waiting + in-flight), NIC queues (the in-flight
        // head stays queued until tx-done), shim reorder buffers, or
        // packet-carrying pending events. Along the way, find the fullest
        // waiting queue for the ceiling watchdog.
        let mut holders: u64 = 0;
        let mut max_wait_bytes = 0u64;
        let mut max_wait_switch = 0u32;
        let mut max_wait_port = 0u16;
        for (si, sw) in self.switches.iter().enumerate() {
            for port in 0..sw.num_ports() as u16 {
                holders += sw.queue_pkts(port) as u64;
                let wb = sw.waiting_bytes(port);
                if wb > max_wait_bytes {
                    max_wait_bytes = wb;
                    max_wait_switch = si as u32;
                    max_wait_port = port;
                }
            }
        }
        // A NIC holds only its built packets; the unsent segments of a
        // raw-flow train are in no arena yet. Its byte counter, though,
        // covers both, and must match a recount from the entries.
        let mut nic_backlog_mismatch = None;
        for (h, nic) in self.nics.iter().enumerate() {
            holders += nic.backlog_pkts() as u64;
            let (counted, walked) = (nic.backlog_bytes(), nic.walked_backlog_bytes());
            if counted != walked && nic_backlog_mismatch.is_none() {
                nic_backlog_mismatch = Some((h as u32, counted, walked));
            }
        }
        for shim in self.shims.iter().flatten() {
            holders += shim.held() as u64;
        }
        let mut pending: u64 = 0;
        self.queue.for_each_pending(|_, _, &ev| {
            if let Event::Net(NetEvent::ArriveSwitch { .. } | NetEvent::ArriveHost { .. }) =
                Event::from(ev)
            {
                pending += 1;
            }
        });
        holders += pending;

        let arena_live = self.arena.live() as u64;
        let next_event_time = self.queue.peek_time();

        let mut flows = std::mem::take(&mut self.audit_scratch);
        flows.clear();
        flows.extend(self.flows.iter().enumerate().map(|(i, f)| FlowProgress {
            flow: i as u32,
            bytes_acked: f.bytes_acked,
            start: f.start,
            done: f.done.is_some(),
        }));
        let auditor = self
            .audit
            .as_mut()
            .expect("audit boundaries fire only with an auditor attached");
        let before = auditor.reports().len();
        auditor.on_boundary(&BoundarySample {
            now,
            events,
            arena_live,
            holders,
            max_wait_bytes,
            max_wait_switch,
            max_wait_port,
            queue_limit_bytes: self.cfg.queue_limit_bytes,
            nic_backlog_mismatch,
            next_event_time,
            flows: &flows,
        });
        self.audit_scratch = flows;

        if let Some(report) = auditor.reports().get(before).cloned() {
            self.audit_trip(report);
        } else if self.audit_ring.is_some() && before == 0 {
            // Only clean boundaries enter the ring: after a trip the ring
            // freezes as the rewind pool ending just before the anomaly.
            let bytes = self.snapshot().to_bytes();
            if let Some(ring) = self.audit_ring.as_mut() {
                ring.push(now, events, bytes);
            }
        }
    }

    /// Graceful degradation on a watchdog trip: no panic — dump the
    /// snapshot ring, a `DRILLSNAP` of the faulted instant, and an
    /// `anomaly.meta` describing the first new report into the spec's
    /// `dump_dir` (once per run), leaving the run to complete normally.
    fn audit_trip(&mut self, report: AnomalyReport) {
        if self.audit_dumped {
            return;
        }
        self.audit_dumped = true;
        let Some(dir) = self
            .cfg
            .audit
            .as_ref()
            .and_then(|spec| spec.dump_dir.clone())
        else {
            return;
        };
        let result = (|| -> std::io::Result<()> {
            std::fs::create_dir_all(&dir)?;
            let ring_paths = match &self.audit_ring {
                Some(ring) => ring.dump(&dir)?,
                None => Vec::new(),
            };
            self.snapshot().save(dir.join("faulted.drillsnap"))?;
            let mut meta = report.meta_lines();
            if let Some(rewind) = ring_paths.last().and_then(|p| p.file_name()) {
                meta.push(format!("rewind={}", rewind.to_string_lossy()));
            }
            if let Some(e) = self.audit_ring.as_ref().and_then(|r| r.newest()) {
                meta.push(format!("rewind_events={}", e.events));
            }
            meta.push("faulted=faulted.drillsnap".to_string());
            std::fs::write(dir.join("anomaly.meta"), meta.join("\n") + "\n")
        })();
        if let Err(e) = result {
            eprintln!("audit dump {}: {e}", dir.display());
        }
    }

    fn dispatch(&mut self, now: Time, ev: Packed) {
        match Event::from(ev) {
            Event::Net(NetEvent::ArriveSwitch {
                switch,
                ingress,
                pkt,
            }) => {
                self.switches[switch.index()].receive(
                    &self.topo,
                    &self.routes,
                    &mut self.arena,
                    pkt,
                    ingress,
                    now,
                    &mut self.rng_net,
                    &mut self.net_buf,
                    &mut self.probe,
                );
                self.drain_net();
            }
            Event::Net(NetEvent::ArriveHost { host, pkt }) => self.on_host_arrival(host, pkt, now),
            Event::Net(NetEvent::SwitchTxDone { switch, port }) => {
                self.switches[switch.index()].on_tx_done(
                    &self.topo,
                    &mut self.arena,
                    port,
                    now,
                    &mut self.rng_net,
                    &mut self.net_buf,
                    &mut self.probe,
                );
                self.drain_net();
            }
            Event::Net(NetEvent::HostTxDone { host }) => {
                let nic = &mut self.nics[host.index()];
                nic.on_tx_done(&self.topo, now, &mut self.net_buf);
                nic.start_next(
                    &self.topo,
                    &mut self.arena,
                    &mut *self.host_policies[host.index()],
                    &mut self.rng_net,
                    now,
                    &mut self.net_buf,
                );
                self.drain_net();
            }
            Event::Net(NetEvent::EnqueueCommit {
                switch,
                port,
                bytes,
                engine,
            }) => {
                self.switches[switch.index()].on_enqueue_commit(port, bytes, engine);
            }
            Event::FlowArrival => {
                if let Some(spec) = self.pending_flow.take() {
                    self.start_flow(spec.src, spec.dst, spec.bytes, FlowClass::Background, now);
                }
                if now <= self.arrivals_end {
                    if let Some(g) = self.gen.as_mut() {
                        let next = g.next_flow(&mut self.rng_wl);
                        self.queue.push(now + next.gap, Event::FlowArrival.into());
                        self.pending_flow = Some(next);
                    }
                }
            }
            Event::IncastEpoch => {
                if let Some(incast) = self.cfg.workload.incast.clone() {
                    let flows = incast.epoch_flows(self.topo.num_hosts() as u32, &mut self.rng_wl);
                    for (server, requester, bytes) in flows {
                        self.start_flow(server, requester, bytes, FlowClass::Incast, now);
                    }
                    if now + incast.epoch_gap <= self.arrivals_end {
                        self.queue
                            .push(now + incast.epoch_gap, Event::IncastEpoch.into());
                    }
                }
            }
            Event::MiceTick => {
                if let Some(synth) = self.cfg.synthetic.clone() {
                    for src in 0..self.topo.num_hosts() as u32 {
                        let dst = self.uniform_other_leaf(src);
                        self.start_flow(src, dst, synth.mice_bytes, FlowClass::Mice, now);
                    }
                    if now + synth.mice_period <= self.arrivals_end {
                        self.queue
                            .push(now + synth.mice_period, Event::MiceTick.into());
                    }
                }
            }
            Event::TcpTimer { flow } => self.on_rto_wake(flow, now),
            Event::ShimTimer { flow, gen } => {
                if let Some(shim) = self.shims[flow as usize].as_mut() {
                    let mut released = self.ref_pool.get();
                    shim.on_timer(&self.arena, gen, now, &mut released);
                    for p in released.drain(..) {
                        self.recv_data(flow, p, now);
                    }
                    self.ref_pool.put(released);
                }
            }
            Event::SampleQueues => {
                self.sample_queues();
                if now + SAMPLE_PERIOD <= self.cfg.duration {
                    self.queue
                        .push(now + SAMPLE_PERIOD, Event::SampleQueues.into());
                }
            }
            Event::Fault { idx } => {
                let (_, kind, delay) = self.faults[idx as usize];
                // Strikes arrive in timeline order (time-sorted, and the
                // reserved-band seq `FAULT_SEQ_BASE + idx` orders ties by
                // index), so the applied set is always `faults[..applied]`.
                debug_assert_eq!(self.faults_applied, idx as u64);
                self.faults_applied += 1;
                let info = self.injector.apply(&mut self.topo, kind);
                // Local reaction at line speed: every switch prunes its own
                // dead egress members immediately; only the multi-hop
                // routing state stays stale until reconvergence.
                self.sync_switch_link_state();
                if P::ENABLED {
                    self.probe.on_fault(now, &info);
                }
                self.stats.fault_events += 1;
                if kind.needs_reconvergence() {
                    // During the detection window packets keep steering
                    // into the dead/degraded paths (graceful-degradation
                    // window); open it on the first outstanding fault.
                    if self.window_open_at.is_none() {
                        self.window_open_at = Some(now);
                        self.blackhole_mark = self.total_blackholed();
                    }
                    self.reconv_gen += 1;
                    let due = now + delay;
                    if due <= self.cfg.duration + self.cfg.drain {
                        self.queue.push(
                            due,
                            Event::Reconverge {
                                gen: self.reconv_gen,
                            }
                            .into(),
                        );
                    }
                }
            }
            Event::Reconverge { gen } => {
                if gen == self.reconv_gen {
                    self.reconverge(now, gen);
                }
            }
        }
    }

    /// Install the post-fault routing state atomically: recompute routes,
    /// re-run the §3.4 symmetric-component decomposition, and let
    /// controller-driven schemes rebuild their tables. Fires only for the
    /// newest reconvergence generation, then closes the fault window.
    fn reconverge(&mut self, now: Time, gen: u64) {
        // Snapshot before any table rebuild: Wcmp's rebuild replaces the
        // switch objects, zeroing their counters.
        let blackholed_now = self.total_blackholed();
        // The BFS is a pure function of the up/down link state, so a
        // window of faults none of which can change reachability (e.g.
        // pure capacity degradation) provably leaves `routes` as-is; only
        // the capacity-dependent group decomposition must rerun. The
        // premise is pinned in drill-faults:
        // `non_reachability_faults_leave_routes_unchanged`.
        let window =
            &self.faults[self.faults_applied_at_reconv as usize..self.faults_applied as usize];
        let routes_stale = window.is_empty()
            || window
                .iter()
                .any(|&(_, kind, _)| kind.changes_reachability());
        if routes_stale {
            self.routes = RouteTable::compute(&self.topo);
        }
        if self.cfg.scheme.wants_symmetric_groups() && self.cfg.asymmetry_handling {
            self.symmetry.install(&self.topo, &mut self.routes);
        }
        if matches!(self.cfg.scheme, Scheme::Wcmp) {
            for i in 0..self.switches.len() {
                let id = SwitchId(i as u32);
                let p = self.cfg.scheme.make_switch_policy(
                    &self.topo,
                    &self.routes,
                    id,
                    self.cfg.engines,
                );
                // Packets queued at the replaced switch are dropped with
                // it (as before the arena); release their slots so the
                // end-of-run leak check stays exact.
                self.switches[i].free_queued(&mut self.arena);
                self.switches[i] = rebuild_switch(&self.topo, &self.switches[i], p, &self.cfg);
            }
            // Rebuilt switch objects start with an all-live pruning table.
            self.sync_switch_link_state();
        }
        if matches!(self.cfg.scheme, Scheme::Presto { .. }) {
            for h in 0..self.host_policies.len() {
                self.host_policies[h] =
                    self.cfg
                        .scheme
                        .make_host_policy(&self.topo, &self.routes, HostId(h as u32));
            }
        }
        self.stats.reconvergences += 1;
        self.stats.stable_at = now;
        self.faults_applied_at_reconv = self.faults_applied;
        if P::ENABLED {
            self.probe.on_fault(
                now,
                &FaultInfo {
                    kind: fault_kind::RECONVERGE,
                    a: u32::MAX,
                    b: u32::MAX,
                    param: gen,
                },
            );
        }
        if let Some(open) = self.window_open_at.take() {
            let window_ns = (now - open).as_nanos();
            self.stats.fault_blackholed += blackholed_now.saturating_sub(self.blackhole_mark);
            self.stats.fault_window_ns += window_ns;
            self.fault_windows.push((open, now));
            if P::ENABLED {
                self.probe.on_fault(
                    now,
                    &FaultInfo {
                        kind: fault_kind::STABLE,
                        a: u32::MAX,
                        b: u32::MAX,
                        param: window_ns,
                    },
                );
            }
        }
    }

    /// Mirror the topology's link state into every switch's local pruning
    /// table (see [`Switch::sync_link_state`]).
    fn sync_switch_link_state(&mut self) {
        for sw in self.switches.iter_mut() {
            sw.sync_link_state(&self.topo);
        }
    }

    /// Sum of per-switch blackhole counters (snapshotted at fault-window
    /// boundaries for the graceful-degradation delta).
    fn total_blackholed(&self) -> u64 {
        self.switches.iter().map(|s| s.blackholed).sum()
    }

    fn uniform_other_leaf(&mut self, src: u32) -> u32 {
        let my_leaf = self.leaf_of[src as usize];
        loop {
            let d = self.rng_wl.below(self.leaf_of.len()) as u32;
            if self.leaf_of[d as usize] != my_leaf {
                return d;
            }
        }
    }

    /// Move newly emitted network events into the wheel. `net_buf` is a
    /// field to avoid per-event allocation, and it drains in FIFO order:
    /// components rely on push order as the tie-break for same-timestamp
    /// events (enqueue-commit before tx-done).
    fn drain_net(&mut self) {
        for (t, e) in self.net_buf.drain(..) {
            self.queue.push(t, Event::Net(e).into());
        }
    }

    fn start_flow(&mut self, src: u32, dst: u32, bytes: u64, class: FlowClass, now: Time) {
        if src == dst {
            return;
        }
        let flow_hash = self.rng_wl.next_u64();
        // Elephants are the measured subject wherever they appear (they
        // start at t=0 by design); other classes honour the warmup window.
        let measured =
            class == FlowClass::Elephant || (now >= self.cfg.warmup && now <= self.arrivals_end);
        if measured {
            self.stats.flows_started += 1;
        }

        if self.cfg.raw_packet_mode {
            // Open-loop packet train: the whole flow is dumped into the
            // NIC at arrival (the NIC paces it at line rate, and builds
            // each packet as it goes on the wire).
            let id = drill_net::FlowId(self.raw_flows);
            self.raw_flows += 1;
            if class == FlowClass::Elephant {
                self.raw_elephants += 1;
            } else if measured {
                self.raw_measured += 1;
            }
            let train = Train::new(id, HostId(dst), flow_hash, self.pkt_ids + 1, bytes, now);
            self.pkt_ids += train.segments();
            self.nics[src as usize].send_train(
                &self.topo,
                &mut self.arena,
                &mut *self.host_policies[src as usize],
                &mut self.rng_net,
                train,
                &mut self.net_buf,
                &mut self.probe,
            );
            self.drain_net();
            return;
        }

        let id = drill_net::FlowId(self.flows.len() as u32);
        let flow = TcpFlow::new(
            id,
            HostId(src),
            HostId(dst),
            flow_hash,
            bytes,
            now,
            self.cfg.tcp,
        );
        self.flows.push(flow);
        self.classes.push(class);
        self.measured.push(measured);
        self.shims.push(None);
        self.sched_gen.push(0);
        self.rto_due.push(Time::ZERO);
        self.rto_wake.push(Time::MAX);

        let mut out = self.pkt_pool.get();
        let idx = id.0;
        self.flows[idx as usize].start_sending(now, &mut self.pkt_ids, &mut out);
        for p in out.drain(..) {
            self.host_send(HostId(src), p, now);
        }
        self.pkt_pool.put(out);
        self.schedule_rto(idx, now);
    }

    /// (Re)start `flow`'s retransmission timer, keeping **one** wake per
    /// flow in the wheel instead of one event per restart: a restart only
    /// moves `rto_due`, and the pending wake re-arms itself at the new
    /// deadline when it pops. A push happens only when no wake is pending
    /// or the new deadline precedes it (the RTO shrank after a back-off).
    /// Wheel residency is O(flows), not O(ACKs inside one RTO).
    fn schedule_rto(&mut self, flow: u32, now: Time) {
        let f = flow as usize;
        if let Some((at, gen)) = self.flows[f].rto_deadline(now) {
            if self.sched_gen[f] != gen {
                self.sched_gen[f] = gen;
                self.rto_due[f] = at;
                if at < self.rto_wake[f] {
                    self.rto_wake[f] = at;
                    self.queue.push(at, Event::TcpTimer { flow }.into());
                }
            }
        }
    }

    /// A `TcpTimer` wake popped at `now`. Only the live wake counts; it
    /// re-arms at `rto_due` if ACKs moved the deadline on since it was
    /// pushed, and otherwise *is* the deadline — the RTO fires at the
    /// nanosecond the latest restart asked for.
    fn on_rto_wake(&mut self, flow: u32, now: Time) {
        let f = flow as usize;
        if self.rto_wake[f] != now {
            // Orphaned by an earlier wake pushed when the RTO shrank.
            return;
        }
        self.rto_wake[f] = Time::MAX;
        if self.sched_gen[f] != self.flows[f].timer_generation() {
            // The flow finished (or has nothing in flight) without a new
            // deadline: the one held can never fire, so neither re-arm.
            return;
        }
        if self.rto_due[f] > now {
            self.rto_wake[f] = self.rto_due[f];
            self.queue
                .push(self.rto_due[f], Event::TcpTimer { flow }.into());
            return;
        }
        let mut out = self.pkt_pool.get();
        let fired = self.flows[f].on_timer(self.sched_gen[f], now, &mut self.pkt_ids, &mut out);
        if fired {
            let src = self.flows[f].src;
            for p in out.drain(..) {
                self.host_send(src, p, now);
            }
            self.schedule_rto(flow, now);
        }
        self.pkt_pool.put(out);
    }

    fn host_send(&mut self, host: HostId, mut pkt: Packet, now: Time) {
        self.host_policies[host.index()].on_send(&mut pkt, now, &mut self.rng_net);
        // The packet enters the arena here and leaves at final delivery
        // (`take`) or at whichever drop site claims it (`free`).
        let pref = self.arena.insert(pkt);
        self.nics[host.index()].send(
            &self.topo,
            &mut self.arena,
            pref,
            now,
            &mut self.net_buf,
            &mut self.probe,
        );
        self.drain_net();
    }

    fn on_host_arrival(&mut self, host: HostId, pref: PacketRef, now: Time) {
        if P::ENABLED {
            self.probe
                .on_host_recv(now, host.0, &self.arena.get(&pref).meta());
        }
        if self.cfg.raw_packet_mode {
            self.data_delivered += 1;
            self.bytes_delivered += self.arena.get(&pref).payload as u64;
            self.arena.free(pref);
            return;
        }
        let (flow, is_ack) = {
            let pkt = self.arena.get(&pref);
            (pkt.flow.0, pkt.is_ack())
        };
        // Sabotage hook (audited runs only): blackhole the target
        // flow's data at the receiver — freed, not leaked, so packet
        // conservation stays clean while the sender stalls into RTOs.
        if let Some(SabotageSpec {
            at,
            kind: SabotageKind::BlackholeFlow { flow: target },
        }) = self.sabotage
        {
            if flow == target && !is_ack && now >= at {
                self.arena.free(pref);
                return;
            }
        }
        if is_ack {
            // Sender side.
            let pkt = self.arena.take(pref);
            debug_assert_eq!(self.flows[flow as usize].src, host);
            let mut out = self.pkt_pool.get();
            self.flows[flow as usize].on_ack(&pkt, now, &mut self.pkt_ids, &mut out);
            for p in out.drain(..) {
                self.host_send(host, p, now);
            }
            self.pkt_pool.put(out);
            self.schedule_rto(flow, now);
            if self.flows[flow as usize].is_done()
                && self.classes[flow as usize] == FlowClass::Elephant
            {
                self.chain_elephant(flow, now);
            }
        } else {
            // Receiver side; the shim (if enabled) restores ordering first.
            if self.shim_enabled {
                if self.shims[flow as usize].is_none() {
                    let (threshold, timeout) = self.cfg.scheme.shim_params();
                    self.shims[flow as usize] =
                        Some(ShimBuffer::with_threshold(timeout, threshold));
                }
                let mut deliver = self.ref_pool.get();
                let shim = self.shims[flow as usize].as_mut().expect("just created");
                let timer = shim.on_packet(&self.arena, pref, now, &mut deliver);
                if let Some((at, gen)) = timer {
                    self.queue.push(at, Event::ShimTimer { flow, gen }.into());
                }
                for p in deliver.drain(..) {
                    self.recv_data(flow, p, now);
                }
                self.ref_pool.put(deliver);
            } else {
                self.recv_data(flow, pref, now);
            }
        }
    }

    fn recv_data(&mut self, flow: u32, pref: PacketRef, now: Time) {
        self.data_delivered += 1;
        let receiver = self.flows[flow as usize].dst;
        let pkt = self.arena.take(pref);
        self.bytes_delivered += pkt.payload as u64;
        let mut acks = self.pkt_pool.get();
        self.flows[flow as usize].on_data(&pkt, now, &mut self.pkt_ids, &mut acks);
        for a in acks.drain(..) {
            self.host_send(receiver, a, now);
        }
        self.pkt_pool.put(acks);
    }

    fn chain_elephant(&mut self, flow: u32, now: Time) {
        let synth = match self.cfg.synthetic.clone() {
            Some(s) => s,
            None => return,
        };
        let src = self.flows[flow as usize].src.0;
        let dst = self
            .synth_pattern
            .as_mut()
            .expect("synthetic mode has a bound pattern")
            .pick_dst(src, &mut self.rng_wl);
        if now <= self.arrivals_end {
            self.start_flow(src, dst, synth.elephant_bytes, FlowClass::Elephant, now);
        }
    }

    fn sample_queues(&mut self) {
        let mut lens = std::mem::take(&mut self.lens_scratch);
        for ports in self.leaf_up_ports.iter().chain(&self.spine_down_ports) {
            if ports.len() < 2 {
                continue;
            }
            lens.clear();
            lens.extend(
                ports
                    .iter()
                    .map(|&(s, p)| self.switches[s].queue_pkts(p) as f64),
            );
            self.stats.queue_stdv.add(stdev_of(&lens));
        }
        self.lens_scratch = lens;
    }

    fn finalize(mut self) -> (RunStats, P, Vec<AnomalyReport>) {
        // A fault whose reconvergence never came due (detection window
        // past the deadline, or the run drained first) leaves its window
        // open: close it at the end of simulated time so the degradation
        // accounting still covers it.
        if let Some(open) = self.window_open_at.take() {
            let end = self.queue.now().max(open);
            self.stats.fault_blackholed +=
                self.total_blackholed().saturating_sub(self.blackhole_mark);
            self.stats.fault_window_ns += (end - open).as_nanos();
            self.fault_windows.push((open, end));
        }

        // Per-hop aggregates.
        for (si, sw) in self.switches.iter().enumerate() {
            let id = SwitchId(si as u32);
            for port in 0..sw.num_ports() as u16 {
                let hop = hop_index(self.topo.egress(id, port).hop);
                let ps = sw.port_stats(port);
                self.stats.hops.wait_ns[hop] += ps.wait_ns_sum;
                self.stats.hops.wait_samples[hop] += ps.wait_count;
                self.stats.hops.drops[hop] += ps.drops;
                self.stats.hops.tx[hop] += ps.tx_pkts;
            }
            self.stats.blackholed += sw.blackholed;
        }
        self.stats.nic_drops = self.nics.iter().map(|n| n.drops).sum();
        self.stats.data_pkts_delivered = self.data_delivered;
        self.stats.bytes_delivered = self.bytes_delivered;

        // Per-flow metrics.
        let sim_end = self.queue.now();
        for (i, f) in self.flows.iter().enumerate() {
            if !self.measured[i] {
                continue;
            }
            self.stats.retransmissions += f.retransmissions as u64;
            self.stats.timeouts += f.timeouts as u64;
            self.stats.gro_batches += f.gro_batches;
            match self.classes[i] {
                FlowClass::Elephant => {
                    // Per-flow goodput over the flow's own active lifetime
                    // (completed flows: until the final ACK; persistent
                    // flows: until the end of the run).
                    let end = f.done.unwrap_or(sim_end);
                    let active = end.saturating_sub(f.start).max(Time::from_nanos(1));
                    self.stats
                        .elephant_gbps
                        .add(f.bytes_acked as f64 * 8.0 / active.as_secs_f64() / 1e9);
                }
                class => {
                    self.stats.dupacks.add(f.dup_acks_sent as usize);
                    self.stats.reorders.add(f.reorder_events as usize);
                    if let Some(fct) = f.fct() {
                        self.stats.flows_completed += 1;
                        let ms = fct.as_nanos() as f64 / 1e6;
                        // Graceful-degradation split: flows whose lifetime
                        // overlapped a fault window vs. undisturbed flows.
                        let done = f.done.unwrap_or(sim_end);
                        if self
                            .fault_windows
                            .iter()
                            .any(|&(ws, we)| f.start <= we && done >= ws)
                        {
                            self.stats.fct_fault_ms.add(ms);
                        } else if !self.fault_windows.is_empty() {
                            self.stats.fct_clear_ms.add(ms);
                        }
                        match class {
                            FlowClass::Mice => self.stats.fct_mice_ms.add(ms),
                            FlowClass::Incast => {
                                self.stats.fct_ms.add(ms);
                                self.stats.fct_incast_ms.add(ms);
                            }
                            _ => self.stats.fct_ms.add(ms),
                        }
                    }
                }
            }
        }
        // A raw flow never hears back from its receiver: what the loop
        // above records for one is a zero sample, owed per measured flow.
        for _ in 0..self.raw_elephants {
            self.stats.elephant_gbps.add(0.0);
        }
        for _ in 0..self.raw_measured {
            self.stats.dupacks.add(0);
            self.stats.reorders.add(0);
        }
        self.stats.events = self.queue.events_processed();
        self.stats.sim_end = self.queue.now();
        // Packets accepted by a NIC and not yet delivered or dropped when
        // the loop stopped: those interned in the arena, plus the train
        // segments no serializer had reached. A fully drained run ends at
        // zero (every insert met its take/free); runs cut off by the
        // deadline or `max_events` legitimately leave packets in flight,
        // so the golden suite (not this method) asserts zero.
        self.stats.nic_pending_at_end = self.nics.iter().map(HostNic::pending_pkts).sum();
        self.stats.arena_live_at_end = self.arena.live() as u64 + self.stats.nic_pending_at_end;
        self.stats.wheel_slots_hw = self.queue.allocated_slots() as u64;
        self.stats.arena_slots_hw = self.arena.capacity() as u64;
        let reports = self.audit.map_or_else(Vec::new, |a| a.reports().to_vec());
        self.stats.anomalies = reports.len() as u64;
        (self.stats, self.probe, reports)
    }
}

/// Replace a switch's policy while keeping its id/shape (used when a
/// controller rebuilds tables after failures). Queue contents are carried
/// over conceptually by building a fresh switch — packets in flight at the
/// dead switch are dropped, which approximates a real reconvergence blip.
fn rebuild_switch(
    topo: &Topology,
    old: &Switch,
    policy: Box<dyn drill_net::SwitchPolicy>,
    cfg: &ExperimentConfig,
) -> Switch {
    let sw_cfg = SwitchConfig {
        engines: cfg.engines,
        queue_limit_bytes: cfg.queue_limit_bytes,
        model_enqueue_commit: cfg.model_commit,
    };
    Switch::new(old.id(), topo.num_ports(old.id()), sw_cfg, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopoSpec;
    use drill_faults::FaultSchedule;
    use drill_net::LeafSpineSpec;

    fn tiny_topo() -> TopoSpec {
        TopoSpec::LeafSpine(LeafSpineSpec {
            spines: 4,
            leaves: 4,
            hosts_per_leaf: 4,
            host_rate: 10_000_000_000,
            core_rate: 10_000_000_000,
            prop: drill_net::DEFAULT_PROP,
        })
    }

    fn quick_cfg(scheme: Scheme, load: f64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(tiny_topo(), scheme, load);
        cfg.duration = Time::from_millis(5);
        cfg.drain = Time::from_millis(100);
        cfg.warmup = Time::from_micros(200);
        cfg
    }

    /// One event of every kind, each field a different slice of `x`: all
    /// zeros at 0, every field at its maximum at `u64::MAX`, and no two
    /// fields of one event equal at a mixed pattern (so a swap shows).
    fn every_kind(x: u64) -> [Event; 13] {
        let (switch, host) = (SwitchId(x as u32), HostId(x as u32));
        let (port, engine) = ((x >> 32) as u16, (x >> 48) as u16);
        let (bytes, flow) = ((x >> 16) as u32, (x >> 8) as u32);
        let (pkt, gen) = (PacketRef::from_bits(x.rotate_left(24)), x.rotate_left(40));
        [
            Event::Net(NetEvent::ArriveSwitch {
                switch,
                ingress: port,
                pkt,
            }),
            Event::Net(NetEvent::ArriveHost { host, pkt }),
            Event::Net(NetEvent::SwitchTxDone { switch, port }),
            Event::Net(NetEvent::HostTxDone { host }),
            Event::Net(NetEvent::EnqueueCommit {
                switch,
                port,
                bytes,
                engine,
            }),
            Event::FlowArrival,
            Event::IncastEpoch,
            Event::MiceTick,
            Event::TcpTimer { flow },
            Event::ShimTimer { flow, gen },
            Event::SampleQueues,
            Event::Fault { idx: flow },
            Event::Reconverge { gen },
        ]
    }

    /// `Event` derives only `Debug` (it is never stored, so never cloned
    /// or compared outside this test): equality is that of the rendering,
    /// which prints every field.
    #[test]
    fn packed_events_round_trip_at_field_extremes() {
        let patterns = [0, u64::MAX, 0x0123_4567_89ab_cdef];
        let mut seen: Vec<(usize, Packed)> = Vec::new();
        for x in patterns {
            for (kind, (ev, again)) in every_kind(x).into_iter().zip(every_kind(x)).enumerate() {
                let packed = Packed::from(ev);
                assert_eq!(
                    format!("{:?}", Event::from(packed)),
                    format!("{again:?}"),
                    "kind {kind} at pattern {x:#x}"
                );
                seen.push((kind, packed));
            }
        }
        assert_eq!(seen.len(), 13 * patterns.len());
        for (i, (ka, a)) in seen.iter().enumerate() {
            for (kb, b) in &seen[..i] {
                assert!(ka == kb || a != b, "kinds {ka} and {kb} both pack to {a:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown packed event kind 13")]
    fn unknown_packed_kind_panics_with_the_kind() {
        let _ = Event::from(Packed(7, 13 << 56 | 5));
    }

    #[test]
    fn ecmp_run_completes_flows() {
        let stats = run(&quick_cfg(Scheme::Ecmp, 0.3));
        assert!(stats.flows_started > 50, "{}", stats.flows_started);
        assert!(
            stats.completion_rate() > 0.95,
            "{}",
            stats.completion_rate()
        );
        assert!(stats.mean_fct_ms() > 0.0);
        assert!(stats.events > 1000);
    }

    #[test]
    fn drill_run_completes_flows_with_low_reordering() {
        // Paper-shaped fabric: fast (40G) core over 10G edges. A one-packet
        // queue imbalance then costs 300ns against 1200ns packet spacing,
        // which is what keeps DRILL's reordering rare (§3.3); a slow-core
        // fabric is far more reorder-prone (the paper's scale-out study).
        let mut cfg = quick_cfg(Scheme::drill_no_shim(), 0.3);
        cfg.topo = TopoSpec::LeafSpine(LeafSpineSpec {
            spines: 4,
            leaves: 4,
            hosts_per_leaf: 4,
            host_rate: 10_000_000_000,
            core_rate: 40_000_000_000,
            prop: drill_net::DEFAULT_PROP,
        });
        let stats = run(&cfg);
        assert!(stats.completion_rate() > 0.95);
        // The overwhelming majority of flows see no dup ACKs.
        assert!(stats.dupacks.frac(0) > 0.9, "{}", stats.dupacks.frac(0));
    }

    #[test]
    fn same_seed_same_result() {
        let a = run(&quick_cfg(Scheme::drill_default(), 0.4));
        let b = run(&quick_cfg(Scheme::drill_default(), 0.4));
        assert_eq!(a.flows_started, b.flows_started);
        assert_eq!(a.flows_completed, b.flows_completed);
        assert_eq!(a.events, b.events);
        assert_eq!(a.mean_fct_ms(), b.mean_fct_ms());
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = quick_cfg(Scheme::Ecmp, 0.4);
        let a = run(&cfg);
        cfg.seed = 99;
        let b = run(&cfg);
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn queue_sampler_records() {
        let mut cfg = quick_cfg(Scheme::Random, 0.5);
        cfg.sample_queues = true;
        cfg.raw_packet_mode = true;
        let stats = run(&cfg);
        assert!(
            stats.queue_stdv.count() > 100,
            "{}",
            stats.queue_stdv.count()
        );
    }

    #[test]
    fn random_failures_are_deterministic_and_distinct() {
        let topo = tiny_topo().build();
        let a = random_leaf_spine_failures(&topo, 3, 42);
        let b = random_leaf_spine_failures(&topo, 3, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        let mut u = a.clone();
        u.sort_unstable();
        u.dedup();
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn random_failures_exhaustion_edges() {
        // 4 leaves x 4 spines = 16 leaf-spine pairs in total.
        let topo = tiny_topo().build();
        assert!(random_leaf_spine_failures(&topo, 0, 1).is_empty());
        // Asking for more than exist returns every pair, each exactly once.
        let all = random_leaf_spine_failures(&topo, 1000, 1);
        assert_eq!(all.len(), 16);
        let mut u = all.clone();
        u.sort_unstable();
        u.dedup();
        assert_eq!(u.len(), 16, "no duplicates at exhaustion");
        assert_eq!(random_leaf_spine_failures(&topo, 16, 1).len(), 16);
    }

    #[test]
    fn random_failures_are_duplicate_free_across_seeds_and_skip_dead_links() {
        let mut topo = tiny_topo().build();
        for seed in 0..50u64 {
            let picks = random_leaf_spine_failures(&topo, 8, seed);
            assert_eq!(picks.len(), 8);
            let mut u = picks.clone();
            u.sort_unstable();
            u.dedup();
            assert_eq!(u.len(), 8, "seed {seed} produced duplicates");
        }
        // Failed pairs are no longer candidates.
        let victim = random_leaf_spine_failures(&topo, 1, 7)[0];
        assert!(topo.fail_switch_link(SwitchId(victim.0), SwitchId(victim.1), 0));
        for seed in 0..50u64 {
            let picks = random_leaf_spine_failures(&topo, 15, seed);
            assert_eq!(picks.len(), 15, "one pair is down");
            assert!(!picks.contains(&victim), "dead pair re-picked");
        }
    }

    #[test]
    #[should_panic(expected = "matches no live switch-to-switch link")]
    fn unknown_failed_link_panics_at_build() {
        let mut cfg = quick_cfg(Scheme::Ecmp, 0.1);
        cfg.failed_links = vec![(97, 98)];
        run(&cfg);
    }

    #[test]
    #[should_panic(expected = "matches no live switch-to-switch link")]
    fn unknown_failed_link_panics_with_fail_at_too() {
        // Regression: the ApplyFailures path used to drop unknown pairs
        // silently while the build-time path asserted. Both now surface
        // the same error, and they surface it before the run starts.
        let mut cfg = quick_cfg(Scheme::Ecmp, 0.1);
        cfg.failed_links = vec![(97, 98)];
        cfg.fail_at = Some(Time::from_micros(100));
        run(&cfg);
    }

    #[test]
    #[should_panic(expected = "matches no live switch-to-switch link")]
    fn duplicate_single_link_failure_panics_when_applied() {
        // Two leaves are joined by exactly one link pair; failing it twice
        // exhausts the pair mid-run and must be loud, not silent.
        let mut cfg = quick_cfg(Scheme::Ecmp, 0.1);
        let topo = cfg.topo.build();
        let pair = random_leaf_spine_failures(&topo, 1, 3)[0];
        cfg.failed_links = vec![pair, pair];
        cfg.fail_at = Some(Time::from_micros(100));
        run(&cfg);
    }

    #[test]
    fn failure_run_still_completes() {
        let mut cfg = quick_cfg(Scheme::drill_default(), 0.3);
        let topo = cfg.topo.build();
        cfg.failed_links = random_leaf_spine_failures(&topo, 1, 7);
        let stats = run(&cfg);
        assert!(stats.completion_rate() > 0.9, "{}", stats.completion_rate());
    }

    #[test]
    fn chaos_schedule_runs_with_staged_reconvergence() {
        let mut cfg = quick_cfg(Scheme::drill_default(), 0.3);
        cfg.duration = Time::from_millis(8);
        let topo = cfg.topo.build();
        let pairs = random_leaf_spine_failures(&topo, 4, 11);
        let mut s = FaultSchedule::new(Time::from_micros(200));
        s.link_flap(
            pairs[0].0,
            pairs[0].1,
            Time::from_millis(1),
            Time::from_millis(2),
        );
        s.link_flap(
            pairs[1].0,
            pairs[1].1,
            Time::from_millis(3),
            Time::from_millis(4),
        );
        s.degrade_window(
            pairs[2].0,
            pairs[2].1,
            1,
            4,
            Time::from_millis(2),
            Time::from_millis(5),
        );
        s.switch_outage(pairs[3].1, Time::from_millis(5), Time::from_millis(6));
        cfg.faults = Some(s);
        let stats = run(&cfg);
        assert_eq!(stats.fault_events, 8, "2 flaps + degrade window + outage");
        assert!(stats.reconvergences >= 1, "{}", stats.reconvergences);
        assert!(stats.fault_window_ns > 0);
        assert!(stats.stable_at > Time::ZERO);
        assert!(
            stats.fct_fault_ms.count() + stats.fct_clear_ms.count() > 0,
            "FCTs were classified against the fault windows"
        );
        assert!(
            stats.completion_rate() > 0.85,
            "{}",
            stats.completion_rate()
        );
    }

    #[test]
    fn chaos_runs_are_deterministic_and_empty_schedule_is_free() {
        let mut cfg = quick_cfg(Scheme::drill_default(), 0.3);
        let base = run(&cfg);
        // Attaching an empty schedule changes nothing: no events, no RNG
        // draws, bit-identical metrics.
        cfg.faults = Some(FaultSchedule::default());
        let with_empty = run(&cfg);
        assert_eq!(base.events, with_empty.events);
        assert_eq!(
            base.mean_fct_ms().to_bits(),
            with_empty.mean_fct_ms().to_bits()
        );
        assert_eq!(with_empty.fault_events, 0);
        assert_eq!(with_empty.fct_clear_ms.count(), 0, "no windows, no split");

        // A generated chaos schedule replays bit-identically.
        let topo = cfg.topo.build();
        let pairs = random_leaf_spine_failures(&topo, 2, 3);
        let mut s = FaultSchedule::default();
        s.random_flaps(
            &pairs,
            9,
            6,
            Time::from_millis(1),
            Time::from_millis(4),
            Time::from_micros(100),
            Time::from_micros(500),
        );
        cfg.faults = Some(s);
        let a = run(&cfg);
        let b = run(&cfg);
        assert!(a.fault_events > 0);
        assert_eq!(a.events, b.events);
        assert_eq!(a.fault_events, b.fault_events);
        assert_eq!(a.fault_window_ns, b.fault_window_ns);
        assert_eq!(a.mean_fct_ms().to_bits(), b.mean_fct_ms().to_bits());
    }

    #[test]
    fn fail_restore_fail_on_same_pair_ends_failed_and_routing_reflects_it() {
        // Injector level: the final state of a down/up/down train is down.
        let mut topo = tiny_topo().build();
        let (a, b) = random_leaf_spine_failures(&topo, 1, 13)[0];
        let mut inj = FaultInjector::new();
        inj.apply(&mut topo, FaultKind::LinkDown { a, b });
        inj.apply(&mut topo, FaultKind::LinkUp { a, b });
        inj.apply(&mut topo, FaultKind::LinkDown { a, b });
        assert!(
            topo.ports_to_switch(SwitchId(a), SwitchId(b)).is_empty(),
            "pair ends the sequence failed"
        );
        topo.validate();

        // World level: the same mid-run sequence reconverges each time and
        // traffic routes around the dead pair (the run still completes).
        let mut cfg = quick_cfg(Scheme::drill_default(), 0.3);
        let mut s = FaultSchedule::new(Time::from_micros(100));
        s.push(Time::from_millis(1), FaultKind::LinkDown { a, b });
        s.push(Time::from_millis(2), FaultKind::LinkUp { a, b });
        s.push(Time::from_millis(3), FaultKind::LinkDown { a, b });
        cfg.faults = Some(s);
        let stats = run(&cfg);
        assert_eq!(stats.fault_events, 3);
        assert_eq!(stats.reconvergences, 3, "windows are disjoint");
        assert!(stats.completion_rate() > 0.9, "{}", stats.completion_rate());
    }

    #[test]
    fn legacy_fail_at_matches_the_equivalent_schedule() {
        let mut legacy = quick_cfg(Scheme::Ecmp, 0.3);
        let topo = legacy.topo.build();
        let (a, b) = random_leaf_spine_failures(&topo, 1, 5)[0];
        legacy.failed_links = vec![(a, b)];
        legacy.fail_at = Some(Time::from_millis(1));
        legacy.ospf_delay = Time::from_millis(2);
        let l = run(&legacy);

        let mut sched = quick_cfg(Scheme::Ecmp, 0.3);
        let mut s = FaultSchedule::new(Time::from_millis(2));
        s.push(Time::from_millis(1), FaultKind::LinkDown { a, b });
        sched.faults = Some(s);
        let r = run(&sched);

        assert_eq!(l.fault_events, 1);
        assert_eq!(l.events, r.events);
        assert_eq!(l.flows_started, r.flows_started);
        assert_eq!(l.flows_completed, r.flows_completed);
        assert_eq!(l.reconvergences, r.reconvergences);
        assert_eq!(l.mean_fct_ms().to_bits(), r.mean_fct_ms().to_bits());
    }

    #[test]
    fn overlapping_detection_windows_coalesce_into_one_reconvergence() {
        let mut cfg = quick_cfg(Scheme::Ecmp, 0.2);
        let topo = cfg.topo.build();
        let pairs = random_leaf_spine_failures(&topo, 2, 21);
        // Two faults 100 µs apart, each detected after 1 ms: the second
        // fault supersedes the first reconvergence generation.
        let mut s = FaultSchedule::new(Time::from_millis(1));
        s.push(
            Time::from_millis(1),
            FaultKind::LinkDown {
                a: pairs[0].0,
                b: pairs[0].1,
            },
        );
        s.push(
            Time::from_millis(1) + Time::from_micros(100),
            FaultKind::LinkDown {
                a: pairs[1].0,
                b: pairs[1].1,
            },
        );
        cfg.faults = Some(s);
        let stats = run(&cfg);
        assert_eq!(stats.fault_events, 2);
        assert_eq!(stats.reconvergences, 1, "coalesced into one recompute");
        assert_eq!(
            stats.stable_at,
            Time::from_millis(2) + Time::from_micros(100)
        );
    }

    #[test]
    fn lossy_window_drops_packets_without_reconvergence() {
        let mut cfg = quick_cfg(Scheme::Ecmp, 0.3);
        let topo = cfg.topo.build();
        let (a, b) = random_leaf_spine_failures(&topo, 1, 2)[0];
        let mut s = FaultSchedule::default();
        s.lossy_window(a, b, 200_000, Time::from_millis(1), Time::from_millis(4));
        cfg.faults = Some(s);
        let stats = run(&cfg);
        assert_eq!(stats.fault_events, 2, "set + clear");
        assert_eq!(stats.reconvergences, 0, "loss keeps the graph intact");
        assert!(
            stats.retransmissions > 0,
            "wire loss forced TCP to retransmit"
        );
        assert!(stats.completion_rate() > 0.9, "{}", stats.completion_rate());
    }

    #[test]
    fn incast_flows_are_tracked() {
        let mut cfg = quick_cfg(Scheme::Ecmp, 0.1);
        cfg.workload.incast = Some(drill_workload::IncastSpec {
            epoch_gap: Time::from_millis(1),
            ..Default::default()
        });
        let stats = run(&cfg);
        assert!(stats.fct_incast_ms.count() > 0, "incast flows measured");
    }

    #[test]
    fn synthetic_mode_produces_elephants_and_mice() {
        let mut cfg = quick_cfg(Scheme::Ecmp, 0.0);
        cfg.workload.pattern = TrafficPattern::Stride(4);
        cfg.synthetic = Some(crate::config::SyntheticMode {
            elephant_bytes: 2_000_000,
            mice_bytes: 50_000,
            mice_period: Time::from_millis(1),
        });
        cfg.duration = Time::from_millis(10);
        let stats = run(&cfg);
        assert!(stats.elephant_gbps.count() > 0, "elephants measured");
        assert!(stats.fct_mice_ms.count() > 0, "mice measured");
    }

    #[test]
    fn recorded_run_captures_events_with_identical_stats() {
        let mut cfg = quick_cfg(Scheme::drill_default(), 0.3);
        cfg.duration = Time::from_millis(2);
        let base = run(&cfg);
        let (stats, tel) = run_recorded(&cfg);
        // The probe observes but never steers: every counter matches the
        // probe-free run exactly.
        assert_eq!(base.events, stats.events);
        assert_eq!(base.flows_started, stats.flows_started);
        assert_eq!(base.flows_completed, stats.flows_completed);
        assert_eq!(base.mean_fct_ms().to_bits(), stats.mean_fct_ms().to_bits());
        assert!(tel.recorder.event_count() > 1000, "recorder saw traffic");
        assert!(!tel.sampler.ports().is_empty(), "sampler saw queues");
        assert!(tel.sampler.max_high_water_pkts() > 0);
    }

    #[test]
    fn telemetry_config_knob_writes_trace_file() {
        let path = std::env::temp_dir().join(format!(
            "drill_world_trace_test_{}.drilltrc",
            std::process::id()
        ));
        let mut cfg = quick_cfg(Scheme::Ecmp, 0.2);
        cfg.duration = Time::from_millis(1);
        cfg.telemetry = Some(crate::config::TelemetrySpec {
            trace_path: Some(path.clone()),
            ..Default::default()
        });
        let stats = run(&cfg);
        assert!(stats.flows_started > 0);
        let bytes = std::fs::read(&path).expect("trace file written");
        let trace = drill_telemetry::read_trace(&mut &bytes[..]).expect("trace decodes");
        assert!(trace.event_count() > 0);
        assert_eq!(trace.num_switches as usize, cfg.topo.build().num_switches());
        std::fs::remove_file(&path).ok();
    }

    /// The one case where a restart must push: back-off doubled the RTO
    /// (so the pending wake sits two RTOs out), then a fresh RTT sample
    /// shrank it and the new deadline precedes that wake. The deadline
    /// must still fire exactly one RTO after the last restart, and the
    /// orphaned wake must do nothing when it pops.
    #[test]
    fn rto_shrunk_below_the_pending_wake_still_fires_on_time() {
        let ms = Time::from_millis(1);
        let ns = Time::from_nanos(1);
        // One flow over the only spine; 100 % loss windows on one of its
        // two fabric links script the timer.
        let topo = TopoSpec::LeafSpine(LeafSpineSpec {
            spines: 1,
            leaves: 2,
            hosts_per_leaf: 1,
            host_rate: 10_000_000_000,
            core_rate: 10_000_000_000,
            prop: drill_net::DEFAULT_PROP,
        });
        let (a, b) = random_leaf_spine_failures(&topo.build(), 1, 1)[0];
        let mut cfg = ExperimentConfig::new(topo, Scheme::Ecmp, 0.0);
        cfg.duration = Time::from_millis(10);
        cfg.static_flows = vec![(0, 1, 10_000_000)];
        cfg.tcp.init_cwnd = 1;
        cfg.tcp.rto_init = ms;
        cfg.tcp.rto_min = ms;
        cfg.tcp.rto_max = Time::from_millis(8);
        let mut s = FaultSchedule::default();
        // Window 1 eats the one-segment first flight; window 2 eats
        // everything in flight once slow start is under way.
        s.lossy_window(a, b, 1_000_000, Time::ZERO, Time::from_micros(10));
        s.lossy_window(
            a,
            b,
            1_000_000,
            Time::from_micros(1200),
            Time::from_micros(2500),
        );
        cfg.faults = Some(s);
        let mut w = World::new(&cfg);

        // RTO #1 fires at rto_init sharp, backs off to 2 ms and parks the
        // wake at 3 ms.
        w.run_to(ms);
        assert_eq!(w.flows[0].timeouts, 0);
        w.run_to(ms + ns);
        assert_eq!(w.flows[0].timeouts, 1);
        assert_eq!(w.flows[0].rto(), ms.mul(2), "backed off");
        assert_eq!(w.rto_wake[0], ms.mul(3));

        // Walk timestamp by timestamp until every ACK that beat window 2
        // is in, noting the last timer restart and any shrink push.
        let mut last_restart = Time::ZERO;
        let mut shrink_pushes = 0;
        while let Some(next) = w.queue.peek_time().filter(|&t| t < Time::from_micros(1500)) {
            let (gen, wake) = (w.flows[0].timer_generation(), w.rto_wake[0]);
            w.run_to(next + ns);
            if w.flows[0].timer_generation() != gen {
                last_restart = next;
            }
            if w.rto_wake[0] < wake {
                shrink_pushes += 1;
                assert_eq!(w.flows[0].rto(), ms, "an RTT sample undid the back-off");
                assert_eq!(w.rto_wake[0], next + ms);
            }
        }
        assert_eq!(shrink_pushes, 1, "later restarts only move rto_due");
        assert!(last_restart > Time::from_micros(1200), "{last_restart:?}");
        assert_eq!(w.flows[0].timeouts, 1);

        // RTO #2 is due one (shrunk) RTO after the last restart — ahead
        // of the orphaned 3 ms wake — and fires at that nanosecond.
        let due = last_restart + ms;
        assert!(due < ms.mul(3));
        assert_eq!(w.rto_due[0], due);
        w.run_to(due);
        assert_eq!(w.flows[0].timeouts, 1);
        w.run_to(due + ns);
        assert_eq!(w.flows[0].timeouts, 2);
        // Its retransmission died in window 2: backed off again, the live
        // wake is 2 ms out and the orphan at 3 ms pops into nothing.
        assert_eq!(w.rto_wake[0], due + ms.mul(2));
        w.run_to(ms.mul(3) + ns);
        assert_eq!(w.flows[0].timeouts, 2);
        assert_eq!(w.rto_wake[0], due + ms.mul(2));
    }

    /// ROADMAP item 2's memory law for the wheel: pending events are one
    /// RTO wake per flow plus what the network has in flight, however
    /// many ACKs restarted the timers (with one event per restart this
    /// run parks ~50 dead timers per flow for a whole RTO).
    #[test]
    fn wheel_high_water_is_bounded_by_flows_not_acks() {
        let cfg = quick_cfg(Scheme::drill_default(), 0.3);
        let topo = cfg.topo.build();
        let ports: usize = (0..topo.num_switches())
            .map(|i| topo.num_ports(SwitchId(i as u32)))
            .sum();
        let mut w = World::new(&cfg);
        w.event_loop();
        let flows = w.flows.len() as u64;
        let (stats, _, _) = w.finalize();
        // Every delivered data packet is ACKed, and ACKs restart timers.
        assert!(
            stats.data_pkts_delivered >= 50 * flows,
            "{} data packets over {flows} flows",
            stats.data_pkts_delivered
        );
        let bound = flows + 4 * (ports + topo.num_hosts()) as u64;
        assert!(
            stats.wheel_slots_hw <= bound,
            "wheel high-water {} > {bound} ({flows} flows)",
            stats.wheel_slots_hw
        );
        assert!(stats.arena_slots_hw > 0);
    }

    /// `benchmark/`'s `fabric_raw` at its smoke scale: 6×6×6 leaf-spine,
    /// DRILL(2,1) on 4 engines, raw packets at load 0.8 with bursty
    /// arrivals, seed 1.
    fn small_fabric_raw() -> ExperimentConfig {
        let topo = TopoSpec::LeafSpine(LeafSpineSpec {
            spines: 6,
            leaves: 6,
            hosts_per_leaf: 6,
            host_rate: 10_000_000_000,
            core_rate: 10_000_000_000,
            prop: drill_net::DEFAULT_PROP,
        });
        let mut cfg = ExperimentConfig::new(topo, Scheme::drill_no_shim(), 0.8);
        cfg.seed = 1;
        cfg.engines = 4;
        cfg.raw_packet_mode = true;
        cfg.workload.burst_sigma = 2.0;
        cfg.queue_limit_bytes = 20_000_000;
        cfg.sample_queues = true;
        cfg.duration = Time::from_millis(3);
        cfg.drain = Time::from_millis(5);
        cfg
    }

    /// ROADMAP item 2's memory law for the arena on raw runs: a packet
    /// is interned when the serializer takes it, so the slab's high-water
    /// mark follows what the *network* holds, not what the NICs have
    /// queued. Interning a flow's every segment at its arrival — what this
    /// run did before NIC trains — peaks at 29 228 slots here; trains peak
    /// at 6 089 (`fabric_raw` at full scale: 457 029 → 174 586).
    #[test]
    fn raw_arena_high_water_excludes_nic_backlog() {
        let stats = run(&small_fabric_raw());
        // Every outcome is what eager interning produced.
        assert_eq!(
            (stats.nic_drops, stats.data_pkts_delivered, stats.events),
            (27_391, 53_259, 602_486)
        );
        assert_eq!(stats.arena_live_at_end, 1_661);
        assert_eq!(
            stats.nic_pending_at_end, 0,
            "5 ms of drain empties every NIC"
        );
        assert!(
            stats.arena_slots_hw < 29_228 / 2,
            "arena high-water {} — are raw flows interned at arrival again?",
            stats.arena_slots_hw
        );
    }

    /// A raw flow is handed to its NIC and forgotten: no `TcpFlow`, no
    /// per-flow slot in any of `World`'s vectors — while the measured
    /// count and the zero reorder samples each one is owed still add up.
    #[test]
    fn raw_flows_leave_no_per_flow_record() {
        let mut w = World::new(&small_fabric_raw());
        w.event_loop();
        assert!(w.raw_flows > 600, "{}", w.raw_flows);
        assert_eq!(
            (w.flows.len(), w.classes.len(), w.measured.len()),
            (0, 0, 0)
        );
        assert_eq!(
            (
                w.shims.len(),
                w.sched_gen.len(),
                w.rto_due.len(),
                w.rto_wake.len()
            ),
            (0, 0, 0, 0)
        );
        let measured = w.raw_measured;
        assert_eq!(w.raw_elephants, 0, "no elephants in this workload");
        assert!(
            measured > 0 && measured < w.raw_flows as u64,
            "warm-up flows are unmeasured"
        );
        let (stats, _, _) = w.finalize();
        assert_eq!(stats.flows_started, measured);
        assert_eq!(stats.dupacks.total(), measured);
        assert_eq!(stats.reorders.total(), measured);
        assert_eq!(stats.dupacks.frac(0), 1.0);
    }

    #[test]
    fn all_schemes_run_to_completion() {
        for scheme in [
            Scheme::Ecmp,
            Scheme::Random,
            Scheme::RoundRobin,
            Scheme::drill_default(),
            Scheme::drill_no_shim(),
            Scheme::PerFlowDrill,
            Scheme::presto(),
            Scheme::Presto { shim: false },
            Scheme::Conga,
            Scheme::Wcmp,
        ] {
            let mut cfg = quick_cfg(scheme, 0.2);
            cfg.duration = Time::from_millis(2);
            let stats = run(&cfg);
            assert!(
                stats.completion_rate() > 0.9,
                "{}: completion {}",
                scheme.name(),
                stats.completion_rate()
            );
        }
    }
}
