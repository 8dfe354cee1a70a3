//! The simulation world: the event queue, and the one `match` that routes
//! each event to the layer that owns its state — data plane (`net`),
//! control plane (`control`), transport (`flows`), workload, audit
//! (DESIGN.md "World layout" has which struct owns what).

use drill_faults::{FaultInjector, FaultKind};
use drill_net::{HopClass, HostId, NetEvent, NetSink, Packet, PacketRef, SwitchId, Topology};
use drill_sim::{EventQueue, SimRng, Time};
use drill_telemetry::{fault_kind, FaultInfo, FlightRecorder, NoopProbe, Probe};
use drill_transport::{ShimBuffer, TcpFlow};

use crate::audit::{AnomalyReport, Audit};
use crate::config::ExperimentConfig;
use crate::stats::RunStats;

mod audit;
mod control;
mod flows;
mod net;
mod snapshot;
mod workload;

pub use audit::{rewind_replay, AnomalyMeta};
use control::{Control, FaultTimeline};
use flows::{FlowClass, FlowTable};
use net::{Net, StdvSampler};
use workload::Workload;

/// Queue-STDV sampling period (the paper samples every 10 µs).
const SAMPLE_PERIOD: Time = Time::from_micros(10);

/// How many events ahead of the one being dispatched the loop prefetches
/// an arrival's packet slot (DESIGN.md §10 "Prefetch" has the sweep).
const PREFETCH_AHEAD: usize = 8;

#[derive(Debug)]
enum Event {
    Net(NetEvent),
    FlowArrival,
    IncastEpoch,
    MiceTick,
    /// The flow's RTO wake (see [`FlowTable::schedule_rto`]): at most one is
    /// live per flow, so it carries no generation.
    TcpTimer {
        flow: u32,
    },
    /// A flush wake for the flow's shim: it flushes only if its time is
    /// still the shim's armed deadline.
    ShimTimer {
        flow: u32,
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
/// | `TcpTimer`, `ShimTimer` / `Fault` | –, `flow` / `idx` | 0 |
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

    /// The `(kind, hi, lo, word 0)` fields [`new`](Packed::new) packed.
    #[inline]
    const fn fields(self) -> (u8, u16, u32, u64) {
        (
            (self.1 >> 56) as u8,
            (self.1 >> 32) as u16,
            self.1 as u32,
            self.0,
        )
    }

    /// Whether events of `kind` carry a packet handle in word 0.
    #[inline]
    const fn carries_packet(kind: u8) -> bool {
        matches!(kind, K_ARRIVE_SWITCH | K_ARRIVE_HOST)
    }

    /// The packet an `ArriveSwitch`/`ArriveHost` carries, read without
    /// unpacking the rest of the event.
    #[inline]
    fn arriving_packet(&self) -> Option<PacketRef> {
        Packed::carries_packet(self.fields().0).then(|| PacketRef::from_bits(self.0))
    }

    /// The event this entry stores, or `Err(kind)` for a kind byte no
    /// event has: the one decode of a stored event, shared by dispatch
    /// (where an unknown kind is a bug) and snapshot restore (where it is
    /// corrupt input).
    #[inline]
    fn decode(self) -> Result<Event, u8> {
        let (kind, hi, lo, word0) = self.fields();
        Ok(match kind {
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
            K_SHIM_TIMER => Event::ShimTimer { flow: lo },
            K_SAMPLE_QUEUES => Event::SampleQueues,
            K_FAULT => Event::Fault { idx: lo },
            K_RECONVERGE => Event::Reconverge { gen: word0 },
            kind => return Err(kind),
        })
    }
}

/// Always inlined, like [`Wheel::emit`]: a device's event is packed in
/// the registers it was built in.
impl From<Event> for Packed {
    #[inline(always)]
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
            Event::ShimTimer { flow } => Packed::new(K_SHIM_TIMER, 0, flow, 0),
            Event::SampleQueues => Packed::new(K_SAMPLE_QUEUES, 0, 0, 0),
            Event::Fault { idx } => Packed::new(K_FAULT, 0, idx, 0),
            Event::Reconverge { gen } => Packed::new(K_RECONVERGE, 0, 0, gen),
        }
    }
}

impl From<Packed> for Event {
    #[inline]
    fn from(packed: Packed) -> Event {
        packed
            .decode()
            .unwrap_or_else(|kind| panic!("unknown packed event kind {kind}"))
    }
}

/// The event queue as the devices' [`NetSink`]: each event is packed at
/// the emit site and pushed onto the wheel there, in emission order.
///
/// Inlined into the device, the pack stays in registers down to the
/// wheel's entry store. Handed through memory instead — a collecting
/// `Vec`, or an out-of-line `emit` — the event is written with narrow
/// stores and read back wide: the failed store-forward that [`Packed`]
/// exists to avoid (DESIGN.md §10 "Slim events").
struct Wheel<'a>(&'a mut EventQueue<Packed>);

impl NetSink for Wheel<'_> {
    #[inline(always)]
    fn emit(&mut self, at: Time, ev: NetEvent) {
        self.0.push(at, Event::Net(ev).into());
    }
}

/// Two words exactly: a third would be a third store per push and load
/// per pop, and anything narrower is what this type exists to avoid.
const _: () = assert!(std::mem::size_of::<Packed>() == 16);

/// Whole-entry size: the payload's two words + the wheel's `time` and
/// `seq`, and nothing else — two entries to a cache line.
const _: () = assert!(drill_sim::entry_size::<Packed>() == 32);

/// One experiment mid-flight: the event queue, the config, the probe, and
/// one struct per layer (see the module docs). Built by [`World::new`],
/// advanced by [`World::run_to`], captured/resumed by [`World::snapshot`]
/// and [`World::restore`], and finished into [`RunStats`] by
/// [`World::finish`]. The free functions [`run`]/[`run_probed`] drive the
/// same type end to end.
pub struct World<P: Probe = NoopProbe> {
    cfg: ExperimentConfig,
    queue: EventQueue<Packed>,
    /// Telemetry probe. `NoopProbe` monomorphizes every hook away; a
    /// recording probe observes but never steers (no access to RNGs, the
    /// event queue, or packets), so metrics are bit-identical either way.
    probe: P,
    net: Net,
    control: Control,
    faults: FaultTimeline,
    flows: FlowTable,
    workload: Workload,
    stdv: StdvSampler,
    stats: RunStats,
    audit: Option<Audit>,
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

/// Execute one experiment configuration to completion. Like every entry
/// point, it attaches the invariant auditor exactly when `cfg.audit` is
/// set (reports are counted into [`RunStats::anomalies`]).
pub fn run(cfg: &ExperimentConfig) -> RunStats {
    run_probed(cfg, NoopProbe).0
}

/// Execute one experiment with a caller-supplied telemetry probe, returning
/// the stats together with the probe for inspection. `run_probed(cfg,
/// NoopProbe)` compiles to exactly the probe-free simulation.
pub fn run_probed<P: Probe>(cfg: &ExperimentConfig, probe: P) -> (RunStats, P) {
    let mut w = World::build(cfg.clone(), probe);
    w.prime();
    let (stats, probe, _reports) = w.finish_parts();
    (stats, probe)
}

/// Execute one experiment under the invariant auditor (using `cfg.audit`,
/// or [`Default`] knobs when unset) and return the stats together with
/// every anomaly report. An empty report list is the auditor's verdict
/// that all watchdog invariants held at every boundary.
pub fn run_audited(cfg: &ExperimentConfig) -> (RunStats, Vec<AnomalyReport>) {
    let mut cfg = cfg.clone();
    cfg.audit.get_or_insert_with(Default::default);
    let (stats, _, reports) = World::new(&cfg).finish_parts();
    (stats, reports)
}

/// Execute one experiment with the flight recorder attached.
pub fn run_recorded(cfg: &ExperimentConfig) -> (RunStats, FlightRecorder) {
    let recorder = FlightRecorder::new(
        cfg.topo.build().num_switches(),
        cfg.engines,
        drill_telemetry::DEFAULT_RING_CAPACITY,
    );
    run_probed(cfg, recorder)
}

impl World<NoopProbe> {
    /// Build and prime an experiment without running it — the entry point
    /// for stepwise execution: [`run_to`](World::run_to) →
    /// [`snapshot`](World::snapshot) → [`finish`](World::finish).
    pub fn new(cfg: &ExperimentConfig) -> World<NoopProbe> {
        let mut w = World::build(cfg.clone(), NoopProbe);
        w.prime();
        w
    }
}

impl<P: Probe> World<P> {
    /// Advance the simulation until the next pending event would be at or
    /// past `t` — the state "as of `t⁻`" — honouring the run deadline,
    /// `max_events` and the checkpoint and audit hooks exactly like a
    /// straight-through run.
    pub fn run_to(&mut self, t: Time) {
        self.advance(Some(t));
    }

    /// Run every remaining event and produce the final statistics.
    pub fn finish(self) -> RunStats {
        self.finish_parts().0
    }

    /// Run every remaining event and return the stats together with the
    /// probe and the auditor's anomaly reports (empty when none rode
    /// along) — the stepwise analogue of [`run_probed`], used by
    /// rewind-replay to recover the [`FlightRecorder`] attached to a
    /// restored world.
    pub fn finish_parts(mut self) -> (RunStats, P, Vec<AnomalyReport>) {
        self.advance(None);
        self.finalize()
    }

    /// Events processed so far — stepwise progress inspection between
    /// [`run_to`](World::run_to) calls.
    pub fn events_processed(&self) -> u64 {
        self.queue.events_processed()
    }

    /// The world `cfg` describes, with the invariant auditor attached
    /// exactly when `cfg.audit` is set.
    fn build(cfg: ExperimentConfig, probe: P) -> World<P> {
        let mut topo = cfg.topo.build();
        let mut injector = FaultInjector::new();
        for &(a, b) in &cfg.failed_links {
            injector.apply(&mut topo, FaultKind::LinkDown { a, b });
        }
        let control = Control::new(&cfg, &topo);
        let net = Net::new(&cfg, topo, &control.routes);
        World {
            queue: EventQueue::new(),
            probe,
            workload: Workload::new(&cfg, &net.topo),
            stdv: StdvSampler::new(&net.topo),
            faults: FaultTimeline::new(&cfg),
            flows: FlowTable::new(cfg.scheme),
            stats: RunStats::new(cfg.scheme.name()),
            audit: cfg.audit.as_ref().map(Audit::new),
            net,
            control,
            cfg,
        }
    }

    /// Schedule the initial events.
    fn prime(&mut self) {
        self.workload.next_arrival(Time::ZERO, &mut self.queue);
        if let Some(incast) = &self.cfg.workload.incast {
            let first = self.cfg.warmup + incast.epoch_gap;
            self.queue.push(first, Event::IncastEpoch.into());
        }
        if let Some(synth) = &self.cfg.synthetic {
            let (bytes, period) = (synth.elephant_bytes, synth.mice_period);
            // One elephant per host, started immediately.
            for src in 0..self.net.topo.num_hosts() as u32 {
                let dst = self.workload.elephant_dst(src);
                self.start_flow(src, dst, bytes, FlowClass::Elephant, Time::ZERO);
            }
            self.queue.push(period, Event::MiceTick.into());
        }
        if self.cfg.sample_queues {
            self.queue.push(SAMPLE_PERIOD, Event::SampleQueues.into());
        }
        for i in 0..self.cfg.static_flows.len() {
            let (src, dst, bytes) = self.cfg.static_flows[i];
            self.start_flow(src, dst, bytes, FlowClass::Elephant, Time::ZERO);
        }
        let deadline = self.cfg.duration + self.cfg.drain;
        self.faults.schedule(deadline, &mut self.queue);
    }

    /// The one event loop, stepwise (`until` = `Some(t)`: stop before the
    /// first event at or past `t`) or straight through (`None`, with no
    /// per-event peek); its checkpoint and audit hooks (the audit hook
    /// runs the sabotages too) mean the same on both. A pop past the
    /// deadline or `max_events` ends the run (and still counts in
    /// `events_processed`, which the goldens pin).
    /// The event stays packed until [`dispatch`](World::dispatch)'s `match`.
    fn advance(&mut self, until: Option<Time>) {
        let deadline = self.cfg.duration + self.cfg.drain;
        let checkpoint = self.cfg.checkpoint.clone();
        // A leak due before the first event; the audit hook after each
        // event arms the one due before the next.
        let next = self.queue.peek_time();
        self.leak_if_due(next);
        loop {
            if let Some(t) = until {
                if self.queue.peek_time().is_none_or(|next| next >= t) {
                    break;
                }
            }
            let Some((now, ev)) = self.queue.pop() else {
                break;
            };
            // The arrival `PREFETCH_AHEAD` pops from now will read its
            // packet slot first thing; start that miss now.
            if let Some(pkt) = self
                .queue
                .staged(PREFETCH_AHEAD)
                .and_then(Packed::arriving_packet)
            {
                self.net.arena.prefetch(pkt);
            }
            let events = self.queue.events_processed();
            if now > deadline || (self.cfg.max_events > 0 && events > self.cfg.max_events) {
                break;
            }
            self.dispatch(now, ev);
            if let Some(c) = checkpoint.as_ref().filter(|c| c.every_events > 0) {
                if events.is_multiple_of(c.every_events) {
                    let saved = self.snapshot().save(&c.path);
                    saved.unwrap_or_else(|e| panic!("checkpoint {}: {e}", c.path.display()));
                }
            }
            if self.audit.is_some() {
                self.audit_boundaries(events, deadline);
            }
        }
    }

    fn dispatch(&mut self, now: Time, ev: Packed) {
        match Event::from(ev) {
            Event::Net(NetEvent::ArriveSwitch {
                switch,
                ingress,
                pkt,
            }) => {
                self.net.switches[switch.index()].receive(
                    &self.net.topo,
                    &self.control.routes,
                    &mut self.net.arena,
                    pkt,
                    ingress,
                    now,
                    &mut self.net.rng,
                    &mut Wheel(&mut self.queue),
                    &mut self.probe,
                );
            }
            Event::Net(NetEvent::ArriveHost { host, pkt }) => self.on_host_arrival(host, pkt, now),
            Event::Net(NetEvent::SwitchTxDone { switch, port }) => {
                self.net.switches[switch.index()].on_tx_done(
                    &self.net.topo,
                    &mut self.net.arena,
                    port,
                    now,
                    &mut self.net.rng,
                    &mut Wheel(&mut self.queue),
                    &mut self.probe,
                );
            }
            Event::Net(NetEvent::HostTxDone { host }) => {
                self.net
                    .host_tx_done(host, now, &mut Wheel(&mut self.queue));
            }
            Event::Net(NetEvent::EnqueueCommit {
                switch,
                port,
                bytes,
                engine,
            }) => self.net.switches[switch.index()].on_enqueue_commit(port, bytes, engine),
            Event::FlowArrival => self.on_flow_arrival(now),
            Event::IncastEpoch => self.on_incast_epoch(now),
            Event::MiceTick => self.on_mice_tick(now),
            Event::TcpTimer { flow } => self.on_rto_wake(flow, now),
            Event::ShimTimer { flow } => self.on_shim_timer(flow, now),
            Event::SampleQueues => {
                self.stdv
                    .sample(&self.net.switches, &mut self.stats.queue_stdv);
                if now + SAMPLE_PERIOD <= self.cfg.duration {
                    self.queue
                        .push(now + SAMPLE_PERIOD, Event::SampleQueues.into());
                }
            }
            Event::Fault { idx } => self.on_fault(idx, now),
            Event::Reconverge { gen } => {
                if gen == self.faults.reconv_gen {
                    self.reconverge(now, gen);
                }
            }
        }
    }

    fn on_flow_arrival(&mut self, now: Time) {
        if let Some(spec) = self.workload.pending.take() {
            self.start_flow(spec.src, spec.dst, spec.bytes, FlowClass::Background, now);
        }
        if now <= self.cfg.duration {
            self.workload.next_arrival(now, &mut self.queue);
        }
    }

    fn on_incast_epoch(&mut self, now: Time) {
        let Some(incast) = &self.cfg.workload.incast else {
            return;
        };
        let gap = incast.epoch_gap;
        let hosts = self.net.topo.num_hosts() as u32;
        for (server, requester, bytes) in incast.epoch_flows(hosts, &mut self.workload.rng) {
            self.start_flow(server, requester, bytes, FlowClass::Incast, now);
        }
        if now + gap <= self.cfg.duration {
            self.queue.push(now + gap, Event::IncastEpoch.into());
        }
    }

    fn on_mice_tick(&mut self, now: Time) {
        let Some(synth) = &self.cfg.synthetic else {
            return;
        };
        let (bytes, period) = (synth.mice_bytes, synth.mice_period);
        for src in 0..self.net.topo.num_hosts() as u32 {
            let dst = self.workload.mice_dst(src);
            self.start_flow(src, dst, bytes, FlowClass::Mice, now);
        }
        if now + period <= self.cfg.duration {
            self.queue.push(now + period, Event::MiceTick.into());
        }
    }

    /// A synthetic elephant finished: its host starts the next transfer.
    fn chain_elephant(&mut self, flow: u32, now: Time) {
        let Some(synth) = &self.cfg.synthetic else {
            return;
        };
        let bytes = synth.elephant_bytes;
        let src = self.flows.records[flow as usize].tcp.src.0;
        let dst = self.workload.elephant_dst(src);
        if now <= self.cfg.duration {
            self.start_flow(src, dst, bytes, FlowClass::Elephant, now);
        }
    }

    fn start_flow(&mut self, src: u32, dst: u32, bytes: u64, class: FlowClass, now: Time) {
        if src == dst {
            return;
        }
        let flow_hash = self.workload.rng.next_u64();
        // Elephants are the measured subject wherever they appear (they
        // start at t=0 by design); other classes honour the warmup window.
        let measured =
            class == FlowClass::Elephant || (now >= self.cfg.warmup && now <= self.cfg.duration);
        if measured {
            self.stats.flows_started += 1;
        }
        if self.cfg.raw_packet_mode {
            // Open-loop packet train: the whole flow goes to the NIC now.
            let train = self
                .flows
                .open_raw(dst, flow_hash, bytes, class, measured, now);
            let out = &mut Wheel(&mut self.queue);
            self.net.send_train(src, train, out, &mut self.probe);
            return;
        }
        let id = drill_net::FlowId(self.flows.records.len() as u32);
        let (src, dst) = (HostId(src), HostId(dst));
        let tcp = TcpFlow::new(id, src, dst, flow_hash, bytes, now, self.cfg.tcp);
        let mut out = self.flows.pkt_pool.get();
        let flow = self.flows.open(tcp, class, measured, now, &mut out);
        self.send_all(src, out, now);
        self.flows.schedule_rto(flow, &mut self.queue);
    }

    /// `host` sends `pkts` in order; the buffer goes back to the pool.
    fn send_all(&mut self, host: HostId, mut pkts: Vec<Packet>, now: Time) {
        for p in pkts.drain(..) {
            let out = &mut Wheel(&mut self.queue);
            self.net.host_send(host, p, now, out, &mut self.probe);
        }
        self.flows.pkt_pool.put(pkts);
    }

    fn on_rto_wake(&mut self, flow: u32, now: Time) {
        let mut out = self.flows.pkt_pool.get();
        match self.flows.on_rto_wake(flow, now, &mut self.queue, &mut out) {
            Some(src) => {
                self.send_all(src, out, now);
                self.flows.schedule_rto(flow, &mut self.queue);
            }
            None => self.flows.pkt_pool.put(out),
        }
    }

    fn on_shim_timer(&mut self, flow: u32, now: Time) {
        if let Some(shim) = self.flows.records[flow as usize].shim.as_mut() {
            let mut released = self.flows.ref_pool.get();
            shim.on_timer(&self.net.arena, now, &mut released);
            self.deliver(flow, released, now);
        }
    }

    fn on_host_arrival(&mut self, host: HostId, pref: PacketRef, now: Time) {
        if P::ENABLED {
            let meta = self.net.arena.get(&pref).meta();
            self.probe.on_host_recv(now, host.0, &meta);
        }
        if self.cfg.raw_packet_mode {
            self.stats.data_pkts_delivered += 1;
            self.stats.bytes_delivered += self.net.arena.get(&pref).payload as u64;
            self.net.arena.free(pref);
            return;
        }
        let pkt = self.net.arena.get(&pref);
        let (flow, is_ack) = (pkt.flow.0, pkt.is_ack());
        // Sabotage hook (audited runs only): blackhole the target flow's
        // data at the receiver — freed, not leaked, so packet
        // conservation stays clean while the sender stalls into RTOs.
        let sabotaged = self
            .audit
            .as_ref()
            .is_some_and(|a| a.blackholes(flow, is_ack, now));
        if sabotaged {
            self.net.arena.free(pref);
        } else if is_ack {
            // Sender side.
            let ack = self.net.arena.take(pref);
            debug_assert_eq!(self.flows.records[flow as usize].tcp.src, host);
            let mut out = self.flows.pkt_pool.get();
            let tcp = &mut self.flows.records[flow as usize].tcp;
            tcp.on_ack(&ack, now, &mut self.flows.pkt_ids, &mut out);
            self.send_all(host, out, now);
            self.flows.schedule_rto(flow, &mut self.queue);
            let r = &self.flows.records[flow as usize];
            if r.tcp.is_done() && r.class == FlowClass::Elephant {
                self.chain_elephant(flow, now);
            }
        } else if let Some((threshold, timeout)) = self.flows.shim {
            // Receiver side; the shim restores ordering first.
            let mut deliver = self.flows.ref_pool.get();
            let shim = self.flows.records[flow as usize]
                .shim
                .get_or_insert_with(|| ShimBuffer::with_threshold(timeout, threshold));
            if let Some(at) = shim.on_packet(&self.net.arena, pref, now, &mut deliver) {
                self.queue.push(at, Event::ShimTimer { flow }.into());
            }
            self.deliver(flow, deliver, now);
        } else {
            self.recv_data(flow, pref, now);
        }
    }

    /// Hand the shim's released packets to the receiver, in order.
    fn deliver(&mut self, flow: u32, mut refs: Vec<PacketRef>, now: Time) {
        for p in refs.drain(..) {
            self.recv_data(flow, p, now);
        }
        self.flows.ref_pool.put(refs);
    }

    fn recv_data(&mut self, flow: u32, pref: PacketRef, now: Time) {
        self.stats.data_pkts_delivered += 1;
        let receiver = self.flows.records[flow as usize].tcp.dst;
        let pkt = self.net.arena.take(pref);
        self.stats.bytes_delivered += pkt.payload as u64;
        let mut acks = self.flows.pkt_pool.get();
        let tcp = &mut self.flows.records[flow as usize].tcp;
        tcp.on_data(&pkt, now, &mut self.flows.pkt_ids, &mut acks);
        self.send_all(receiver, acks, now);
    }

    /// The `idx`-th timeline entry strikes. Local reaction at line speed:
    /// every switch prunes its own dead egress members immediately; only
    /// the multi-hop routing state stays stale until reconvergence.
    fn on_fault(&mut self, idx: u32, now: Time) {
        let blackholed = self.net.total_blackholed();
        let (info, reconverge) = self.faults.strike(idx, now, &mut self.net.topo, blackholed);
        self.net.sync_link_state();
        if P::ENABLED {
            self.probe.on_fault(now, &info);
        }
        self.stats.fault_events += 1;
        if let Some((due, gen)) = reconverge {
            if due <= self.cfg.duration + self.cfg.drain {
                self.queue.push(due, Event::Reconverge { gen }.into());
            }
        }
    }

    /// Install the post-fault control plane atomically (see
    /// [`Control::install`]). Fires only for the newest reconvergence
    /// generation, then closes the fault window.
    fn reconverge(&mut self, now: Time, gen: u64) {
        let recompute = self.faults.reconverge();
        self.control.install(&self.cfg, &mut self.net, recompute);
        self.stats.reconvergences += 1;
        self.stats.stable_at = now;
        self.probe_fault(now, fault_kind::RECONVERGE, gen);
        let blackholed = self.net.total_blackholed();
        if let Some(window_ns) = self.faults.close_window(now, blackholed, &mut self.stats) {
            self.probe_fault(now, fault_kind::STABLE, window_ns);
        }
    }

    fn probe_fault(&mut self, now: Time, kind: u8, param: u64) {
        if P::ENABLED {
            let (a, b) = (u32::MAX, u32::MAX);
            self.probe.on_fault(now, &FaultInfo { kind, a, b, param });
        }
    }

    fn finalize(mut self) -> (RunStats, P, Vec<AnomalyReport>) {
        let sim_end = self.queue.now();
        // A fault whose reconvergence never came due (detection window
        // past the deadline, or the run drained first) leaves its window
        // open: close it at the end of simulated time so the degradation
        // accounting still covers it.
        let blackholed = self.net.total_blackholed();
        self.faults
            .close_window(sim_end, blackholed, &mut self.stats);
        self.net.finalize(&mut self.stats);
        self.flows
            .finalize(&mut self.stats, &self.faults.windows, sim_end);
        self.stats.events = self.queue.events_processed();
        self.stats.sim_end = sim_end;
        self.stats.wheel_slots_hw = self.queue.allocated_slots() as u64;
        let reports = self.audit.map_or_else(Vec::new, |a| a.reports().to_vec());
        self.stats.anomalies = reports.len() as u64;
        (self.stats, self.probe, reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopoSpec;
    use crate::Scheme;
    use drill_faults::{FaultInjector, FaultKind, FaultSchedule};
    use drill_net::LeafSpineSpec;
    use drill_workload::TrafficPattern;

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
            Event::ShimTimer { flow },
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
                // The loop's look-ahead reads the packet of the two
                // arrival kinds, and of nothing else.
                let pkt = match again {
                    Event::Net(
                        NetEvent::ArriveSwitch { pkt, .. } | NetEvent::ArriveHost { pkt, .. },
                    ) => Some(pkt),
                    _ => None,
                };
                assert_eq!(
                    packed.arriving_packet(),
                    pkt,
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
    fn duplicate_single_link_failure_panics_when_applied() {
        // A leaf and a spine are joined by exactly one link pair; failing
        // it twice exhausts the pair and must be loud, not silent.
        let mut cfg = quick_cfg(Scheme::Ecmp, 0.1);
        let topo = cfg.topo.build();
        let pair = random_leaf_spine_failures(&topo, 1, 3)[0];
        cfg.failed_links = vec![pair, pair];
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

        // A schedule of two flaps on different pairs replays bit-identically.
        let topo = cfg.topo.build();
        let pairs = random_leaf_spine_failures(&topo, 2, 3);
        let mut s = FaultSchedule::default();
        let [(a0, b0), (a1, b1)] = [pairs[0], pairs[1]];
        s.link_flap(a0, b0, Time::from_millis(1), Time::from_micros(1_400))
            .link_flap(a1, b1, Time::from_micros(2_200), Time::from_micros(2_600));
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
        let (stats, recorder) = run_recorded(&cfg);
        // The probe observes but never steers: every counter matches the
        // probe-free run exactly.
        assert_eq!(base.events, stats.events);
        assert_eq!(base.flows_started, stats.flows_started);
        assert_eq!(base.flows_completed, stats.flows_completed);
        assert_eq!(base.mean_fct_ms().to_bits(), stats.mean_fct_ms().to_bits());
        assert!(recorder.event_count() > 1000, "recorder saw traffic");
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

        // RTO #1 fires at rto_min sharp (the first RTO), backs off to 2 ms and parks the
        // wake at 3 ms.
        w.run_to(ms);
        assert_eq!(w.flows.records[0].tcp.timeouts, 0);
        w.run_to(ms + ns);
        assert_eq!(w.flows.records[0].tcp.timeouts, 1);
        assert_eq!(w.flows.records[0].tcp.rto(), ms.mul(2), "backed off");
        assert_eq!(w.flows.records[0].rto_wake, ms.mul(3));

        // Walk timestamp by timestamp until every ACK that beat window 2
        // is in, noting the last timer restart and any shrink push.
        let mut last_restart = Time::ZERO;
        let mut shrink_pushes = 0;
        while let Some(next) = w.queue.peek_time().filter(|&t| t < Time::from_micros(1500)) {
            let (at, wake) = (w.flows.records[0].tcp.rto_at(), w.flows.records[0].rto_wake);
            w.run_to(next + ns);
            if w.flows.records[0].tcp.rto_at() != at {
                last_restart = next;
            }
            if w.flows.records[0].rto_wake < wake {
                shrink_pushes += 1;
                assert_eq!(
                    w.flows.records[0].tcp.rto(),
                    ms,
                    "an RTT sample undid the back-off"
                );
                assert_eq!(w.flows.records[0].rto_wake, next + ms);
            }
        }
        assert_eq!(shrink_pushes, 1, "later restarts only move rto_at");
        assert!(last_restart > Time::from_micros(1200), "{last_restart:?}");
        assert_eq!(w.flows.records[0].tcp.timeouts, 1);

        // RTO #2 is due one (shrunk) RTO after the last restart — ahead
        // of the orphaned 3 ms wake — and fires at that nanosecond.
        let due = last_restart + ms;
        assert!(due < ms.mul(3));
        assert_eq!(w.flows.records[0].tcp.rto_at(), Some(due));
        w.run_to(due);
        assert_eq!(w.flows.records[0].tcp.timeouts, 1);
        w.run_to(due + ns);
        assert_eq!(w.flows.records[0].tcp.timeouts, 2);
        // Its retransmission died in window 2: backed off again, the live
        // wake is 2 ms out and the orphan at 3 ms pops into nothing.
        assert_eq!(w.flows.records[0].rto_wake, due + ms.mul(2));
        w.run_to(ms.mul(3) + ns);
        assert_eq!(w.flows.records[0].tcp.timeouts, 2);
        assert_eq!(w.flows.records[0].rto_wake, due + ms.mul(2));
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
        w.advance(None);
        let flows = w.flows.records.len() as u64;
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
    /// flow record — while the measured count and the zero reorder
    /// samples each one is owed still add up.
    #[test]
    fn raw_flows_leave_no_per_flow_record() {
        let mut w = World::new(&small_fabric_raw());
        w.advance(None);
        let f = &w.flows;
        assert!(f.raw_flows > 600, "{}", f.raw_flows);
        assert_eq!(f.records.len(), 0);
        let measured = f.raw_measured;
        assert_eq!(f.raw_elephants, 0, "no elephants in this workload");
        assert!(
            measured > 0 && measured < f.raw_flows as u64,
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
