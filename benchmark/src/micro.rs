//! Per-layer costs, measured from outside.
//!
//! One layer = one crate. Every number here is taken by timing calls into
//! that crate's public functions from this file, with inputs shaped like
//! the workload being traced (fan-out, resident event population, engine
//! count, failure set, arrival process) — never from inside the program.
//! These are hot-cache costs: the gap between them and the rate a whole
//! run achieves is what the residual `runtime.loop_est_share.self`
//! reports.

use std::hint::black_box;
use std::time::Instant;

use drill_core::{DrillPolicy, SymmetryEngine};
use drill_exec::Executor;
use drill_faults::{FaultInjector, FaultKind};
use drill_lb::{CongaConfig, CongaPolicy, EcmpPolicy, PrestoHostPolicy};
use drill_net::{
    EventSink, FlowId, HostId, HostNic, HostPolicy, NetEvent, Packet, PacketArena, QueueView,
    RouteTable, SelectCtx, Switch, SwitchConfig, SwitchId, SwitchPolicy, Topology,
};
use drill_runtime::{random_leaf_spine_failures, ExperimentConfig};
use drill_sim::{EventQueue, EventToken, SimRng, Time};
use drill_stats::Distribution;
use drill_telemetry::NoopProbe;
use drill_transport::{ShimBuffer, TcpFlow, SHIM_DEFAULT_TIMEOUT};
use drill_workload::{aggregate_flow_rate, ArrivalProcess, WorkloadGen};

use crate::summary::median;
use crate::trace::Tracer;

/// Timed runs per micro (after one warm-up); the median is reported.
const RUNS: usize = 3;

/// Time `body(iters)` and return the median nanoseconds per iteration.
/// `quick` (the smoke scale) runs a tenth of the iterations.
fn ns_per_op(
    tr: &mut Tracer,
    name: &str,
    iters: usize,
    quick: bool,
    mut body: impl FnMut(usize),
) -> f64 {
    let iters = if quick { iters / 10 + 1 } else { iters };
    let (ns, _) = tr.span(name, |_| {
        body(iters / 8 + 1);
        let runs: Vec<f64> = (0..RUNS)
            .map(|_| {
                let start = Instant::now();
                body(iters);
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        median(&runs)
    });
    ns
}

/// The event-queue `hold` model: `resident` events pending, each step
/// pops the earliest and schedules a replacement a short random gap
/// ahead (mostly packet service times, occasionally a timer).
fn queue_hold<P: Clone>(resident: usize, payload: P) -> impl FnMut(usize) {
    let mut q: EventQueue<P> = EventQueue::new();
    let mut rng = SimRng::seed_from(42);
    for _ in 0..resident {
        q.push(
            Time::from_nanos(1 + rng.below(10_000) as u64),
            payload.clone(),
        );
    }
    move |iters| {
        for _ in 0..iters {
            let (t, p) = q.pop().expect("queue holds its resident population");
            let gap = if rng.below(16) == 0 {
                rng.below(1 << 22)
            } else {
                rng.below(4096)
            };
            q.push(t + Time::from_nanos(1 + gap as u64), black_box(p));
        }
    }
}

/// Calibration score for the run manifest: the `hold4096` wheel micro, in
/// million pop+push pairs per second. It describes what the host *can*
/// do, so it is the best of several short runs (a median would follow a
/// noisy neighbour's burst). Result files from hosts whose scores differ
/// are not comparable.
pub fn calibration_mops() -> f64 {
    const ITERS: usize = 200_000;
    let mut hold = queue_hold(4096, 0u64);
    hold(ITERS);
    let best_ns = (0..5)
        .map(|_| {
            let start = Instant::now();
            hold(ITERS);
            start.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .fold(f64::INFINITY, f64::min);
    1e3 / best_ns
}

/// `hold` plus one timer re-arm per step: the oldest outstanding
/// cancellable timer is cancelled and a new one armed a millisecond or
/// more ahead — the queue traffic of a transport that re-arms its
/// retransmission timer on every ACK. One op = pop + push + cancel +
/// push_cancellable.
fn queue_cancel(resident: usize) -> impl FnMut(usize) {
    const TIMERS: usize = 64;
    let mut q: EventQueue<[u8; 24]> = EventQueue::new();
    let mut rng = SimRng::seed_from(7);
    for _ in 0..resident {
        q.push(Time::from_nanos(1 + rng.below(1 << 14) as u64), [0; 24]);
    }
    let rto = |rng: &mut SimRng| Time::from_nanos((1 << 20) + rng.below(1 << 22) as u64);
    let mut timers: std::collections::VecDeque<EventToken> = (0..TIMERS)
        .map(|_| q.push_cancellable(rto(&mut rng), [1; 24]))
        .collect();
    move |iters| {
        for _ in 0..iters {
            let (t, p) = q.pop().expect("queue holds its resident population");
            q.push(
                t + Time::from_nanos(1 + rng.below(4096) as u64),
                black_box(p),
            );
            q.cancel(timers.pop_front().expect("outstanding timers"));
            timers.push_back(q.push_cancellable(t + rto(&mut rng), [1; 24]));
        }
    }
}

struct FakeQueues(Vec<u64>);

impl QueueView for FakeQueues {
    fn visible_bytes(&self, p: u16) -> u64 {
        self.0[p as usize]
    }
    fn visible_pkts(&self, p: u16) -> u32 {
        (self.0[p as usize] / 1500) as u32
    }
    fn num_ports(&self) -> usize {
        self.0.len()
    }
}

fn data_pkt(id: u64, src: HostId, dst: HostId, seq: u64) -> Packet {
    Packet::data(
        id,
        FlowId((id % 64) as u32),
        src,
        dst,
        id.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        seq,
        1442,
        Time::ZERO,
    )
}

fn fail_pair(topo: &mut Topology, (a, b): (u32, u32)) {
    let ok = topo.fail_switch_link(SwitchId(a), SwitchId(b), 0)
        || topo.fail_switch_link(SwitchId(b), SwitchId(a), 0);
    assert!(ok, "pair ({a},{b}) matches no live switch-to-switch link");
}

/// A remote host for traffic leaving `leaf`: the first host of another
/// leaf.
fn remote_host(topo: &Topology, leaf: SwitchId) -> HostId {
    let other = *topo
        .leaves()
        .iter()
        .find(|&&l| l != leaf)
        .expect("fabric has at least two leaves");
    topo.hosts_of_leaf(other)[0]
}

/// `Switch::receive` + `on_enqueue_commit` + `on_tx_done` for one packet
/// at a time through one leaf, host port in, fabric uplink out.
fn switch_forward<'a>(
    cfg: &'a ExperimentConfig,
    topo: &'a Topology,
    routes: &'a RouteTable,
) -> impl FnMut(usize) + 'a {
    let leaf = topo.leaves()[0];
    let policy = cfg
        .scheme
        .make_switch_policy(topo, routes, leaf, cfg.engines);
    let mut sw = Switch::new(
        leaf,
        topo.num_ports(leaf),
        SwitchConfig {
            engines: cfg.engines,
            queue_limit_bytes: cfg.queue_limit_bytes,
            model_enqueue_commit: cfg.model_commit,
        },
        policy,
    );
    sw.sync_link_state(topo);
    let srcs = topo.hosts_of_leaf(leaf);
    let dst = remote_host(topo, leaf);
    let mut arena = PacketArena::new();
    let mut rng = SimRng::seed_from(3);
    let mut out: EventSink = Vec::new();
    let mut next: EventSink = Vec::new();
    let mut now = Time::ZERO;
    let mut id = 0u64;
    move |iters| {
        for _ in 0..iters {
            id += 1;
            let src = srcs[id as usize % srcs.len()];
            let ingress = topo.host_uplink(src).dst_port;
            let r = arena.insert(data_pkt(id, src, dst, 0));
            sw.receive(
                topo,
                routes,
                &mut arena,
                r,
                ingress,
                now,
                &mut rng,
                &mut out,
                &mut NoopProbe,
            );
            // Drain what the switch scheduled, in time order (commit
            // before tx-done), until the packet has left on the wire.
            while !out.is_empty() {
                out.sort_by_key(|&(t, _)| t);
                for (t, ev) in out.drain(..) {
                    now = now.max(t);
                    match ev {
                        NetEvent::EnqueueCommit {
                            port,
                            bytes,
                            engine,
                            ..
                        } => sw.on_enqueue_commit(port, bytes, engine),
                        NetEvent::SwitchTxDone { port, .. } => sw.on_tx_done(
                            topo,
                            &mut arena,
                            port,
                            t,
                            &mut rng,
                            &mut next,
                            &mut NoopProbe,
                        ),
                        NetEvent::ArriveSwitch { pkt, .. } | NetEvent::ArriveHost { pkt, .. } => {
                            arena.free(pkt)
                        }
                        NetEvent::HostTxDone { .. } => {}
                    }
                }
                std::mem::swap(&mut out, &mut next);
            }
        }
    }
}

/// `HostNic::send` + `on_tx_done` per packet; the wire arrival is freed.
fn nic_cycle(topo: &Topology) -> impl FnMut(usize) + '_ {
    let host = HostId(0);
    let dst = remote_host(topo, topo.host_leaf(host));
    let mut nic = HostNic::new(host);
    let mut arena = PacketArena::new();
    let mut out: EventSink = Vec::new();
    let mut id = 0u64;
    move |iters| {
        for _ in 0..iters {
            id += 1;
            let now = Time::from_nanos(id * 1200);
            let r = arena.insert(data_pkt(id, host, dst, 0));
            nic.send(topo, &mut arena, r, now, &mut out, &mut NoopProbe);
            nic.on_tx_done(topo, now, &mut out);
            for (_, ev) in out.drain(..) {
                if let NetEvent::ArriveSwitch { pkt, .. } | NetEvent::ArriveHost { pkt, .. } = ev {
                    arena.free(pkt);
                }
            }
        }
    }
}

/// Arena insert / get / take with `resident` packets live, oldest out.
fn arena_cycle(resident: usize) -> impl FnMut(usize) {
    let mut arena = PacketArena::new();
    let mut live: std::collections::VecDeque<_> = (0..resident as u64)
        .map(|i| arena.insert(data_pkt(i, HostId(0), HostId(1), 0)))
        .collect();
    let mut id = resident as u64;
    move |iters| {
        for _ in 0..iters {
            id += 1;
            live.push_back(arena.insert(data_pkt(id, HostId(0), HostId(1), 0)));
            let r = live.pop_front().expect("resident population");
            black_box(arena.get(&r).size);
            black_box(arena.take(r));
        }
    }
}

/// Two `TcpFlow` endpoints back to back over a perfect pipe. With
/// `reorder`, adjacent data segments swap places before delivery, so the
/// receiver's out-of-order store and the sender's dup-ACK path run.
/// Returns nanoseconds per data segment delivered.
fn tcp_transfer(
    tr: &mut Tracer,
    name: &str,
    cfg: &ExperimentConfig,
    reorder: bool,
    quick: bool,
) -> f64 {
    let bytes: u64 = if quick { 10_000_000 } else { 100_000_000 };
    let body = || -> u64 {
        let mut f = TcpFlow::new(
            FlowId(0),
            HostId(0),
            HostId(1),
            1,
            bytes,
            Time::ZERO,
            cfg.tcp,
        );
        let mut ids = 0u64;
        let mut data: Vec<Packet> = Vec::new();
        let mut acks: Vec<Packet> = Vec::new();
        let mut now = Time::ZERO;
        let mut segments = 0u64;
        f.start_sending(now, &mut ids, &mut data);
        while !f.is_done() {
            assert!(!data.is_empty(), "perfect pipe stalled");
            now += Time::from_micros(10);
            if reorder {
                for pair in data.chunks_exact_mut(2) {
                    pair.swap(0, 1);
                }
            }
            segments += data.len() as u64;
            for p in data.drain(..) {
                f.on_data(&p, now, &mut ids, &mut acks);
            }
            now += Time::from_micros(10);
            for a in acks.drain(..) {
                f.on_ack(&a, now, &mut ids, &mut data);
            }
        }
        black_box(f.bytes_acked);
        segments
    };
    let (ns, _) = tr.span(name, |_| {
        body();
        let runs: Vec<f64> = (0..RUNS)
            .map(|_| {
                let start = Instant::now();
                let segments = body();
                start.elapsed().as_nanos() as f64 / segments as f64
            })
            .collect();
        median(&runs)
    });
    ns
}

/// In-order packets through a `ShimBuffer` (the common case DRILL's shim
/// must keep cheap).
fn shim_cycle() -> impl FnMut(usize) {
    let mut shim = ShimBuffer::new(SHIM_DEFAULT_TIMEOUT);
    let mut arena = PacketArena::new();
    let mut deliver = Vec::new();
    let mut i = 0u64;
    move |iters| {
        for _ in 0..iters {
            let r = arena.insert(data_pkt(i, HostId(0), HostId(1), i * 1442));
            shim.on_packet(&arena, r, Time::from_nanos(i * 1200), &mut deliver);
            for d in deliver.drain(..) {
                arena.free(d);
            }
            i += 1;
        }
    }
}

/// Everything the layer micros need to know about a workload.
pub struct Shape<'a> {
    /// The workload's (first) configuration.
    pub cfg: &'a ExperimentConfig,
    /// The extra uplink the warm-reconverge probe fails and restores (the
    /// workload's own flapped link when it has one).
    pub flap: Option<(u32, u32)>,
    /// FCT samples a run of this workload records.
    pub fct_samples: usize,
    /// Run a tenth of the iterations (the smoke scale).
    pub quick: bool,
}

/// Metric name → value, in emission order.
pub type Values = Vec<(&'static str, f64)>;

/// Run every layer micro for one workload shape.
pub fn run_all(shape: &Shape<'_>, tr: &mut Tracer) -> Values {
    let cfg = shape.cfg;
    let mut v: Values = Vec::new();
    let quick = shape.quick;

    // net + core: the control-plane path `World::new` walks, re-measured
    // standalone on the same topology and failure set.
    let (mut topo, topo_s) = tr.span("net.topo_build", |_| cfg.topo.build());
    for &pair in &cfg.failed_links {
        fail_pair(&mut topo, pair);
    }
    let (mut routes, route_s) = tr.span("net.route_compute", |_| RouteTable::compute(&topo));
    let mut engine = SymmetryEngine::new();
    let (report, install_s) = tr.span("core.install_cold", |_| engine.install(&topo, &mut routes));
    v.push(("net.topo_build_s", topo_s));
    v.push(("net.route_compute_s", route_s));
    v.push(("core.install_cold_s", install_s));
    v.push(("core.entries", report.entries as f64));
    v.push(("core.classes", report.classes as f64));
    v.push(("core.paths_walked", report.paths_enumerated as f64));
    v.push(("core.entries_reused", report.entries_reused as f64));

    // Warm engine: a failure it has not seen, then the restore back to a
    // state it has. Route recomputation is `net`'s and stays outside.
    let flap = shape.flap.unwrap_or_else(|| {
        random_leaf_spine_failures(&topo, 1, cfg.seed)
            .first()
            .copied()
            .expect("fabric has a live leaf uplink")
    });
    let mut degraded = topo.clone();
    let mut injector = FaultInjector::new();
    let (_, down_s) = tr.span("faults.apply", |_| {
        injector.apply(
            &mut degraded,
            FaultKind::LinkDown {
                a: flap.0,
                b: flap.1,
            },
        )
    });
    let mut r2 = RouteTable::compute(&degraded);
    let (_, new_s) = tr.span("core.reconverge_new", |_| {
        engine.install(&degraded, &mut r2)
    });
    let (_, up_s) = tr.span("faults.apply", |_| {
        injector.apply(
            &mut degraded,
            FaultKind::LinkUp {
                a: flap.0,
                b: flap.1,
            },
        )
    });
    let mut r3 = RouteTable::compute(&degraded);
    let (_, replay_s) = tr.span("core.reconverge_replay", |_| {
        engine.install(&degraded, &mut r3)
    });
    drop((degraded, r2, r3, engine));
    v.push(("core.reconverge_new_s", new_s));
    v.push(("core.reconverge_replay_s", replay_s));
    v.push(("faults.apply_us", (down_s + up_s) / 2.0 * 1e6));

    // Sizes the data-plane micros take from the fabric.
    let leaf = topo.leaves()[0];
    let dst = remote_host(&topo, leaf);
    let dst_leaf = topo.host_leaf_index(dst);
    let uplinks: Vec<u16> = routes.candidates(leaf, dst_leaf).to_vec();
    let ports: usize = (0..topo.num_switches() as u32)
        .map(|s| topo.num_ports(SwitchId(s)))
        .sum();
    // Every serializer (host NIC or switch port) holds at most one
    // tx-done event: the busy-fabric resident population.
    let resident = topo.num_hosts() + ports;

    v.push((
        "sim.queue_hold_ns_per_op",
        ns_per_op(
            tr,
            "sim.queue_hold",
            1_000_000,
            quick,
            queue_hold(resident, [0u8; 24]),
        ),
    ));
    v.push((
        "sim.queue_cancel_ns_per_op",
        ns_per_op(
            tr,
            "sim.queue_cancel",
            1_000_000,
            quick,
            queue_cancel(resident),
        ),
    ));
    let mut rng = SimRng::seed_from(11);
    let fanout = uplinks.len().max(2);
    v.push((
        "sim.rng_ns_per_draw",
        ns_per_op(tr, "sim.rng", 4_000_000, quick, |iters| {
            for _ in 0..iters {
                black_box(rng.below(fanout));
            }
        }),
    ));

    v.push((
        "net.switch_fwd_ns_per_pkt",
        ns_per_op(
            tr,
            "net.switch_fwd",
            300_000,
            quick,
            switch_forward(cfg, &topo, &routes),
        ),
    ));
    v.push((
        "net.arena_ns_per_pkt",
        ns_per_op(tr, "net.arena", 1_000_000, quick, arena_cycle(resident)),
    ));
    v.push((
        "net.nic_ns_per_pkt",
        ns_per_op(tr, "net.nic", 1_000_000, quick, nic_cycle(&topo)),
    ));

    // core + lb: one forwarding decision over the leaf's uplinks.
    let queues = FakeQueues(
        (0..topo.num_ports(leaf))
            .map(|i| (i as u64 * 3711) % 90_000)
            .collect(),
    );
    let ctx = SelectCtx {
        now: Time::from_micros(5),
        engine: 0,
        flow_hash: 0x1234_5678_9abc_def0,
        flow: FlowId(3),
        dst_leaf,
        candidates: &uplinks,
    };
    let select = |tr: &mut Tracer, name: &str, policy: &mut dyn SwitchPolicy| {
        let mut rng = SimRng::seed_from(7);
        ns_per_op(tr, name, 2_000_000, quick, |iters| {
            for _ in 0..iters {
                black_box(policy.select(&ctx, &queues, &mut rng));
            }
        })
    };
    v.push((
        "core.select_ns_per_pkt",
        select(tr, "core.select", &mut DrillPolicy::new(2, 1, cfg.engines)),
    ));
    v.push((
        "lb.ecmp_select_ns",
        select(tr, "lb.ecmp_select", &mut EcmpPolicy),
    ));
    v.push((
        "lb.conga_select_ns",
        select(
            tr,
            "lb.conga_select",
            &mut CongaPolicy::build(&topo, leaf, CongaConfig::default()),
        ),
    ));
    let mut presto = PrestoHostPolicy::build(&topo, &routes, HostId(0));
    let mut rng = SimRng::seed_from(5);
    let mut seq = 0u64;
    v.push((
        "lb.presto_on_send_ns",
        ns_per_op(tr, "lb.presto_on_send", 1_000_000, quick, |iters| {
            for _ in 0..iters {
                seq += 1442;
                let mut p = data_pkt(seq, HostId(0), dst, seq);
                presto.on_send(&mut p, Time::ZERO, &mut rng);
                black_box(p);
            }
        }),
    ));

    // transport
    v.push((
        "transport.tcp_ns_per_pkt",
        tcp_transfer(tr, "transport.tcp", cfg, false, quick),
    ));
    v.push((
        "transport.tcp_reorder_ns_per_pkt",
        tcp_transfer(tr, "transport.tcp_reorder", cfg, true, quick),
    ));
    v.push((
        "transport.shim_ns_per_pkt",
        ns_per_op(tr, "transport.shim", 1_000_000, quick, shim_cycle()),
    ));

    // workload: the generator exactly as the runtime configures it.
    let leaf_of: Vec<u32> = (0..topo.num_hosts() as u32)
        .map(|h| topo.host_leaf_index(HostId(h)))
        .collect();
    let core_bps: u64 = topo
        .links()
        .iter()
        .filter(|l| l.hop == drill_net::HopClass::LeafUp)
        .map(|l| l.nominal_bps)
        .sum();
    let rate = aggregate_flow_rate(cfg.workload.load, core_bps, cfg.workload.sizes.mean());
    let arrivals = if cfg.workload.burst_sigma > 0.0 {
        ArrivalProcess::lognormal(rate, cfg.workload.burst_sigma)
    } else {
        ArrivalProcess::poisson(rate)
    };
    let mut rng = SimRng::seed_from(cfg.seed);
    let mut gen = WorkloadGen::new(
        cfg.workload.sizes.clone(),
        arrivals,
        cfg.workload.pattern.clone(),
        leaf_of,
        &mut rng,
    );
    v.push((
        "workload.next_flow_ns",
        ns_per_op(tr, "workload.next_flow", 1_000_000, quick, |iters| {
            for _ in 0..iters {
                black_box(gen.next_flow(&mut rng));
            }
        }),
    ));

    // stats: FCT-sample insertion (exact store, then forced sketch) and
    // the first quantile query over as many samples as a run records.
    // A fresh store per timed run: past `EXACT_SPILL_LIMIT` samples the
    // exact store would spill and silently become the sketch.
    let mut rng = SimRng::seed_from(9);
    v.push((
        "stats.add_ns",
        ns_per_op(tr, "stats.add", 200_000, quick, |iters| {
            let mut exact = Distribution::new();
            for _ in 0..iters {
                exact.add(rng.unit());
            }
            black_box(exact.count());
        }),
    ));
    v.push((
        "stats.sketch_add_ns",
        ns_per_op(tr, "stats.sketch_add", 200_000, quick, |iters| {
            let mut sketch = Distribution::sketched();
            for _ in 0..iters {
                sketch.add(rng.unit());
            }
            black_box(sketch.count());
        }),
    ));
    let samples = shape.fct_samples.max(1000);
    let (quantile_s, _) = tr.span("stats.quantile", |_| {
        let runs: Vec<f64> = (0..RUNS)
            .map(|_| {
                let mut d = Distribution::with_capacity(samples);
                for _ in 0..samples {
                    d.add(rng.unit());
                }
                let start = Instant::now();
                black_box(d.quantile(0.99));
                start.elapsed().as_secs_f64()
            })
            .collect();
        median(&runs)
    });
    v.push(("stats.quantile_us", quantile_s * 1e6));

    // exec: what one `Executor::map` costs beyond the items' own work.
    let items = [0u8; 30];
    let pool = Executor::new(crate::workloads::SWEEP_THREADS);
    let map_ns = ns_per_op(tr, "exec.map", 200, quick, |iters| {
        for _ in 0..iters {
            black_box(pool.map(&items, |i, &x| i as u8 ^ x));
        }
    });
    v.push(("exec.map_overhead_us", map_ns / 1e3));
    v
}
