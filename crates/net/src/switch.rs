//! Output-queued switch with multiple forwarding engines.
//!
//! Modeling notes (all matching §3.2.1 of the paper):
//!
//! * Store-and-forward: a packet is processed once fully received; egress
//!   serialization takes `size / rate`, then propagation `prop`.
//! * Output queues are per-port FIFOs with a byte-based tail-drop limit.
//! * Each packet is handled by the forwarding engine of its ingress port
//!   (`ingress % engines`); engines run the switch's [`SwitchPolicy`]
//!   independently (the policy object receives the engine index and keeps
//!   per-engine state).
//! * **Queue visibility lag**: a freshly appended packet only becomes
//!   visible to the engines' load sensing after its *enqueue commit*, one
//!   serialization time after it is appended. Until then engines see the
//!   shorter, stale queue — the mechanism behind the paper's
//!   synchronization effect. Disable with
//!   [`SwitchConfig::model_enqueue_commit`] to give engines perfect
//!   instantaneous queue information.

use std::collections::VecDeque;
use std::io;

use drill_sim::codec::{invalid, put_varint, Decoder};
use drill_sim::{SimRng, Time};
use drill_telemetry::{DropReason, EngineChoice, Probe};

use crate::arena::{PacketArena, PacketRef};
use crate::ids::{NodeRef, SwitchId};
use crate::lbapi::{weighted_group_pick, QueueView, SelectCtx, SwitchPolicy};
use crate::packet::Packet;
use crate::routing::RouteTable;
use crate::topology::{HopClass, Topology};
use crate::{EventSink, NetEvent};

/// Switch hardware parameters.
#[derive(Clone, Debug)]
pub struct SwitchConfig {
    /// Number of independent forwarding engines (§3.2.1).
    pub engines: usize,
    /// Per-output-port buffer limit in bytes (tail drop).
    pub queue_limit_bytes: u64,
    /// Model the enqueue-commit visibility lag (true reproduces the paper's
    /// switch; false gives engines perfect queue information).
    pub model_enqueue_commit: bool,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            engines: 1,
            // 100 x 1500B full frames per port: a shallow-buffered
            // commodity ToR.
            queue_limit_bytes: 150_000,
            model_enqueue_commit: true,
        }
    }
}

/// Per-port counters exposed for samplers and assertions.
#[derive(Clone, Copy, Debug, Default)]
pub struct PortStats {
    /// Packets dropped at this port (tail drop + dead-link drops).
    pub drops: u64,
    /// Bytes dropped.
    pub drop_bytes: u64,
    /// Packets transmitted.
    pub tx_pkts: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// Sum of queueing delays (enqueue to transmission start), ns.
    pub wait_ns_sum: u64,
    /// Number of queueing-delay samples.
    pub wait_count: u64,
}

/// A packet resident in a port FIFO: its arena handle plus the wire size
/// and enqueue time, cached inline so occupancy accounting and wait
/// sampling never chase the arena.
struct QueuedPkt {
    r: PacketRef,
    size: u32,
    enq: Time,
}

struct OutPort {
    q: VecDeque<QueuedPkt>,
    /// Waiting bytes (excluding the packet being serialized).
    q_bytes: u64,
    /// Packet currently on the wire, with its enqueue time.
    in_flight: Option<QueuedPkt>,
    /// Committed (engine-visible) bytes, including the in-flight packet.
    visible_bytes: u64,
    /// Committed (engine-visible) packets, including the in-flight packet.
    visible_pkts: u32,
    stats: PortStats,
}

impl OutPort {
    fn new() -> OutPort {
        OutPort {
            q: VecDeque::new(),
            q_bytes: 0,
            in_flight: None,
            visible_bytes: 0,
            visible_pkts: 0,
            stats: PortStats::default(),
        }
    }

    /// Actual occupancy in packets (waiting + in flight).
    fn pkts(&self) -> u32 {
        self.q.len() as u32 + self.in_flight.is_some() as u32
    }

    /// Actual occupancy in bytes (waiting + in flight).
    fn bytes(&self) -> u64 {
        self.q_bytes + self.in_flight.as_ref().map_or(0, |q| q.size as u64)
    }
}

/// Engine-visible view over the ports (the [`QueueView`] given to policies).
pub struct PortQueues<'a> {
    ports: &'a [OutPort],
    /// Per-(engine, port) bytes enqueued but not yet committed, row-major
    /// by engine. An engine always sees its own pending writes.
    pending: &'a [u64],
}

impl QueueView for PortQueues<'_> {
    #[inline]
    fn visible_bytes(&self, port: u16) -> u64 {
        self.ports[port as usize].visible_bytes
    }
    #[inline]
    fn visible_pkts(&self, port: u16) -> u32 {
        self.ports[port as usize].visible_pkts
    }
    #[inline]
    fn num_ports(&self) -> usize {
        self.ports.len()
    }
    #[inline]
    fn visible_bytes_for(&self, engine: usize, port: u16) -> u64 {
        self.ports[port as usize].visible_bytes
            + self.pending[engine * self.ports.len() + port as usize]
    }
}

/// An output-queued switch.
pub struct Switch {
    id: SwitchId,
    cfg: SwitchConfig,
    ports: Vec<OutPort>,
    policy: Box<dyn SwitchPolicy>,
    /// Per-(engine, port) uncommitted bytes, row-major by engine.
    pending: Vec<u64>,
    /// Packets dropped because no route / dead egress existed.
    pub blackholed: u64,
    /// Packets forwarded (enqueued somewhere).
    pub forwarded: u64,
    /// Per-egress link liveness, mirrored from the topology by
    /// [`Switch::sync_link_state`]. A real switch prunes a dead local
    /// member (loss of carrier, LAG member down) at line speed — only
    /// *multi-hop* routing knowledge waits for the detection delay — so
    /// forwarding skips dead local ports immediately even while the
    /// installed routes are stale.
    live_egress: Vec<bool>,
    /// Fast-path guard: true iff any entry of `live_egress` is false.
    any_dead: bool,
}

impl Switch {
    /// A switch with `num_ports` output ports running `policy`.
    pub fn new(
        id: SwitchId,
        num_ports: usize,
        cfg: SwitchConfig,
        policy: Box<dyn SwitchPolicy>,
    ) -> Switch {
        assert!(cfg.engines > 0, "at least one forwarding engine");
        let engines = cfg.engines;
        Switch {
            id,
            cfg,
            ports: (0..num_ports).map(|_| OutPort::new()).collect(),
            policy,
            pending: vec![0; engines * num_ports],
            blackholed: 0,
            forwarded: 0,
            live_egress: vec![true; num_ports],
            any_dead: false,
        }
    }

    /// Mirror the topology's per-egress link state into the local pruning
    /// table. Call after any link/switch state change in `topo` (the switch
    /// itself never polls): the world invokes this on every switch after
    /// build-time failures and after each fault strikes.
    pub fn sync_link_state(&mut self, topo: &Topology) {
        self.any_dead = false;
        for port in 0..self.ports.len() {
            let up = topo.egress(self.id, port as u16).up;
            self.live_egress[port] = up;
            self.any_dead |= !up;
        }
    }

    /// Is `port`'s egress link believed up? Constant-false-free fast path:
    /// with no dead links the check is a single bool.
    #[inline]
    fn is_live(&self, port: u16) -> bool {
        !self.any_dead || self.live_egress[port as usize]
    }

    /// This switch's id.
    pub fn id(&self) -> SwitchId {
        self.id
    }

    /// Swap in a policy built from new routing state (a controller-driven
    /// scheme's reconvergence). Queues, counters, engine-pending bytes and
    /// the link-state mirror stay: the switch's pending events in the
    /// wheel still refer to them.
    pub fn set_policy(&mut self, policy: Box<dyn SwitchPolicy>) {
        self.policy = policy;
    }

    /// Serialize this switch's dynamic state: every port FIFO (handles
    /// against `arena`, sizes, enqueue times), occupancy/visibility
    /// counters, per-port stats, per-engine pending bytes, the
    /// blackhole/forward counters, and the policy's state.
    ///
    /// `live_egress`/`any_dead` are *not* serialized — they mirror the
    /// topology's link state, which restore rebuilds by replaying the
    /// applied fault prefix and calling
    /// [`sync_link_state`](Switch::sync_link_state).
    pub fn save_state(&self, arena: &PacketArena, buf: &mut Vec<u8>) {
        put_varint(buf, self.ports.len() as u64);
        for p in &self.ports {
            put_varint(buf, p.q.len() as u64);
            for qp in &p.q {
                arena.encode_ref(buf, &qp.r);
                put_varint(buf, qp.size as u64);
                put_varint(buf, qp.enq.as_nanos());
            }
            put_varint(buf, p.q_bytes);
            match &p.in_flight {
                Some(qp) => {
                    buf.push(1);
                    arena.encode_ref(buf, &qp.r);
                    put_varint(buf, qp.size as u64);
                    put_varint(buf, qp.enq.as_nanos());
                }
                None => buf.push(0),
            }
            put_varint(buf, p.visible_bytes);
            put_varint(buf, p.visible_pkts as u64);
            for word in [
                p.stats.drops,
                p.stats.drop_bytes,
                p.stats.tx_pkts,
                p.stats.tx_bytes,
                p.stats.wait_ns_sum,
                p.stats.wait_count,
            ] {
                put_varint(buf, word);
            }
        }
        put_varint(buf, self.pending.len() as u64);
        for &b in &self.pending {
            put_varint(buf, b);
        }
        put_varint(buf, self.blackholed);
        put_varint(buf, self.forwarded);
        self.policy.save_state(buf);
    }

    /// Restore state written by [`save_state`](Switch::save_state) into a
    /// freshly built switch of the same shape (same ports, engines,
    /// scheme). The caller re-syncs link state afterwards.
    pub fn load_state(&mut self, arena: &PacketArena, d: &mut Decoder<'_>) -> io::Result<()> {
        let nports = d.varint_usize()?;
        if nports != self.ports.len() {
            return Err(invalid("switch port count mismatch"));
        }
        let read_qp = |arena: &PacketArena, d: &mut Decoder<'_>| -> io::Result<QueuedPkt> {
            Ok(QueuedPkt {
                r: arena.decode_ref(d)?,
                size: d.varint_u32()?,
                enq: Time::from_nanos(d.varint()?),
            })
        };
        for i in 0..nports {
            let qlen = d.varint_usize()?;
            let mut q = VecDeque::with_capacity(qlen.min(1 << 16));
            for _ in 0..qlen {
                q.push_back(read_qp(arena, d)?);
            }
            let q_bytes = d.varint()?;
            let in_flight = match d.u8()? {
                0 => None,
                1 => Some(read_qp(arena, d)?),
                _ => return Err(invalid("bad in-flight byte")),
            };
            let visible_bytes = d.varint()?;
            let visible_pkts = d.varint_u32()?;
            let stats = PortStats {
                drops: d.varint()?,
                drop_bytes: d.varint()?,
                tx_pkts: d.varint()?,
                tx_bytes: d.varint()?,
                wait_ns_sum: d.varint()?,
                wait_count: d.varint()?,
            };
            self.ports[i] = OutPort {
                q,
                q_bytes,
                in_flight,
                visible_bytes,
                visible_pkts,
                stats,
            };
        }
        let npending = d.varint_usize()?;
        if npending != self.pending.len() {
            return Err(invalid("switch engine-grid mismatch"));
        }
        for b in &mut self.pending {
            *b = d.varint()?;
        }
        self.blackholed = d.varint()?;
        self.forwarded = d.varint()?;
        self.policy.load_state(d)
    }

    /// Actual queue occupancy in packets at `port` (waiting + in flight).
    pub fn queue_pkts(&self, port: u16) -> u32 {
        self.ports[port as usize].pkts()
    }

    /// Actual queue occupancy in bytes at `port` (waiting + in flight).
    pub fn queue_bytes(&self, port: u16) -> u64 {
        self.ports[port as usize].bytes()
    }

    /// Bytes *waiting* at `port`, excluding the in-flight head — exactly
    /// the quantity admission control bounds against `queue_limit_bytes`
    /// (the audit queue-ceiling watchdog checks this, not
    /// [`queue_bytes`](Switch::queue_bytes)).
    pub fn waiting_bytes(&self, port: u16) -> u64 {
        self.ports[port as usize].q_bytes
    }

    /// Engine-visible occupancy in packets at `port`.
    pub fn visible_pkts(&self, port: u16) -> u32 {
        self.ports[port as usize].visible_pkts
    }

    /// Per-port counters.
    pub fn port_stats(&self, port: u16) -> PortStats {
        self.ports[port as usize].stats
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// Handle a fully received packet: pick the egress port and enqueue.
    ///
    /// `probe` observes the forwarding decision and the queue transition;
    /// pass `&mut NoopProbe` (zero-sized, `ENABLED = false`) to compile
    /// the telemetry out entirely.
    #[allow(clippy::too_many_arguments)]
    pub fn receive<P: Probe>(
        &mut self,
        topo: &Topology,
        routes: &RouteTable,
        arena: &mut PacketArena,
        pref: PacketRef,
        ingress: u16,
        now: Time,
        rng: &mut SimRng,
        out: &mut EventSink,
        probe: &mut P,
    ) {
        let from_host = topo.ingress_link(self.id, ingress).hop == HopClass::HostUp;
        let dst = {
            let pkt = arena.get_mut(&pref);
            self.policy.on_arrival(pkt, now, topo, self.id);
            pkt.dst
        };

        // 1. Local delivery?
        let port = if topo.host_leaf(dst) == self.id {
            topo.host_leaf_port(dst)
        } else {
            let dst_leaf = topo.host_leaf_index(dst);
            let picked = self.pick_fabric_port(
                topo,
                routes,
                arena.get_mut(&pref),
                dst_leaf,
                ingress,
                now,
                rng,
                probe,
            );
            match picked {
                Some(p) => p,
                None => {
                    self.blackholed += 1;
                    if P::ENABLED {
                        let engine = (ingress as usize % self.cfg.engines) as u16;
                        probe.on_drop(
                            now,
                            self.id.0,
                            u16::MAX,
                            engine,
                            &arena.get(&pref).meta(),
                            DropReason::NoRoute,
                        );
                    }
                    arena.free(pref);
                    return;
                }
            }
        };

        self.policy
            .on_forward(arena.get_mut(&pref), port, now, topo, self.id, from_host);
        let engine = ingress as usize % self.cfg.engines;
        self.enqueue_from_engine(topo, arena, port, pref, engine, now, out, probe);
    }

    /// Choose the egress port toward `dst_leaf`: source route if present and
    /// usable, otherwise (weighted symmetric component ->) policy selection.
    #[allow(clippy::too_many_arguments)]
    fn pick_fabric_port<P: Probe>(
        &mut self,
        topo: &Topology,
        routes: &RouteTable,
        pkt: &mut Packet,
        dst_leaf: u32,
        ingress: u16,
        now: Time,
        rng: &mut SimRng,
        probe: &mut P,
    ) -> Option<u16> {
        // Source route (Presto): follow the designated transit switch if a
        // live port to it exists; otherwise consume the hop and fall back.
        if pkt.srcroute_pos < pkt.srcroute_len {
            let hop = pkt.srcroute[pkt.srcroute_pos as usize];
            let ports = topo.ports_to_switch(self.id, SwitchId(hop));
            if !ports.is_empty() {
                pkt.srcroute_pos += 1;
                let i = (pkt.flow_hash as usize) % ports.len();
                return Some(ports[i]);
            }
            pkt.srcroute_pos += 1; // unusable (failure): fall back below
        }

        let candidates = routes.candidates(self.id, dst_leaf);
        if candidates.is_empty() {
            return None;
        }
        if candidates.len() == 1 {
            return if self.is_live(candidates[0]) {
                Some(candidates[0])
            } else {
                None
            };
        }
        let groups = routes.groups(self.id, dst_leaf);
        let subset: &[u16] = if groups.is_empty() {
            candidates
        } else {
            &weighted_group_pick(groups, pkt.flow_hash).ports
        };
        // Prune locally-dead members from the stale route set. Routes are
        // computed on a live topology, so the filter only ever fires during
        // a fault window (`any_dead`); the no-fault hot path allocates
        // nothing. An all-dead subset blackholes at the caller.
        let live_buf: Vec<u16>;
        let subset: &[u16] =
            if self.any_dead && subset.iter().any(|&p| !self.live_egress[p as usize]) {
                live_buf = subset
                    .iter()
                    .copied()
                    .filter(|&p| self.live_egress[p as usize])
                    .collect();
                if live_buf.is_empty() {
                    return None;
                }
                &live_buf
            } else {
                subset
            };
        if subset.len() == 1 {
            return Some(subset[0]);
        }
        let ctx = SelectCtx {
            now,
            engine: ingress as usize % self.cfg.engines,
            flow_hash: pkt.flow_hash,
            flow: pkt.flow,
            dst_leaf,
            candidates: subset,
        };
        let view = PortQueues {
            ports: &self.ports,
            pending: &self.pending,
        };
        let chosen = self.policy.select(&ctx, &view, rng);
        debug_assert!(subset.contains(&chosen), "policy must choose a candidate");
        if P::ENABLED {
            // Ground truth the engine could not see (§3.2.1): the *actual*
            // occupancy of every candidate at selection time. This scan
            // exists only for the probe and is gated out when disabled.
            let mut best = subset[0];
            let mut best_pkts = self.ports[best as usize].pkts();
            for &c in &subset[1..] {
                let pk = self.ports[c as usize].pkts();
                if pk < best_pkts {
                    best = c;
                    best_pkts = pk;
                }
            }
            probe.on_engine_choice(
                now,
                self.id.0,
                ctx.engine as u16,
                &EngineChoice {
                    chosen,
                    chosen_pkts: self.ports[chosen as usize].pkts(),
                    best,
                    best_pkts,
                    candidates: subset.len() as u16,
                },
            );
        }
        Some(chosen)
    }

    /// Append a packet to `port`'s queue (tail drop), starting transmission
    /// if the port is idle. Attributed to engine 0.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue<P: Probe>(
        &mut self,
        topo: &Topology,
        arena: &mut PacketArena,
        port: u16,
        pref: PacketRef,
        now: Time,
        out: &mut EventSink,
        probe: &mut P,
    ) {
        self.enqueue_from_engine(topo, arena, port, pref, 0, now, out, probe)
    }

    /// [`Switch::enqueue`] attributed to a specific forwarding engine (the
    /// engine's pending-write counter tracks the packet until its commit).
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_from_engine<P: Probe>(
        &mut self,
        topo: &Topology,
        arena: &mut PacketArena,
        port: u16,
        pref: PacketRef,
        engine: usize,
        now: Time,
        out: &mut EventSink,
        probe: &mut P,
    ) {
        let link = topo.egress(self.id, port);
        let size = arena.get(&pref).size;
        let p = &mut self.ports[port as usize];
        if !link.up {
            p.stats.drops += 1;
            p.stats.drop_bytes += size as u64;
            if P::ENABLED {
                probe.on_drop(
                    now,
                    self.id.0,
                    port,
                    engine as u16,
                    &arena.get(&pref).meta(),
                    DropReason::LinkDown,
                );
            }
            arena.free(pref);
            return;
        }
        // Copied only on the enabled path (the handle moves into the queue
        // below, before the hook fires).
        let meta = if P::ENABLED {
            Some(arena.get(&pref).meta())
        } else {
            None
        };
        if p.in_flight.is_none() {
            debug_assert!(p.q.is_empty());
            // The commit and the departure share one serialization time.
            let tx_done_at = now + Time::tx_time(size as u64, link.rate_bps);
            // Commit event is pushed before TxDone so that for equal
            // timestamps the packet becomes visible before it departs.
            if self.cfg.model_enqueue_commit {
                out.push((
                    tx_done_at,
                    NetEvent::EnqueueCommit {
                        switch: self.id,
                        port,
                        bytes: size,
                        engine: engine as u16,
                    },
                ));
                self.pending[engine * self.ports.len() + port as usize] += size as u64;
            } else {
                p.visible_bytes += size as u64;
                p.visible_pkts += 1;
            }
            let p = &mut self.ports[port as usize];
            p.in_flight = Some(QueuedPkt {
                r: pref,
                size,
                enq: now,
            });
            p.stats.wait_count += 1; // zero wait
            out.push((
                tx_done_at,
                NetEvent::SwitchTxDone {
                    switch: self.id,
                    port,
                },
            ));
        } else {
            if p.q_bytes + size as u64 > self.cfg.queue_limit_bytes {
                p.stats.drops += 1;
                p.stats.drop_bytes += size as u64;
                if let Some(m) = meta {
                    probe.on_drop(
                        now,
                        self.id.0,
                        port,
                        engine as u16,
                        &m,
                        DropReason::TailDrop,
                    );
                }
                arena.free(pref);
                return;
            }
            if self.cfg.model_enqueue_commit {
                let commit_at = now + Time::tx_time(size as u64, link.rate_bps);
                out.push((
                    commit_at,
                    NetEvent::EnqueueCommit {
                        switch: self.id,
                        port,
                        bytes: size,
                        engine: engine as u16,
                    },
                ));
                self.pending[engine * self.ports.len() + port as usize] += size as u64;
            } else {
                p.visible_bytes += size as u64;
                p.visible_pkts += 1;
            }
            let p = &mut self.ports[port as usize];
            p.q_bytes += size as u64;
            p.q.push_back(QueuedPkt {
                r: pref,
                size,
                enq: now,
            });
        }
        if let Some(m) = meta {
            let p = &self.ports[port as usize];
            probe.on_enqueue(now, self.id.0, port, engine as u16, &m, p.pkts(), p.bytes());
        }
        self.forwarded += 1;
    }

    /// An enqueue commit fired: the packet becomes visible to all engines
    /// (and leaves the writing engine's pending counter).
    pub fn on_enqueue_commit(&mut self, port: u16, bytes: u32, engine: u16) {
        let p = &mut self.ports[port as usize];
        p.visible_bytes += bytes as u64;
        p.visible_pkts += 1;
        let idx = engine as usize * self.ports.len() + port as usize;
        debug_assert!(self.pending[idx] >= bytes as u64);
        self.pending[idx] -= bytes as u64;
    }

    /// Serialization of the in-flight packet finished: hand it to the wire
    /// and start the next one.
    ///
    /// `rng` feeds the lossy-link model: on links with `loss_ppm > 0` each
    /// departing packet is dropped with that probability. The draw happens
    /// *only* on lossy links, so lossless runs consume no randomness here.
    #[allow(clippy::too_many_arguments)]
    pub fn on_tx_done<P: Probe>(
        &mut self,
        topo: &Topology,
        arena: &mut PacketArena,
        port: u16,
        now: Time,
        rng: &mut SimRng,
        out: &mut EventSink,
        probe: &mut P,
    ) {
        let link = topo.egress(self.id, port);
        let p = &mut self.ports[port as usize];
        let QueuedPkt { r: pref, size, enq } = p
            .in_flight
            .take()
            .expect("tx-done with no packet in flight");
        debug_assert!(p.visible_pkts > 0, "departing packet must have committed");
        p.visible_bytes -= size as u64;
        p.visible_pkts -= 1;
        p.stats.tx_pkts += 1;
        p.stats.tx_bytes += size as u64;
        if P::ENABLED {
            // Full sojourn: append to end of serialization. Fires even if
            // the link died mid-flight (the packet did leave the queue);
            // the drop hook below records its fate.
            let depth = p.pkts();
            probe.on_dequeue(
                now,
                self.id.0,
                port,
                arena.get(&pref).id,
                depth,
                (now - enq).as_nanos(),
            );
        }
        let lost_on_wire =
            link.up && link.loss_ppm > 0 && rng.below(1_000_000) < link.loss_ppm as usize;
        if lost_on_wire {
            // Corrupted on a lossy wire: it left the queue but never arrives.
            p.stats.drops += 1;
            p.stats.drop_bytes += size as u64;
            if P::ENABLED {
                probe.on_drop(
                    now,
                    self.id.0,
                    port,
                    u16::MAX,
                    &arena.get(&pref).meta(),
                    DropReason::LinkLoss,
                );
            }
            arena.free(pref);
        } else if link.up {
            let arrive = now + link.prop;
            match link.dst {
                NodeRef::Switch(s) => {
                    out.push((
                        arrive,
                        NetEvent::ArriveSwitch {
                            switch: s,
                            ingress: link.dst_port,
                            pkt: pref,
                        },
                    ));
                }
                NodeRef::Host(h) => {
                    out.push((arrive, NetEvent::ArriveHost { host: h, pkt: pref }));
                }
            }
        } else {
            // Link died while the packet was serializing: it is lost.
            p.stats.drops += 1;
            p.stats.drop_bytes += size as u64;
            if P::ENABLED {
                // Engine unknown at this point (u16::MAX); the recorder's
                // port FIFO recovers it from the matching dequeue.
                probe.on_drop(
                    now,
                    self.id.0,
                    port,
                    u16::MAX,
                    &arena.get(&pref).meta(),
                    DropReason::LinkDown,
                );
            }
            arena.free(pref);
        }
        if let Some(next) = p.q.pop_front() {
            p.q_bytes -= next.size as u64;
            p.stats.wait_ns_sum += (now - next.enq).as_nanos();
            p.stats.wait_count += 1;
            out.push((
                now + Time::tx_time(next.size as u64, link.rate_bps),
                NetEvent::SwitchTxDone {
                    switch: self.id,
                    port,
                },
            ));
            p.in_flight = Some(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{leaf_spine, LeafSpineSpec, DEFAULT_PROP};
    use crate::ids::{FlowId, HostId};
    use drill_telemetry::NoopProbe;

    /// Policy that always picks the first candidate.
    struct FirstPort;
    impl SwitchPolicy for FirstPort {
        fn select(&mut self, ctx: &SelectCtx<'_>, _q: &dyn QueueView, _r: &mut SimRng) -> u16 {
            ctx.candidates[0]
        }
    }

    fn setup() -> (Topology, RouteTable, Switch) {
        let spec = LeafSpineSpec {
            spines: 2,
            leaves: 2,
            hosts_per_leaf: 2,
            host_rate: 10_000_000_000,
            core_rate: 10_000_000_000,
            prop: DEFAULT_PROP,
        };
        let topo = leaf_spine(&spec);
        let routes = RouteTable::compute(&topo);
        let l0 = topo.leaves()[0];
        let sw = Switch::new(
            l0,
            topo.num_ports(l0),
            SwitchConfig::default(),
            Box::new(FirstPort),
        );
        (topo, routes, sw)
    }

    fn pkt(dst: HostId, size_payload: u32) -> Packet {
        Packet::data(
            1,
            FlowId(0),
            HostId(0),
            dst,
            0x1234,
            0,
            size_payload,
            Time::ZERO,
        )
    }

    /// Intern `p` and hand it to the switch (what the event loop does).
    #[allow(clippy::too_many_arguments)]
    fn recv(
        sw: &mut Switch,
        topo: &Topology,
        routes: &RouteTable,
        arena: &mut PacketArena,
        p: Packet,
        ingress: u16,
        now: Time,
        rng: &mut SimRng,
        out: &mut EventSink,
    ) {
        let r = arena.insert(p);
        sw.receive(
            topo,
            routes,
            arena,
            r,
            ingress,
            now,
            rng,
            out,
            &mut NoopProbe,
        );
    }

    #[test]
    fn local_delivery_uses_host_port() {
        let (topo, routes, mut sw) = setup();
        let mut rng = SimRng::seed_from(1);
        let mut arena = PacketArena::new();
        let mut out = Vec::new();
        // Host 1 is on leaf 0 (hosts 0,1 -> leaf0; 2,3 -> leaf1).
        let p = pkt(HostId(1), 1000);
        let ingress = 0; // from a spine
        recv(
            &mut sw,
            &topo,
            &routes,
            &mut arena,
            p,
            ingress,
            Time::ZERO,
            &mut rng,
            &mut out,
        );
        // One commit + one tx-done scheduled.
        assert_eq!(out.len(), 2);
        let host_port = topo.host_leaf_port(HostId(1));
        assert_eq!(sw.queue_pkts(host_port), 1);
    }

    #[test]
    fn fabric_forwarding_consults_policy() {
        let (topo, routes, mut sw) = setup();
        let mut rng = SimRng::seed_from(1);
        let mut arena = PacketArena::new();
        let mut out = Vec::new();
        let p = pkt(HostId(2), 1000); // on leaf 1: must go via a spine
        let host_ingress = topo.host_uplink(HostId(0)).dst_port;
        recv(
            &mut sw,
            &topo,
            &routes,
            &mut arena,
            p,
            host_ingress,
            Time::ZERO,
            &mut rng,
            &mut out,
        );
        // FirstPort picks candidate 0 = port 0 (first spine).
        assert_eq!(sw.queue_pkts(0), 1);
        assert_eq!(sw.forwarded, 1);
    }

    #[test]
    fn tx_done_emits_arrival_after_prop() {
        let (topo, routes, mut sw) = setup();
        let mut rng = SimRng::seed_from(1);
        let mut arena = PacketArena::new();
        let mut out = Vec::new();
        let p = pkt(HostId(2), 1442); // wire size 1500
        let t0 = Time::from_micros(10);
        let host_ingress = topo.host_uplink(HostId(0)).dst_port;
        recv(
            &mut sw,
            &topo,
            &routes,
            &mut arena,
            p,
            host_ingress,
            t0,
            &mut rng,
            &mut out,
        );
        // tx time of 1500B at 10G = 1200ns.
        let tx_at = out
            .iter()
            .find_map(|(t, e)| matches!(e, NetEvent::SwitchTxDone { .. }).then_some(*t))
            .unwrap();
        assert_eq!(tx_at, t0 + Time::from_nanos(1200));
        // Deliver the commit first, as the event loop would (same timestamp,
        // pushed earlier).
        let commits: Vec<(u16, u32, u16)> = out
            .iter()
            .filter_map(|(_, e)| match e {
                NetEvent::EnqueueCommit {
                    port,
                    bytes,
                    engine,
                    ..
                } => Some((*port, *bytes, *engine)),
                _ => None,
            })
            .collect();
        for (port, bytes, engine) in commits {
            sw.on_enqueue_commit(port, bytes, engine);
        }
        out.clear();
        sw.on_tx_done(
            &topo,
            &mut arena,
            0,
            tx_at,
            &mut rng,
            &mut out,
            &mut NoopProbe,
        );
        let (arrive_t, ev) = &out[0];
        assert_eq!(*arrive_t, tx_at + DEFAULT_PROP);
        assert!(matches!(ev, NetEvent::ArriveSwitch { .. }));
        assert_eq!(sw.queue_pkts(0), 0);
    }

    #[test]
    fn visibility_lags_until_commit() {
        let (topo, routes, mut sw) = setup();
        let mut rng = SimRng::seed_from(1);
        let mut arena = PacketArena::new();
        let mut out = Vec::new();
        let host_ingress = topo.host_uplink(HostId(0)).dst_port;
        recv(
            &mut sw,
            &topo,
            &routes,
            &mut arena,
            pkt(HostId(2), 1000),
            host_ingress,
            Time::ZERO,
            &mut rng,
            &mut out,
        );
        // Actual occupancy 1, visible 0 until the commit event fires.
        assert_eq!(sw.queue_pkts(0), 1);
        assert_eq!(sw.visible_pkts(0), 0);
        let (commit_t, bytes) = out
            .iter()
            .find_map(|(t, e)| match e {
                NetEvent::EnqueueCommit { bytes, .. } => Some((*t, *bytes)),
                _ => None,
            })
            .unwrap();
        sw.on_enqueue_commit(0, bytes, 0);
        assert_eq!(sw.visible_pkts(0), 1);
        assert!(commit_t > Time::ZERO);
    }

    #[test]
    fn instant_visibility_when_commit_model_off() {
        let spec = LeafSpineSpec {
            spines: 2,
            leaves: 2,
            hosts_per_leaf: 1,
            host_rate: 10_000_000_000,
            core_rate: 10_000_000_000,
            prop: DEFAULT_PROP,
        };
        let topo = leaf_spine(&spec);
        let routes = RouteTable::compute(&topo);
        let l0 = topo.leaves()[0];
        let cfg = SwitchConfig {
            model_enqueue_commit: false,
            ..Default::default()
        };
        let mut sw = Switch::new(l0, topo.num_ports(l0), cfg, Box::new(FirstPort));
        let mut rng = SimRng::seed_from(1);
        let mut arena = PacketArena::new();
        let mut out = Vec::new();
        let host_ingress = topo.host_uplink(HostId(0)).dst_port;
        recv(
            &mut sw,
            &topo,
            &routes,
            &mut arena,
            pkt(HostId(1), 1000),
            host_ingress,
            Time::ZERO,
            &mut rng,
            &mut out,
        );
        assert_eq!(sw.visible_pkts(0), 1, "visible immediately");
        // Only a TxDone was scheduled, no commit event.
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn tail_drop_on_full_queue() {
        let (topo, routes, mut sw) = setup();
        let mut rng = SimRng::seed_from(1);
        let mut arena = PacketArena::new();
        let mut out = Vec::new();
        let host_ingress = topo.host_uplink(HostId(0)).dst_port;
        // Queue limit 150_000B; wire size 1058 each; one in flight + 141
        // waiting fills it (141*1058 = 149_178; next would exceed).
        let mut sent = 0;
        for _ in 0..200 {
            recv(
                &mut sw,
                &topo,
                &routes,
                &mut arena,
                pkt(HostId(2), 1000),
                host_ingress,
                Time::ZERO,
                &mut rng,
                &mut out,
            );
            sent += 1;
        }
        let stats = sw.port_stats(0);
        assert!(stats.drops > 0, "must tail-drop");
        assert_eq!(sw.queue_pkts(0) as u64 + stats.drops, sent);
        assert!(
            sw.queue_bytes(0) - 1058 <= 150_000,
            "waiting bytes within limit"
        );
    }

    #[test]
    fn no_route_blackholes() {
        let spec = LeafSpineSpec {
            spines: 1,
            leaves: 2,
            hosts_per_leaf: 1,
            host_rate: 10_000_000_000,
            core_rate: 10_000_000_000,
            prop: DEFAULT_PROP,
        };
        let mut topo = leaf_spine(&spec);
        let l0 = topo.leaves()[0];
        topo.fail_switch_link(l0, SwitchId(2), 0); // sole spine link
        let routes = RouteTable::compute(&topo);
        let mut sw = Switch::new(
            l0,
            topo.num_ports(l0),
            SwitchConfig::default(),
            Box::new(FirstPort),
        );
        let mut rng = SimRng::seed_from(1);
        let mut arena = PacketArena::new();
        let mut out = Vec::new();
        let host_ingress = topo.host_uplink(HostId(0)).dst_port;
        recv(
            &mut sw,
            &topo,
            &routes,
            &mut arena,
            pkt(HostId(1), 500),
            host_ingress,
            Time::ZERO,
            &mut rng,
            &mut out,
        );
        assert_eq!(sw.blackholed, 1);
        assert!(out.is_empty());
    }

    #[test]
    fn source_route_overrides_policy() {
        let (topo, routes, mut sw) = setup();
        let mut rng = SimRng::seed_from(1);
        let mut arena = PacketArena::new();
        let mut out = Vec::new();
        let mut p = pkt(HostId(2), 1000);
        // Spines are ids 2 and 3; route via spine 3 (port 1), while the
        // policy would pick port 0.
        p.push_route(3);
        let host_ingress = topo.host_uplink(HostId(0)).dst_port;
        recv(
            &mut sw,
            &topo,
            &routes,
            &mut arena,
            p,
            host_ingress,
            Time::ZERO,
            &mut rng,
            &mut out,
        );
        assert_eq!(sw.queue_pkts(1), 1);
        assert_eq!(sw.queue_pkts(0), 0);
    }

    #[test]
    fn dead_source_route_falls_back() {
        let (mut topo, _stale, mut sw) = setup();
        let l0 = topo.leaves()[0];
        topo.fail_switch_link(l0, SwitchId(3), 0);
        let routes = RouteTable::compute(&topo);
        let mut rng = SimRng::seed_from(1);
        let mut arena = PacketArena::new();
        let mut out = Vec::new();
        let mut p = pkt(HostId(2), 1000);
        p.push_route(3); // spine 3 is now unreachable from l0
        let host_ingress = topo.host_uplink(HostId(0)).dst_port;
        recv(
            &mut sw,
            &topo,
            &routes,
            &mut arena,
            p,
            host_ingress,
            Time::ZERO,
            &mut rng,
            &mut out,
        );
        // Fell back to the remaining candidate (port 0 -> spine 2).
        assert_eq!(sw.queue_pkts(0), 1);
        assert_eq!(sw.blackholed, 0);
    }

    #[test]
    fn dead_local_egress_is_pruned_at_line_speed() {
        // Routes stay stale (computed pre-failure): the switch's local
        // link-state table alone must steer traffic off the dead uplink.
        let (mut topo, routes, mut sw) = setup();
        let l0 = topo.leaves()[0];
        topo.fail_switch_link(l0, SwitchId(2), 0);
        sw.sync_link_state(&topo);
        let mut rng = SimRng::seed_from(1);
        let mut arena = PacketArena::new();
        let mut out = Vec::new();
        let host_ingress = topo.host_uplink(HostId(0)).dst_port;
        for _ in 0..4 {
            let p = pkt(HostId(2), 1000);
            recv(
                &mut sw,
                &topo,
                &routes,
                &mut arena,
                p,
                host_ingress,
                Time::ZERO,
                &mut rng,
                &mut out,
            );
        }
        // All four took the surviving uplink (port 1 -> spine 3), none died.
        assert_eq!(sw.blackholed, 0);
        assert_eq!(sw.queue_pkts(0), 0);
        assert_eq!(sw.queue_pkts(1), 4);

        // Kill the second uplink too: now the leaf has no live fabric port
        // and must blackhole (counted, so the fault-window metric sees it).
        topo.fail_switch_link(l0, SwitchId(3), 0);
        sw.sync_link_state(&topo);
        let p = pkt(HostId(2), 1000);
        recv(
            &mut sw,
            &topo,
            &routes,
            &mut arena,
            p,
            host_ingress,
            Time::ZERO,
            &mut rng,
            &mut out,
        );
        assert_eq!(sw.blackholed, 1);

        // Restore one uplink: forwarding resumes without a route recompute.
        topo.restore_switch_link(l0, SwitchId(2), 0);
        sw.sync_link_state(&topo);
        let p = pkt(HostId(2), 1000);
        recv(
            &mut sw,
            &topo,
            &routes,
            &mut arena,
            p,
            host_ingress,
            Time::ZERO,
            &mut rng,
            &mut out,
        );
        assert_eq!(sw.blackholed, 1);
        assert_eq!(sw.queue_pkts(0), 1);
    }

    #[test]
    fn fifo_order_preserved_per_port() {
        let (topo, routes, mut sw) = setup();
        let mut rng = SimRng::seed_from(1);
        let mut arena = PacketArena::new();
        let mut out = Vec::new();
        let host_ingress = topo.host_uplink(HostId(0)).dst_port;
        for i in 0..3u64 {
            let mut p = pkt(HostId(2), 1000);
            p.id = i;
            recv(
                &mut sw,
                &topo,
                &routes,
                &mut arena,
                p,
                host_ingress,
                Time::ZERO,
                &mut rng,
                &mut out,
            );
        }
        // Deliver the pending commits, as the event loop would before any
        // of the later tx-dones.
        let commits: Vec<(u16, u32, u16)> = out
            .iter()
            .filter_map(|(_, e)| match e {
                NetEvent::EnqueueCommit {
                    port,
                    bytes,
                    engine,
                    ..
                } => Some((*port, *bytes, *engine)),
                _ => None,
            })
            .collect();
        for (port, bytes, engine) in commits {
            sw.on_enqueue_commit(port, bytes, engine);
        }
        // Drain: tx-done three times, collecting arrival order.
        let mut ids = Vec::new();
        for k in 0..3 {
            out.clear();
            sw.on_tx_done(
                &topo,
                &mut arena,
                0,
                Time::from_micros(k + 10),
                &mut rng,
                &mut out,
                &mut NoopProbe,
            );
            for (_, e) in &out {
                if let NetEvent::ArriveSwitch { pkt, .. } = e {
                    ids.push(arena.get(pkt).id);
                }
            }
        }
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn weighted_groups_steer_flows() {
        let (topo, mut routes, mut sw) = setup();
        let l0 = topo.leaves()[0];
        // All weight on the component containing only port 1.
        routes.set_groups(
            l0,
            1,
            vec![
                crate::lbapi::PortGroup {
                    ports: vec![0],
                    weight: 0,
                },
                crate::lbapi::PortGroup {
                    ports: vec![1],
                    weight: 1,
                },
            ],
        );
        let mut rng = SimRng::seed_from(1);
        let mut arena = PacketArena::new();
        let mut out = Vec::new();
        let host_ingress = topo.host_uplink(HostId(0)).dst_port;
        for i in 0..20u64 {
            let mut p = pkt(HostId(2), 500);
            p.flow_hash = i.wrapping_mul(0x9e3779b97f4a7c15);
            recv(
                &mut sw,
                &topo,
                &routes,
                &mut arena,
                p,
                host_ingress,
                Time::ZERO,
                &mut rng,
                &mut out,
            );
        }
        assert_eq!(sw.queue_pkts(0), 0, "zero-weight group unused");
        assert!(sw.queue_pkts(1) > 0);
    }

    #[test]
    fn lossy_link_drops_a_fraction_on_the_wire() {
        let (mut topo, routes, _) = setup();
        let l0 = topo.leaves()[0];
        // 50% loss toward spine 2 (port 0).
        assert!(topo.set_switch_link_loss(l0, SwitchId(2), 0, 500_000));
        let mut sw = Switch::new(
            l0,
            topo.num_ports(l0),
            SwitchConfig {
                queue_limit_bytes: 10_000_000,
                ..Default::default()
            },
            Box::new(FirstPort),
        );
        let mut rng = SimRng::seed_from(7);
        let mut arena = PacketArena::new();
        let mut out = Vec::new();
        let host_ingress = topo.host_uplink(HostId(0)).dst_port;
        let n = 400u64;
        for i in 0..n {
            let mut p = pkt(HostId(2), 1000);
            p.id = i;
            recv(
                &mut sw,
                &topo,
                &routes,
                &mut arena,
                p,
                host_ingress,
                Time::ZERO,
                &mut rng,
                &mut out,
            );
        }
        for (port, bytes, engine) in out
            .iter()
            .filter_map(|(_, e)| match e {
                NetEvent::EnqueueCommit {
                    port,
                    bytes,
                    engine,
                    ..
                } => Some((*port, *bytes, *engine)),
                _ => None,
            })
            .collect::<Vec<_>>()
        {
            sw.on_enqueue_commit(port, bytes, engine);
        }
        let mut arrived = 0u64;
        for k in 0..n {
            out.clear();
            sw.on_tx_done(
                &topo,
                &mut arena,
                0,
                Time::from_micros(k + 10),
                &mut rng,
                &mut out,
                &mut NoopProbe,
            );
            arrived += out
                .iter()
                .filter(|(_, e)| matches!(e, NetEvent::ArriveSwitch { .. }))
                .count() as u64;
        }
        let dropped = sw.port_stats(0).drops;
        assert_eq!(arrived + dropped, n, "every packet arrives or drops");
        // With 50% loss the binomial is overwhelmingly inside [100, 300].
        assert!((100..=300).contains(&dropped), "dropped {dropped} of {n}");
    }
}
