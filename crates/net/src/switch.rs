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

use drill_sim::codec::{invalid, put_bool, put_time, put_varint, Decoder};
use drill_sim::{SimRng, Time};
use drill_telemetry::{DropReason, EngineChoice, Probe};

use crate::arena::{PacketArena, PacketRef};
use crate::ids::{NodeRef, SwitchId};
use crate::lbapi::{weighted_group_pick, QueueView, SelectCtx, SwitchPolicy};
use crate::packet::Packet;
use crate::routing::RouteTable;
use crate::topology::{HopClass, Topology};
use crate::{NetEvent, NetSink};

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
    /// Packets dropped at this port (tail drop, dead link, lossy wire).
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

impl QueuedPkt {
    fn save(&self, arena: &PacketArena, buf: &mut Vec<u8>) {
        arena.encode_ref(buf, &self.r);
        put_varint(buf, self.size as u64);
        put_time(buf, self.enq);
    }

    fn load(arena: &PacketArena, d: &mut Decoder<'_>) -> io::Result<QueuedPkt> {
        Ok(QueuedPkt {
            r: arena.decode_ref(d)?,
            size: d.varint_u32()?,
            enq: d.time()?,
        })
    }
}

/// One output port: a tail-drop FIFO behind the packet on the wire, which
/// sits inline in `in_flight`, not at the FIFO's head. Most ports of a
/// large fabric hold zero or one packet, and such a port then never
/// touches its FIFO's heap buffer. Keeping the head in the FIFO, as
/// [`HostNic`](crate::HostNic) does, is shorter but lost 8 of 11
/// `asym_scale` pairs (median ≈ −12 % events/s; EXPERIMENTS.md).
#[derive(Default)]
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
    /// Packets dropped before an egress port was chosen (no live route).
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
        Switch {
            id,
            pending: vec![0; cfg.engines * num_ports],
            cfg,
            ports: (0..num_ports).map(|_| OutPort::default()).collect(),
            policy,
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
                qp.save(arena, buf);
            }
            put_varint(buf, p.q_bytes);
            put_bool(buf, p.in_flight.is_some());
            if let Some(qp) = &p.in_flight {
                qp.save(arena, buf);
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
        for i in 0..nports {
            let qlen = d.varint_usize()?;
            let mut q = VecDeque::with_capacity(qlen.min(1 << 16));
            for _ in 0..qlen {
                q.push_back(QueuedPkt::load(arena, d)?);
            }
            // Fields decode in the order written.
            let port = OutPort {
                q,
                q_bytes: d.varint()?,
                in_flight: if d.bool()? {
                    Some(QueuedPkt::load(arena, d)?)
                } else {
                    None
                },
                visible_bytes: d.varint()?,
                visible_pkts: d.varint_u32()?,
                stats: PortStats {
                    drops: d.varint()?,
                    drop_bytes: d.varint()?,
                    tx_pkts: d.varint()?,
                    tx_bytes: d.varint()?,
                    wait_ns_sum: d.varint()?,
                    wait_count: d.varint()?,
                },
            };
            // Between events the waiting bytes are the FIFO's, a waiting
            // packet sits behind one on the wire, and the engines see no
            // more than the port holds. Anything else underflows a counter
            // at the port's next departure.
            if port.q_bytes != port.q.iter().map(|qp| qp.size as u64).sum::<u64>() {
                return Err(invalid("switch queue bytes disagree with its FIFO"));
            }
            if port.in_flight.is_none() && !port.q.is_empty() {
                return Err(invalid("switch queue without in-flight packet"));
            }
            if port.visible_pkts > port.pkts() || port.visible_bytes > port.bytes() {
                return Err(invalid("switch visible occupancy exceeds its queue"));
            }
            self.ports[i] = port;
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
        out: &mut impl NetSink,
        probe: &mut P,
    ) {
        let engine = ingress as usize % self.cfg.engines;
        let from_host = topo.ingress_link(self.id, ingress).hop == HopClass::HostUp;
        let pkt = arena.get_mut(&pref);
        self.policy.on_arrival(pkt, now, topo, self.id);
        let dst = pkt.dst;

        // Local delivery, or a fabric port toward the destination's leaf.
        let port = if topo.host_leaf(dst) == self.id {
            Some(topo.host_leaf_port(dst))
        } else {
            let dst_leaf = topo.host_leaf_index(dst);
            let pkt = arena.get_mut(&pref);
            self.pick_fabric_port(topo, routes, pkt, dst_leaf, engine, now, rng, probe)
        };
        let Some(port) = port else {
            let reason = DropReason::NoRoute;
            self.drop_pkt(arena, pref, u16::MAX, engine as u16, reason, now, probe);
            return;
        };

        self.policy
            .on_forward(arena.get_mut(&pref), port, now, topo, self.id, from_host);
        self.enqueue(topo, arena, port, pref, engine, now, out, probe);
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
        engine: usize,
        now: Time,
        rng: &mut SimRng,
        probe: &mut P,
    ) -> Option<u16> {
        // Source route (Presto): consume the hop, and follow the designated
        // transit switch if a live port to it exists (the flow hash picks
        // among parallel ones); otherwise fall back below.
        if let Some(hop) = pkt.next_route_hop() {
            let to = NodeRef::Switch(SwitchId(hop));
            let mut ports = (0..topo.num_ports(self.id) as u16).filter(|&p| {
                let l = topo.egress(self.id, p);
                l.up && l.dst == to
            });
            let n = ports.clone().count();
            if n > 0 {
                return ports.nth(pkt.flow_hash as usize % n);
            }
        }

        let candidates = routes.candidates(self.id, dst_leaf);
        if candidates.is_empty() {
            return None;
        }
        if candidates.len() == 1 {
            // With no dead link anywhere the check is a single bool.
            let live = !self.any_dead || self.live_egress[candidates[0] as usize];
            return live.then_some(candidates[0]);
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
            engine,
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
            // occupancy of every candidate at selection time, and the first
            // least-occupied one. This scan exists only for the probe and is
            // gated out when disabled.
            let pkts = |c: u16| self.ports[c as usize].pkts();
            let best = subset.iter().copied().min_by_key(|&c| pkts(c)).unwrap();
            probe.on_engine_choice(
                now,
                self.id.0,
                engine as u16,
                &EngineChoice {
                    chosen,
                    chosen_pkts: pkts(chosen),
                    best,
                    best_pkts: pkts(best),
                    candidates: subset.len() as u16,
                },
            );
        }
        Some(chosen)
    }

    /// Append a packet to `port`'s queue, or put it on the wire if the port
    /// is idle. `engine` is the forwarding engine that wrote it: its
    /// pending-write counter tracks the packet until its commit. A dead
    /// link drops the packet, and so does a busy port whose waiting bytes
    /// would pass the limit (tail drop); an idle port always takes it.
    #[allow(clippy::too_many_arguments)]
    fn enqueue<P: Probe>(
        &mut self,
        topo: &Topology,
        arena: &mut PacketArena,
        port: u16,
        pref: PacketRef,
        engine: usize,
        now: Time,
        out: &mut impl NetSink,
        probe: &mut P,
    ) {
        let link = topo.egress(self.id, port);
        let size = arena.get(&pref).size;
        let p = &self.ports[port as usize];
        let idle = p.in_flight.is_none();
        let full = !idle && p.q_bytes + size as u64 > self.cfg.queue_limit_bytes;
        if !link.up || full {
            let reason = if link.up {
                DropReason::TailDrop
            } else {
                DropReason::LinkDown
            };
            self.drop_pkt(arena, pref, port, engine as u16, reason, now, probe);
            return;
        }
        // Copied only on the enabled path (the handle moves into the queue
        // below, before the hook fires).
        let meta = P::ENABLED.then(|| arena.get(&pref).meta());
        // Fully written one serialization time from now, which is also when
        // it leaves an idle port: the commit is emitted first, so at that
        // shared timestamp the packet becomes visible before it departs.
        let written_at = now + Time::tx_time(size as u64, link.rate_bps);
        if self.cfg.model_enqueue_commit {
            out.emit(
                written_at,
                NetEvent::EnqueueCommit {
                    switch: self.id,
                    port,
                    bytes: size,
                    engine: engine as u16,
                },
            );
            self.pending[engine * self.ports.len() + port as usize] += size as u64;
        } else {
            let p = &mut self.ports[port as usize];
            p.visible_bytes += size as u64;
            p.visible_pkts += 1;
        }
        let p = &mut self.ports[port as usize];
        let qp = QueuedPkt {
            r: pref,
            size,
            enq: now,
        };
        if idle {
            debug_assert!(p.q.is_empty());
            p.in_flight = Some(qp);
            p.stats.wait_count += 1; // zero wait
            out.emit(
                written_at,
                NetEvent::SwitchTxDone {
                    switch: self.id,
                    port,
                },
            );
        } else {
            p.q_bytes += size as u64;
            p.q.push_back(qp);
        }
        if let Some(m) = meta {
            probe.on_enqueue(now, self.id.0, port, engine as u16, &m, p.pkts(), p.bytes());
        }
        self.forwarded += 1;
    }

    /// Drop `pref` at `port` (`u16::MAX`: none chosen, counted as
    /// [`blackholed`](Switch::blackholed)), report it to `probe` with the
    /// engine that made the call (`u16::MAX` once the packet has left the
    /// queue: a port keeps no engine per packet) and free it.
    #[cold]
    #[allow(clippy::too_many_arguments)]
    fn drop_pkt<P: Probe>(
        &mut self,
        arena: &mut PacketArena,
        pref: PacketRef,
        port: u16,
        engine: u16,
        reason: DropReason,
        now: Time,
        probe: &mut P,
    ) {
        let pkt = arena.get(&pref);
        if port == u16::MAX {
            self.blackholed += 1;
        } else {
            let stats = &mut self.ports[port as usize].stats;
            stats.drops += 1;
            stats.drop_bytes += pkt.size as u64;
        }
        if P::ENABLED {
            probe.on_drop(now, self.id.0, port, engine, &pkt.meta(), reason);
        }
        arena.free(pref);
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

    /// Serialization of the in-flight packet finished: hand it to the wire,
    /// then start the next one. The packet is lost if its link died while
    /// it serialized, or with probability `loss_ppm` on a lossy link, drawn
    /// from `rng` *only* on live lossy links (lossless runs consume no
    /// randomness here). Its fate is emitted before the next tx-done.
    #[allow(clippy::too_many_arguments)]
    pub fn on_tx_done<P: Probe>(
        &mut self,
        topo: &Topology,
        arena: &mut PacketArena,
        port: u16,
        now: Time,
        rng: &mut SimRng,
        out: &mut impl NetSink,
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
            // the packet is lost below (it did leave the queue); the drop
            // hook records its fate.
            let id = arena.get(&pref).id;
            probe.on_dequeue(now, self.id.0, port, id, p.pkts(), (now - enq).as_nanos());
        }
        let lost = if !link.up {
            Some(DropReason::LinkDown)
        } else if link.loss_ppm > 0 && rng.below(1_000_000) < link.loss_ppm as usize {
            Some(DropReason::LinkLoss)
        } else {
            None
        };
        match lost {
            None => crate::hand_off(out, link, now, pref),
            Some(reason) => self.drop_pkt(arena, pref, port, u16::MAX, reason, now, probe),
        }
        let p = &mut self.ports[port as usize];
        if let Some(next) = p.q.pop_front() {
            p.q_bytes -= next.size as u64;
            p.stats.wait_ns_sum += (now - next.enq).as_nanos();
            p.stats.wait_count += 1;
            out.emit(
                now + Time::tx_time(next.size as u64, link.rate_bps),
                NetEvent::SwitchTxDone {
                    switch: self.id,
                    port,
                },
            );
            p.in_flight = Some(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{leaf_spine, LeafSpineSpec, DEFAULT_PROP};
    use crate::ids::{FlowId, HostId};
    use crate::EventSink;
    use drill_telemetry::{FlightRecorder, NoopProbe, TraceEvent};

    /// Policy that always picks the first candidate.
    struct FirstPort;
    impl SwitchPolicy for FirstPort {
        fn select(&mut self, ctx: &SelectCtx<'_>, _q: &dyn QueueView, _r: &mut SimRng) -> u16 {
            ctx.candidates[0]
        }
    }

    /// A 10G leaf-spine with `leaves` = 2.
    fn fabric(spines: usize, hosts_per_leaf: usize) -> Topology {
        leaf_spine(&LeafSpineSpec {
            spines,
            leaves: 2,
            hosts_per_leaf,
            host_rate: 10_000_000_000,
            core_rate: 10_000_000_000,
            prop: DEFAULT_PROP,
        })
    }

    /// Leaf 0 of a fabric running [`FirstPort`], with everything its calls
    /// take: the topology and routes it forwards over, the arena, the RNG,
    /// the sink its events land in and the probe that observes it.
    struct Rig<P: Probe = NoopProbe> {
        topo: Topology,
        routes: RouteTable,
        sw: Switch,
        arena: PacketArena,
        rng: SimRng,
        out: EventSink,
        probe: P,
    }

    impl Rig {
        /// 2 spines, 2 leaves, 2 hosts per leaf, default switch.
        fn new() -> Rig {
            Rig::on(fabric(2, 2), SwitchConfig::default())
        }

        /// Leaf 0 of `topo` under `cfg`, routes computed on `topo` as given.
        fn on(topo: Topology, cfg: SwitchConfig) -> Rig {
            Rig::probed(topo, cfg, NoopProbe)
        }
    }

    impl<P: Probe> Rig<P> {
        fn probed(topo: Topology, cfg: SwitchConfig, probe: P) -> Rig<P> {
            let routes = RouteTable::compute(&topo);
            let l0 = topo.leaves()[0];
            let sw = Switch::new(l0, topo.num_ports(l0), cfg, Box::new(FirstPort));
            Rig {
                topo,
                routes,
                sw,
                arena: PacketArena::new(),
                rng: SimRng::seed_from(1),
                out: Vec::new(),
                probe,
            }
        }

        /// Leaf 0's port facing host `h`'s uplink.
        fn host_ingress(&self, h: u32) -> u16 {
            self.topo.host_uplink(HostId(h)).dst_port
        }

        /// Intern `p` and hand it to the switch (what the event loop does).
        fn recv(&mut self, p: Packet, ingress: u16, now: Time) {
            let r = self.arena.insert(p);
            self.sw.receive(
                &self.topo,
                &self.routes,
                &mut self.arena,
                r,
                ingress,
                now,
                &mut self.rng,
                &mut self.out,
                &mut self.probe,
            );
        }

        /// Deliver every commit in the sink, as the event loop would before
        /// any later tx-done.
        fn commit_all(&mut self) {
            for (_, e) in &self.out {
                if let NetEvent::EnqueueCommit {
                    port,
                    bytes,
                    engine,
                    ..
                } = *e
                {
                    self.sw.on_enqueue_commit(port, bytes, engine);
                }
            }
        }

        /// Finish serializing `port`'s in-flight packet at `now`; the sink
        /// then holds exactly what this call emitted.
        fn tx_done(&mut self, port: u16, now: Time) {
            self.out.clear();
            self.sw.on_tx_done(
                &self.topo,
                &mut self.arena,
                port,
                now,
                &mut self.rng,
                &mut self.out,
                &mut self.probe,
            );
        }
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

    #[test]
    fn local_delivery_uses_host_port() {
        let mut rig = Rig::new();
        // Host 1 is on leaf 0 (hosts 0,1 -> leaf0; 2,3 -> leaf1).
        let ingress = 0; // from a spine
        rig.recv(pkt(HostId(1), 1000), ingress, Time::ZERO);
        // One commit + one tx-done scheduled.
        assert_eq!(rig.out.len(), 2);
        let host_port = rig.topo.host_leaf_port(HostId(1));
        assert_eq!(rig.sw.queue_pkts(host_port), 1);
    }

    #[test]
    fn fabric_forwarding_consults_policy() {
        let mut rig = Rig::new();
        // On leaf 1: must go via a spine.
        rig.recv(pkt(HostId(2), 1000), rig.host_ingress(0), Time::ZERO);
        // FirstPort picks candidate 0 = port 0 (first spine).
        assert_eq!(rig.sw.queue_pkts(0), 1);
        assert_eq!(rig.sw.forwarded, 1);
    }

    #[test]
    fn tx_done_emits_arrival_after_prop() {
        let mut rig = Rig::new();
        let t0 = Time::from_micros(10);
        rig.recv(pkt(HostId(2), 1442), rig.host_ingress(0), t0); // wire size 1500
                                                                 // tx time of 1500B at 10G = 1200ns.
        let tx_at = rig
            .out
            .iter()
            .find_map(|(t, e)| matches!(e, NetEvent::SwitchTxDone { .. }).then_some(*t))
            .unwrap();
        assert_eq!(tx_at, t0 + Time::from_nanos(1200));
        // Deliver the commit first, as the event loop would (same timestamp,
        // pushed earlier).
        rig.commit_all();
        rig.tx_done(0, tx_at);
        let (arrive_t, ev) = &rig.out[0];
        assert_eq!(*arrive_t, tx_at + DEFAULT_PROP);
        assert!(matches!(ev, NetEvent::ArriveSwitch { .. }));
        assert_eq!(rig.sw.queue_pkts(0), 0);
    }

    #[test]
    fn visibility_lags_until_commit() {
        let mut rig = Rig::new();
        rig.recv(pkt(HostId(2), 1000), rig.host_ingress(0), Time::ZERO);
        // Actual occupancy 1, visible 0 until the commit event fires.
        assert_eq!(rig.sw.queue_pkts(0), 1);
        assert_eq!(rig.sw.visible_pkts(0), 0);
        let (commit_t, bytes) = rig
            .out
            .iter()
            .find_map(|(t, e)| match e {
                NetEvent::EnqueueCommit { bytes, .. } => Some((*t, *bytes)),
                _ => None,
            })
            .unwrap();
        rig.sw.on_enqueue_commit(0, bytes, 0);
        assert_eq!(rig.sw.visible_pkts(0), 1);
        assert!(commit_t > Time::ZERO);
    }

    #[test]
    fn instant_visibility_when_commit_model_off() {
        let cfg = SwitchConfig {
            model_enqueue_commit: false,
            ..Default::default()
        };
        let mut rig = Rig::on(fabric(2, 1), cfg);
        rig.recv(pkt(HostId(1), 1000), rig.host_ingress(0), Time::ZERO);
        assert_eq!(rig.sw.visible_pkts(0), 1, "visible immediately");
        // Only a TxDone was scheduled, no commit event.
        assert_eq!(rig.out.len(), 1);
    }

    #[test]
    fn tail_drop_on_full_queue() {
        let mut rig = Rig::new();
        // Queue limit 150_000B; wire size 1058 each; one in flight + 141
        // waiting fills it (141*1058 = 149_178; next would exceed).
        let mut sent = 0;
        for _ in 0..200 {
            rig.recv(pkt(HostId(2), 1000), rig.host_ingress(0), Time::ZERO);
            sent += 1;
        }
        let stats = rig.sw.port_stats(0);
        assert!(stats.drops > 0, "must tail-drop");
        assert_eq!(rig.sw.queue_pkts(0) as u64 + stats.drops, sent);
        assert!(
            rig.sw.queue_bytes(0) - 1058 <= 150_000,
            "waiting bytes within limit"
        );
    }

    #[test]
    fn no_route_blackholes() {
        let mut topo = fabric(1, 1);
        let l0 = topo.leaves()[0];
        topo.fail_switch_link(l0, SwitchId(2), 0); // sole spine link
        let mut rig = Rig::on(topo, SwitchConfig::default());
        rig.recv(pkt(HostId(1), 500), rig.host_ingress(0), Time::ZERO);
        assert_eq!(rig.sw.blackholed, 1);
        assert!(rig.out.is_empty());
    }

    #[test]
    fn source_route_overrides_policy() {
        let mut rig = Rig::new();
        let mut p = pkt(HostId(2), 1000);
        // Spines are ids 2 and 3; route via spine 3 (port 1), while the
        // policy would pick port 0.
        p.push_route(3);
        rig.recv(p, rig.host_ingress(0), Time::ZERO);
        assert_eq!(rig.sw.queue_pkts(1), 1);
        assert_eq!(rig.sw.queue_pkts(0), 0);
    }

    #[test]
    fn dead_source_route_falls_back() {
        let mut topo = fabric(2, 2);
        let l0 = topo.leaves()[0];
        topo.fail_switch_link(l0, SwitchId(3), 0);
        let mut rig = Rig::on(topo, SwitchConfig::default());
        let mut p = pkt(HostId(2), 1000);
        p.push_route(3); // spine 3 is now unreachable from l0
        rig.recv(p, rig.host_ingress(0), Time::ZERO);
        // Fell back to the remaining candidate (port 0 -> spine 2).
        assert_eq!(rig.sw.queue_pkts(0), 1);
        assert_eq!(rig.sw.blackholed, 0);
    }

    #[test]
    fn dead_local_egress_is_pruned_at_line_speed() {
        // Routes stay stale (computed pre-failure): the switch's local
        // link-state table alone must steer traffic off the dead uplink.
        let mut rig = Rig::new();
        let l0 = rig.topo.leaves()[0];
        rig.topo.fail_switch_link(l0, SwitchId(2), 0);
        rig.sw.sync_link_state(&rig.topo);
        let host_ingress = rig.host_ingress(0);
        for _ in 0..4 {
            rig.recv(pkt(HostId(2), 1000), host_ingress, Time::ZERO);
        }
        // All four took the surviving uplink (port 1 -> spine 3), none died.
        assert_eq!(rig.sw.blackholed, 0);
        assert_eq!(rig.sw.queue_pkts(0), 0);
        assert_eq!(rig.sw.queue_pkts(1), 4);

        // Kill the second uplink too: now the leaf has no live fabric port
        // and must blackhole (counted, so the fault-window metric sees it).
        rig.topo.fail_switch_link(l0, SwitchId(3), 0);
        rig.sw.sync_link_state(&rig.topo);
        rig.recv(pkt(HostId(2), 1000), host_ingress, Time::ZERO);
        assert_eq!(rig.sw.blackholed, 1);

        // Restore one uplink: forwarding resumes without a route recompute.
        rig.topo.restore_switch_link(l0, SwitchId(2), 0);
        rig.sw.sync_link_state(&rig.topo);
        rig.recv(pkt(HostId(2), 1000), host_ingress, Time::ZERO);
        assert_eq!(rig.sw.blackholed, 1);
        assert_eq!(rig.sw.queue_pkts(0), 1);
    }

    #[test]
    fn fifo_order_preserved_per_port() {
        let mut rig = Rig::new();
        for i in 0..3u64 {
            let mut p = pkt(HostId(2), 1000);
            p.id = i;
            rig.recv(p, rig.host_ingress(0), Time::ZERO);
        }
        rig.commit_all();
        // Drain: tx-done three times, collecting arrival order.
        let mut ids = Vec::new();
        for k in 0..3 {
            rig.tx_done(0, Time::from_micros(k + 10));
            for (_, e) in &rig.out {
                if let NetEvent::ArriveSwitch { pkt, .. } = e {
                    ids.push(rig.arena.get(pkt).id);
                }
            }
        }
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn weighted_groups_steer_flows() {
        let mut rig = Rig::new();
        let l0 = rig.topo.leaves()[0];
        // All weight on the component containing only port 1.
        rig.routes.set_groups(
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
        for i in 0..20u64 {
            let mut p = pkt(HostId(2), 500);
            p.flow_hash = i.wrapping_mul(0x9e3779b97f4a7c15);
            rig.recv(p, rig.host_ingress(0), Time::ZERO);
        }
        assert_eq!(rig.sw.queue_pkts(0), 0, "zero-weight group unused");
        assert!(rig.sw.queue_pkts(1) > 0);
    }

    #[test]
    fn lossy_link_drops_a_fraction_on_the_wire() {
        let mut topo = fabric(2, 2);
        let l0 = topo.leaves()[0];
        // 50% loss toward spine 2 (port 0).
        assert!(topo.set_switch_link_loss(l0, SwitchId(2), 0, 500_000));
        let cfg = SwitchConfig {
            queue_limit_bytes: 10_000_000,
            ..Default::default()
        };
        let mut rig = Rig::on(topo, cfg);
        rig.rng = SimRng::seed_from(7);
        let n = 400u64;
        for i in 0..n {
            let mut p = pkt(HostId(2), 1000);
            p.id = i;
            rig.recv(p, rig.host_ingress(0), Time::ZERO);
        }
        rig.commit_all();
        let mut arrived = 0u64;
        for k in 0..n {
            rig.tx_done(0, Time::from_micros(k + 10));
            arrived += rig
                .out
                .iter()
                .filter(|(_, e)| matches!(e, NetEvent::ArriveSwitch { .. }))
                .count() as u64;
        }
        let dropped = rig.sw.port_stats(0).drops;
        assert_eq!(arrived + dropped, n, "every packet arrives or drops");
        // With 50% loss the binomial is overwhelmingly inside [100, 300].
        assert!((100..=300).contains(&dropped), "dropped {dropped} of {n}");
    }

    /// A port state that no run can reach is refused at restore, not left
    /// to underflow a counter at the port's next departure.
    #[test]
    fn load_state_rejects_inconsistent_ports() {
        let mut rig = Rig::new();
        for _ in 0..3 {
            rig.recv(pkt(HostId(2), 1000), rig.host_ingress(0), Time::ZERO);
        }
        rig.commit_all();
        let mut good = Vec::new();
        rig.sw.save_state(&rig.arena, &mut good);
        let load = |rig: &Rig, buf: &[u8]| {
            let (id, ports) = (rig.sw.id(), rig.sw.num_ports());
            let mut back = Switch::new(id, ports, SwitchConfig::default(), Box::new(FirstPort));
            back.load_state(&rig.arena, &mut Decoder::new(buf))
        };
        load(&rig, &good).expect("a busy switch round-trips");
        type Corruption = (&'static str, fn(&mut OutPort));
        let corruptions: [Corruption; 4] = [
            ("queue bytes", |p| p.q_bytes += 1),
            ("no in-flight packet", |p| {
                // Visible counts shrink with it: only this check can fire.
                let head = p.in_flight.take().unwrap();
                p.visible_pkts -= 1;
                p.visible_bytes -= head.size as u64;
            }),
            ("visible packets", |p| p.visible_pkts = p.pkts() + 1),
            ("visible bytes", |p| p.visible_bytes = p.bytes() + 1),
        ];
        for (what, corrupt) in corruptions {
            corrupt(&mut rig.sw.ports[0]);
            let mut bad = Vec::new();
            rig.sw.save_state(&rig.arena, &mut bad);
            assert!(load(&rig, &bad).is_err(), "{what} accepted");
            rig.sw
                .load_state(&rig.arena, &mut Decoder::new(&good))
                .unwrap();
        }
    }

    /// Every drop site charges its drop to the right counter and reports
    /// it to the probe with the right `(port, engine, reason)`: the
    /// engine is known where a forwarding engine made the call (no route,
    /// dead link at enqueue, tail drop) and `u16::MAX` once the packet has
    /// left the queue (lossy wire, link dead mid-serialization); the port
    /// is `u16::MAX` only where none was chosen.
    #[test]
    fn every_drop_site_is_attributed() {
        let topo = fabric(2, 2);
        let cfg = SwitchConfig {
            engines: 2,
            // One waiting 1058-byte packet fits, a second does not.
            queue_limit_bytes: 1500,
            model_enqueue_commit: true,
        };
        let rec = FlightRecorder::new(topo.num_switches(), 2, 64);
        let mut rig = Rig::probed(topo, cfg, rec);
        let l0 = rig.topo.leaves()[0];
        let (in_a, in_b) = (rig.host_ingress(0), rig.host_ingress(1));
        let (eng_a, eng_b) = (in_a % 2, in_b % 2);
        assert_ne!(eng_a, eng_b, "the two host ports feed different engines");
        let to_leaf1 = |id: u64| {
            let mut p = pkt(HostId(2), 1000);
            p.id = id;
            p
        };
        let t = Time::from_micros;
        let drops = |rig: &Rig<FlightRecorder>| {
            let (_, ring) = rig.probe.ring_at(l0.0 as usize);
            ring.iter()
                .filter_map(|e| match *e {
                    TraceEvent::Drop {
                        port,
                        engine,
                        pkt_id,
                        reason,
                        ..
                    } => Some((port, engine, pkt_id, reason)),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };

        // Tail drop: packet 0 goes on the wire, 1 waits, 2 overflows.
        for id in 0..3 {
            rig.recv(to_leaf1(id), in_a, t(1));
        }
        assert_eq!(rig.sw.port_stats(0).drops, 1);
        assert_eq!(
            drops(&rig),
            [(0, eng_a, 2, DropReason::TailDrop)],
            "tail drop"
        );

        // Lossy wire: packet 0 is lost on departure; packet 1 still starts.
        rig.commit_all();
        rig.topo.set_switch_link_loss(l0, SwitchId(2), 0, 1_000_000);
        rig.tx_done(0, t(2));
        assert_eq!(rig.sw.port_stats(0).drops, 2);
        assert!(matches!(
            rig.out[..],
            [(_, NetEvent::SwitchTxDone { port: 0, .. })]
        ));
        assert_eq!(drops(&rig)[1], (0, u16::MAX, 0, DropReason::LinkLoss));

        // Link dies mid-serialization: packet 1 is lost with no arrival,
        // and packet 3, queued behind it, still starts.
        rig.recv(to_leaf1(3), in_b, t(3));
        rig.commit_all();
        rig.topo.fail_switch_link(l0, SwitchId(2), 0);
        rig.tx_done(0, t(4));
        assert_eq!(rig.sw.port_stats(0).drops, 3);
        assert!(matches!(
            rig.out[..],
            [(_, NetEvent::SwitchTxDone { port: 0, .. })]
        ));
        assert_eq!(rig.sw.queue_pkts(0), 1);
        assert_eq!(drops(&rig)[2], (0, u16::MAX, 1, DropReason::LinkDown));

        // Dead link at enqueue: the mirror is unsynced, so the engine
        // still picks port 0 and the enqueue finds the link down.
        rig.recv(to_leaf1(4), in_b, t(5));
        assert_eq!(rig.sw.port_stats(0).drops, 4);
        assert_eq!(drops(&rig)[3], (0, eng_b, 4, DropReason::LinkDown));

        // No route: both uplinks down and mirrored, nothing to choose.
        rig.topo.fail_switch_link(l0, SwitchId(3), 0);
        rig.sw.sync_link_state(&rig.topo);
        rig.recv(to_leaf1(5), in_a, t(6));
        assert_eq!(rig.sw.blackholed, 1);
        assert_eq!(drops(&rig)[4], (u16::MAX, eng_a, 5, DropReason::NoRoute));
        assert_eq!(drops(&rig).len(), 5);
        assert_eq!(rig.sw.port_stats(0).drops, 4, "a blackhole is no port drop");
        assert_eq!(rig.sw.port_stats(1).drops, 0);
        assert_eq!(rig.arena.live(), 1, "only packet 3 survives");
    }
}
