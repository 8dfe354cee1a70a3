//! The data plane's state: the fabric, every switch, NIC and host policy,
//! the packets in flight, and the network RNG stream — plus the Figure-2
//! queue-STDV sampler that reads it.

use std::io;

use drill_net::{
    EventSink, HopClass, HostId, HostNic, HostPolicy, NodeRef, Packet, PacketArena, RouteTable,
    Switch, SwitchConfig, SwitchId, Topology, Train,
};
use drill_sim::codec::{invalid, put_varint};
use drill_sim::{SimRng, Time};
use drill_snapshot::{Snapshot, SnapshotBuilder};
use drill_stats::{stdev_of, Moments};
use drill_telemetry::Probe;

use super::snapshot::{done, section, SEC_ARENAS, SEC_HOST_POLICIES, SEC_NICS, SEC_SWITCHES};
use crate::config::ExperimentConfig;
use crate::stats::{hop_index, RunStats};

pub(super) struct Net {
    pub(super) topo: Topology,
    pub(super) switches: Vec<Switch>,
    pub(super) nics: Vec<HostNic>,
    pub(super) host_policies: Vec<Box<dyn HostPolicy>>,
    /// Every in-flight packet, interned between host send and final
    /// delivery/drop; events and queues carry `PacketRef` handles.
    pub(super) arena: PacketArena,
    /// Every data-plane draw: forwarding choices, host policies, wire
    /// loss.
    pub(super) rng: SimRng,
    /// Network events emitted by the last device call, drained into the
    /// wheel in FIFO order: components rely on push order as the
    /// tie-break for same-timestamp events (enqueue-commit before
    /// tx-done).
    pub(super) out: EventSink,
}

impl Net {
    /// Switches, NICs and host policies for `topo` under `routes`, with
    /// every switch's pruning table mirroring the link state.
    pub(super) fn new(cfg: &ExperimentConfig, topo: Topology, routes: &RouteTable) -> Net {
        let sw_cfg = SwitchConfig {
            engines: cfg.engines,
            queue_limit_bytes: cfg.queue_limit_bytes,
            model_enqueue_commit: cfg.model_commit,
        };
        let policy = |id| {
            cfg.scheme
                .make_switch_policy(&topo, routes, id, cfg.engines)
        };
        let switches = (0..topo.num_switches() as u32)
            .map(SwitchId)
            .map(|id| Switch::new(id, topo.num_ports(id), sw_cfg.clone(), policy(id)))
            .collect();
        let hosts = 0..topo.num_hosts() as u32;
        let nics = hosts.clone().map(|h| HostNic::new(HostId(h))).collect();
        let host_policies = hosts
            .map(|h| cfg.scheme.make_host_policy(&topo, routes, HostId(h)))
            .collect();
        let mut net = Net {
            topo,
            switches,
            nics,
            host_policies,
            arena: PacketArena::new(),
            rng: SimRng::derive(cfg.seed, "net", 0),
            out: Vec::new(),
        };
        net.sync_link_state();
        net
    }

    /// Mirror the topology's link state into every switch's local pruning
    /// table (see [`Switch::sync_link_state`]).
    pub(super) fn sync_link_state(&mut self) {
        for sw in self.switches.iter_mut() {
            sw.sync_link_state(&self.topo);
        }
    }

    /// Sum of per-switch blackhole counters (snapshotted at fault-window
    /// boundaries for the graceful-degradation delta).
    pub(super) fn total_blackholed(&self) -> u64 {
        self.switches.iter().map(|s| s.blackholed).sum()
    }

    /// `host` sends `pkt`: its host policy stamps it, and it enters the
    /// arena — leaving at final delivery (`take`) or at whichever drop
    /// site claims it (`free`) — and the NIC queue.
    #[inline]
    pub(super) fn host_send<P: Probe>(
        &mut self,
        host: HostId,
        mut pkt: Packet,
        now: Time,
        probe: &mut P,
    ) {
        let h = host.index();
        self.host_policies[h].on_send(&mut pkt, now, &mut self.rng);
        let pref = self.arena.insert(pkt);
        self.nics[h].send(&self.topo, &mut self.arena, pref, now, &mut self.out, probe);
    }

    /// Hand a raw flow's whole train to `host`'s NIC, which paces it at
    /// line rate and builds each packet as it goes on the wire.
    pub(super) fn send_train<P: Probe>(&mut self, host: u32, train: Train, probe: &mut P) {
        let h = host as usize;
        let policy = &mut *self.host_policies[h];
        let (topo, arena, out) = (&self.topo, &mut self.arena, &mut self.out);
        self.nics[h].send_train(topo, arena, policy, &mut self.rng, train, out, probe);
    }

    /// `host`'s serializer finished a packet: wire it, start the next.
    #[inline]
    pub(super) fn host_tx_done(&mut self, host: HostId, now: Time) {
        let nic = &mut self.nics[host.index()];
        nic.on_tx_done(&self.topo, now, &mut self.out);
        let (topo, arena, out) = (&self.topo, &mut self.arena, &mut self.out);
        let policy = &mut *self.host_policies[host.index()];
        nic.start_next(topo, arena, policy, &mut self.rng, now, out);
    }

    /// Per-hop aggregates, drop and blackhole totals, and the end-of-run
    /// packet accounting.
    pub(super) fn finalize(&self, stats: &mut RunStats) {
        for (si, sw) in self.switches.iter().enumerate() {
            let id = SwitchId(si as u32);
            for port in 0..sw.num_ports() as u16 {
                let hop = hop_index(self.topo.egress(id, port).hop);
                let ps = sw.port_stats(port);
                stats.hops.wait_ns[hop] += ps.wait_ns_sum;
                stats.hops.wait_samples[hop] += ps.wait_count;
                stats.hops.drops[hop] += ps.drops;
                stats.hops.tx[hop] += ps.tx_pkts;
            }
            stats.blackholed += sw.blackholed;
        }
        stats.nic_drops = self.nics.iter().map(|n| n.drops).sum();
        // Packets accepted by a NIC and not yet delivered or dropped when
        // the loop stopped: those interned in the arena, plus the train
        // segments no serializer had reached. A fully drained run ends at
        // zero (every insert met its take/free); runs cut off by the
        // deadline or `max_events` legitimately leave packets in flight,
        // so the golden suite (not this method) asserts zero.
        stats.nic_pending_at_end = self.nics.iter().map(HostNic::pending_pkts).sum();
        stats.arena_live_at_end = self.arena.live() as u64 + stats.nic_pending_at_end;
        stats.arena_slots_hw = self.arena.capacity() as u64;
    }

    /// The `ARENAS`, `SWITCHES`, `NICS` and `HOST_POLICIES` sections:
    /// slot and free-list state, then each device's queues, counters and
    /// policy state (stateless policies write nothing).
    pub(super) fn save(&self, b: &mut SnapshotBuilder) {
        let mut buf = Vec::new();
        self.arena.save_state(&mut buf);
        b.section(SEC_ARENAS, buf);
        let mut buf = Vec::new();
        put_varint(&mut buf, self.switches.len() as u64);
        for sw in &self.switches {
            sw.save_state(&self.arena, &mut buf);
        }
        b.section(SEC_SWITCHES, buf);
        let mut buf = Vec::new();
        put_varint(&mut buf, self.nics.len() as u64);
        for nic in &self.nics {
            nic.save_state(&self.arena, &mut buf);
        }
        b.section(SEC_NICS, buf);
        let mut buf = Vec::new();
        put_varint(&mut buf, self.host_policies.len() as u64);
        for p in &self.host_policies {
            p.save_state(&mut buf);
        }
        b.section(SEC_HOST_POLICIES, buf);
    }

    pub(super) fn load(&mut self, snap: &Snapshot) -> io::Result<()> {
        let mut d = section(snap, SEC_ARENAS)?;
        self.arena = PacketArena::load_state(&mut d)?;
        done(&d)?;
        let mut d = section(snap, SEC_SWITCHES)?;
        if d.varint()? != self.switches.len() as u64 {
            return Err(invalid("switch count mismatch"));
        }
        for sw in self.switches.iter_mut() {
            sw.load_state(&self.arena, &mut d)?;
        }
        done(&d)?;
        let mut d = section(snap, SEC_NICS)?;
        if d.varint()? != self.nics.len() as u64 {
            return Err(invalid("host count mismatch"));
        }
        for nic in self.nics.iter_mut() {
            nic.load_state(&self.arena, &mut d)?;
        }
        done(&d)?;
        let mut d = section(snap, SEC_HOST_POLICIES)?;
        if d.varint()? != self.host_policies.len() as u64 {
            return Err(invalid("host policy count mismatch"));
        }
        for p in self.host_policies.iter_mut() {
            p.load_state(&mut d)?;
        }
        done(&d)
    }
}

/// Figure 2's metric: the standard deviation of queue lengths across each
/// leaf's uplinks and across the spine ports down to each leaf.
pub(super) struct StdvSampler {
    /// `(switch, port)` groups: every leaf's up ports, then the spine-side
    /// down ports toward each leaf.
    groups: Vec<Vec<(usize, u16)>>,
    /// Scratch for one group's queue lengths.
    lens: Vec<f64>,
}

impl StdvSampler {
    pub(super) fn new(topo: &Topology) -> StdvSampler {
        let n_leaves = topo.num_leaves();
        let mut groups = vec![Vec::new(); 2 * n_leaves];
        for l in topo.links() {
            let (NodeRef::Switch(src), NodeRef::Switch(dst)) = (l.src, l.dst) else {
                continue;
            };
            if l.hop == HopClass::LeafUp {
                let li = topo.leaf_index(src).expect("leaf-up from a leaf") as usize;
                groups[li].push((src.index(), l.src_port));
            } else if l.hop == HopClass::SpineDown {
                if let Some(li) = topo.leaf_index(dst) {
                    groups[n_leaves + li as usize].push((src.index(), l.src_port));
                }
            }
        }
        StdvSampler {
            groups,
            lens: Vec::new(),
        }
    }

    pub(super) fn sample(&mut self, switches: &[Switch], stdv: &mut Moments) {
        for ports in self.groups.iter().filter(|g| g.len() >= 2) {
            self.lens.clear();
            let lens = ports.iter().map(|&(s, p)| switches[s].queue_pkts(p) as f64);
            self.lens.extend(lens);
            stdv.add(stdev_of(&self.lens));
        }
    }
}
