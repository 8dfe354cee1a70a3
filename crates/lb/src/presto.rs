//! Presto (He et al., SIGCOMM 2015): edge-based, load-oblivious load
//! balancing of 64 KB *flowcells*.
//!
//! The sending host (vSwitch in the original) chops each flow into 64 KB
//! cells in sequence space and source-routes consecutive cells round-robin
//! across all shortest paths. After failures, a controller prunes affected
//! paths and reweights the rest *statically* by path capacity (the paper's
//! §3.4 discussion: this is exactly what cannot adapt to load).

use std::io;

use drill_core::enumerate_shortest_paths;
use drill_net::{FlowId, HostId, HostPolicy, NodeRef, Packet, RouteTable, Topology};
use drill_sim::codec::{put_varint, Decoder};
use drill_sim::{FxHashMap, SimRng, Time};

/// Presto's flowcell size (one maximal TSO segment).
pub const FLOWCELL_BYTES: u64 = 64 * 1024;

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[derive(Clone, Debug)]
struct PathChoice {
    /// Transit switch ids between source leaf and destination leaf.
    hops: Vec<u32>,
    /// Static path capacity (bottleneck link, in Gbps), for failover
    /// weighting.
    weight: u64,
}

/// Per-sending-host Presto state.
///
/// Cells are identified by sequence-space position (`seq / 64 KB`), so
/// retransmissions deterministically re-use their original cell's path.
pub struct PrestoHostPolicy {
    /// `[dst_leaf] -> usable paths` (pruned + weighted at build time).
    paths: Vec<Vec<PathChoice>>,
    /// `[dst_leaf] -> total weight`.
    totals: Vec<u64>,
    /// Per-flow random starting offset, so concurrent flows don't
    /// synchronize their round robins.
    offsets: FxHashMap<FlowId, u64>,
    /// Destination host -> leaf index (captured from the topology).
    leaf_of: Vec<u32>,
    my_leaf: u32,
}

impl PrestoHostPolicy {
    /// Build the host's path tables from the current topology/routes.
    /// Rebuild after failures (Presto's centralized failover).
    pub fn build(topo: &Topology, routes: &RouteTable, host: HostId) -> PrestoHostPolicy {
        let my_leaf_switch = topo.host_leaf(host);
        let my_leaf = topo.host_leaf_index(host);
        let n_leaves = topo.num_leaves();
        let mut paths = vec![Vec::new(); n_leaves];
        let mut totals = vec![0u64; n_leaves];
        for dst_leaf in 0..n_leaves as u32 {
            if dst_leaf == my_leaf {
                continue;
            }
            for links in enumerate_shortest_paths(topo, routes, my_leaf_switch, dst_leaf, 1 << 14) {
                let cap = links
                    .iter()
                    .map(|&l| topo.link(l).rate_bps)
                    .min()
                    .unwrap_or(0);
                // Transit hops: destination switches of every link except
                // the final one into the destination leaf.
                let hops: Vec<u32> = links[..links.len() - 1]
                    .iter()
                    .filter_map(|&l| match topo.link(l).dst {
                        NodeRef::Switch(s) => Some(s.0),
                        NodeRef::Host(_) => None,
                    })
                    .collect();
                let weight = (cap / 1_000_000_000).max(1);
                paths[dst_leaf as usize].push(PathChoice { hops, weight });
            }
            // Reduce weights by their gcd so equal-capacity paths yield a
            // pure packet... cell-level round robin (weight 1 each) rather
            // than long per-path runs of cells.
            let g = paths[dst_leaf as usize]
                .iter()
                .fold(0u64, |acc, p| gcd(acc, p.weight));
            for p in &mut paths[dst_leaf as usize] {
                p.weight /= g.max(1);
                totals[dst_leaf as usize] += p.weight;
            }
        }
        let leaf_of = (0..topo.num_hosts() as u32)
            .map(|h| topo.host_leaf_index(HostId(h)))
            .collect();
        PrestoHostPolicy {
            paths,
            totals,
            offsets: FxHashMap::default(),
            leaf_of,
            my_leaf,
        }
    }

    /// The `k`-th element of the weighted cyclic path sequence: paths
    /// appear proportionally to their weights. Equal weights degrade to
    /// pure round robin.
    fn pick(&self, dst_leaf: u32, k: u64) -> Option<&PathChoice> {
        let total = self.totals[dst_leaf as usize];
        if total == 0 {
            return None;
        }
        let mut r = k % total;
        for p in &self.paths[dst_leaf as usize] {
            if r < p.weight {
                return Some(p);
            }
            r -= p.weight;
        }
        None
    }
}

impl HostPolicy for PrestoHostPolicy {
    fn on_send(&mut self, pkt: &mut Packet, _now: Time, rng: &mut SimRng) {
        // Pure ACKs are not flowcell traffic; they follow ordinary ECMP, as
        // the reverse direction does in Presto.
        if !pkt.is_data() {
            return;
        }
        let dst_leaf = self.leaf_of[pkt.dst.index()];
        if dst_leaf == self.my_leaf {
            return; // never enters the fabric
        }
        let cell = pkt.seq / FLOWCELL_BYTES;
        let offset = *self
            .offsets
            .entry(pkt.flow)
            .or_insert_with(|| rng.next_u64() % 1024);
        if let Some(path) = self.pick(dst_leaf, offset.wrapping_add(cell)) {
            for &h in &path.hops {
                pkt.push_route(h);
            }
        }
    }

    fn save_state(&self, buf: &mut Vec<u8>) {
        // Sort: FxHashMap iteration order depends on insertion history.
        let mut offs: Vec<(FlowId, u64)> = self.offsets.iter().map(|(&f, &o)| (f, o)).collect();
        offs.sort_unstable_by_key(|&(f, _)| f.0);
        put_varint(buf, offs.len() as u64);
        for (f, o) in offs {
            put_varint(buf, f.0 as u64);
            put_varint(buf, o);
        }
    }

    fn load_state(&mut self, d: &mut Decoder<'_>) -> io::Result<()> {
        let n = d.varint_usize()?;
        self.offsets.clear();
        for _ in 0..n {
            let f = FlowId(d.varint_u32()?);
            let o = d.varint()?;
            self.offsets.insert(f, o);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drill_net::{leaf_spine, vl2, LeafSpineSpec, SwitchId, Vl2Spec, DEFAULT_PROP};

    fn topo4() -> (Topology, RouteTable) {
        let topo = leaf_spine(&LeafSpineSpec {
            spines: 4,
            leaves: 2,
            hosts_per_leaf: 2,
            host_rate: 10_000_000_000,
            core_rate: 10_000_000_000,
            prop: DEFAULT_PROP,
        });
        let routes = RouteTable::compute(&topo);
        (topo, routes)
    }

    fn data_pkt(flow: u32, dst: HostId, seq: u64) -> Packet {
        Packet::data(
            1,
            FlowId(flow),
            HostId(0),
            dst,
            0xbeef,
            seq,
            1460,
            Time::ZERO,
        )
    }

    #[test]
    fn cells_round_robin_across_spines() {
        let (topo, routes) = topo4();
        let mut p = PrestoHostPolicy::build(&topo, &routes, HostId(0));
        assert_eq!(p.paths[1].len(), 4);
        let mut rng = SimRng::seed_from(1);
        let mut spines = Vec::new();
        for cell in 0..8u64 {
            let mut pkt = data_pkt(1, HostId(2), cell * FLOWCELL_BYTES);
            p.on_send(&mut pkt, Time::ZERO, &mut rng);
            assert_eq!(pkt.srcroute_len, 1);
            spines.push(pkt.srcroute[0]);
        }
        // Consecutive cells hit distinct spines, wrapping around: the two
        // halves of the sequence are identical and each half covers all 4.
        assert_eq!(spines[..4], spines[4..]);
        let mut uniq = spines[..4].to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4);
    }

    #[test]
    fn packets_within_cell_share_path() {
        let (topo, routes) = topo4();
        let mut p = PrestoHostPolicy::build(&topo, &routes, HostId(0));
        let mut rng = SimRng::seed_from(2);
        let mut first = data_pkt(1, HostId(2), 0);
        p.on_send(&mut first, Time::ZERO, &mut rng);
        for seq in [1460u64, 20_000, FLOWCELL_BYTES - 1] {
            let mut pkt = data_pkt(1, HostId(2), seq);
            p.on_send(&mut pkt, Time::ZERO, &mut rng);
            assert_eq!(pkt.srcroute[0], first.srcroute[0], "same cell, same path");
        }
        let mut next_cell = data_pkt(1, HostId(2), FLOWCELL_BYTES);
        p.on_send(&mut next_cell, Time::ZERO, &mut rng);
        assert_ne!(
            next_cell.srcroute[0], first.srcroute[0],
            "next cell moves on"
        );
    }

    #[test]
    fn acks_and_local_traffic_untagged() {
        let (topo, routes) = topo4();
        let mut p = PrestoHostPolicy::build(&topo, &routes, HostId(0));
        let mut rng = SimRng::seed_from(3);
        let mut ack =
            Packet::pure_ack(1, FlowId(1), HostId(0), HostId(2), 0xbeef, 1460, Time::ZERO);
        p.on_send(&mut ack, Time::ZERO, &mut rng);
        assert_eq!(ack.srcroute_len, 0);
        // Host 1 is on our own leaf.
        let mut local = data_pkt(2, HostId(1), 0);
        p.on_send(&mut local, Time::ZERO, &mut rng);
        assert_eq!(local.srcroute_len, 0);
    }

    #[test]
    fn failover_prunes_and_reweights() {
        let (mut topo, _) = topo4();
        let l1 = topo.leaves()[1];
        // Fail spine0 - leaf1: paths via spine 0 no longer reach leaf 1.
        assert!(
            topo.fail_switch_link(SwitchId(2), l1, 0) || topo.fail_switch_link(l1, SwitchId(2), 0)
        );
        let routes = RouteTable::compute(&topo);
        let p = PrestoHostPolicy::build(&topo, &routes, HostId(0));
        assert_eq!(p.paths[1].len(), 3, "pruned to three paths");
    }

    #[test]
    fn vl2_paths_have_three_transit_hops() {
        let topo = vl2(&Vl2Spec::paper());
        let routes = RouteTable::compute(&topo);
        let mut p = PrestoHostPolicy::build(&topo, &routes, HostId(0));
        // Toward a ToR with disjoint aggs: 2 aggs x 4 ints x 2 down-aggs...
        // enumerated from the routing DAG; every path carries 3 transit
        // hops (agg, int, agg).
        let mut rng = SimRng::seed_from(4);
        // Host 0 is on ToR 0; pick a host on ToR 1 (disjoint aggs).
        let dst = HostId(20);
        let mut pkt = data_pkt(1, dst, 0);
        p.on_send(&mut pkt, Time::ZERO, &mut rng);
        assert_eq!(pkt.srcroute_len, 3);
    }

    #[test]
    fn different_flows_use_different_offsets() {
        let (topo, routes) = topo4();
        let mut p = PrestoHostPolicy::build(&topo, &routes, HostId(0));
        let mut rng = SimRng::seed_from(5);
        let mut seen = std::collections::HashSet::new();
        for f in 0..32u32 {
            let mut pkt = data_pkt(f, HostId(2), 0);
            p.on_send(&mut pkt, Time::ZERO, &mut rng);
            seen.insert(pkt.srcroute[0]);
        }
        assert!(
            seen.len() >= 3,
            "first cells spread across spines: {seen:?}"
        );
    }
}
