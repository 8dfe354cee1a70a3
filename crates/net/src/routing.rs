//! Shortest-path (ECMP-style) routing.
//!
//! Mirrors what the paper's control plane does: OSPF computes shortest
//! paths and installs, per destination, the set of equal-cost next hops in
//! every switch's forwarding table. Destinations are aggregated per leaf
//! (one prefix per rack), as real fabrics do.
//!
//! The optional *symmetric component* grouping (§3.4) is stored here too;
//! `drill-core` computes it and installs it with [`RouteTable::set_groups`].

use std::collections::VecDeque;

use crate::ids::{NodeRef, SwitchId};
use crate::lbapi::PortGroup;
use crate::topology::Topology;

/// Unreachable marker in the distance table.
pub const UNREACHABLE: u32 = u32::MAX;

/// Per-switch forwarding state for every destination leaf.
#[derive(Clone, Debug)]
pub struct RouteTable {
    /// `[switch][dst_leaf]` -> candidate egress ports on shortest paths.
    next_hops: Vec<Vec<Vec<u16>>>,
    /// `[switch][dst_leaf]` -> symmetric components; empty means "one
    /// implicit group containing all candidates".
    groups: Vec<Vec<Vec<PortGroup>>>,
    /// `[switch][dst_leaf]` -> hop distance.
    dist: Vec<Vec<u32>>,
}

impl RouteTable {
    /// Compute shortest-path candidate sets over the *up* links of `topo`.
    ///
    /// Call again after failing links to model routing reconvergence.
    pub fn compute(topo: &Topology) -> RouteTable {
        let s_count = topo.num_switches();
        let l_count = topo.num_leaves();

        // Reverse adjacency between switches over up links:
        // rev[t] = switches s with an up link s -> t.
        let mut rev: Vec<Vec<SwitchId>> = vec![Vec::new(); s_count];
        for l in topo.links() {
            if !l.up {
                continue;
            }
            if let (NodeRef::Switch(s), NodeRef::Switch(t)) = (l.src, l.dst) {
                rev[t.index()].push(s);
            }
        }

        let mut dist = vec![vec![UNREACHABLE; l_count]; s_count];
        for (leaf_idx, &leaf) in topo.leaves().iter().enumerate() {
            dist[leaf.index()][leaf_idx] = 0;
            let mut q = VecDeque::new();
            q.push_back(leaf);
            while let Some(t) = q.pop_front() {
                let dt = dist[t.index()][leaf_idx];
                for &s in &rev[t.index()] {
                    if dist[s.index()][leaf_idx] == UNREACHABLE {
                        dist[s.index()][leaf_idx] = dt + 1;
                        q.push_back(s);
                    }
                }
            }
        }

        let mut next_hops = vec![vec![Vec::new(); l_count]; s_count];
        for si in 0..s_count {
            let s = SwitchId(si as u32);
            for leaf_idx in 0..l_count {
                let ds = dist[si][leaf_idx];
                if ds == UNREACHABLE || ds == 0 {
                    continue;
                }
                let mut ports = Vec::new();
                for (p, &lid) in topo.egress_links(s).iter().enumerate() {
                    let link = topo.link(lid);
                    if !link.up {
                        continue;
                    }
                    if let NodeRef::Switch(t) = link.dst {
                        if dist[t.index()][leaf_idx] == ds - 1 {
                            ports.push(p as u16);
                        }
                    }
                }
                next_hops[si][leaf_idx] = ports;
            }
        }

        RouteTable {
            next_hops,
            groups: vec![vec![Vec::new(); l_count]; s_count],
            dist,
        }
    }

    /// Candidate egress ports at `s` toward leaf `dst_leaf`.
    #[inline]
    pub fn candidates(&self, s: SwitchId, dst_leaf: u32) -> &[u16] {
        &self.next_hops[s.index()][dst_leaf as usize]
    }

    /// Symmetric components at `s` toward `dst_leaf`; empty slice means
    /// a single implicit group of all candidates.
    #[inline]
    pub fn groups(&self, s: SwitchId, dst_leaf: u32) -> &[PortGroup] {
        &self.groups[s.index()][dst_leaf as usize]
    }

    /// Install symmetric components for `(s, dst_leaf)`.
    pub fn set_groups(&mut self, s: SwitchId, dst_leaf: u32, groups: Vec<PortGroup>) {
        if cfg!(debug_assertions) && !groups.is_empty() {
            let mut all: Vec<u16> = groups
                .iter()
                .flat_map(|g| g.ports.iter().copied())
                .collect();
            all.sort_unstable();
            let mut cand: Vec<u16> = self.next_hops[s.index()][dst_leaf as usize].clone();
            cand.sort_unstable();
            assert_eq!(all, cand, "groups must partition the candidate set");
        }
        self.groups[s.index()][dst_leaf as usize] = groups;
    }

    /// Hop distance from `s` to `dst_leaf`, `None` if unreachable.
    pub fn dist(&self, s: SwitchId, dst_leaf: u32) -> Option<u32> {
        let d = self.dist[s.index()][dst_leaf as usize];
        (d != UNREACHABLE).then_some(d)
    }

    /// Switches bucketed by hop distance toward `dst_leaf`, ascending:
    /// `levels[0]` holds the destination leaf itself, `levels[k]` every
    /// switch at distance `k`; unreachable switches are absent and
    /// switches within a level appear in id order.
    ///
    /// This is the traversal skeleton of the structural §3.4 control plane
    /// (`drill-core`'s `SymmetryEngine`): candidate edges only ever point
    /// from level `k` to level `k-1`, so walking the levels descending
    /// (sources first) or ascending (destination first) visits every edge
    /// of the per-destination candidate DAG exactly once, in a
    /// deterministic order.
    pub fn dist_levels(&self, dst_leaf: u32) -> Vec<Vec<SwitchId>> {
        let mut levels: Vec<Vec<SwitchId>> = Vec::new();
        for (si, per_dst) in self.dist.iter().enumerate() {
            let ds = per_dst[dst_leaf as usize];
            if ds == UNREACHABLE {
                continue;
            }
            let ds = ds as usize;
            if levels.len() <= ds {
                levels.resize_with(ds + 1, Vec::new);
            }
            levels[ds].push(SwitchId(si as u32));
        }
        levels
    }

    /// Number of destination leaves this table covers.
    pub fn num_leaves(&self) -> usize {
        self.next_hops.first().map_or(0, |v| v.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{leaf_spine, vl2, LeafSpineSpec, Vl2Spec, DEFAULT_PROP};
    use crate::topology::SwitchKind;
    use drill_sim::Time;

    fn small_spec() -> LeafSpineSpec {
        LeafSpineSpec {
            spines: 4,
            leaves: 4,
            hosts_per_leaf: 2,
            host_rate: 10_000_000_000,
            core_rate: 40_000_000_000,
            prop: DEFAULT_PROP,
        }
    }

    #[test]
    fn leaf_spine_all_spines_are_candidates() {
        let topo = leaf_spine(&small_spec());
        let rt = RouteTable::compute(&topo);
        let l0 = topo.leaves()[0];
        // Toward any other leaf, all 4 spine ports are candidates.
        for dst in 1..4u32 {
            assert_eq!(rt.candidates(l0, dst).len(), 4);
            assert_eq!(rt.dist(l0, dst), Some(2));
        }
        // Toward itself: no fabric hop.
        assert!(rt.candidates(l0, 0).is_empty());
        assert_eq!(rt.dist(l0, 0), Some(0));
    }

    #[test]
    fn spine_has_single_down_candidate() {
        let topo = leaf_spine(&small_spec());
        let rt = RouteTable::compute(&topo);
        // Spines are ids 4..8.
        let spine = SwitchId(4);
        assert_eq!(topo.switch_kind(spine), SwitchKind::Spine);
        for dst in 0..4u32 {
            assert_eq!(rt.candidates(spine, dst).len(), 1);
            assert_eq!(rt.dist(spine, dst), Some(1));
        }
    }

    #[test]
    fn failure_removes_candidate() {
        let mut topo = leaf_spine(&small_spec());
        let l0 = topo.leaves()[0];
        let s0 = SwitchId(4);
        assert!(topo.fail_switch_link(l0, s0, 0));
        let rt = RouteTable::compute(&topo);
        assert_eq!(rt.candidates(l0, 1).len(), 3, "one spine lost");
        // Other leaves unaffected.
        let l1 = topo.leaves()[1];
        assert_eq!(rt.candidates(l1, 2).len(), 4);
        // Spine s0 can still reach leaf 0, but only via a 3-hop detour
        // through another leaf. No leaf will *use* s0 for leaf-0 traffic
        // (their direct 2-hop paths are shorter), so this entry is inert,
        // but it must be loop-free and present.
        assert_eq!(rt.dist(s0, 0), Some(3));
        assert_eq!(
            rt.candidates(s0, 0).len(),
            3,
            "detours via the other leaves"
        );
    }

    #[test]
    fn vl2_multi_stage_distances() {
        let topo = vl2(&Vl2Spec::paper());
        let rt = RouteTable::compute(&topo);
        let tor0 = topo.leaves()[0];
        // ToR0 -> agg -> int -> agg -> ToR1: distance 4 (different agg pair).
        // ToR0 and ToR4 share aggs (striping wraps): distance 2.
        assert_eq!(rt.dist(tor0, 4), Some(2));
        assert_eq!(rt.dist(tor0, 1), Some(4));
        // Toward a far ToR, both uplinks are candidates.
        assert_eq!(rt.candidates(tor0, 1).len(), 2);
    }

    #[test]
    fn vl2_agg_candidates_toward_far_tor() {
        let topo = vl2(&Vl2Spec::paper());
        let rt = RouteTable::compute(&topo);
        // Agg switches are ids 16..24. Toward a ToR not directly attached,
        // an agg's candidates are all 4 intermediates.
        let agg0 = SwitchId(16);
        assert_eq!(topo.switch_kind(agg0), SwitchKind::Agg);
        assert_eq!(rt.candidates(agg0, 1).len(), 4);
        // Toward its directly attached ToR 0: single down port.
        assert_eq!(rt.candidates(agg0, 0).len(), 1);
    }

    #[test]
    fn parallel_links_are_separate_candidates() {
        let spec = small_spec();
        let topo = crate::builders::leaf_spine_custom(&spec, |l, s| {
            if l == 0 && s == 0 {
                vec![spec.core_rate; 2]
            } else {
                vec![spec.core_rate]
            }
        });
        let rt = RouteTable::compute(&topo);
        let l0 = topo.leaves()[0];
        assert_eq!(
            rt.candidates(l0, 1).len(),
            5,
            "4 spines + 1 extra parallel link"
        );
    }

    #[test]
    fn set_groups_roundtrip() {
        let topo = leaf_spine(&small_spec());
        let mut rt = RouteTable::compute(&topo);
        let l0 = topo.leaves()[0];
        assert!(rt.groups(l0, 1).is_empty());
        let ports = rt.candidates(l0, 1).to_vec();
        let g = vec![
            PortGroup {
                ports: ports[..1].to_vec(),
                weight: 1,
            },
            PortGroup {
                ports: ports[1..].to_vec(),
                weight: 3,
            },
        ];
        rt.set_groups(l0, 1, g.clone());
        assert_eq!(rt.groups(l0, 1), &g[..]);
    }

    #[test]
    fn dist_levels_bucket_by_distance() {
        let topo = leaf_spine(&small_spec());
        let rt = RouteTable::compute(&topo);
        let levels = rt.dist_levels(0);
        // Level 0: leaf 0 itself; level 1: the 4 spines; level 2: the
        // other 3 leaves — in id order within each level.
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0], vec![topo.leaves()[0]]);
        assert_eq!(
            levels[1],
            (4..8).map(SwitchId).collect::<Vec<_>>(),
            "all spines at distance 1"
        );
        assert_eq!(
            levels[2],
            vec![SwitchId(1), SwitchId(2), SwitchId(3)],
            "peer leaves at distance 2"
        );
        // An unreachable switch is absent from every level.
        let mut topo2 = crate::topology::Topology::new();
        let l0 = topo2.add_switch(SwitchKind::Leaf);
        let _l1 = topo2.add_switch(SwitchKind::Leaf);
        let s = topo2.add_switch(SwitchKind::Spine);
        topo2.connect_switches(l0, s, 1_000_000_000, 1_000_000_000, Time::from_nanos(10));
        let rt2 = RouteTable::compute(&topo2);
        let lv = rt2.dist_levels(0);
        assert_eq!(lv.len(), 2);
        assert_eq!(lv[0], vec![l0]);
        assert_eq!(lv[1], vec![s]);
    }

    #[test]
    fn disconnected_leaf_is_unreachable() {
        let mut topo = crate::topology::Topology::new();
        let l0 = topo.add_switch(SwitchKind::Leaf);
        let l1 = topo.add_switch(SwitchKind::Leaf);
        let s = topo.add_switch(SwitchKind::Spine);
        topo.connect_switches(l0, s, 1_000_000_000, 1_000_000_000, Time::from_nanos(10));
        // l1 left unconnected.
        let rt = RouteTable::compute(&topo);
        assert_eq!(rt.dist(l0, 1), None);
        assert!(rt.candidates(l0, 1).is_empty());
        assert_eq!(rt.dist(l1, 0), None);
    }
}
