//! Shortest-path (ECMP-style) routing.
//!
//! Mirrors what the paper's control plane does: OSPF computes shortest
//! paths and installs, per destination, the set of equal-cost next hops in
//! every switch's forwarding table. Destinations are aggregated per leaf
//! (one prefix per rack), as real fabrics do.
//!
//! The optional *symmetric component* grouping (§3.4) is stored here too;
//! `drill-core` computes it and installs it with [`RouteTable::set_groups`]
//! and [`RouteTable::share_groups`].
//!
//! **Layout.** Forwarding state is content-addressed: a regular fabric has
//! a few dozen distinct candidate lists and group tables however many
//! entries it has, so an entry is 16 bytes of indices in one flat array
//! (`switch × leaves + dst`) and each distinct list or table exists once,
//! in a pool. A lookup is entry → pool, never a walk through per-entry
//! heap objects.

use std::collections::VecDeque;
use std::mem::size_of;
use std::sync::Arc;

use drill_sim::FxHashMap;

use crate::ids::{NodeRef, SwitchId};
use crate::lbapi::PortGroup;
use crate::topology::Topology;

/// Unreachable marker in the distance table.
pub const UNREACHABLE: u32 = u32::MAX;

/// One `(switch, dst_leaf)` entry.
#[derive(Clone, Copy, Debug)]
struct Entry {
    /// The candidate list: `ports[cand_off..][..cand_len]`. Lists are
    /// interned, so two entries hold the same list iff these two fields
    /// agree (every empty list is `(0, 0)`).
    cand_off: u32,
    cand_len: u32,
    /// Index into `tables`; 0 means "one implicit group containing all
    /// candidates".
    table: u32,
    /// Hop distance, [`UNREACHABLE`] if none.
    dist: u32,
}

/// Per-switch forwarding state for every destination leaf.
#[derive(Clone, Debug)]
pub struct RouteTable {
    leaves: usize,
    /// `[switch * leaves + dst_leaf]`.
    entries: Vec<Entry>,
    /// Every distinct non-empty candidate list, back to back.
    ports: Vec<u16>,
    cand_lists: usize,
    /// Every distinct group table installed so far; `tables[0]` is the
    /// empty one. A table overwritten on its last entry stays in the pool
    /// until the next `compute`.
    tables: Vec<Arc<[PortGroup]>>,
    table_ids: FxHashMap<Arc<[PortGroup]>, u32>,
}

impl RouteTable {
    /// Compute shortest-path candidate sets over the *up* links of `topo`.
    ///
    /// Call again after failing links to model routing reconvergence.
    pub fn compute(topo: &Topology) -> RouteTable {
        let s_count = topo.num_switches();
        let l_count = topo.num_leaves();

        // Reverse adjacency between switches over up links, in CSR form:
        // rev[rev_start[t]..rev_start[t + 1]] = switches s with an up link
        // s -> t, in link order.
        let up_switch_links = || {
            topo.links().iter().filter_map(|l| match (l.src, l.dst) {
                (NodeRef::Switch(s), NodeRef::Switch(t)) if l.up => Some((s, t)),
                _ => None,
            })
        };
        let mut rev_start = vec![0u32; s_count + 1];
        for (_, t) in up_switch_links() {
            rev_start[t.index() + 1] += 1;
        }
        for t in 0..s_count {
            rev_start[t + 1] += rev_start[t];
        }
        let mut fill = rev_start.clone();
        let mut rev = vec![SwitchId(0); rev_start[s_count] as usize];
        for (s, t) in up_switch_links() {
            rev[fill[t.index()] as usize] = s;
            fill[t.index()] += 1;
        }

        // Forward adjacency in the same form, by port: the up
        // switch-facing egress ports of each switch and their far ends. A
        // leaf's host ports never enter it, so filling an entry scans only
        // the links a candidate can be.
        let mut fwd_start = Vec::with_capacity(s_count + 1);
        let mut fwd: Vec<(u16, SwitchId)> = Vec::with_capacity(rev.len());
        for si in 0..s_count {
            fwd_start.push(fwd.len());
            let egress = topo.egress_links(SwitchId(si as u32)).iter();
            fwd.extend((0u16..).zip(egress).filter_map(|(p, &lid)| {
                let link = topo.link(lid);
                match link.dst {
                    NodeRef::Switch(t) if link.up => Some((p, t)),
                    _ => None,
                }
            }));
        }
        fwd_start.push(fwd.len());

        let unreachable = Entry {
            cand_off: 0,
            cand_len: 0,
            table: 0,
            dist: UNREACHABLE,
        };
        let mut entries = vec![unreachable; s_count * l_count];
        let mut ports: Vec<u16> = Vec::new();
        // The `(offset, len)` of every list in `ports`, sorted by content:
        // interning is a binary search over a few dozen short slices and
        // allocates nothing per list.
        let mut lists: Vec<(u32, u32)> = Vec::new();
        let mut cands: Vec<u16> = Vec::new();
        let mut q = VecDeque::new();
        // One leaf's distances, dense by switch: the search and the
        // candidate fill read this, not the table's column, whose slots sit
        // a row apart.
        let mut dist = vec![UNREACHABLE; s_count];
        for (leaf_idx, &leaf) in topo.leaves().iter().enumerate() {
            dist.fill(UNREACHABLE);
            dist[leaf.index()] = 0;
            q.push_back(leaf);
            while let Some(t) = q.pop_front() {
                let dt = dist[t.index()];
                let sources = rev_start[t.index()] as usize..rev_start[t.index() + 1] as usize;
                for &s in &rev[sources] {
                    if dist[s.index()] == UNREACHABLE {
                        dist[s.index()] = dt + 1;
                        q.push_back(s);
                    }
                }
            }
            // Neighbouring switches mostly hold the same list: try the
            // previous entry's before searching.
            let mut last = (0, 0);
            for (si, &ds) in dist.iter().enumerate() {
                let e = &mut entries[si * l_count + leaf_idx];
                e.dist = ds;
                if ds == UNREACHABLE || ds == 0 {
                    continue;
                }
                cands.clear();
                cands.extend(
                    fwd[fwd_start[si]..fwd_start[si + 1]]
                        .iter()
                        .filter_map(|&(p, t)| (dist[t.index()] == ds - 1).then_some(p)),
                );
                let listed = |(off, len): (u32, u32)| &ports[off as usize..][..len as usize];
                if listed(last) != &cands[..] {
                    let found = lists.binary_search_by(|&list| listed(list).cmp(&cands[..]));
                    last = match found {
                        Ok(i) => lists[i],
                        Err(i) => {
                            let off = u32::try_from(ports.len()).expect("candidate pool fits u32");
                            ports.extend_from_slice(&cands);
                            lists.insert(i, (off, cands.len() as u32));
                            lists[i]
                        }
                    };
                }
                (e.cand_off, e.cand_len) = last;
            }
        }

        let no_groups: Arc<[PortGroup]> = Arc::new([]);
        RouteTable {
            leaves: l_count,
            entries,
            ports,
            cand_lists: lists.len(),
            tables: vec![no_groups],
            table_ids: FxHashMap::default(),
        }
    }

    /// Index of `(s, dst_leaf)`. The leaf is checked here because a flat
    /// index would otherwise silently alias the next switch's row.
    #[inline]
    fn at(&self, s: SwitchId, dst_leaf: u32) -> usize {
        assert!(
            (dst_leaf as usize) < self.leaves,
            "dst_leaf {dst_leaf} out of range ({} leaves)",
            self.leaves
        );
        s.index() * self.leaves + dst_leaf as usize
    }

    /// Candidate egress ports at `s` toward leaf `dst_leaf`.
    #[inline]
    pub fn candidates(&self, s: SwitchId, dst_leaf: u32) -> &[u16] {
        let e = &self.entries[self.at(s, dst_leaf)];
        &self.ports[e.cand_off as usize..][..e.cand_len as usize]
    }

    /// The identity of `(s, dst_leaf)`'s candidate list: lists are
    /// interned, so two entries get the same pair iff their
    /// [`candidates`](Self::candidates) are equal.
    #[inline]
    pub fn candidate_list(&self, s: SwitchId, dst_leaf: u32) -> (u32, u32) {
        let e = &self.entries[self.at(s, dst_leaf)];
        (e.cand_off, e.cand_len)
    }

    /// The candidate list a [`candidate_list`](Self::candidate_list)
    /// identity names.
    #[inline]
    pub fn candidates_of(&self, (off, len): (u32, u32)) -> &[u16] {
        &self.ports[off as usize..][..len as usize]
    }

    /// Symmetric components at `s` toward `dst_leaf`; empty slice means
    /// a single implicit group of all candidates.
    #[inline]
    pub fn groups(&self, s: SwitchId, dst_leaf: u32) -> &[PortGroup] {
        &self.tables[self.entries[self.at(s, dst_leaf)].table as usize]
    }

    /// Install symmetric components for `(s, dst_leaf)`; an empty `groups`
    /// restores the single implicit group.
    ///
    /// Panics unless the groups partition the entry's candidate set.
    pub fn set_groups(&mut self, s: SwitchId, dst_leaf: u32, groups: Vec<PortGroup>) {
        let i = self.at(s, dst_leaf);
        let id = if groups.is_empty() {
            0
        } else {
            let mut all: Vec<u16> = groups
                .iter()
                .flat_map(|g| g.ports.iter().copied())
                .collect();
            all.sort_unstable();
            // `compute` lists candidates in ascending port order.
            assert_eq!(
                all,
                self.candidates(s, dst_leaf),
                "groups must partition the candidate set"
            );
            match self.table_ids.get(&groups[..]) {
                Some(&id) => id,
                None => {
                    let id = u32::try_from(self.tables.len()).expect("table pool fits u32");
                    let table: Arc<[PortGroup]> = groups.into();
                    self.tables.push(table.clone());
                    self.table_ids.insert(table, id);
                    id
                }
            }
        };
        self.entries[i].table = id;
    }

    /// Point `(s, dst_leaf)` at the group table entry `from` currently
    /// uses — what `set_groups` with a copy of that table would do,
    /// without building the copy.
    ///
    /// Panics unless both entries have the same candidate list (which that
    /// table was checked against when it was set).
    pub fn share_groups(&mut self, s: SwitchId, dst_leaf: u32, from: (SwitchId, u32)) {
        let src = self.entries[self.at(from.0, from.1)];
        let i = self.at(s, dst_leaf);
        let e = &mut self.entries[i];
        assert_eq!(
            (e.cand_off, e.cand_len),
            (src.cand_off, src.cand_len),
            "a group table is shared between equal candidate lists only"
        );
        e.table = src.table;
    }

    /// Hop distance from `s` to `dst_leaf`, `None` if unreachable.
    pub fn dist(&self, s: SwitchId, dst_leaf: u32) -> Option<u32> {
        let d = self.entries[self.at(s, dst_leaf)].dist;
        (d != UNREACHABLE).then_some(d)
    }

    /// Switches bucketed by hop distance toward `dst_leaf`, ascending:
    /// `levels[0]` holds the destination leaf itself, `levels[k]` every
    /// switch at distance `k`; unreachable switches are absent and
    /// switches within a level appear in id order.
    ///
    /// This is the traversal order of the structural §3.4 control plane
    /// (`drill-core`'s `SymmetryEngine`, which builds it for every
    /// destination at once, with each entry's [`candidate_list`](Self::candidate_list)):
    /// candidate edges only ever point from level `k` to level `k-1`, so
    /// walking the levels descending (sources first) or ascending
    /// (destination first) visits every edge of the per-destination
    /// candidate DAG exactly once, in a deterministic order.
    pub fn dist_levels(&self, dst_leaf: u32) -> Vec<Vec<SwitchId>> {
        let first = self.at(SwitchId(0), dst_leaf);
        let reachable = || {
            let column = self.entries[first..].iter().step_by(self.leaves);
            (0u32..)
                .zip(column)
                .filter(|(_, e)| e.dist != UNREACHABLE)
                .map(|(si, e)| (SwitchId(si), e.dist as usize))
        };
        // Size each level before filling it: the engine asks for one
        // skeleton per destination on every install.
        let mut sizes: Vec<usize> = Vec::with_capacity(8);
        for (_, ds) in reachable() {
            if sizes.len() <= ds {
                sizes.resize(ds + 1, 0);
            }
            sizes[ds] += 1;
        }
        let mut levels: Vec<Vec<SwitchId>> = sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
        for (s, ds) in reachable() {
            levels[ds].push(s);
        }
        levels
    }

    /// Number of destination leaves this table covers.
    pub fn num_leaves(&self) -> usize {
        self.leaves
    }

    /// Distinct non-empty candidate lists among all entries.
    pub fn distinct_cand_lists(&self) -> usize {
        self.cand_lists
    }

    /// Distinct group tables in the pool (the implicit single group is
    /// not one).
    pub fn distinct_group_tables(&self) -> usize {
        self.tables.len() - 1
    }

    /// Heap bytes this table holds (capacities × element sizes; the hash
    /// map is counted at one key, one value and one control byte a slot).
    /// Host-side accounting: it enters no fingerprint.
    pub fn heap_bytes(&self) -> usize {
        let pooled: usize = self.tables.iter().map(|t| table_bytes(t)).sum();
        self.entries.capacity() * size_of::<Entry>()
            + self.ports.capacity() * size_of::<u16>()
            + self.tables.capacity() * size_of::<Arc<[PortGroup]>>()
            + self.table_ids.capacity() * (size_of::<(Arc<[PortGroup]>, u32)>() + 1)
            + pooled
    }
}

/// Heap bytes of one pooled group table: the `Arc` header, the groups and
/// their port vectors.
fn table_bytes(table: &[PortGroup]) -> usize {
    let ports: usize = table.iter().map(|g| g.ports.capacity()).sum();
    2 * size_of::<usize>() + std::mem::size_of_val(table) + ports * size_of::<u16>()
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
        // Seeded shapes: healthy, every leaf pair sits 2 hops apart with
        // every spine a candidate; one failed uplink of leaf 0 costs it
        // exactly one candidate toward every other leaf.
        let mut rng = drill_sim::SimRng::seed_from(0x2EAC);
        for _ in 0..64 {
            let spec = LeafSpineSpec {
                spines: 2 + rng.below(4),
                leaves: 2 + rng.below(4),
                hosts_per_leaf: 1 + rng.below(3),
                ..small_spec()
            };
            let mut topo = leaf_spine(&spec);
            let rt = RouteTable::compute(&topo);
            for (i, &a) in topo.leaves().iter().enumerate() {
                for j in (0..spec.leaves as u32).filter(|&j| j as usize != i) {
                    assert_eq!(rt.dist(a, j), Some(2));
                    assert_eq!(rt.candidates(a, j).len(), spec.spines);
                }
            }
            let l0 = topo.leaves()[0];
            let spine = SwitchId((spec.leaves + rng.below(spec.spines)) as u32);
            assert!(topo.fail_switch_link(l0, spine, 0));
            let rt = RouteTable::compute(&topo);
            for j in 1..spec.leaves as u32 {
                assert_eq!(rt.candidates(l0, j).len(), spec.spines - 1, "{spec:?}");
            }
        }
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

    /// Two groups splitting `ports` after the first one.
    fn split(ports: &[u16], weights: (u64, u64)) -> Vec<PortGroup> {
        vec![
            PortGroup {
                ports: ports[..1].to_vec(),
                weight: weights.0,
            },
            PortGroup {
                ports: ports[1..].to_vec(),
                weight: weights.1,
            },
        ]
    }

    #[test]
    fn candidate_list_ids_are_equal_iff_lists_are() {
        let mut failed = leaf_spine(&small_spec());
        assert!(failed.fail_switch_link(failed.leaves()[0], SwitchId(4), 0));
        for topo in [failed, vl2(&Vl2Spec::paper())] {
            let rt = RouteTable::compute(&topo);
            let mut by_id: FxHashMap<(u32, u32), &[u16]> = FxHashMap::default();
            let mut by_list: FxHashMap<&[u16], (u32, u32)> = FxHashMap::default();
            for s in (0..topo.num_switches() as u32).map(SwitchId) {
                for d in 0..topo.num_leaves() as u32 {
                    let (id, list) = (rt.candidate_list(s, d), rt.candidates(s, d));
                    assert_eq!(rt.candidates_of(id), list);
                    assert_eq!(*by_id.entry(id).or_insert(list), list);
                    assert_eq!(*by_list.entry(list).or_insert(id), id);
                }
            }
            assert_eq!(
                by_list.len(),
                rt.distinct_cand_lists() + 1,
                "and the empty list"
            );
        }
    }

    #[test]
    fn set_groups_overwrites_while_a_sibling_keeps_sharing() {
        let topo = leaf_spine(&small_spec());
        let mut rt = RouteTable::compute(&topo);
        let l0 = topo.leaves()[0];
        let ports = rt.candidates(l0, 1).to_vec();
        let (a, b) = (split(&ports, (1, 3)), split(&ports, (2, 5)));
        assert_eq!(
            rt.distinct_cand_lists(),
            1 + 4,
            "every leaf's uplinks, and at the spines one down port per leaf"
        );

        rt.set_groups(l0, 1, a.clone());
        rt.share_groups(l0, 2, (l0, 1));
        rt.set_groups(l0, 3, a.clone());
        assert_eq!(rt.distinct_group_tables(), 1, "equal tables are one table");
        rt.set_groups(l0, 1, b.clone());
        assert_eq!(rt.groups(l0, 1), &b[..]);
        assert_eq!(rt.groups(l0, 2), &a[..], "the sibling still reads A");
        rt.set_groups(l0, 1, Vec::new());
        assert!(rt.groups(l0, 1).is_empty());
        assert_eq!(rt.groups(l0, 2), &a[..]);
        rt.set_groups(l0, 1, a.clone());
        assert_eq!(rt.groups(l0, 1), &a[..]);
        assert_eq!(rt.groups(l0, 3), &a[..]);
        assert_eq!(rt.distinct_group_tables(), 2);
        // Untouched entries and other switches never saw any of it.
        assert!(rt.groups(topo.leaves()[1], 0).is_empty());
        let flat = 16 * topo.num_switches() * topo.num_leaves();
        assert!(
            rt.heap_bytes() > flat && rt.heap_bytes() < flat + 1024,
            "{} bytes",
            rt.heap_bytes()
        );
    }

    #[test]
    #[should_panic(expected = "groups must partition the candidate set")]
    fn set_groups_rejects_a_non_partition() {
        // Unconditional: `scripts/ci.sh` runs this crate's tests in the
        // optimised build too, where a debug assertion would be gone.
        let topo = leaf_spine(&small_spec());
        let mut rt = RouteTable::compute(&topo);
        let l0 = topo.leaves()[0];
        let ports = rt.candidates(l0, 1).to_vec();
        rt.set_groups(l0, 1, split(&ports[1..], (1, 1)));
    }

    #[test]
    #[should_panic(expected = "shared between equal candidate lists only")]
    fn share_groups_rejects_a_different_candidate_list() {
        let mut topo = leaf_spine(&small_spec());
        let (l0, l1) = (topo.leaves()[0], topo.leaves()[1]);
        assert!(topo.fail_switch_link(l1, SwitchId(4), 0));
        let mut rt = RouteTable::compute(&topo);
        let ports = rt.candidates(l0, 2).to_vec();
        rt.set_groups(l0, 2, split(&ports, (1, 3)));
        rt.share_groups(l1, 2, (l0, 2));
    }

    #[test]
    #[should_panic(expected = "dst_leaf 4 out of range")]
    fn out_of_range_leaf_panics_instead_of_aliasing_the_next_row() {
        let topo = leaf_spine(&small_spec());
        RouteTable::compute(&topo).candidates(topo.leaves()[0], 4);
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
