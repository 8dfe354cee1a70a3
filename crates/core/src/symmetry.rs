//! Structural §3.4 control plane: symmetry-class decomposition with lazy
//! per-entry quivers and incremental reconvergence.
//!
//! The eager control plane ([`crate::install_symmetric_groups_eager`])
//! enumerates every leaf-to-leaf shortest path to build the global
//! [`Quiver`], then re-enumerates each entry's paths to decompose it —
//! O(leaves² × paths) time and memory, ~67M paths and gigabytes of labels
//! at a k=32 fat-tree. The [`SymmetryEngine`] produces the **exact same
//! group tables** from the structure of the candidate DAG instead:
//!
//! 1. **Link classes** (the Quiver, without materializing it). For one
//!    destination leaf `d`, the labels eager places on a link are the image
//!    of the set of *prefix states* reaching its tail: every shortest path
//!    from a source leaf arrives with a `(src_leaf, bottleneck)` pair, and
//!    the link's label restriction is `{(src, cf(bottleneck, rate))}`.
//!    Candidate edges always point from hop distance `k` to `k-1`
//!    ([`RouteTable::dist_levels`]), so propagating interned prefix-state
//!    sets down the levels visits each candidate edge exactly once and
//!    yields, per destination, each link's label restriction — without
//!    enumerating a single path. Links are then partition-refined over
//!    destinations, the refinement chain keyed by destination: two links
//!    end in the same class iff every per-destination restriction
//!    matches, i.e. iff their full label sets are equal — exactly the
//!    paper's `ℓ1 ~ ℓ2` (and *stricter* than the eager path's 64-bit score
//!    hash, which can collide). Set operations are memoized on interned
//!    ids, so a symmetric fabric costs O(distinct sets) ≈ O(tiers × pods)
//!    real set constructions per destination, everything else being id
//!    lookups.
//! 2. **Entry fingerprints + template reuse**. Walking the levels back up,
//!    each (switch, dst-leaf) entry gets an *exact* fingerprint: the
//!    interned list, in candidate order, of `(link class, link rate,
//!    child fingerprint)`. By induction it determines the entry's entire
//!    labeled candidate subgraph. If all candidate tuples are equal the
//!    entry is provably one symmetric component and nothing more is
//!    computed (the early-collapse path — on fully symmetric fabrics the
//!    whole install enumerates zero paths). Otherwise the entry's
//!    subgraph is walked **exactly once** (the lazy per-entry quiver —
//!    peak memory is one entry's subgraph, never the fabric's), producing
//!    a *canonical* signature with class ids renumbered by first
//!    occurrence: the decomposition only depends on the equality pattern
//!    of scores, which is invariant under consistent renaming, so entries
//!    in mirrored positions of different pods collapse to one canonical
//!    class. Each canonical class is decomposed once, on its first
//!    representative, and the resulting groups are stored as a template
//!    over candidate indices, replicated to every entry of the class.
//!    Candidates are in ascending port order, so mapping index groups
//!    through an entry's candidate list preserves the eager sort order
//!    bit-for-bit.
//! 3. **Incremental reconvergence.** All interners, set-operation memos,
//!    class-refinement chains, and decomposition templates are
//!    content-addressed and persist across installs. After a fault, the
//!    propagation replays mostly memo hits; only entries whose fingerprint
//!    actually changed (their candidate set or a downstream link's
//!    class/rate moved) miss the template cache and get re-decomposed.
//!
//! **Known deviation** (shared with the figure goldens, documented in
//! DESIGN.md): eager truncates enumeration at
//! [`Quiver::DEFAULT_PATH_CAP`] paths per (entry, destination). The
//! engine's class propagation is exact (set-based, uncapped) and its
//! template enumeration uses the same cap, so results can differ from
//! eager only on fabrics with more than 65 536 shortest paths for a
//! single entry — far beyond every topology family in this repo.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use drill_net::{NodeRef, PortGroup, RouteTable, SwitchId, Topology};

use crate::decompose::{group_scored_paths, GroupingReport};
use crate::quiver::{enumerate_shortest_paths, CapFactor, Quiver};

/// Sentinel bottleneck meaning "the path starts here": mirrors the eager
/// builder's `bottleneck = u64::MAX` seed, so the first link of a path maps
/// to [`CapFactor::Source`] and `min(MAX, rate) = rate` thereafter.
const SOURCE_CAP: u64 = u64::MAX;

/// A prefix state: traffic from leaf `.0` arrives with bottleneck `.1`.
type BSet = Vec<(u32, u64)>;
/// A link's per-destination label restriction: `(src_leaf, cap_factor)`.
type LSet = Vec<(u32, CapFactor)>;
/// An entry fingerprint: `(link class, rate_bps, child fingerprint)` per
/// candidate, in candidate order. Canonical signatures reuse the same
/// tuple shape (see [`canonical_signature`]).
type FKey = Vec<(u32, u64, u32)>;

/// Content-addressed store mapping values to dense `u32` ids.
///
/// Id 0 is always the empty (default) value, so "no prefix states" and the
/// terminal fingerprint are the zero id and never need a lookup.
struct Interner<T> {
    vals: Vec<T>,
    ids: HashMap<T, u32>,
}

impl<T: Clone + Eq + Hash + Default> Interner<T> {
    fn new() -> Interner<T> {
        let mut it = Interner {
            vals: Vec::new(),
            ids: HashMap::new(),
        };
        it.intern(T::default());
        it
    }

    fn intern(&mut self, val: T) -> u32 {
        if let Some(&id) = self.ids.get(&val) {
            return id;
        }
        let id = self.vals.len() as u32;
        self.vals.push(val.clone());
        self.ids.insert(val, id);
        id
    }

    #[inline]
    fn get(&self, id: u32) -> &T {
        &self.vals[id as usize]
    }
}

/// The structural §3.4 control plane (see module docs).
///
/// One-shot use reproduces [`crate::install_symmetric_groups_eager`]
/// exactly; keeping the engine alive across [`SymmetryEngine::install`]
/// calls additionally reuses all structural work that a fault did not
/// invalidate (incremental reconvergence).
pub struct SymmetryEngine {
    bsets: Interner<BSet>,
    lsets: Interner<LSet>,
    fps: Interner<FKey>,
    /// `(bset, rate)` -> bset with every bottleneck clamped to `rate`.
    advance_memo: HashMap<(u32, u64), u32>,
    /// `(bset, rate)` -> the label restriction those prefixes induce.
    shift_memo: HashMap<(u32, u64), u32>,
    /// `(bset, bset)` -> set union.
    union_memo: HashMap<(u32, u32), u32>,
    /// `(old class, lset, destination)` -> refined class. A label is a
    /// `(src, dst, cf)` triple and an `lset` holds only its `(src, cf)`
    /// half, so the destination is part of the key: the same restriction
    /// received for two different destinations is two different label
    /// sets. Chains are content-addressed — replaying identical
    /// per-destination restrictions yields identical final classes across
    /// installs.
    class_memo: HashMap<(u32, u32, u32), u32>,
    next_class: u32,
    /// Canonical signatures of entry subgraphs (class ids renumbered by
    /// first occurrence), in their own id space.
    sigs: Interner<FKey>,
    /// Exact fingerprint -> canonical signature id. On a warm reinstall an
    /// unchanged entry hits this map and skips its subgraph walk entirely.
    canon_memo: HashMap<u32, u32>,
    /// Canonical signature -> decomposition over candidate *indices*;
    /// `None` means a single symmetric component (install clears the
    /// entry's groups).
    templates: HashMap<u32, Option<Vec<PortGroup>>>,
}

impl Default for SymmetryEngine {
    fn default() -> SymmetryEngine {
        SymmetryEngine::new()
    }
}

impl SymmetryEngine {
    /// An empty engine with no cached structure.
    pub fn new() -> SymmetryEngine {
        SymmetryEngine {
            bsets: Interner::new(),
            lsets: Interner::new(),
            fps: Interner::new(),
            advance_memo: HashMap::new(),
            shift_memo: HashMap::new(),
            union_memo: HashMap::new(),
            class_memo: HashMap::new(),
            next_class: 1,
            sigs: Interner::new(),
            canon_memo: HashMap::new(),
            templates: HashMap::new(),
        }
    }

    /// Decompose every multi-candidate (switch, dst-leaf) entry of
    /// `routes` into symmetric components and install them, exactly as
    /// [`crate::install_symmetric_groups_eager`] would.
    ///
    /// Reuses any structure cached by previous installs on this engine.
    pub fn install(&mut self, topo: &Topology, routes: &mut RouteTable) -> GroupingReport {
        let start = std::time::Instant::now();
        let n_switches = topo.num_switches();
        let n_leaves = topo.num_leaves();
        let mut report = GroupingReport::default();

        // Phase 1: link classes by partition refinement over destinations.
        // `class[link] == 0` means "on no shortest path at all", matching
        // the eager score 0 for unlabeled links.
        let mut class: Vec<u32> = vec![0; topo.links().len()];
        let mut bstate: Vec<u32> = vec![0; n_switches];
        for d in 0..n_leaves as u32 {
            let levels = routes.dist_levels(d);
            bstate.fill(0);
            // Sources first: candidate edges go from level k to k-1, so by
            // the time a level is processed its prefix states are final.
            for (dist, level) in levels.iter().enumerate().rev() {
                for &a in level {
                    let mut b = bstate[a.index()];
                    // A leaf that is not the destination originates its own
                    // paths (even while relaying others': eager enumerates
                    // from every source leaf independently).
                    if dist > 0 && topo.leaf_index(a).is_some() {
                        let li = topo.leaf_index(a).unwrap();
                        let seed = self.bsets.intern(vec![(li, SOURCE_CAP)]);
                        b = self.union(b, seed);
                    }
                    if b == 0 {
                        // No shortest path reaches this switch for `d`:
                        // its candidate links stay unlabeled, exactly like
                        // the inert detour entries eager never walks.
                        continue;
                    }
                    for &p in routes.candidates(a, d) {
                        let link = topo.egress(a, p);
                        let lset = self.shift(b, link.rate_bps);
                        let li = link.id.index();
                        class[li] = self.refine(class[li], lset, d);
                        if let NodeRef::Switch(t) = link.dst {
                            let adv = self.advance(b, link.rate_bps);
                            bstate[t.index()] = self.union(bstate[t.index()], adv);
                        }
                    }
                }
            }
        }

        // Phase 2: entry fingerprints, destination first, and one
        // decomposition per distinct fingerprint.
        let mut fid: Vec<u32> = vec![0; n_switches];
        let mut seen_fids: HashSet<u32> = HashSet::new();
        let mut cand_buf: Vec<u16> = Vec::new();
        for d in 0..n_leaves as u32 {
            let levels = routes.dist_levels(d);
            for (dist, level) in levels.iter().enumerate() {
                for &a in level {
                    if dist == 0 {
                        fid[a.index()] = 0;
                        continue;
                    }
                    cand_buf.clear();
                    cand_buf.extend_from_slice(routes.candidates(a, d));
                    let mut key: FKey = Vec::with_capacity(cand_buf.len());
                    for &p in &cand_buf {
                        let link = topo.egress(a, p);
                        let child = match link.dst {
                            NodeRef::Switch(t) => fid[t.index()],
                            NodeRef::Host(_) => unreachable!("candidates are switch links"),
                        };
                        key.push((class[link.id.index()], link.rate_bps, child));
                    }
                    // All candidate subtrees identical => every score group
                    // spans every port => provably one component, nothing
                    // to walk or enumerate. Sound only because a class id
                    // stands for a full (src, dst, cf) label set — the
                    // per-destination chain in `refine`.
                    let collapsed = key.windows(2).all(|w| w[0] == w[1]);
                    let f = self.fps.intern(key);
                    fid[a.index()] = f;
                    if cand_buf.len() < 2 {
                        continue;
                    }
                    report.entries += 1;
                    let canon = if collapsed {
                        // Marker signature: "n identical subtrees". The
                        // `u32::MAX` node field can't appear in a real walk
                        // signature, whose references are visit numbers.
                        self.sigs
                            .intern(vec![(u32::MAX, cand_buf.len() as u64, u32::MAX)])
                    } else if let Some(&c) = self.canon_memo.get(&f) {
                        c
                    } else {
                        // The lazy per-entry quiver: walk this entry's
                        // candidate subgraph exactly once.
                        let sig = canonical_signature(topo, routes, a, d, &class);
                        let c = self.sigs.intern(sig);
                        self.canon_memo.insert(f, c);
                        c
                    };
                    if seen_fids.insert(canon) {
                        report.classes += 1;
                    } else {
                        report.entries_reused += 1;
                    }
                    let tmpl = self.templates.entry(canon).or_insert_with(|| {
                        if collapsed {
                            None
                        } else {
                            let paths = enumerate_shortest_paths(
                                topo,
                                routes,
                                a,
                                d,
                                Quiver::DEFAULT_PATH_CAP,
                            );
                            report.paths_enumerated += paths.len() as u64;
                            let groups = group_scored_paths(paths.into_iter().map(|links| {
                                let first_port = topo.link(links[0]).src_port;
                                let idx = cand_buf
                                    .iter()
                                    .position(|&p| p == first_port)
                                    .expect("first hop is a candidate")
                                    as u16;
                                let cap = links
                                    .iter()
                                    .map(|&l| topo.link(l).rate_bps)
                                    .min()
                                    .unwrap_or(0);
                                let score =
                                    links.iter().map(|&l| class[l.index()] as u64).collect();
                                (idx, score, cap)
                            }));
                            (groups.len() > 1).then_some(groups)
                        }
                    });
                    match &*tmpl {
                        None => {
                            report.max_components = report.max_components.max(1);
                            routes.set_groups(a, d, Vec::new());
                        }
                        Some(template) => {
                            report.max_components = report.max_components.max(template.len());
                            report.asymmetric_entries += 1;
                            let groups = template
                                .iter()
                                .map(|g| PortGroup {
                                    ports: g.ports.iter().map(|&i| cand_buf[i as usize]).collect(),
                                    weight: g.weight,
                                })
                                .collect();
                            routes.set_groups(a, d, groups);
                        }
                    }
                }
            }
        }

        report.build_ns = start.elapsed().as_nanos() as u64;
        report
    }

    /// Union of two interned prefix-state sets.
    fn union(&mut self, a: u32, b: u32) -> u32 {
        if a == 0 || a == b {
            return b;
        }
        if b == 0 {
            return a;
        }
        if let Some(&id) = self.union_memo.get(&(a, b)) {
            return id;
        }
        let merged = {
            let (va, vb) = (self.bsets.get(a), self.bsets.get(b));
            let mut out: BSet = Vec::with_capacity(va.len() + vb.len());
            out.extend_from_slice(va);
            out.extend_from_slice(vb);
            out.sort_unstable();
            out.dedup();
            out
        };
        let id = self.bsets.intern(merged);
        self.union_memo.insert((a, b), id);
        id
    }

    /// Clamp every prefix bottleneck to `rate` (the state after crossing a
    /// link of that rate), mirroring `bottleneck.min(rate)` in the eager
    /// builder.
    fn advance(&mut self, b: u32, rate: u64) -> u32 {
        if let Some(&id) = self.advance_memo.get(&(b, rate)) {
            return id;
        }
        let advanced = {
            let mut out: BSet = self
                .bsets
                .get(b)
                .iter()
                .map(|&(s, cap)| (s, cap.min(rate)))
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        };
        let id = self.bsets.intern(advanced);
        self.advance_memo.insert((b, rate), id);
        id
    }

    /// The label restriction a prefix-state set induces on a link of
    /// `rate`: `(src, Source)` for path-starting prefixes, else
    /// `(src, cf(bottleneck, rate))` — exactly the eager per-path labels,
    /// aggregated as a set.
    fn shift(&mut self, b: u32, rate: u64) -> u32 {
        if let Some(&id) = self.shift_memo.get(&(b, rate)) {
            return id;
        }
        let shifted = {
            let mut out: LSet = self
                .bsets
                .get(b)
                .iter()
                .map(|&(s, cap)| {
                    let cf = if cap == SOURCE_CAP {
                        CapFactor::Source
                    } else {
                        CapFactor::ratio(cap, rate)
                    };
                    (s, cf)
                })
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        };
        let id = self.lsets.intern(shifted);
        self.shift_memo.insert((b, rate), id);
        id
    }

    /// Partition-refine a link class by destination `d`'s restriction.
    /// The chain is per destination: two links stay merged only if they
    /// received the same restriction *for the same `d`* at every step.
    /// Fresh ids never collide with pre-refinement ids, so links *not*
    /// labeled for this destination (which keep their class) can never
    /// stay merged with links that were.
    fn refine(&mut self, class: u32, lset: u32, d: u32) -> u32 {
        if let Some(&id) = self.class_memo.get(&(class, lset, d)) {
            return id;
        }
        let id = self.next_class;
        self.next_class += 1;
        self.class_memo.insert((class, lset, d), id);
        id
    }
}

/// Canonical preorder serialization of one entry's candidate subgraph:
/// nodes numbered by first visit, link classes renumbered by first
/// occurrence. Each node contributes a `(u32::MAX, arity, visit_no)`
/// header followed by one `(renumbered class, rate_bps, child visit_no)`
/// tuple per candidate, with a newly visited child's block interleaved
/// right after its edge (preorder), so the encoding is prefix-unambiguous.
///
/// Two entries with equal signatures have isomorphic class-labeled
/// candidate DAGs (candidate order preserved), hence identical unrolled
/// path trees up to a consistent renaming of class ids — and path-score
/// grouping only depends on the *equality pattern* of scores, so their
/// decompositions in candidate-index space coincide, weights included
/// (capacities come from the rates, which the signature carries verbatim).
fn canonical_signature(
    topo: &Topology,
    routes: &RouteTable,
    entry: SwitchId,
    dst_leaf: u32,
    class: &[u32],
) -> FKey {
    let mut node_no: HashMap<u32, u32> = HashMap::new();
    let mut class_no: HashMap<u32, u32> = HashMap::new();
    let mut sig: FKey = Vec::new();
    node_no.insert(entry.0, 0);
    walk(
        topo,
        routes,
        entry,
        dst_leaf,
        class,
        &mut node_no,
        &mut class_no,
        &mut sig,
    );
    sig
}

#[allow(clippy::too_many_arguments)]
fn walk(
    topo: &Topology,
    routes: &RouteTable,
    s: SwitchId,
    dst_leaf: u32,
    class: &[u32],
    node_no: &mut HashMap<u32, u32>,
    class_no: &mut HashMap<u32, u32>,
    sig: &mut FKey,
) {
    let cands = routes.candidates(s, dst_leaf);
    sig.push((u32::MAX, cands.len() as u64, node_no[&s.0]));
    for &p in cands {
        let link = topo.egress(s, p);
        let next_class_no = class_no.len() as u32;
        let cn = *class_no
            .entry(class[link.id.index()])
            .or_insert(next_class_no);
        let t = match link.dst {
            NodeRef::Switch(t) => t,
            NodeRef::Host(_) => unreachable!("candidates are switch links"),
        };
        let (tn, first_visit) = match node_no.get(&t.0) {
            Some(&n) => (n, false),
            None => {
                let n = node_no.len() as u32;
                node_no.insert(t.0, n);
                (n, true)
            }
        };
        sig.push((cn, link.rate_bps, tn));
        if first_visit {
            walk(topo, routes, t, dst_leaf, class, node_no, class_no, sig);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::install_symmetric_groups_eager;
    use drill_net::{
        clos, leaf_spine, leaf_spine_custom, vl2, ClosSpec, LeafSpineSpec, LinkId, SwitchId,
        Vl2Spec, DEFAULT_PROP,
    };

    fn spec(spines: usize, leaves: usize) -> LeafSpineSpec {
        LeafSpineSpec {
            spines,
            leaves,
            hosts_per_leaf: 1,
            host_rate: 10_000_000_000,
            core_rate: 40_000_000_000,
            prop: DEFAULT_PROP,
        }
    }

    /// Every installed group table, as a comparable value.
    fn group_table(topo: &Topology, routes: &RouteTable) -> Vec<(u32, u32, Vec<PortGroup>)> {
        let mut out = Vec::new();
        for si in 0..topo.num_switches() {
            let s = SwitchId(si as u32);
            for d in 0..topo.num_leaves() as u32 {
                let g = routes.groups(s, d);
                if !g.is_empty() {
                    out.push((si as u32, d, g.to_vec()));
                }
            }
        }
        out
    }

    fn assert_structural_matches_eager(topo: &Topology) {
        let mut eager = RouteTable::compute(topo);
        let re = install_symmetric_groups_eager(topo, &mut eager);
        let mut structural = RouteTable::compute(topo);
        let rs = SymmetryEngine::new().install(topo, &mut structural);
        assert_eq!(
            group_table(topo, &eager),
            group_table(topo, &structural),
            "group tables must match bit-for-bit"
        );
        assert_eq!(re.entries, rs.entries);
        assert_eq!(re.asymmetric_entries, rs.asymmetric_entries);
        assert_eq!(re.max_components, rs.max_components);
        assert!(rs.classes <= rs.entries);
        assert_eq!(rs.entries_reused, rs.entries - rs.classes);
        assert!(
            rs.paths_enumerated <= re.paths_enumerated,
            "structural must never walk more paths than eager"
        );
    }

    #[test]
    fn matches_eager_on_figure4() {
        let mut topo = leaf_spine(&spec(3, 4));
        let l0 = topo.leaves()[0];
        topo.fail_switch_link(l0, SwitchId(4), 0);
        assert_structural_matches_eager(&topo);
    }

    #[test]
    fn matches_eager_on_heterogeneous_striping() {
        let s = LeafSpineSpec {
            spines: 3,
            leaves: 4,
            hosts_per_leaf: 1,
            host_rate: 10_000_000_000,
            core_rate: 10_000_000_000,
            prop: DEFAULT_PROP,
        };
        let topo = leaf_spine_custom(&s, |leaf, spine| {
            let fat = (leaf == 0 && spine <= 1) || (leaf == 1 && spine == 0);
            vec![if fat { 40_000_000_000 } else { 10_000_000_000 }]
        });
        assert_structural_matches_eager(&topo);
    }

    #[test]
    fn matches_eager_on_vl2_failure() {
        let mut topo = vl2(&Vl2Spec::paper());
        let tor0 = topo.leaves()[0];
        assert!(topo.fail_switch_link(tor0, SwitchId(16), 0));
        assert_structural_matches_eager(&topo);
    }

    #[test]
    fn matches_eager_on_clos_failures() {
        let mut topo = clos(&ClosSpec::smoke());
        // Fail one leaf-agg and one agg-core link.
        let l0 = topo.leaves()[0];
        let agg = match topo.egress(l0, 0).dst {
            NodeRef::Switch(s) => s,
            _ => unreachable!(),
        };
        assert!(topo.fail_switch_link(l0, agg, 0));
        let core = match topo.egress(agg, 2).dst {
            NodeRef::Switch(s) => s,
            _ => unreachable!(),
        };
        assert!(topo.fail_switch_link(agg, core, 0));
        assert_structural_matches_eager(&topo);
    }

    #[test]
    fn symmetric_fabrics_enumerate_zero_paths() {
        for topo in [
            leaf_spine(&spec(4, 4)),
            clos(&ClosSpec::smoke()),
            vl2(&Vl2Spec::paper()),
        ] {
            let mut routes = RouteTable::compute(&topo);
            let report = SymmetryEngine::new().install(&topo, &mut routes);
            assert_eq!(
                report.paths_enumerated, 0,
                "symmetric fabrics collapse without enumeration"
            );
            assert_eq!(report.asymmetric_entries, 0);
            assert!(report.entries > 0);
            assert!(
                report.classes < report.entries,
                "symmetric entries share classes"
            );
        }
    }

    #[test]
    fn warm_reinstall_is_incremental_and_exact() {
        let mut topo = clos(&ClosSpec::smoke());
        let mut engine = SymmetryEngine::new();
        let mut routes = RouteTable::compute(&topo);
        engine.install(&topo, &mut routes);

        // Fault: lose a leaf-agg link, reconverge.
        let l0 = topo.leaves()[0];
        let agg = match topo.egress(l0, 0).dst {
            NodeRef::Switch(s) => s,
            _ => unreachable!(),
        };
        assert!(topo.fail_switch_link(l0, agg, 0));
        let mut warm_routes = RouteTable::compute(&topo);
        let warm = engine.install(&topo, &mut warm_routes);

        let mut eager_routes = RouteTable::compute(&topo);
        install_symmetric_groups_eager(&topo, &mut eager_routes);
        assert_eq!(
            group_table(&topo, &eager_routes),
            group_table(&topo, &warm_routes),
            "warm incremental reinstall matches fresh eager"
        );
        assert!(warm.entries_reused > 0);

        // Restore: the pre-fault structure is fully cached, so the third
        // install enumerates nothing.
        assert!(topo.restore_switch_link(l0, agg, 0));
        let mut back = RouteTable::compute(&topo);
        let third = engine.install(&topo, &mut back);
        assert_eq!(third.paths_enumerated, 0, "restore replays cached work");
    }

    /// Hand-built pod-symmetric Clos: links in mirrored positions of
    /// different pods are exactly symmetric (equal label sets), pinned via
    /// the eager Quiver's `links_symmetric`/`link_score`, and the engine
    /// assigns them one class (single-component entries everywhere).
    #[test]
    fn pod_symmetric_clos_link_classes() {
        let topo = clos(&ClosSpec::smoke());
        let routes = RouteTable::compute(&topo);
        let q = Quiver::build(&topo, &routes);
        // Pods are built identically: leaf 0 of pod 0 is switch 0, leaf 0
        // of pod 1 is switch 4 (2 leaves + 2 aggs per pod).
        let pod0_leaf = topo.leaves()[0];
        let pod1_leaf = topo.leaves()[2];
        let up0: LinkId = topo.egress(pod0_leaf, 0).id;
        let up0b: LinkId = topo.egress(pod0_leaf, 1).id;
        let up1: LinkId = topo.egress(pod1_leaf, 0).id;
        // Within a pod, both agg uplinks of a leaf are symmetric.
        assert!(q.links_symmetric(up0, up0b));
        assert_eq!(q.link_score(up0), q.link_score(up0b));
        // Across pods, label sets differ (sources differ) — the same
        // *score partition* shape, but not the same labels.
        assert!(!q.links_symmetric(up0, up1));
        assert_ne!(q.link_score(up0), q.link_score(up1));
        // The engine agrees with the Quiver: symmetric uplinks land in one
        // entry class and the whole fabric stays single-component.
        let mut r2 = RouteTable::compute(&topo);
        let report = SymmetryEngine::new().install(&topo, &mut r2);
        assert_eq!(report.asymmetric_entries, 0);
        assert_eq!(report.max_components, 1);
        assert!(group_table(&topo, &r2).is_empty());
    }
}
