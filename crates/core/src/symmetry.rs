//! Structural §3.4 control plane: symmetry-class decomposition with lazy
//! per-entry quivers and incremental reconvergence.
//!
//! Read literally, §3.4.1 enumerates every leaf-to-leaf shortest path to
//! label the global Quiver, then every entry's paths again to decompose
//! it — O(leaves² × paths) time and memory, ~67M paths and gigabytes of
//! labels at a k=32 fat-tree. The [`SymmetryEngine`] produces the **exact
//! group tables that definition prescribes** (checked against a literal
//! transcription of it, `tests/support/oracle.rs`) from the structure of
//! the candidate DAG instead:
//!
//! 1. **Link classes** (the Quiver, without materializing it). For one
//!    destination leaf `d`, the labels the definition places on a link are
//!    the image of the set of *prefix states* reaching its tail: every
//!    shortest path from a source leaf arrives with a `(src_leaf,
//!    bottleneck)` pair, and the link's label restriction is `{(src,
//!    cf(bottleneck, rate))}`.
//!    Candidate edges always point from hop distance `k` to `k-1`
//!    ([`RouteTable::dist_levels`]), so propagating interned prefix-state
//!    sets down the levels visits each candidate edge exactly once and
//!    yields, per destination, each link's label restriction — without
//!    enumerating a single path. Links are then partition-refined over
//!    destinations, the refinement chain keyed by destination: two links
//!    end in the same class iff every per-destination restriction
//!    matches, i.e. iff their full label sets are equal — exactly the
//!    paper's `ℓ1 ~ ℓ2`, with no score hash that could collide. Set
//!    operations are memoized on interned
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
//!    subgraph is walked (the lazy per-entry quiver — peak memory is one
//!    entry's subgraph, never the fabric's) — at most once per exact
//!    fingerprint, and for leaf entries at most once per *shape*
//!    ([`leaf_shape`]: the leaves of a pod reach a destination through
//!    the same children, so one walk serves them all) — producing
//!    a *canonical* signature with class ids renumbered by first
//!    occurrence: the decomposition only depends on the equality pattern
//!    of scores, which is invariant under consistent renaming, so entries
//!    in mirrored positions of different pods collapse to one canonical
//!    class. Each canonical class is decomposed once, on its first
//!    representative, and the resulting groups are stored as a template
//!    over candidate indices, replicated to every entry of the class.
//!    Candidates are in ascending port order, so mapping index groups
//!    through an entry's candidate list keeps groups sorted by port.
//! 3. **Incremental reconvergence.** All interners, set-operation memos,
//!    class-refinement chains, and decomposition templates are
//!    content-addressed and persist across installs. After a fault, the
//!    propagation replays mostly memo hits; only entries whose fingerprint
//!    actually changed (their candidate set or a downstream link's
//!    class/rate moved) miss the template cache and get re-decomposed.

use std::collections::hash_map::Entry;
use std::mem::size_of;
use std::time::Instant;

use drill_net::{NodeRef, PortGroup, RouteTable, SwitchId, Topology};
use drill_sim::{FxHashMap, FxHashSet};

use crate::decompose::{group_scored_paths, GroupingReport};
use crate::quiver::{enumerate_shortest_paths, CapFactor};

/// Sentinel bottleneck meaning "the path starts here" — the rate id no
/// real rate gets: the first link of a path maps to [`CapFactor::Source`]
/// and `min(∞, rate) = rate` thereafter.
const SOURCE_CAP: u32 = u32::MAX;

// Rates and capacity factors are stored as dense ids into engine-owned
// tables ([`Ids`]), so every element of an interned set is 8 bytes. Only
// set *identity* is ever read — sets are compared, never decoded or
// ordered by value — and ids are stable for the engine's lifetime, so
// equal sets stay equal and class numbering, which follows traversal
// order, is untouched.

/// A prefix state: traffic from leaf `.0` arrives with bottleneck rate id
/// `.1`.
type BSet = Vec<(u32, u32)>;
/// A link's per-destination label restriction: `(src_leaf, cap-factor id)`.
type LSet = Vec<(u32, u32)>;
/// One candidate of an entry fingerprint: `(link class, rate id, child
/// fingerprint)`. Canonical signatures reuse the same tuple shape (see
/// [`Walker::signature`]).
type Tuple = (u32, u32, u32);
/// An entry fingerprint: one [`Tuple`] per candidate, in candidate order.
type FKey = Vec<Tuple>;

/// Elements per [`Interner`] page: 4–6 KB, so the engine of a 20-switch
/// fabric stays a few pages (4096 showed as +0.5 MB of peak RSS on a sweep
/// of small worlds) and a 16k-host one still makes a few thousand
/// allocations where one per value made 150 000.
const PAGE: usize = 512;

/// An element of an interned value: ids, handed to the value's hash as
/// one 64-bit word and a second word of at most 32 bits.
trait Elem: Copy + Eq {
    fn words(self) -> (u64, u64);
}

impl Elem for u32 {
    fn words(self) -> (u64, u64) {
        (u64::from(self), 0)
    }
}

impl Elem for (u32, u32) {
    fn words(self) -> (u64, u64) {
        (u64::from(self.0) | u64::from(self.1) << 32, 0)
    }
}

impl Elem for Tuple {
    fn words(self) -> (u64, u64) {
        (
            u64::from(self.0) | u64::from(self.1) << 32,
            u64::from(self.2),
        )
    }
}

/// Fold a word and a second word of at most 32 bits into `h`: one folded
/// 64×64→128-bit multiply. The right operand's constant high half keeps
/// it non-zero.
#[inline]
fn mix(h: u64, lo: u64, hi: u64) -> u64 {
    let m = u128::from(h ^ lo ^ 0x243f_6a88_85a3_08d3) * u128::from(hi ^ 0x9e37_79b9_7f4a_7c15);
    m as u64 ^ (m >> 64) as u64
}

/// Content hash of an interned value, one [`mix`] per element in two
/// independent chains, even and odd positions (a signature is hundreds of
/// tuples, hashed on every walk). Hashes only place values in the id
/// table; ids follow first-intern order, so the hash can change bucket
/// layout, never an id.
fn hash_slice<E: Elem>(val: &[E]) -> u64 {
    let (mut even, mut odd) = (val.len() as u64, 0);
    let mut pairs = val.chunks_exact(2);
    for pair in &mut pairs {
        let ((a, b), (c, d)) = (pair[0].words(), pair[1].words());
        (even, odd) = (mix(even, a, b), mix(odd, c, d));
    }
    if let [last] = pairs.remainder() {
        let (a, b) = last.words();
        even = mix(even, a, b);
    }
    mix(even, odd, 0)
}

/// An empty [`Interner`] slot.
const EMPTY: u64 = u64::MAX;

/// Content-addressed store mapping value slices to dense `u32` ids.
///
/// Values sit back to back in fixed-capacity pages that are filled once
/// and never reallocated: growing the store never copies it. (One doubling
/// buffer was tried and made the peak *worse* — while it grows, the old
/// half stays resident beside the new one.) A probe hashes the borrowed
/// slice once and copies it only on a miss. Id 0 is always the empty
/// value, so "no prefix states" and the terminal fingerprint are the zero
/// id and never need a lookup.
struct Interner<E> {
    pages: Vec<Vec<E>>,
    /// Per id: `(page, offset, len)`.
    spans: Vec<(u32, u32, u32)>,
    /// Open-addressed id table, at most half full, probed linearly from the
    /// slot the hash's top bits name. A slot is `hash >> 32 << 32 | id`:
    /// the tag rejects most other values without touching their content,
    /// and carries every bit placement reads, so growing reinserts from
    /// the slots alone, in one pass, in nearly ascending slot order.
    slots: Vec<u64>,
}

impl<E: Elem> Interner<E> {
    fn new() -> Interner<E> {
        let mut it = Interner {
            pages: Vec::new(),
            spans: Vec::new(),
            slots: vec![EMPTY; 8],
        };
        it.intern(&[]);
        it
    }

    /// Where a tag's probe starts.
    #[inline]
    fn home(&self, tag: u64) -> usize {
        (tag >> (32 - self.slots.len().trailing_zeros())) as usize
    }

    fn intern(&mut self, val: &[E]) -> u32 {
        let tag = hash_slice(val) >> 32;
        let mask = self.slots.len() - 1;
        let mut i = self.home(tag);
        while self.slots[i] != EMPTY {
            let id = self.slots[i] as u32;
            if self.slots[i] >> 32 == tag && self.get(id) == val {
                return id;
            }
            i = (i + 1) & mask;
        }
        if (self.pages.last()).is_none_or(|p| p.capacity() - p.len() < val.len()) {
            self.pages.push(Vec::with_capacity(PAGE.max(val.len())));
        }
        let last = self.pages.len() - 1;
        let page = &mut self.pages[last];
        let id = self.spans.len() as u32;
        self.spans
            .push((last as u32, page.len() as u32, val.len() as u32));
        page.extend_from_slice(val);
        self.slots[i] = tag << 32 | u64::from(id);
        if 2 * self.spans.len() > self.slots.len() {
            let old = std::mem::replace(&mut self.slots, vec![EMPTY; 2 * (mask + 1)]);
            let mask = self.slots.len() - 1;
            for slot in old.into_iter().filter(|&s| s != EMPTY) {
                let mut i = self.home(slot >> 32);
                while self.slots[i] != EMPTY {
                    i = (i + 1) & mask;
                }
                self.slots[i] = slot;
            }
        }
        id
    }

    #[inline]
    fn get(&self, id: u32) -> &[E] {
        let (page, off, len) = self.spans[id as usize];
        &self.pages[page as usize][off as usize..][..len as usize]
    }

    /// Values interned so far.
    fn len(&self) -> usize {
        self.spans.len()
    }

    fn heap_bytes(&self) -> usize {
        let paged: usize = self.pages.iter().map(Vec::capacity).sum();
        paged * size_of::<E>()
            + self.pages.capacity() * size_of::<Vec<E>>()
            + self.spans.capacity() * size_of::<(u32, u32, u32)>()
            + self.slots.capacity() * size_of::<u64>()
    }
}

/// Heap bytes of a hash map's table: one `(key, value)` and one control
/// byte a bucket, 8 buckets per 7 of capacity.
fn map_bytes<K, V, S>(m: &std::collections::HashMap<K, V, S>) -> usize {
    m.capacity() * 8 / 7 * (size_of::<(K, V)>() + 1)
}

/// Dense `u32` ids for scalars (link rates, capacity factors) that the
/// interned sets would otherwise carry inline at 8–24 bytes apiece.
struct Ids<T> {
    vals: Vec<T>,
    ids: FxHashMap<T, u32>,
}

impl<T: Copy + Eq + std::hash::Hash> Ids<T> {
    fn new() -> Ids<T> {
        Ids {
            vals: Vec::new(),
            ids: FxHashMap::default(),
        }
    }

    fn id(&mut self, v: T) -> u32 {
        if let Some(&id) = self.ids.get(&v) {
            return id;
        }
        let id = self.vals.len() as u32;
        self.vals.push(v);
        self.ids.insert(v, id);
        id
    }

    fn heap_bytes(&self) -> usize {
        self.vals.capacity() * size_of::<T>() + map_bytes(&self.ids)
    }
}

/// One switch egress port, cut to what both phases read of its link.
#[derive(Clone, Copy)]
struct Hop {
    /// The link's index.
    link: u32,
    /// The switch at the far end; `u32::MAX` for a host, which no
    /// candidate list names.
    to: u32,
    /// The link's rate id.
    rate: u32,
}

/// Every switch's egress ports as [`Hop`]s, by port, one switch's run
/// after another: following a candidate list reads one short run, not one
/// `Link` per port. Rebuilt by every install.
#[derive(Default)]
struct Ports {
    /// Per switch: index of its port 0 in `hops`.
    start: Vec<u32>,
    hops: Vec<Hop>,
}

impl Ports {
    fn build(&mut self, topo: &Topology, rates: &mut Ids<u64>) {
        // Rate ids are handed out in link order: they enter fingerprints,
        // so their order is part of what an install computes.
        let link_rate: Vec<u32> = topo.links().iter().map(|l| rates.id(l.rate_bps)).collect();
        self.start.clear();
        self.hops.clear();
        for s in 0..topo.num_switches() {
            self.start.push(self.hops.len() as u32);
            let egress = topo.egress_links(SwitchId(s as u32)).iter();
            self.hops.extend(egress.map(|&lid| {
                let link = topo.link(lid);
                let to = match link.dst {
                    NodeRef::Switch(t) => t.0,
                    NodeRef::Host(_) => u32::MAX,
                };
                let rate = link_rate[lid.index()];
                Hop {
                    link: lid.index() as u32,
                    to,
                    rate,
                }
            }));
        }
    }

    #[inline]
    fn hop(&self, s: SwitchId, port: u16) -> Hop {
        self.hops[self.start[s.index()] as usize + port as usize]
    }

    fn heap_bytes(&self) -> usize {
        self.start.capacity() * size_of::<u32>() + self.hops.capacity() * size_of::<Hop>()
    }
}

/// A switch toward one destination, with the identity of its candidate
/// list ([`RouteTable::candidate_list`]).
type Node = (SwitchId, (u32, u32));

/// One install's traversal skeleton: per destination, the switches that
/// reach it by ascending hop distance, in id order within a distance (what
/// [`RouteTable::dist_levels`] lists), each with its candidate list. A
/// destination's entries sit a row apart in the route table; both phases
/// walk this instead, so the table is read once an install.
struct Skeleton {
    /// Every destination's nodes, level after level.
    nodes: Vec<Node>,
    /// Each level's range in `nodes`, destination after destination.
    levels: Vec<(u32, u32)>,
    /// Each destination's range in `levels`: `dests[d]..dests[d + 1]`.
    dests: Vec<u32>,
}

impl Skeleton {
    fn new(routes: &RouteTable, n_switches: usize) -> Skeleton {
        let n_dests = routes.num_leaves();
        let mut skel = Skeleton {
            nodes: Vec::with_capacity(n_switches * n_dests),
            levels: Vec::new(),
            dests: Vec::with_capacity(n_dests + 1),
        };
        skel.dests.push(0);
        let mut dist = vec![0u32; n_switches];
        for d in 0..n_dests as u32 {
            // Count each level, then place its nodes at the level's offset:
            // the second pass reads lines the first one just loaded.
            let first = skel.nodes.len() as u32;
            for (s, k) in (0u32..).zip(&mut dist) {
                *k = routes.dist(SwitchId(s), d).unwrap_or(u32::MAX);
                if *k == u32::MAX {
                    continue;
                }
                let level = skel.dests[d as usize] as usize + *k as usize;
                if skel.levels.len() <= level {
                    skel.levels.resize(level + 1, (0, 0));
                }
                skel.levels[level].1 += 1;
            }
            let levels = &mut skel.levels[skel.dests[d as usize] as usize..];
            let mut end = first;
            for range in levels.iter_mut() {
                end += range.1;
                *range = (end - range.1, end - range.1);
            }
            skel.nodes.resize(end as usize, (SwitchId(0), (0, 0)));
            for (s, &k) in (0u32..).zip(&dist).filter(|(_, &k)| k != u32::MAX) {
                let range = &mut levels[k as usize];
                skel.nodes[range.1 as usize] = (SwitchId(s), routes.candidate_list(SwitchId(s), d));
                range.1 += 1;
            }
            skel.dests.push(skel.levels.len() as u32);
        }
        skel
    }

    /// Destinations covered.
    fn dests(&self) -> u32 {
        self.dests.len() as u32 - 1
    }

    /// Destination `d`'s levels, nearest first.
    fn levels(&self, d: u32) -> impl DoubleEndedIterator<Item = &[Node]> + ExactSizeIterator {
        let ranges =
            &self.levels[self.dests[d as usize] as usize..self.dests[d as usize + 1] as usize];
        ranges
            .iter()
            .map(|&(a, b)| &self.nodes[a as usize..b as usize])
    }
}

/// The structural §3.4 control plane (see module docs).
///
/// A fresh engine and a long-lived one install the same tables; keeping
/// the engine alive across [`SymmetryEngine::install`] calls additionally
/// reuses all structural work that a fault did not invalidate
/// (incremental reconvergence).
///
/// Every map is an [`FxHashMap`] and none is ever iterated, so the hasher
/// can only change bucket layout, never a group table.
pub struct SymmetryEngine {
    rates: Ids<u64>,
    cap_factors: Ids<CapFactor>,
    /// The fabric's ports, rebuilt by every install.
    ports: Ports,
    bsets: Interner<(u32, u32)>,
    lsets: Interner<(u32, u32)>,
    fps: Interner<Tuple>,
    /// `(bset, rate id)` -> what crossing a link of that rate makes of
    /// those prefixes: `(lset they induce on it, bset on its far side)`.
    cross_memo: FxHashMap<(u32, u32), (u32, u32)>,
    /// `(bset, bset)` -> set union.
    union_memo: FxHashMap<(u32, u32), u32>,
    /// Per destination `d`: `(old class, lset)` -> refined class. A label
    /// is a `(src, dst, cf)` triple and an `lset` holds only its `(src,
    /// cf)` half, so each destination refines through its own table: the
    /// same restriction received for two different destinations is two
    /// different label sets. One destination's refinement touches only its
    /// own table, a few hundred keys that stay in cache. Chains are
    /// content-addressed — replaying identical per-destination
    /// restrictions yields identical final classes across installs.
    class_memo: Vec<FxHashMap<(u32, u32), u32>>,
    next_class: u32,
    /// Canonical signatures of entry subgraphs (class ids renumbered by
    /// first occurrence), in their own id space.
    sigs: Interner<Tuple>,
    /// Exact fingerprint id -> canonical signature id, dense over `fps`'
    /// ids; 0 (the empty signature, which no walk produces) means "not
    /// known yet". On a warm reinstall an unchanged entry hits this table
    /// and skips its subgraph walk entirely.
    canon_memo: Vec<u32>,
    /// Fingerprints with a known signature: the non-zero `canon_memo` slots.
    canon_known: usize,
    /// Canonical signature -> decomposition over candidate *indices*;
    /// `None` means a single symmetric component (install clears the
    /// entry's groups).
    templates: FxHashMap<u32, Option<Vec<PortGroup>>>,
    /// Leaf-entry shapes (see [`leaf_shape`]), and per shape id its
    /// canonical signature id (0: none yet): the leaves of a pod reach a
    /// destination through the same children, so one walk serves them all.
    shapes: Interner<Tuple>,
    shape_sig: Vec<u32>,
    walker: Walker,
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
            rates: Ids::new(),
            cap_factors: Ids::new(),
            ports: Ports::default(),
            bsets: Interner::new(),
            lsets: Interner::new(),
            fps: Interner::new(),
            cross_memo: FxHashMap::default(),
            union_memo: FxHashMap::default(),
            class_memo: Vec::new(),
            next_class: 1,
            sigs: Interner::new(),
            canon_memo: Vec::new(),
            canon_known: 0,
            templates: FxHashMap::default(),
            shapes: Interner::new(),
            shape_sig: Vec::new(),
            walker: Walker::default(),
        }
    }

    /// Decompose every multi-candidate (switch, dst-leaf) entry of
    /// `routes` into symmetric components and install them. Entries that
    /// remain fully symmetric get their groups cleared: the data plane
    /// then micro load balances over the whole candidate set with no
    /// hashing step, exactly as in the symmetric design.
    ///
    /// Reuses any structure cached by previous installs on this engine.
    pub fn install(&mut self, topo: &Topology, routes: &mut RouteTable) -> GroupingReport {
        let start = Instant::now();
        let mut report = GroupingReport::default();
        let values_before = self.values();
        // One traversal skeleton per destination, shared by both phases.
        let skel = Skeleton::new(routes, topo.num_switches());

        let class = self.link_classes(topo, routes, &skel);
        report.refine_ns = start.elapsed().as_nanos() as u64;

        // Phase 2: entry fingerprints, destination first, and one
        // decomposition per distinct fingerprint.
        self.walker.begin(topo.num_switches(), &class);
        let mut fid: Vec<u32> = vec![0; topo.num_switches()];
        let mut seen_fids: FxHashSet<u32> = FxHashSet::default();
        let mut cand_buf: Vec<u16> = Vec::new();
        let mut key: FKey = Vec::new();
        let mut shape: FKey = Vec::new();
        // Install by reference: a template is mapped through a candidate
        // list once per distinct (canonical class, candidate list) pair of
        // this install — a few dozen on a regular fabric — and every
        // further entry of the pair points at the table already in
        // `routes`' pool.
        let mut placed: FxHashMap<(u32, (u32, u32)), (SwitchId, u32)> = FxHashMap::default();
        // Collapse-marker signature id by candidate count (0: not interned
        // by this install yet).
        let mut markers: Vec<u32> = Vec::new();
        for d in 0..skel.dests() {
            for (dist, level) in skel.levels(d).enumerate() {
                for &(a, list) in level {
                    if dist == 0 {
                        fid[a.index()] = 0;
                        continue;
                    }
                    cand_buf.clear();
                    cand_buf.extend_from_slice(routes.candidates_of(list));
                    exact_fingerprint(&self.ports, a, &cand_buf, &class, &fid, &mut key);
                    // All candidate subtrees identical => every score group
                    // spans every port => provably one component, nothing
                    // to walk or enumerate. Sound only because a class id
                    // stands for a full (src, dst, cf) label set — the
                    // per-destination chain in `refine`.
                    let collapsed = key.windows(2).all(|w| w[0] == w[1]);
                    let f = self.fps.intern(&key);
                    fid[a.index()] = f;
                    if cand_buf.len() < 2 {
                        continue;
                    }
                    if self.canon_memo.len() <= f as usize {
                        self.canon_memo.resize(self.fps.len(), 0);
                    }
                    report.entries += 1;
                    let canon = if collapsed {
                        // Marker signature: "n identical subtrees". The
                        // `u32::MAX` node field can't appear in a real walk
                        // signature, whose references are visit numbers.
                        let n = cand_buf.len();
                        if markers.len() <= n {
                            markers.resize(n + 1, 0);
                        }
                        if markers[n] == 0 {
                            markers[n] = self.sigs.intern(&[(u32::MAX, n as u32, u32::MAX)]);
                        }
                        markers[n]
                    } else if self.canon_memo[f as usize] != 0 {
                        self.canon_memo[f as usize]
                    } else {
                        // Leaves of one pod reach `d` through the same
                        // children: try the entry's shape before walking.
                        let shape_id = topo.leaf_index(a).map(|_| {
                            leaf_shape(&self.ports, a, &cand_buf, &key, &mut shape);
                            let id = self.shapes.intern(&shape) as usize;
                            if self.shape_sig.len() <= id {
                                self.shape_sig.resize(self.shapes.len(), 0);
                            }
                            id
                        });
                        let known = shape_id.map_or(0, |id| self.shape_sig[id]);
                        let c = if known != 0 {
                            known
                        } else {
                            // The lazy per-entry quiver: walk this entry's
                            // candidate subgraph exactly once.
                            report.signatures_walked += 1;
                            let walked = self.walker.signature(&self.ports, routes, a, d);
                            let c = self.sigs.intern(walked);
                            if let Some(id) = shape_id {
                                self.shape_sig[id] = c;
                            }
                            c
                        };
                        self.canon_memo[f as usize] = c;
                        self.canon_known += 1;
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
                            // Entry-local and small: (k/2)² paths in a
                            // k-ary fat-tree, so no cap.
                            let paths = enumerate_shortest_paths(topo, routes, a, d, usize::MAX);
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
                            match placed.entry((canon, list)) {
                                Entry::Occupied(first) => routes.share_groups(a, d, *first.get()),
                                Entry::Vacant(slot) => {
                                    let groups = template
                                        .iter()
                                        .map(|g| PortGroup {
                                            ports: g
                                                .ports
                                                .iter()
                                                .map(|&i| cand_buf[i as usize])
                                                .collect(),
                                            weight: g.weight,
                                        })
                                        .collect();
                                    routes.set_groups(a, d, groups);
                                    slot.insert((a, d));
                                }
                            }
                        }
                    }
                }
            }
        }

        report.values_interned = (self.values() - values_before) as u64;
        report.build_ns = start.elapsed().as_nanos() as u64;
        report.fingerprint_ns = report.build_ns - report.refine_ns;
        report
    }

    /// Everything the engine keeps across installs, counted: interned
    /// values, memo entries, classes. Grows only when an install meets
    /// structure it has not seen.
    fn values(&self) -> usize {
        self.rates.vals.len()
            + self.cap_factors.vals.len()
            + self.bsets.len()
            + self.lsets.len()
            + self.fps.len()
            + self.sigs.len()
            + self.cross_memo.len()
            + self.union_memo.len()
            + self.class_memo.iter().map(|m| m.len()).sum::<usize>()
            + self.canon_known
            + self.templates.len()
            + (self.shapes.len() - 1)
    }

    /// Heap bytes the engine holds (capacities × element sizes, hash maps
    /// at one entry and one control byte a bucket). Host-side accounting:
    /// it enters no fingerprint.
    pub fn heap_bytes(&self) -> usize {
        let w = &self.walker;
        self.rates.heap_bytes()
            + self.cap_factors.heap_bytes()
            + self.ports.heap_bytes()
            + self.bsets.heap_bytes()
            + self.lsets.heap_bytes()
            + self.fps.heap_bytes()
            + self.sigs.heap_bytes()
            + map_bytes(&self.cross_memo)
            + map_bytes(&self.union_memo)
            + self.class_memo.iter().map(map_bytes).sum::<usize>()
            + self.class_memo.capacity() * size_of::<FxHashMap<(u32, u32), u32>>()
            + self.canon_memo.capacity() * size_of::<u32>()
            + map_bytes(&self.templates)
            + self.shapes.heap_bytes()
            + self.shape_sig.capacity() * size_of::<u32>()
            + (w.nodes.capacity() + w.classes.capacity()) * size_of::<(u32, u32)>()
            + w.dense.capacity() * size_of::<u32>()
            + w.sig.capacity() * size_of::<Tuple>()
    }

    /// Phase 1: link classes by partition refinement over destinations.
    /// `class[link] == 0` means "on no shortest path at all": an empty
    /// label set.
    fn link_classes(&mut self, topo: &Topology, routes: &RouteTable, skel: &Skeleton) -> Vec<u32> {
        self.ports.build(topo, &mut self.rates);
        let mut class: Vec<u32> = vec![0; topo.links().len()];
        let mut bstate: Vec<u32> = vec![0; topo.num_switches()];
        let n_dests = skel.dests() as usize;
        if self.class_memo.len() < n_dests {
            self.class_memo.resize_with(n_dests, FxHashMap::default);
        }
        // Each leaf's own path-start state.
        let seeds: Vec<u32> = (0..n_dests as u32)
            .map(|li| self.bsets.intern(&[(li, SOURCE_CAP)]))
            .collect();
        for d in 0..skel.dests() {
            bstate.fill(0);
            // Sources first: candidate edges go from level k to k-1, so by
            // the time a level is processed its prefix states are final.
            for (dist, level) in skel.levels(d).enumerate().rev() {
                for &(a, list) in level {
                    let mut b = bstate[a.index()];
                    // A leaf that is not the destination originates its own
                    // paths (even while relaying others': §3.4.1 labels
                    // over every source leaf's paths independently).
                    if let Some(li) = topo.leaf_index(a).filter(|_| dist > 0) {
                        b = self.union(b, seeds[li as usize]);
                    }
                    if b == 0 {
                        // No shortest path reaches this switch for `d`:
                        // its candidate links stay unlabeled — the inert
                        // detour entries no leaf-to-leaf path crosses.
                        continue;
                    }
                    // Every candidate crosses with the same `b`, nearly all
                    // at one rate, and sibling links and children tend to
                    // stand where their neighbours do: each memo is probed
                    // only when its key differs from the previous edge's.
                    let mut crossed = (u32::MAX, (0, 0));
                    let mut refined = ((u32::MAX, 0), 0);
                    let mut joined = ((u32::MAX, 0), 0);
                    for &p in routes.candidates_of(list) {
                        let hop = self.ports.hop(a, p);
                        if crossed.0 != hop.rate {
                            crossed = (hop.rate, self.cross(b, hop.rate));
                        }
                        let (lset, advanced) = crossed.1;
                        let li = hop.link as usize;
                        if refined.0 != (class[li], lset) {
                            refined = ((class[li], lset), self.refine(class[li], lset, d));
                        }
                        class[li] = refined.1;
                        let t = hop.to as usize;
                        if joined.0 != (bstate[t], advanced) {
                            joined = ((bstate[t], advanced), self.union(bstate[t], advanced));
                        }
                        bstate[t] = joined.1;
                    }
                }
            }
        }
        class
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
        let merged = merge(self.bsets.get(a), self.bsets.get(b));
        let id = self.bsets.intern(&merged);
        self.union_memo.insert((a, b), id);
        id
    }

    /// Cross a link of rate id `r` with prefix states `b`. Returns the
    /// label restriction they induce on the link — `(src, Source)` for
    /// path-starting prefixes, else `(src, cf(bottleneck, rate))`, the
    /// per-path labels of §3.4.3 aggregated as a set — and the states on
    /// its far side, every bottleneck clamped to the link's rate.
    fn cross(&mut self, b: u32, r: u32) -> (u32, u32) {
        if let Some(&ids) = self.cross_memo.get(&(b, r)) {
            return ids;
        }
        let states = self.bsets.get(b);
        let rates = &self.rates.vals;
        let rate = rates[r as usize];
        let mut labels: LSet = Vec::with_capacity(states.len());
        let mut advanced: BSet = Vec::with_capacity(states.len());
        // `(bottleneck, cap-factor id)` for the few distinct bottlenecks.
        let mut cf_of: Vec<(u32, u32)> = Vec::new();
        for &(s, cap) in states {
            let starts_here = cap == SOURCE_CAP;
            let cf = match cf_of.iter().find(|c| c.0 == cap) {
                Some(&(_, cf)) => cf,
                None => {
                    let cf = self.cap_factors.id(if starts_here {
                        CapFactor::Source
                    } else {
                        CapFactor::ratio(rates[cap as usize], rate)
                    });
                    cf_of.push((cap, cf));
                    cf
                }
            };
            labels.push((s, cf));
            // min(bottleneck, rate), compared through the table: equal
            // rates share an id, so keeping `cap` on a tie is exact.
            let slower = starts_here || rates[cap as usize] > rate;
            advanced.push((s, if slower { r } else { cap }));
        }
        labels.sort_unstable();
        labels.dedup();
        advanced.sort_unstable();
        advanced.dedup();
        let ids = (self.lsets.intern(&labels), self.bsets.intern(&advanced));
        self.cross_memo.insert((b, r), ids);
        ids
    }

    /// Partition-refine a link class by destination `d`'s restriction.
    /// The chain is per destination: two links stay merged only if they
    /// received the same restriction *for the same `d`* at every step.
    /// Fresh ids never collide with pre-refinement ids, so links *not*
    /// labeled for this destination (which keep their class) can never
    /// stay merged with links that were.
    fn refine(&mut self, class: u32, lset: u32, d: u32) -> u32 {
        let next = &mut self.next_class;
        *self.class_memo[d as usize]
            .entry((class, lset))
            .or_insert_with(|| {
                *next += 1;
                *next - 1
            })
    }
}

/// The sorted, deduplicated union of two sorted, deduplicated sets: what
/// sorting and deduplicating their concatenation gives, in one pass.
fn merge(a: &[(u32, u32)], b: &[(u32, u32)]) -> BSet {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]) && b.windows(2).all(|w| w[0] < w[1]));
    let mut out: BSet = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Write entry `a`'s exact fingerprint over `cands` into `key`.
fn exact_fingerprint(
    ports: &Ports,
    a: SwitchId,
    cands: &[u16],
    class: &[u32],
    fid: &[u32],
    key: &mut FKey,
) {
    key.clear();
    key.extend(cands.iter().map(|&p| {
        let hop = ports.hop(a, p);
        (class[hop.link as usize], hop.rate, fid[hop.to as usize])
    }));
}

/// Write the *shape* of leaf entry `a`'s exact fingerprint `key` into
/// `shape`: rates and child fingerprints kept, each first-hop class
/// replaced by two candidate indices (16 bits each, ports are `u16`) — the
/// first candidate carrying the same class, and the first one reaching
/// the same child switch (which `key` leaves implicit).
///
/// Entries of equal shape decompose identically: path scores are compared
/// hop by hop, so a first-hop class only ever meets other first-hop
/// classes — whose equality pattern the shape keeps — and everything below
/// is pinned by the exact child fingerprints. They also share the
/// signature a walk would give each of them (so `classes` counts what it
/// always did) whenever `key` itself determines it. The shape forgets only
/// *which* classes the first hops carry, and a signature sees class ids
/// only through their equality pattern: among the first hops, kept, and
/// between a first hop and a deeper link, which for a leaf entry `(a, d)`
/// never holds — `a` originates its own paths, so every first-hop link is
/// labeled `(a, d, Source)`, while a link further down is reached from `a`
/// only through advanced prefixes (`Source` is never re-created: `cross`
/// clamps to a finite rate), and the per-destination chain in `refine`
/// keeps links with different restrictions for `d` in different classes.
fn leaf_shape(ports: &Ports, a: SwitchId, cands: &[u16], key: &[Tuple], shape: &mut FKey) {
    shape.clear();
    // Each candidate's child switch, parked in the child field while the
    // patterns are read off.
    shape.extend(cands.iter().map(|&p| (0, 0, ports.hop(a, p).to)));
    for i in 0..shape.len() {
        let same_class = key[..i].iter().position(|k| k.0 == key[i].0);
        let same_node = shape[..i].iter().position(|s| s.2 == shape[i].2);
        shape[i].0 = (same_class.unwrap_or(i) << 16 | same_node.unwrap_or(i)) as u32;
    }
    for (s, &(_, rate, child)) in shape.iter_mut().zip(key) {
        (s.1, s.2) = (rate, child);
    }
}

/// Scratch state of the canonical-signature walk, owned by the engine and
/// reused across walks and installs so a walk allocates nothing.
///
/// Visit and class numbers live in dense tables — one slot per switch, one
/// per distinct link class *of the current install* (so at most one per
/// link, however far `next_class` has grown) — whose slots are valid only
/// while their stamp equals the current walk's `epoch`. Starting a walk is
/// one increment, never a clear.
#[derive(Default)]
struct Walker {
    epoch: u32,
    /// Per switch: `(epoch stamped, visit number)`.
    nodes: Vec<(u32, u32)>,
    /// Per dense class: `(epoch stamped, first-occurrence number)`.
    classes: Vec<(u32, u32)>,
    /// Link -> index of its class among this install's distinct classes.
    dense: Vec<u32>,
    n_nodes: u32,
    n_classes: u32,
    sig: FKey,
}

impl Walker {
    /// Size the tables for one install's fabric and link classes.
    fn begin(&mut self, n_switches: usize, class: &[u32]) {
        let mut index: FxHashMap<u32, u32> = FxHashMap::default();
        self.dense.clear();
        self.dense.extend(class.iter().map(|&c| {
            let next = index.len() as u32;
            *index.entry(c).or_insert(next)
        }));
        // Slots surviving from an earlier install carry stamps below the
        // next epoch; fresh ones carry 0, which no walk ever uses.
        self.nodes.resize(n_switches, (0, 0));
        self.classes.resize(index.len(), (0, 0));
    }

    /// Canonical preorder serialization of one entry's candidate subgraph:
    /// nodes numbered by first visit, link classes renumbered by first
    /// occurrence. Each node contributes a `(u32::MAX, arity, visit_no)`
    /// header followed by one `(renumbered class, rate id, child
    /// visit_no)` tuple per candidate, with a newly visited child's block
    /// interleaved right after its edge (preorder), so the encoding is
    /// prefix-unambiguous.
    ///
    /// Two entries with equal signatures have isomorphic class-labeled
    /// candidate DAGs (candidate order preserved), hence identical
    /// unrolled path trees up to a consistent renaming of class ids — and
    /// path-score grouping only depends on the *equality pattern* of
    /// scores, so their decompositions in candidate-index space coincide,
    /// weights included (capacities come from the rates, which the
    /// signature carries as ids, one per distinct rate). The same
    /// invariance lets the walk read `dense` indices instead of class ids.
    fn signature(
        &mut self,
        ports: &Ports,
        routes: &RouteTable,
        entry: SwitchId,
        dst_leaf: u32,
    ) -> &[Tuple] {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // The counter wrapped: stamps from 2^32 walks ago would read
            // as current, so, this once, the tables really are cleared.
            self.nodes.fill((0, 0));
            self.classes.fill((0, 0));
            self.epoch = 1;
        }
        self.sig.clear();
        self.nodes[entry.index()] = (self.epoch, 0);
        self.n_nodes = 1;
        self.n_classes = 0;
        self.walk(ports, routes, entry, dst_leaf);
        &self.sig
    }

    fn walk(&mut self, ports: &Ports, routes: &RouteTable, s: SwitchId, dst_leaf: u32) {
        let cands = routes.candidates(s, dst_leaf);
        self.sig
            .push((u32::MAX, cands.len() as u32, self.nodes[s.index()].1));
        for &p in cands {
            let hop = ports.hop(s, p);
            let class = &mut self.classes[self.dense[hop.link as usize] as usize];
            if class.0 != self.epoch {
                *class = (self.epoch, self.n_classes);
                self.n_classes += 1;
            }
            let cn = class.1;
            let node = &mut self.nodes[hop.to as usize];
            let first_visit = node.0 != self.epoch;
            if first_visit {
                *node = (self.epoch, self.n_nodes);
                self.n_nodes += 1;
            }
            self.sig.push((cn, hop.rate, node.1));
            if first_visit {
                self.walk(ports, routes, SwitchId(hop.to), dst_leaf);
            }
        }
    }
}

/// The any-tier fault sweep `tests/structural_groups.rs` draws from (it
/// also reads the drawn faults back; this module only walks the fabrics).
#[cfg(test)]
#[allow(dead_code)]
#[path = "../../../tests/support/sweep.rs"]
mod sweep;

#[cfg(test)]
mod tests {
    use super::*;
    use drill_net::{clos, leaf_spine, vl2, ClosSpec, LeafSpineSpec, Vl2Spec, DEFAULT_PROP};
    use std::collections::HashMap;

    // The group tables themselves are checked against the §3.4 oracle in
    // `tests/structural_groups.rs` (paper examples, named fabrics, the
    // failure ladder and this same sweep, cold and warm); the tests here
    // pin what only the crate can see.

    #[test]
    fn interner_pages_keep_every_value_whole() {
        let mut it: Interner<u32> = Interner::new();
        assert_eq!(it.intern(&[]), 0);
        // 100-element values never straddle a page boundary; one larger
        // than a page gets a page of its own.
        let value = |i: u32| -> Vec<u32> { (0..100).map(|k| i * 1000 + k).collect() };
        let ids: Vec<u32> = (0..300).map(|i| it.intern(&value(i))).collect();
        let big: Vec<u32> = (0..PAGE as u32 + 7).collect();
        let big_id = it.intern(&big);
        assert_eq!(
            ids,
            (1..=300).collect::<Vec<u32>>(),
            "dense, in first-seen order"
        );
        for (i, &id) in (0..).zip(&ids) {
            assert_eq!(it.get(id), &value(i)[..]);
            assert_eq!(it.intern(&value(i)), id, "a second probe is a hit");
        }
        assert_eq!(it.intern(&big), big_id);
        assert_eq!(it.get(big_id), &big[..]);
        assert_eq!(it.len(), 302);
        assert!(it.pages.iter().all(|p| p.len() <= p.capacity()));
        assert_eq!(it.pages.len(), 300usize.div_ceil(PAGE / 100) + 1);
    }

    #[test]
    fn union_merges_to_the_sorted_concatenation() {
        // Sorted, deduplicated sets of `n` draws below `span`, from `base`.
        let draw = |rng: &mut drill_sim::SimRng, n: usize, base: u32, span: usize| -> BSet {
            let mut set: BSet = (0..n)
                .map(|_| (base + rng.below(span) as u32, rng.below(3) as u32))
                .collect();
            set.sort_unstable();
            set.dedup();
            set
        };
        let mut rng = drill_sim::SimRng::seed_from(0x4E46);
        let mut engine = SymmetryEngine::new();
        for case in 0..2_000 {
            let (n, m) = (rng.below(40), 1 + rng.below(40));
            let a = draw(&mut rng, n, 0, 64);
            let b = match case % 5 {
                0 => BSet::new(),
                1 => a.clone(),
                2 => draw(&mut rng, m, 64, 64), // disjoint, above
                3 => draw(&mut rng, m, 0, 64),  // interleaved
                _ => a.iter().copied().filter(|_| rng.chance(0.5)).collect(), // nested
            };
            let mut want = [&a[..], &b[..]].concat();
            want.sort_unstable();
            want.dedup();
            assert_eq!(merge(&a, &b), want, "{a:?} + {b:?}");
            assert_eq!(merge(&b, &a), want, "{b:?} + {a:?}");
            let (ia, ib) = (engine.bsets.intern(&a), engine.bsets.intern(&b));
            let id = engine.bsets.intern(&want);
            assert_eq!(engine.union(ia, ib), id, "{a:?} + {b:?}");
            assert_eq!(engine.union(ib, ia), id, "{b:?} + {a:?}");
        }
    }

    #[test]
    fn skeleton_lists_the_levels_and_candidates_of_every_destination() {
        for (family, _) in sweep::FAMILIES {
            sweep::for_each_fabric(family, |label, topo| {
                let routes = RouteTable::compute(topo);
                let skel = Skeleton::new(&routes, topo.num_switches());
                assert_eq!(skel.dests() as usize, topo.num_leaves(), "{label}");
                for d in 0..skel.dests() {
                    let switches: Vec<Vec<SwitchId>> = skel
                        .levels(d)
                        .map(|level| level.iter().map(|n| n.0).collect())
                        .collect();
                    assert_eq!(switches, routes.dist_levels(d), "{label}: toward {d}");
                    for &(s, list) in skel.levels(d).flatten() {
                        let want = routes.candidates(s, d);
                        assert_eq!(routes.candidates_of(list), want, "{label}: {s:?} -> {d}");
                    }
                }
            });
        }
    }

    #[test]
    fn symmetric_fabrics_enumerate_zero_paths() {
        let four_by_four = LeafSpineSpec {
            spines: 4,
            leaves: 4,
            hosts_per_leaf: 1,
            host_rate: 10_000_000_000,
            core_rate: 40_000_000_000,
            prop: DEFAULT_PROP,
        };
        for topo in [
            leaf_spine(&four_by_four),
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
    fn warm_reinstall_is_incremental() {
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

        assert!(warm.entries_reused > 0);

        // Restore: the pre-fault structure is fully cached, so the third
        // install enumerates nothing.
        assert!(topo.restore_switch_link(l0, agg, 0));
        let mut back = RouteTable::compute(&topo);
        let third = engine.install(&topo, &mut back);
        assert_eq!(third.paths_enumerated, 0, "restore replays cached work");
        assert_eq!(third.signatures_walked, 0, "restore walks no subgraph");
        assert!(warm.signatures_walked > 0, "the new failure did");
    }

    /// The `HashMap`-based canonical walk the scratch-table [`Walker`]
    /// replaced, kept verbatim as its differential reference.
    fn reference_signature(
        topo: &Topology,
        routes: &RouteTable,
        entry: SwitchId,
        dst_leaf: u32,
        class: &[u32],
        rate_id: &HashMap<u64, u32>,
    ) -> FKey {
        let mut node_no: HashMap<u32, u32> = HashMap::new();
        let mut class_no: HashMap<u32, u32> = HashMap::new();
        let mut sig: FKey = Vec::new();
        node_no.insert(entry.0, 0);
        reference_walk(
            topo,
            routes,
            entry,
            dst_leaf,
            class,
            rate_id,
            &mut node_no,
            &mut class_no,
            &mut sig,
        );
        sig
    }

    #[allow(clippy::too_many_arguments)]
    fn reference_walk(
        topo: &Topology,
        routes: &RouteTable,
        s: SwitchId,
        dst_leaf: u32,
        class: &[u32],
        rate_id: &HashMap<u64, u32>,
        node_no: &mut HashMap<u32, u32>,
        class_no: &mut HashMap<u32, u32>,
        sig: &mut FKey,
    ) {
        let cands = routes.candidates(s, dst_leaf);
        sig.push((u32::MAX, cands.len() as u32, node_no[&s.0]));
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
            sig.push((cn, rate_id[&link.rate_bps], tn));
            if first_visit {
                reference_walk(
                    topo, routes, t, dst_leaf, class, rate_id, node_no, class_no, sig,
                );
            }
        }
    }

    /// What [`check_walks`] learned about leaf shapes: shape -> signature,
    /// and the same with one field of every shape tuple blanked.
    #[derive(Default)]
    struct ShapeLedger {
        full: HashMap<FKey, FKey>,
        blanked: [HashMap<FKey, FKey>; 4],
        ambiguous: [bool; 4],
    }

    /// Replay phase 2's traversal on `engine` and demand, for every
    /// multi-candidate entry, that the scratch-table walk returns exactly
    /// the reference signature; feed every walked leaf entry to `ledger`.
    fn check_walks(
        label: &str,
        engine: &mut SymmetryEngine,
        topo: &Topology,
        mut ledger: Option<&mut ShapeLedger>,
    ) -> usize {
        let routes = RouteTable::compute(topo);
        let levels: Vec<_> = (0..topo.num_leaves() as u32)
            .map(|d| routes.dist_levels(d))
            .collect();
        let class =
            engine.link_classes(topo, &routes, &Skeleton::new(&routes, topo.num_switches()));
        engine.walker.begin(topo.num_switches(), &class);
        // The engine's rate ids, read back as a plain map for the reference.
        let rate_id: HashMap<u64, u32> = (engine.rates.vals.iter().copied()).zip(0u32..).collect();
        let mut fid = vec![0u32; topo.num_switches()];
        let (mut key, mut shape, mut checked) = (FKey::new(), FKey::new(), 0);
        for (d, levels) in levels.iter().enumerate() {
            let d = d as u32;
            for &a in levels.iter().skip(1).flatten() {
                let cands = routes.candidates(a, d);
                exact_fingerprint(&engine.ports, a, cands, &class, &fid, &mut key);
                fid[a.index()] = engine.fps.intern(&key);
                if cands.len() < 2 {
                    continue;
                }
                let want = reference_signature(topo, &routes, a, d, &class, &rate_id);
                let got = engine.walker.signature(&engine.ports, &routes, a, d);
                assert_eq!(got, &want[..], "{label}: entry {}->{d}", a.0);
                checked += 1;
                let collapsed = key.windows(2).all(|w| w[0] == w[1]);
                let Some(ledger) = ledger.as_deref_mut() else {
                    continue;
                };
                if collapsed || topo.leaf_index(a).is_none() {
                    continue;
                }
                leaf_shape(&engine.ports, a, cands, &key, &mut shape);
                let known = ledger.full.entry(shape.clone()).or_insert(want.clone());
                assert_eq!(*known, want, "{label}: shape {shape:?} has two signatures");
                for field in 0..4 {
                    let mut blank = shape.clone();
                    for t in &mut blank {
                        match field {
                            0 => t.0 &= 0xFFFF,
                            1 => t.0 &= !0xFFFF,
                            2 => t.1 = 0,
                            _ => t.2 = 0,
                        }
                    }
                    let known = ledger.blanked[field].entry(blank).or_insert(want.clone());
                    ledger.ambiguous[field] |= *known != want;
                }
            }
        }
        checked
    }

    #[test]
    fn scratch_walk_matches_reference_walk_on_the_sweep() {
        // One warm engine lives across the sweep and really installs on
        // every fabric, so its tables are resized back and forth and carry
        // the stamps of earlier walks; the cold one starts from nothing.
        let mut warm = SymmetryEngine::new();
        let mut ledger = ShapeLedger::default();
        let mut checked = 0;
        for (family, _) in sweep::FAMILIES {
            sweep::for_each_fabric(family, |label, topo| {
                checked += check_walks(label, &mut SymmetryEngine::new(), topo, None);
                warm.install(topo, &mut RouteTable::compute(topo));
                check_walks(label, &mut warm, topo, Some(&mut ledger));
            });
        }
        assert!(checked > 50_000, "sweep compared only {checked} entries");
        // The shape memo's key, field by field: the warm engine's ids are
        // comparable across the sweep, every shape mapped to one signature
        // (asserted above), and no field can go — blanking any of them
        // makes some shape stand for two different signatures.
        let fields = ["class pattern", "node pattern", "rate", "child fingerprint"];
        for (name, needed) in fields.iter().zip(ledger.ambiguous) {
            assert!(needed, "no sweep entry needs the shape's {name}");
        }
    }

    #[test]
    fn walk_epoch_wraparound_clears_stale_stamps() {
        let mut topo = clos(&ClosSpec::smoke());
        let l0 = topo.leaves()[0];
        let agg = match topo.egress(l0, 0).dst {
            NodeRef::Switch(s) => s,
            _ => unreachable!(),
        };
        assert!(topo.fail_switch_link(l0, agg, 0));
        let mut engine = SymmetryEngine::new();
        // Plant stamps 1..n, then jump to the brink: the walks that follow
        // cross u32::MAX and reuse epochs 1..n on slots still holding them.
        let n = check_walks("low epochs", &mut engine, &topo, None);
        assert!(n > 8 && (engine.walker.epoch as usize) == n);
        engine.walker.epoch = u32::MAX - 3;
        check_walks("across the wrap", &mut engine, &topo, None);
        assert_eq!(
            engine.walker.epoch as usize,
            n - 3,
            "counter wrapped past 0"
        );
    }
}
