//! The §3.4 oracle: DRILL's asymmetry handling computed straight from the
//! paper's definition, as literally and slowly as it reads.
//!
//! §3.4.1 step 1, the Quiver: every link is labeled with the set of `(src
//! leaf, dst leaf, capacity factor)` over *all* shortest paths of *all*
//! leaf pairs crossing it. §3.4.3: for a path from `src` crossing link
//! `(a, b)`, `cf = capacity(src, a) / capacity(a, b)`, infinite when `a`
//! is the source; DESIGN.md §3 clamps it to at least 1 ("an input slower
//! than the output cannot build a queue"), which the paper's own H0 ~ H2
//! example needs. Step 2: two paths are symmetric iff equally long with
//! equal label sets hop by hop; an entry's ports split into the components
//! that induces, weighted by aggregate path capacity.
//!
//! Shares nothing with `drill-core`: its own recursive path walk, label
//! sets as `BTreeSet`s compared by equality (no hash of a set), no path
//! cap, no memo. The one thing it takes from the system under test is
//! `RouteTable::candidates` as the definition of "shortest path" —
//! including the inert detour entries of a spine that lost a leaf.

use std::collections::{BTreeMap, BTreeSet};

use drill_net::{NodeRef, PortGroup, RouteTable, SwitchId, Topology};

/// A label's capacity factor: `None` when the link leaves the path's
/// source (cf = ∞), else the reduced fraction `max(1, upstream / rate)`.
pub type Cf = Option<(u64, u64)>;
/// One link's label set: `(src leaf, dst leaf, cf)` triples.
pub type Labels = BTreeSet<(u32, u32, Cf)>;

/// What §3.4 prescribes for one fabric.
#[derive(Default)]
pub struct Oracle {
    /// Every link's label set, by `LinkId::index()`; empty for a link on
    /// no leaf-to-leaf shortest path.
    pub labels: Vec<Labels>,
    /// `(switch, dst leaf, groups)` for every entry that splits into more
    /// than one component, in (switch, dst) order.
    pub table: Vec<(u32, u32, Vec<PortGroup>)>,
    /// Entries with at least two candidate ports.
    pub entries: usize,
    /// Of those, the ones in `table`.
    pub asymmetric_entries: usize,
    /// Most components any entry has.
    pub max_components: usize,
    /// Entry-local paths walked over all `entries`.
    pub entry_paths: u64,
}

/// Every shortest path from `at` to leaf `dst`, as link indices.
fn paths(topo: &Topology, routes: &RouteTable, at: SwitchId, dst: u32) -> Vec<Vec<usize>> {
    if topo.leaf_index(at) == Some(dst) {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for &port in routes.candidates(at, dst) {
        let link = topo.egress(at, port);
        if let NodeRef::Switch(next) = link.dst {
            for mut path in paths(topo, routes, next, dst) {
                path.insert(0, link.id.index());
                out.push(path);
            }
        }
    }
    out
}

fn gcd(a: u128, b: u128) -> u128 {
    match b {
        0 => a,
        _ => gcd(b, a % b),
    }
}

/// Label the fabric and decompose every multi-candidate entry.
pub fn solve(topo: &Topology, routes: &RouteTable) -> Oracle {
    let rate = |l: usize| topo.links()[l].rate_bps;
    let leaves = topo.num_leaves() as u32;
    let mut labels = vec![Labels::new(); topo.links().len()];
    for src in 0..leaves {
        for dst in (0..leaves).filter(|&d| d != src) {
            for path in paths(topo, routes, topo.leaves()[src as usize], dst) {
                // Capacity of the path so far: `None` at the source.
                let mut upstream: Option<u64> = None;
                for &l in &path {
                    let cf = upstream.map(|up| {
                        let up = up.max(rate(l)); // the clamp: cf >= 1
                        let g = gcd(up as u128, rate(l) as u128) as u64;
                        (up / g, rate(l) / g)
                    });
                    labels[l].insert((src, dst, cf));
                    upstream = Some(upstream.map_or(rate(l), |up| up.min(rate(l))));
                }
            }
        }
    }
    let mut o = Oracle::default();
    for s in 0..topo.num_switches() as u32 {
        for dst in 0..leaves {
            if routes.candidates(SwitchId(s), dst).len() < 2 {
                continue;
            }
            let entry_paths = paths(topo, routes, SwitchId(s), dst);
            o.entries += 1;
            o.entry_paths += entry_paths.len() as u64;
            // Symmetric paths: same label sets hop by hop. Per class, the
            // first-hop ports it leaves through and its aggregate capacity.
            let mut classes: BTreeMap<Vec<&Labels>, (BTreeSet<u16>, u128)> = BTreeMap::new();
            for p in &entry_paths {
                let class = classes
                    .entry(p.iter().map(|&l| &labels[l]).collect())
                    .or_default();
                class.0.insert(topo.links()[p[0]].src_port);
                class.1 += p.iter().map(|&l| rate(l)).min().unwrap() as u128;
            }
            // The data plane splits traffic by port, so classes leaving
            // through a common port are one component.
            let mut comps: Vec<(BTreeSet<u16>, u128)> = Vec::new();
            for (mut ports, mut cap) in classes.into_values() {
                let (hit, rest): (Vec<_>, Vec<_>) =
                    comps.into_iter().partition(|c| !c.0.is_disjoint(&ports));
                for (p, c) in hit {
                    ports.extend(p);
                    cap += c;
                }
                comps = rest;
                comps.push((ports, cap));
            }
            comps.sort();
            o.max_components = o.max_components.max(comps.len());
            if comps.len() > 1 {
                o.asymmetric_entries += 1;
                let g = comps.iter().fold(0, |g, c| gcd(g, c.1));
                let groups = comps.into_iter().map(|(ports, cap)| PortGroup {
                    ports: ports.into_iter().collect(),
                    weight: (cap / g) as u64,
                });
                o.table.push((s, dst, groups.collect()));
            }
        }
    }
    o.labels = labels;
    o
}
