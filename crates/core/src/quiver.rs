//! Two pieces of the Quiver (§3.4.1, the labeled multidigraph recording
//! which leaf pairs traverse each fabric link): the capacity factor of an
//! edge label (§3.4.3) and shortest-path enumeration over a route table's
//! candidate sets. The Quiver itself is never materialized — see
//! [`crate::SymmetryEngine`].

use drill_net::{LinkId, NodeRef, RouteTable, SwitchId, Topology};

/// The capacity-factor component of a Quiver edge label (§3.4.3).
///
/// For a path `p` from `src` traversing link `(a, b)`, the paper defines
/// `cf(a,b,p) = capacity(src, a) / capacity(a, b)` — the rate at which
/// `src`'s traffic can build a queue at `a` toward `b` — with `cf = ∞` when
/// `a` is the source.
///
/// **Deviation note**: applying the definition verbatim breaks the paper's
/// own worked example (in Fig. 4a with L0-S0, L0-S1, L1-S0 at 40 Gbps it
/// would make H0 = L0S0L1 and H2 = L0S2L1 asymmetric, while §3.4.3 states
/// H0 ~ H2). The intent — "the rate at which traffic builds a queue" — is
/// that any `cf ≤ 1` is equivalent: an input slower than the output cannot
/// build a queue. We therefore clamp `cf` to `max(cf, 1)` and store it as a
/// reduced fraction; this reproduces every example in the paper.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub(crate) enum CapFactor {
    /// `a` is the path's source: infinite input rate.
    Source,
    /// Reduced fraction `input/output`, clamped to at least 1/1.
    Ratio(u64, u64),
}

impl CapFactor {
    /// Build a (clamped, reduced) ratio from input and output capacities.
    pub(crate) fn ratio(input_bps: u64, output_bps: u64) -> CapFactor {
        assert!(output_bps > 0);
        if input_bps <= output_bps {
            return CapFactor::Ratio(1, 1);
        }
        let g = gcd(input_bps, output_bps);
        CapFactor::Ratio(input_bps / g, output_bps / g)
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Enumerate every shortest path from `from` to leaf `dst_leaf` as link
/// sequences, following the routing table's candidate sets. `cap` bounds
/// the number of paths (guards against pathological topologies); Clos path
/// counts are small.
pub fn enumerate_shortest_paths(
    topo: &Topology,
    routes: &RouteTable,
    from: SwitchId,
    dst_leaf: u32,
    cap: usize,
) -> Vec<Vec<LinkId>> {
    let mut out = Vec::new();
    let mut path = Vec::new();
    dfs(topo, routes, from, dst_leaf, cap, &mut path, &mut out);
    out
}

fn dfs(
    topo: &Topology,
    routes: &RouteTable,
    cur: SwitchId,
    dst_leaf: u32,
    cap: usize,
    path: &mut Vec<LinkId>,
    out: &mut Vec<Vec<LinkId>>,
) {
    if out.len() >= cap {
        return;
    }
    if topo.leaf_index(cur) == Some(dst_leaf) {
        out.push(path.clone());
        return;
    }
    for &port in routes.candidates(cur, dst_leaf) {
        let link = topo.egress(cur, port);
        if let NodeRef::Switch(next) = link.dst {
            path.push(link.id);
            dfs(topo, routes, next, dst_leaf, cap, path, out);
            path.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drill_net::{leaf_spine, LeafSpineSpec, DEFAULT_PROP};

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

    #[test]
    fn cap_factor_clamps_and_reduces() {
        assert_eq!(CapFactor::ratio(10, 40), CapFactor::Ratio(1, 1));
        assert_eq!(CapFactor::ratio(40, 40), CapFactor::Ratio(1, 1));
        assert_eq!(CapFactor::ratio(40, 10), CapFactor::Ratio(4, 1));
        assert_eq!(CapFactor::ratio(30, 20), CapFactor::Ratio(3, 2));
    }

    #[test]
    fn path_enumeration_counts() {
        let topo = leaf_spine(&spec(4, 3));
        let routes = RouteTable::compute(&topo);
        let l0 = topo.leaves()[0];
        let paths = enumerate_shortest_paths(&topo, &routes, l0, 1, 1024);
        assert_eq!(paths.len(), 4, "one per spine");
        for p in &paths {
            assert_eq!(p.len(), 2, "leaf-spine-leaf");
        }
    }

    #[test]
    fn path_cap_truncates() {
        let topo = leaf_spine(&spec(8, 2));
        let routes = RouteTable::compute(&topo);
        let l0 = topo.leaves()[0];
        let paths = enumerate_shortest_paths(&topo, &routes, l0, 1, 3);
        assert_eq!(paths.len(), 3);
    }
}
