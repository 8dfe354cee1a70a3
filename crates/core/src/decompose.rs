//! Symmetric component decomposition (§3.4.1 step 2): grouping one
//! entry's scored paths into weighted port components, and the report of
//! a fabric-wide pass.

use std::collections::HashMap;

use drill_net::PortGroup;

/// Summary of a grouping pass over the whole fabric.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupingReport {
    /// (switch, dst-leaf) entries examined (those with >1 candidate).
    pub entries: usize,
    /// Entries that decomposed into more than one symmetric component.
    pub asymmetric_entries: usize,
    /// Largest number of components in any entry.
    pub max_components: usize,
    /// Shortest paths actually enumerated: the engine only enumerates
    /// inside entries whose canonical signature is new *and* not provably
    /// one component, so this is 0 on symmetric fabrics and on a replay.
    pub paths_enumerated: u64,
    /// Distinct structural equivalence classes among the examined entries.
    pub classes: usize,
    /// Entries whose group table was replicated from an already-decomposed
    /// class representative instead of being recomputed
    /// (`entries - classes`).
    pub entries_reused: usize,
    /// Wall-clock time of the install pass, in nanoseconds.
    pub build_ns: u64,
    /// The part of `build_ns` spent refining link classes (phase 1).
    pub refine_ns: u64,
    /// The rest of `build_ns` — entry fingerprints, signature walks,
    /// templates and group installation (phase 2).
    pub fingerprint_ns: u64,
    /// Entry subgraphs walked for a canonical signature —
    /// multi-candidate entries that neither collapsed nor matched a
    /// fingerprint (or, for leaf entries, a shape) this engine has walked
    /// before.
    pub signatures_walked: u64,
    /// Values and memo entries this install added to the engine's
    /// persistent state (sets, fingerprints, signatures, classes,
    /// templates): what makes the engine grow. 0 on a replay of a fabric
    /// state the engine has installed before.
    pub values_interned: u64,
}

/// Core of the §3.4.1 step-2 decomposition: group scored paths
/// `(first_port, score, cap_bps)` — two paths are symmetric iff their
/// scores are equal — into symmetric components of ports, weighted by
/// aggregate capacity and gcd-reduced. A fully symmetric entry yields a
/// single group containing every port.
///
/// The "ports" need not be real egress ports — [`crate::SymmetryEngine`]
/// calls this in candidate-index space and maps indices to ports
/// afterwards; the candidate list is in ascending port order, so index
/// order and port order agree.
pub(crate) fn group_scored_paths(
    scored: impl IntoIterator<Item = (u16, Vec<u64>, u64)>,
) -> Vec<PortGroup> {
    // Group paths by score; accumulate per-group ports and capacity.
    let mut by_score: HashMap<Vec<u64>, (Vec<u16>, u128)> = HashMap::new();
    for (first_port, score, cap_bps) in scored {
        let entry = by_score.entry(score).or_default();
        if !entry.0.contains(&first_port) {
            entry.0.push(first_port);
        }
        entry.1 += cap_bps as u128;
    }
    let mut groups: Vec<(Vec<u16>, u128)> = by_score.into_values().collect();

    // A port carrying paths of two different scores cannot be split at
    // port granularity: merge such groups (conservative fallback; does not
    // occur in layered Clos fabrics, where downstream asymmetry is resolved
    // by the downstream switch's own decomposition).
    let mut merged = true;
    while merged {
        merged = false;
        'outer: for i in 0..groups.len() {
            for j in (i + 1)..groups.len() {
                if groups[i].0.iter().any(|p| groups[j].0.contains(p)) {
                    let (ports, w) = groups.swap_remove(j);
                    for p in ports {
                        if !groups[i].0.contains(&p) {
                            groups[i].0.push(p);
                        }
                    }
                    groups[i].1 += w;
                    merged = true;
                    break 'outer;
                }
            }
        }
    }

    // Deterministic order + reduced integer weights.
    for g in &mut groups {
        g.0.sort_unstable();
    }
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    let gcd_all = groups.iter().fold(0u128, |acc, g| gcd(acc, g.1.max(1)));
    groups
        .into_iter()
        .map(|(ports, w)| PortGroup {
            ports,
            weight: (w.max(1) / gcd_all.max(1)).max(1) as u64,
        })
        .collect()
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use crate::SymmetryEngine;
    use drill_net::{
        leaf_spine, leaf_spine_custom, vl2, LeafSpineSpec, RouteTable, SwitchId, Vl2Spec,
        DEFAULT_PROP,
    };

    // The paper's worked decompositions (Figure 4's 1 : 2, §3.4.3's 5 : 1)
    // are pinned in `tests/structural_groups.rs`, oracle and engine both.

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
    fn symmetric_fabric_single_group() {
        let topo = leaf_spine(&spec(4, 4));
        let mut routes = RouteTable::compute(&topo);
        let report = SymmetryEngine::new().install(&topo, &mut routes);
        assert_eq!(report.asymmetric_entries, 0);
        assert_eq!(report.max_components, 1);
        // Routing table keeps implicit single groups.
        let l0 = topo.leaves()[0];
        assert!(routes.groups(l0, 1).is_empty());
    }

    #[test]
    fn affected_leaf_keeps_symmetric_remainder() {
        // L0 itself (which lost its S0 uplink) has only S1/S2 paths left,
        // and those are symmetric with each other: a single group.
        let mut topo = leaf_spine(&spec(3, 4));
        let l0 = topo.leaves()[0];
        topo.fail_switch_link(l0, SwitchId(4), 0);
        let mut routes = RouteTable::compute(&topo);
        let report = SymmetryEngine::new().install(&topo, &mut routes);
        assert!(
            routes.groups(l0, 1).is_empty(),
            "two symmetric paths, one group"
        );
        assert_eq!(routes.candidates(l0, 1).len(), 2);
        // The install pass records the asymmetry fabric-wide. (The spine
        // that lost its L0 link gains inert 3-hop detour routes toward
        // leaf 0 which decompose into singleton components, so the
        // fabric-wide max can exceed 2.)
        assert!(report.asymmetric_entries > 0);
        assert!(report.max_components >= 2);
    }

    #[test]
    fn parallel_links_stay_one_group_when_symmetric() {
        // Figure 13-style extra parallel links, but uniform rates across
        // the fabric: leaf 0 has two links to spine 0. Both parallel links
        // carry identical labels, so everything stays one component.
        let s = spec(3, 3);
        let topo = leaf_spine_custom(&s, |leaf, spine| {
            if leaf == spine {
                vec![s.core_rate; 2]
            } else {
                vec![s.core_rate]
            }
        });
        let mut routes = RouteTable::compute(&topo);
        let report = SymmetryEngine::new().install(&topo, &mut routes);
        // The doubled striping *is* an asymmetry between spine paths:
        // paths via the doubled spine differ from singles.
        assert!(report.entries > 0);
        let l0 = topo.leaves()[0];
        let groups = routes.groups(l0, 1);
        if !groups.is_empty() {
            // Whatever the decomposition, it must partition all 4 ports.
            let total: usize = groups.iter().map(|g| g.ports.len()).sum();
            assert_eq!(total, routes.candidates(l0, 1).len());
        }
    }

    #[test]
    fn vl2_failure_decomposes_at_remote_tor() {
        // Figure 5 analog: fail a ToR-Agg link and check that some remote
        // switch sees a multi-component decomposition.
        let mut topo = vl2(&Vl2Spec::paper());
        let tor0 = topo.leaves()[0];
        // ToR0's first uplink goes to Agg (id 16).
        assert!(topo.fail_switch_link(tor0, SwitchId(16), 0));
        let mut routes = RouteTable::compute(&topo);
        let report = SymmetryEngine::new().install(&topo, &mut routes);
        assert!(
            report.asymmetric_entries > 0,
            "failure creates asymmetric entries"
        );
        // Groups always partition candidates wherever installed.
        for si in 0..topo.num_switches() {
            let s = SwitchId(si as u32);
            for leaf in 0..topo.num_leaves() as u32 {
                let groups = routes.groups(s, leaf);
                if groups.is_empty() {
                    continue;
                }
                let mut all: Vec<u16> = groups
                    .iter()
                    .flat_map(|g| g.ports.iter().copied())
                    .collect();
                all.sort_unstable();
                let mut cand = routes.candidates(s, leaf).to_vec();
                cand.sort_unstable();
                assert_eq!(all, cand);
            }
        }
    }
}
