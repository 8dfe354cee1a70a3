//! [`RouteTable`] against its definition, through the public API only, so
//! the check is independent of how the table is laid out: distances are
//! the unique solution of `d(leaf) = 0`, `d(s) = 1 + min d(neighbour)`
//! over up links; an entry's candidates are the up ports whose neighbour
//! is one hop closer, ascending; `dist_levels` is a per-entry `dist()`
//! scan.

use drill_net::{
    leaf_spine_custom, LeafSpineSpec, NodeRef, RouteTable, SwitchId, SwitchKind, Topology,
    DEFAULT_PROP,
};
use drill_sim::Time;

#[allow(dead_code)]
#[path = "../../../tests/support/sweep.rs"]
mod sweep;

/// Up egress `(port, neighbour switch)` pairs of `s`, in port order.
fn up_neighbours(topo: &Topology, s: SwitchId) -> impl Iterator<Item = (u16, SwitchId)> + '_ {
    (topo.egress_links(s).iter().enumerate()).filter_map(|(p, &lid)| {
        let link = topo.link(lid);
        match link.dst {
            NodeRef::Switch(t) if link.up => Some((p as u16, t)),
            _ => None,
        }
    })
}

fn check(label: &str, topo: &Topology) -> usize {
    let rt = RouteTable::compute(topo);
    assert_eq!(rt.num_leaves(), topo.num_leaves(), "{label}");
    let mut lists = std::collections::BTreeSet::new();
    for d in 0..topo.num_leaves() as u32 {
        let mut levels: Vec<Vec<SwitchId>> = Vec::new();
        for si in 0..topo.num_switches() as u32 {
            let s = SwitchId(si);
            let nearest = up_neighbours(topo, s)
                .filter_map(|(_, t)| rt.dist(t, d))
                .min();
            let want = if topo.leaves()[d as usize] == s {
                Some(0)
            } else {
                nearest.map(|n| n + 1)
            };
            assert_eq!(rt.dist(s, d), want, "{label}: dist {si}->{d}");
            let cands: Vec<u16> = match want {
                None | Some(0) => Vec::new(),
                Some(ds) => up_neighbours(topo, s)
                    .filter(|&(_, t)| rt.dist(t, d) == Some(ds - 1))
                    .map(|(p, _)| p)
                    .collect(),
            };
            assert_eq!(rt.candidates(s, d), &cands[..], "{label}: entry {si}->{d}");
            assert!(
                rt.groups(s, d).is_empty(),
                "{label}: fresh table has no groups"
            );
            if let Some(ds) = want {
                levels.resize_with(levels.len().max(ds as usize + 1), Vec::new);
                levels[ds as usize].push(s);
            }
            if !cands.is_empty() {
                lists.insert(cands);
            }
        }
        assert_eq!(rt.dist_levels(d), levels, "{label}: levels toward {d}");
    }
    assert_eq!(rt.distinct_cand_lists(), lists.len(), "{label}");
    topo.num_switches() * topo.num_leaves()
}

#[test]
fn route_table_matches_its_definition_on_the_sweep() {
    let mut entries = 0;
    for (family, _) in sweep::FAMILIES {
        sweep::for_each_fabric(family, |label, topo| entries += check(label, topo));
    }
    assert!(entries > 100_000, "sweep compared only {entries} entries");
}

#[test]
fn route_table_matches_its_definition_on_parallel_links_and_a_cut_off_leaf() {
    let spec = LeafSpineSpec {
        spines: 4,
        leaves: 4,
        hosts_per_leaf: 2,
        host_rate: 10_000_000_000,
        core_rate: 40_000_000_000,
        prop: DEFAULT_PROP,
    };
    let mut parallel = leaf_spine_custom(&spec, |l, s| vec![spec.core_rate; 1 + (l + s) % 3]);
    check("parallel links", &parallel);
    // One of two parallel links down leaves its twin a candidate.
    let l0 = parallel.leaves()[0];
    assert!(parallel.fail_switch_link(l0, SwitchId(5), 0));
    check("parallel links, one of a pair down", &parallel);

    let mut cut_off = Topology::new();
    let l0 = cut_off.add_switch(SwitchKind::Leaf);
    let _l1 = cut_off.add_switch(SwitchKind::Leaf);
    let s = cut_off.add_switch(SwitchKind::Spine);
    cut_off.connect_switches(l0, s, 1_000_000_000, 1_000_000_000, Time::from_nanos(10));
    check("disconnected leaf", &cut_off);
}
