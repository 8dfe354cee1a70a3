//! The any-tier fault sweep every §3.4 differential test draws from: six
//! topology families × [`SEEDS`] seeds of tiny (≤ 20-switch) fabrics, up
//! to five arbitrary live switch–switch links failed on any tier and one
//! survivor degraded (so capacity factors move too).
//!
//! Shared by `tests/structural_groups.rs` (`mod support;`) and by
//! `crates/core/src/symmetry.rs`'s unit tests (`#[path]`), hence written
//! against `drill_net` / `drill_sim` by crate name.

use drill_net::{
    clos, fat_tree, leaf_spine, leaf_spine_custom, vl2, ClosSpec, LeafSpineSpec, NodeRef, SwitchId,
    Topology, Vl2Spec, DEFAULT_PROP,
};
use drill_sim::SimRng;

/// Seeds per family.
pub const SEEDS: u64 = 500;

/// Builds one family's fabric from the seed's random stream.
pub type Build = fn(&mut SimRng) -> Topology;

/// One drawn fault on the first link pair between two switches: down, or
/// degraded to `num/den` of nominal capacity.
#[derive(Clone, Copy, Debug)]
pub enum Fault {
    Down(SwitchId, SwitchId),
    Degrade(SwitchId, SwitchId, u32, u32),
}

fn ls(rng: &mut SimRng) -> LeafSpineSpec {
    LeafSpineSpec {
        spines: 2 + rng.below(4),
        leaves: 2 + rng.below(6),
        hosts_per_leaf: 2,
        host_rate: 10_000_000_000,
        core_rate: 40_000_000_000,
        prop: DEFAULT_PROP,
    }
}

/// The six families, by name.
pub const FAMILIES: [(&str, Build); 6] = [
    ("leaf_spine", |rng| leaf_spine(&ls(rng))),
    ("leaf_spine_custom", |rng| {
        let (skew, spec) = (rng.below(3), ls(rng));
        leaf_spine_custom(&spec, |l, s| {
            if (l + s) % 3 == skew {
                vec![10_000_000_000; 2]
            } else {
                vec![40_000_000_000]
            }
        })
    }),
    ("vl2", |rng| {
        let aggs = 2 + rng.below(4);
        vl2(&Vl2Spec {
            tors: 3 + rng.below(5),
            aggs,
            ints: 1 + rng.below(4),
            hosts_per_tor: 1,
            host_rate: 1_000_000_000,
            core_rate: 10_000_000_000,
            tor_uplinks: (1 + rng.below(3)).min(aggs),
            prop: DEFAULT_PROP,
        })
    }),
    ("fat_tree", |_| fat_tree(4, 10_000_000_000, DEFAULT_PROP)),
    ("fat_tree_oversub", |rng| {
        let (hosts_per_edge, rate) = (2 + rng.below(3), 10_000_000_000);
        clos(&ClosSpec::fat_tree(
            4,
            hosts_per_edge,
            rate,
            rate,
            DEFAULT_PROP,
        ))
    }),
    ("clos", |rng| {
        clos(&ClosSpec {
            pods: 2 + rng.below(3),
            leaves_per_pod: 1 + rng.below(2),
            aggs_per_pod: 2,
            cores: 2 * (1 + rng.below(2)),
            hosts_per_leaf: 1,
            ..ClosSpec::smoke()
        })
    }),
];

/// The live switch–switch link pairs of `topo`, any tier, lower id first.
fn live_switch_pairs(topo: &Topology) -> Vec<(SwitchId, SwitchId)> {
    let mut pairs: Vec<(SwitchId, SwitchId)> = topo
        .links()
        .iter()
        .filter(|l| l.up)
        .filter_map(|l| match (l.src, l.dst) {
            (NodeRef::Switch(a), NodeRef::Switch(b)) if a.0 < b.0 => Some((a, b)),
            _ => None,
        })
        .collect();
    pairs.sort_unstable_by_key(|&(a, b)| (a.0, b.0));
    pairs.dedup();
    pairs
}

/// `family`'s fabric for `seed` with its faults applied, and the faults in
/// draw order. `build(&mut SimRng::seed_from(seed))` is the same fabric
/// before them.
pub fn fabric(build: Build, seed: u64) -> (Topology, Vec<Fault>) {
    let mut rng = SimRng::seed_from(seed);
    let mut topo = build(&mut rng);
    assert!(topo.num_switches() <= 20, "sweep fabrics stay tiny");
    let mut faults = Vec::new();
    for _ in 0..rng.below(6) {
        let live = live_switch_pairs(&topo);
        if live.is_empty() {
            break;
        }
        let (a, b) = live[rng.below(live.len())];
        assert!(topo.fail_switch_link(a, b, 0));
        faults.push(Fault::Down(a, b));
    }
    let live = live_switch_pairs(&topo);
    if !live.is_empty() {
        let (a, b) = live[rng.below(live.len())];
        let (num, den) = (1 + rng.below(3) as u32, 4);
        assert!(topo.degrade_switch_link(a, b, 0, num, den));
        faults.push(Fault::Degrade(a, b, num, den));
    }
    (topo, faults)
}

/// Call `f(label, fabric)` for every seed of the family called `name`.
pub fn for_each_fabric(name: &str, mut f: impl FnMut(&str, &Topology)) {
    let (_, build) = FAMILIES
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no sweep family {name}"));
    for seed in 0..SEEDS {
        let (topo, faults) = fabric(*build, seed);
        f(&format!("{name} seed {seed} faults {faults:?}"), &topo);
    }
}
