//! Differential golden for the structural §3.4 control plane: on every
//! topology family the simulator can build — leaf-spine, heterogeneous
//! custom leaf-spine, VL2, fat-tree, oversubscribed fat-tree, three-tier
//! Clos — and under seeded random failure sets, the [`SymmetryEngine`]
//! must install group tables bit-identical to the eager per-pair
//! enumeration it replaced, while upholding the `GroupingReport`
//! invariants (classes never exceed entries, reuse is exactly the
//! difference, the structural walk never enumerates more paths than the
//! eager one).
//!
//! Two failure generators feed the comparison: the leaf-uplink ladder
//! (`FAILURE_SETS`, the shape the failure figures use) and a seeded sweep
//! that fails arbitrary switch–switch links on any tier and degrades one,
//! checked cold and against one warm engine reused across the whole
//! sweep.

use drill::core::{install_symmetric_groups_eager, GroupingReport, SymmetryEngine};
use drill::faults::{FaultInjector, FaultKind};
use drill::net::{
    clos, fat_tree, fat_tree_custom, leaf_spine, leaf_spine_custom, vl2, ClosSpec, LeafSpineSpec,
    NodeRef, PortGroup, RouteTable, SwitchId, Topology, Vl2Spec, DEFAULT_PROP,
};
use drill::runtime::random_leaf_spine_failures;
use drill::sim::{SimRng, Time};

fn ls_spec(spines: usize, leaves: usize) -> LeafSpineSpec {
    LeafSpineSpec {
        spines,
        leaves,
        hosts_per_leaf: 2,
        host_rate: 10_000_000_000,
        core_rate: 40_000_000_000,
        prop: DEFAULT_PROP,
    }
}

/// Every installed group table as one comparable value.
fn group_table(topo: &Topology, routes: &RouteTable) -> Vec<(u32, u32, Vec<PortGroup>)> {
    let mut out = Vec::new();
    for si in 0..topo.num_switches() as u32 {
        for d in 0..topo.num_leaves() as u32 {
            let g = routes.groups(SwitchId(si), d);
            if !g.is_empty() {
                out.push((si, d, g.to_vec()));
            }
        }
    }
    out
}

/// Assert the structural engine — cold, and `warm` if given — reproduces
/// the eager group tables bit-for-bit on `topo` and that its report holds
/// the structural invariants.
fn compare(label: &str, topo: &Topology, warm: Option<&mut SymmetryEngine>) {
    let mut eager_routes = RouteTable::compute(topo);
    let eager = install_symmetric_groups_eager(topo, &mut eager_routes);
    let eager_table = group_table(topo, &eager_routes);
    let mut cold = SymmetryEngine::new();
    let engines = [("cold", Some(&mut cold)), ("warm", warm)];
    for (temp, engine) in engines {
        let Some(engine) = engine else { continue };
        let mut structural_routes = RouteTable::compute(topo);
        let structural = engine.install(topo, &mut structural_routes);
        assert_eq!(
            eager_table,
            group_table(topo, &structural_routes),
            "{label} ({temp}): group tables diverged"
        );
        assert_eq!(eager.entries, structural.entries, "{label}: entry count");
        assert_eq!(
            eager.asymmetric_entries, structural.asymmetric_entries,
            "{label}: asymmetric entries"
        );
        assert_eq!(
            eager.max_components, structural.max_components,
            "{label}: max components"
        );
        assert!(
            structural.classes <= structural.entries,
            "{label}: more classes than entries"
        );
        assert_eq!(
            structural.entries_reused,
            structural.entries - structural.classes,
            "{label}: reuse must be exactly entries - classes"
        );
        assert!(
            structural.paths_enumerated <= eager.paths_enumerated,
            "{label}: structural walked {} paths, eager only {}",
            structural.paths_enumerated,
            eager.paths_enumerated
        );
    }
}

/// Fail `n` seeded random leaf uplinks, then [`compare`].
fn check(label: &str, mut topo: Topology, n_failures: usize, seed: u64) {
    for &(a, b) in &random_leaf_spine_failures(&topo, n_failures, seed) {
        let ok = topo.fail_switch_link(SwitchId(a), SwitchId(b), 0)
            || topo.fail_switch_link(SwitchId(b), SwitchId(a), 0);
        assert!(ok, "{label}: pair ({a},{b}) matches no live link");
    }
    compare(
        &format!("{label} (failures={n_failures}, seed={seed:#x})"),
        &topo,
        None,
    );
}

/// The live switch–switch link pairs of `topo`, any tier, one entry per
/// direction-pair.
fn live_switch_pairs(topo: &Topology) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = topo
        .links()
        .iter()
        .filter(|l| l.up)
        .filter_map(|l| match (l.src, l.dst) {
            (NodeRef::Switch(a), NodeRef::Switch(b)) if a.0 < b.0 => Some((a.0, b.0)),
            _ => None,
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Seeds per family for [`sweep_any_link`].
const SWEEP_SEEDS: u64 = 500;

/// The wide generator: per seed, build a (≤ 20-switch) fabric, fail up
/// to five arbitrary live switch–switch links on any tier and degrade one
/// survivor — all through the `FaultInjector`, so capacity factors move
/// too — then [`compare`] cold and against one warm engine that lives
/// across the whole sweep.
fn sweep_any_link(label: &str, build: impl Fn(&mut SimRng) -> Topology) {
    let mut warm = SymmetryEngine::new();
    for seed in 0..SWEEP_SEEDS {
        let mut rng = SimRng::seed_from(seed);
        let mut topo = build(&mut rng);
        assert!(
            topo.num_switches() <= 20,
            "{label}: sweep fabrics stay tiny"
        );
        let mut inj = FaultInjector::new();
        let mut faults = Vec::new();
        for _ in 0..rng.below(6) {
            let live = live_switch_pairs(&topo);
            if live.is_empty() {
                break;
            }
            let (a, b) = live[rng.below(live.len())];
            let kind = FaultKind::LinkDown { a, b };
            inj.apply(&mut topo, kind);
            faults.push(kind);
        }
        let live = live_switch_pairs(&topo);
        if !live.is_empty() {
            let (a, b) = live[rng.below(live.len())];
            let (num, den) = (1 + rng.below(3) as u32, 4);
            let kind = FaultKind::Degrade { a, b, num, den };
            inj.apply(&mut topo, kind);
            faults.push(kind);
        }
        compare(
            &format!("{label} seed {seed} faults {faults:?}"),
            &topo,
            Some(&mut warm),
        );
    }
}

/// (failure count, seed) ladder shared by every family: the pristine
/// fabric, single failures under two seeds, and denser sets.
const FAILURE_SETS: &[(usize, u64)] = &[(0, 0x1), (1, 0xA11CE), (1, 0xB0B), (2, 0x5EED), (4, 0x7)];

#[test]
fn leaf_spine_matches_eager() {
    for &(n, seed) in FAILURE_SETS {
        check("leaf_spine", leaf_spine(&ls_spec(4, 6)), n, seed);
    }
    sweep_any_link("leaf_spine", |rng| {
        leaf_spine(&ls_spec(2 + rng.below(4), 2 + rng.below(6)))
    });
}

#[test]
fn leaf_spine_custom_heterogeneous_matches_eager() {
    // Figure-13-style heterogeneous striping: parallel 10G links to some
    // spines, single 40G trunks to others — asymmetric before any fault.
    for &(n, seed) in FAILURE_SETS {
        let spec = ls_spec(4, 6);
        let topo = leaf_spine_custom(&spec, |l, s| {
            if (l + s) % 2 == 0 {
                vec![10_000_000_000; 2]
            } else {
                vec![40_000_000_000]
            }
        });
        check("leaf_spine_custom", topo, n, seed);
    }
    sweep_any_link("leaf_spine_custom", |rng| {
        let (skew, spec) = (rng.below(3), ls_spec(2 + rng.below(4), 2 + rng.below(6)));
        leaf_spine_custom(&spec, |l, s| {
            if (l + s) % 3 == skew {
                vec![10_000_000_000; 2]
            } else {
                vec![40_000_000_000]
            }
        })
    });
}

#[test]
fn vl2_matches_eager() {
    let spec = Vl2Spec {
        tors: 8,
        aggs: 4,
        ints: 3,
        hosts_per_tor: 2,
        host_rate: 1_000_000_000,
        core_rate: 10_000_000_000,
        tor_uplinks: 2,
        prop: DEFAULT_PROP,
    };
    for &(n, seed) in FAILURE_SETS {
        check("vl2", vl2(&spec), n, seed);
    }
    sweep_any_link("vl2", |rng| {
        let aggs = 2 + rng.below(4);
        vl2(&Vl2Spec {
            tors: 3 + rng.below(5),
            aggs,
            ints: 1 + rng.below(4),
            hosts_per_tor: 1,
            tor_uplinks: (1 + rng.below(3)).min(aggs),
            ..spec.clone()
        })
    });
}

#[test]
fn vl2_agg_int_failures_split_per_destination() {
    // Regression (the former review_scratch seed 21): with agg–int links
    // (12,8) and (3,7) down, two links receive the same (src, cf)
    // restriction for *different* destinations. A class chain not keyed
    // by destination aliased them, and the early collapse then left
    // entries 1→3 and 4→3 with no groups where §3.4 splits each in two.
    let mut topo = vl2(&Vl2Spec {
        tors: 7,
        aggs: 3,
        ints: 3,
        hosts_per_tor: 1,
        host_rate: 1_000_000_000,
        core_rate: 10_000_000_000,
        tor_uplinks: 2,
        prop: DEFAULT_PROP,
    });
    for (a, b) in [(12, 8), (3, 7)] {
        assert!(topo.fail_switch_link(SwitchId(a), SwitchId(b), 0));
    }
    compare("vl2 7x3x3, (12,8)+(3,7) down", &topo, None);
    let mut routes = RouteTable::compute(&topo);
    SymmetryEngine::new().install(&topo, &mut routes);
    for sw in [1, 4] {
        assert_eq!(routes.groups(SwitchId(sw), 3).len(), 2, "entry {sw}→3");
    }
}

#[test]
fn fat_tree_matches_eager() {
    for &(n, seed) in FAILURE_SETS {
        check(
            "fat_tree",
            fat_tree(4, 10_000_000_000, DEFAULT_PROP),
            n,
            seed,
        );
    }
    // k=6 once: three pods exercise the canonical-renumbering sharing
    // across pods at a size where eager is still cheap.
    check(
        "fat_tree_k6",
        fat_tree(6, 10_000_000_000, DEFAULT_PROP),
        2,
        0xFEED,
    );
    sweep_any_link("fat_tree", |_| fat_tree(4, 10_000_000_000, DEFAULT_PROP));
}

#[test]
fn fat_tree_custom_matches_eager() {
    // 2:1 oversubscribed edge (hosts_per_edge = k), the scalebench shape.
    for &(n, seed) in FAILURE_SETS {
        let topo = fat_tree_custom(4, 4, 10_000_000_000, 10_000_000_000, DEFAULT_PROP);
        check("fat_tree_custom", topo, n, seed);
    }
    sweep_any_link("fat_tree_custom", |rng| {
        let hosts_per_edge = 2 + rng.below(3);
        fat_tree_custom(
            4,
            hosts_per_edge,
            10_000_000_000,
            10_000_000_000,
            DEFAULT_PROP,
        )
    });
}

#[test]
fn clos_matches_eager() {
    for &(n, seed) in FAILURE_SETS {
        check("clos", clos(&ClosSpec::smoke()), n, seed);
    }
    sweep_any_link("clos", |rng| {
        clos(&ClosSpec {
            pods: 2 + rng.below(3),
            leaves_per_pod: 1 + rng.below(2),
            aggs_per_pod: 2,
            cores: 2 * (1 + rng.below(2)),
            hosts_per_leaf: 1,
            ..ClosSpec::smoke()
        })
    });
}

#[test]
fn clos_heterogeneous_rates_match_eager() {
    // Mixed tier rates put `CapFactor::Ratio` labels on every level.
    let spec = ClosSpec {
        pods: 3,
        leaves_per_pod: 2,
        aggs_per_pod: 2,
        cores: 4,
        hosts_per_leaf: 2,
        host_rate: 10_000_000_000,
        leaf_agg_rate: 25_000_000_000,
        agg_core_rate: 40_000_000_000,
        prop: Time::from_nanos(500),
    };
    for &(n, seed) in &[(0usize, 0x1u64), (2, 0xD00D), (3, 0x33)] {
        check("clos_hetero", clos(&spec), n, seed);
    }
}

#[test]
fn asym_scale_shaped_clos_counts_are_pinned() {
    // drillbench's `asym_scale` at its smoke size: four leaf uplinks
    // pre-failed, the fifth flapped. What the engine decomposes, reuses
    // and enumerates on the cold, new-failure and replay installs was
    // captured at commit 6a9dc8d, before the control plane was optimised
    // for speed; a change that moves these has changed *what* is computed.
    let mut topo = clos(&ClosSpec {
        pods: 4,
        leaves_per_pod: 4,
        aggs_per_pod: 2,
        cores: 4,
        hosts_per_leaf: 8,
        ..ClosSpec::smoke()
    });
    let picked = random_leaf_spine_failures(&topo, 5, 0xA5F);
    for &(a, b) in &picked[..4] {
        assert!(topo.fail_switch_link(SwitchId(a), SwitchId(b), 0));
    }
    let (flap_a, flap_b) = (SwitchId(picked[4].0), SwitchId(picked[4].1));
    // entries, asymmetric_entries, max_components, classes,
    // entries_reused, paths_enumerated
    const COLD: [u64; 6] = [229, 145, 5, 8, 221, 49];
    const NEW_FAILURE: [u64; 6] = [208, 127, 5, 9, 199, 12];
    const REPLAY: [u64; 6] = [229, 145, 5, 8, 221, 0];
    let counts = |r: &GroupingReport| {
        [
            r.entries as u64,
            r.asymmetric_entries as u64,
            r.max_components as u64,
            r.classes as u64,
            r.entries_reused as u64,
            r.paths_enumerated,
        ]
    };
    let mut engine = SymmetryEngine::new();
    let cold = engine.install(&topo, &mut RouteTable::compute(&topo));
    assert_eq!(counts(&cold), COLD);
    assert!(topo.fail_switch_link(flap_a, flap_b, 0));
    let new_failure = engine.install(&topo, &mut RouteTable::compute(&topo));
    assert_eq!(counts(&new_failure), NEW_FAILURE);
    assert!(topo.restore_switch_link(flap_a, flap_b, 0));
    let replay = engine.install(&topo, &mut RouteTable::compute(&topo));
    assert_eq!(counts(&replay), REPLAY);
    assert_eq!(replay.signatures_walked, 0, "a seen fabric walks nothing");
}
