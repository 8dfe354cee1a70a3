//! The §3.4 control plane against an independent reference: on every
//! topology family the simulator can build — leaf-spine, heterogeneous
//! custom leaf-spine, VL2, fat-tree, oversubscribed fat-tree, three-tier
//! Clos — the [`SymmetryEngine`] must install exactly the group tables
//! the oracle in `support/oracle.rs` derives from the paper's Quiver
//! definition, and report the `entries` / `asymmetric_entries` /
//! `max_components` the oracle recomputes from its own output.
//!
//! The oracle is anchored first: the paper's worked examples (Figure 4,
//! the §3.4.3 heterogeneous fabric, …) assert its labels and groups
//! directly. Then two failure generators feed the comparison: the
//! leaf-uplink ladder (`FAILURE_SETS`, the shape the failure figures use)
//! and the seeded any-tier sweep of `support/sweep.rs`, checked cold and
//! against one warm engine reused across a family's whole sweep.
//!
//! (The `*_matches_eager` test names date from when the reference was the
//! engine's enumerative predecessor; the tier-1 floor pins test ids, so
//! they stay. "Eager" now reads: the definition, computed exhaustively.)

mod support;

use drill::core::{GroupingReport, SymmetryEngine};
use drill::faults::{FaultInjector, FaultKind};
use drill::net::{
    clos, fat_tree, leaf_spine, leaf_spine_custom, vl2, ClosSpec, HostId, LeafSpineSpec, NodeRef,
    PortGroup, RouteTable, SwitchId, Topology, Vl2Spec, DEFAULT_PROP,
};
use drill::runtime::random_leaf_spine_failures;
use drill::sim::{SimRng, Time};
use std::collections::HashSet;
use support::group_table;
use support::oracle::{self, Labels, Oracle};
use support::sweep::{self, Fault};

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

/// Assert the engine — cold, and `warm` if given — installs exactly the
/// oracle's group tables on `topo` and reports the oracle's counts, and
/// that its own report invariants hold. Returns the oracle's answer.
fn compare(label: &str, topo: &Topology, warm: Option<&mut SymmetryEngine>) -> Oracle {
    let want = oracle::solve(topo, &RouteTable::compute(topo));
    // `RouteTable::set_groups` asserts every installed table partitions its
    // candidates; the weights must be positive too.
    assert!(
        want.table
            .iter()
            .all(|(_, _, groups)| groups.iter().all(|g| g.weight >= 1)),
        "{label}: a zero-weight group"
    );
    let mut cold = SymmetryEngine::new();
    let engines = [("cold", Some(&mut cold)), ("warm", warm)];
    for (temp, engine) in engines {
        let Some(engine) = engine else { continue };
        let mut routes = RouteTable::compute(topo);
        let got = engine.install(topo, &mut routes);
        assert_eq!(
            want.table,
            group_table(topo, &routes),
            "{label} ({temp}): group tables diverged"
        );
        assert_eq!(want.entries, got.entries, "{label}: entry count");
        assert_eq!(
            want.asymmetric_entries, got.asymmetric_entries,
            "{label}: asymmetric entries"
        );
        assert_eq!(
            want.max_components, got.max_components,
            "{label}: max components"
        );
        assert!(
            got.classes <= got.entries,
            "{label}: more classes than entries"
        );
        assert_eq!(
            got.entries_reused,
            got.entries - got.classes,
            "{label}: reuse must be exactly entries - classes"
        );
        // The engine enumerates inside entries only, each at most once: an
        // entry that did not collapse can still end up one component, so
        // the bound is every multi-candidate entry's paths, not only the
        // asymmetric ones'.
        assert!(
            got.paths_enumerated <= want.entry_paths,
            "{label}: engine walked {} paths, the entries hold only {}",
            got.paths_enumerated,
            want.entry_paths
        );
    }
    want
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

/// [`compare`] every fabric of one sweep family, cold and against one
/// warm engine that lives across the family's whole sweep.
fn sweep_any_link(family: &str) {
    let mut warm = SymmetryEngine::new();
    sweep::for_each_fabric(family, |label, topo| {
        compare(label, topo, Some(&mut warm));
    });
}

// ---- the oracle against the paper's worked examples --------------------

/// 1 host per leaf, 10G hosts: the fabrics of the paper's examples.
fn example_spec(spines: usize, leaves: usize, core_rate: u64) -> LeafSpineSpec {
    LeafSpineSpec {
        hosts_per_leaf: 1,
        core_rate,
        ..ls_spec(spines, leaves)
    }
}

/// The label set of the first link from switch `a` to switch `b`.
fn labels_of<'a>(o: &'a Oracle, topo: &Topology, a: SwitchId, b: SwitchId) -> &'a Labels {
    let port = topo.ports_to_switch(a, b)[0];
    &o.labels[topo.egress(a, port).id.index()]
}

/// The oracle's groups for entry `(s, dst)`; empty = one component.
fn groups_of(o: &Oracle, s: SwitchId, dst: u32) -> &[PortGroup] {
    let hit = o.table.iter().find(|(si, d, _)| (*si, *d) == (s.0, dst));
    hit.map_or(&[], |(_, _, g)| g)
}

/// Figure 4's fabric: 4 leaves (switches 0..4), 3 spines (4..7), L0–S0 down.
fn figure4() -> Topology {
    let mut topo = leaf_spine(&example_spec(3, 4, 40_000_000_000));
    assert!(topo.fail_switch_link(SwitchId(0), SwitchId(4), 0));
    topo
}

/// §3.4.3's fabric: L0–S0, L0–S1, L1–S0 at 40G, every other link 10G.
fn heterogeneous_3_4_3() -> Topology {
    leaf_spine_custom(&example_spec(3, 4, 10_000_000_000), |leaf, spine| {
        let fat = (leaf == 0 && spine <= 1) || (leaf == 1 && spine == 0);
        vec![if fat { 40_000_000_000 } else { 10_000_000_000 }]
    })
}

#[test]
fn paper_figure4_failure_splits_l3_to_l1_one_to_two() {
    let topo = figure4();
    let o = compare("figure 4", &topo, None);
    let (l1, l3) = (SwitchId(1), SwitchId(3));
    let (s0, s1, s2) = (SwitchId(4), SwitchId(5), SwitchId(6));
    // The S0→L1 downlink lacks the (L0, L1) label its S1 sibling carries.
    let pair = |set: &Labels| set.iter().any(|&(s, d, _)| (s, d) == (0, 1));
    assert!(!pair(labels_of(&o, &topo, s0, l1)));
    assert!(pair(labels_of(&o, &topo, s1, l1)));
    // So among L3's paths to L1, P1 (via S1) ~ P2 (via S2) but P0 !~ P1.
    let path = |s| [labels_of(&o, &topo, l3, s), labels_of(&o, &topo, s, l1)];
    assert_eq!(path(s1), path(s2), "P1 ~ P2");
    assert_ne!(path(s0), path(s1), "P0 !~ P1");
    // At L3 toward L1: {P0} via S0 and {P1, P2} via S1/S2, capacities
    // 40G : 80G, reduced by gcd to 1 : 2.
    let port = |to| topo.ports_to_switch(l3, to)[0];
    let want = [
        PortGroup {
            ports: vec![port(s0)],
            weight: 1,
        },
        PortGroup {
            ports: vec![port(s1), port(s2)],
            weight: 2,
        },
    ];
    assert_eq!(groups_of(&o, l3, 1), want);
    // L0 itself keeps two symmetric paths: one component.
    assert!(groups_of(&o, SwitchId(0), 1).is_empty());
}

#[test]
fn paper_heterogeneous_example_weights_five_to_one() {
    let topo = heterogeneous_3_4_3();
    let o = compare("§3.4.3 heterogeneous", &topo, None);
    let (l0, l1) = (SwitchId(0), SwitchId(1));
    let (s0, s1, s2) = (SwitchId(4), SwitchId(5), SwitchId(6));
    // Among L0→L1 paths, H0 (via S0) ~ H2 (via S2) but H0 !~ H1 (via S1).
    let path = |s| [labels_of(&o, &topo, l0, s), labels_of(&o, &topo, s, l1)];
    assert_eq!(path(s0), path(s2), "H0 ~ H2");
    assert_ne!(path(s0), path(s1), "H0 !~ H1");
    // What makes H0 ~ H2 is the clamp: L2's traffic reaches S0→L1 (40G)
    // through a 10G uplink, cf = 1/4 verbatim, 1 clamped — the same label
    // the all-10G S2→L1 carries. No label anywhere reads below 1.
    assert!(labels_of(&o, &topo, s0, l1).contains(&(2, 1, Some((1, 1)))));
    let all = o.labels.iter().flatten();
    assert!(all.flat_map(|l| l.2).all(|(n, d)| n >= d && d >= 1));
    // {H0, H2} carries 40G + 10G, {H1} 10G (bottlenecked at S1→L1).
    let port = |to| topo.ports_to_switch(l0, to)[0];
    let want = [
        PortGroup {
            ports: vec![port(s0), port(s2)],
            weight: 5,
        },
        PortGroup {
            ports: vec![port(s1)],
            weight: 1,
        },
    ];
    assert_eq!(groups_of(&o, l0, 1), want);
}

#[test]
fn paper_host_link_failure_preserves_symmetry() {
    // §3.4.1: "not all failures cause asymmetry" — labels are per leaf
    // pair, so losing a host link moves no label and splits no entry.
    let mut topo = leaf_spine(&example_spec(3, 4, 40_000_000_000));
    let before = compare("pristine 4x3", &topo, None);
    assert_eq!(before.entry_paths, 36, "4 x 3 leaf pairs x 3 spines");
    let host_link = topo.host_uplink(HostId(0)).id;
    assert!(topo.fail_link_pair(host_link));
    let after = compare("4x3, host 0 unplugged", &topo, None);
    assert_eq!(before.labels, after.labels);
    assert!(after.table.is_empty());
    let l0 = SwitchId(0);
    let up = |s| labels_of(&after, &topo, l0, SwitchId(s));
    assert!(up(4) == up(5) && up(5) == up(6), "L0's uplinks symmetric");
}

#[test]
fn paper_leaf_uplink_carries_its_own_pairs_as_source() {
    let topo = leaf_spine(&example_spec(2, 3, 40_000_000_000));
    let o = compare("3x2", &topo, None);
    let want: Labels = [(0, 1, None), (0, 2, None)].into_iter().collect();
    assert_eq!(labels_of(&o, &topo, SwitchId(0), SwitchId(3)), &want);
}

#[test]
fn pod_symmetric_clos_labels_match_within_a_pod_only() {
    // Pods are built identically, yet links in mirrored positions of two
    // pods carry different label sets (their sources differ): link
    // symmetry is label *equality*, and the engine must not need more
    // than that to leave the whole fabric single-component.
    let topo = clos(&ClosSpec::smoke());
    let o = compare("clos smoke", &topo, None);
    let uplink = |leaf: usize, port| &o.labels[topo.egress(topo.leaves()[leaf], port).id.index()];
    assert_eq!(uplink(0, 0), uplink(0, 1), "same leaf, both aggs");
    assert_ne!(uplink(0, 0), uplink(2, 0), "leaf 0 of pod 0 vs of pod 1");
    assert!(o.table.is_empty());
    assert_eq!((o.asymmetric_entries, o.max_components), (0, 1));
}

// ---- named fabrics -----------------------------------------------------

/// The switch behind `s`'s egress `port`.
fn neighbour(topo: &Topology, s: SwitchId, port: u16) -> SwitchId {
    match topo.egress(s, port).dst {
        NodeRef::Switch(t) => t,
        NodeRef::Host(_) => panic!("port {port} of switch {} faces a host", s.0),
    }
}

#[test]
fn vl2_paper_fabric_with_a_tor_agg_link_down() {
    // Figure 5 analog: ToR0's first uplink (to Agg 16) fails and remote
    // switches see multi-component entries.
    let mut topo = vl2(&Vl2Spec::paper());
    let tor0 = topo.leaves()[0];
    assert!(topo.fail_switch_link(tor0, SwitchId(16), 0));
    let o = compare("vl2 paper, ToR0-Agg16 down", &topo, None);
    assert!(o.asymmetric_entries > 0);
}

#[test]
fn clos_smoke_with_leaf_agg_and_agg_core_links_down() {
    let mut topo = clos(&ClosSpec::smoke());
    let l0 = topo.leaves()[0];
    let agg = neighbour(&topo, l0, 0);
    assert!(topo.fail_switch_link(l0, agg, 0));
    let core = neighbour(&topo, agg, 2);
    assert!(topo.fail_switch_link(agg, core, 0));
    compare("clos smoke, leaf-agg + agg-core down", &topo, None);
}

#[test]
fn warm_engine_follows_a_fail_and_restore_exactly() {
    // The table half of drill-core's `warm_reinstall_is_incremental`:
    // one engine across pristine → leaf-agg link down → restored.
    let mut topo = clos(&ClosSpec::smoke());
    let mut engine = SymmetryEngine::new();
    compare("clos smoke", &topo, Some(&mut engine));
    let l0 = topo.leaves()[0];
    let agg = neighbour(&topo, l0, 0);
    assert!(topo.fail_switch_link(l0, agg, 0));
    let o = compare("clos smoke, leaf-agg down", &topo, Some(&mut engine));
    assert!(o.asymmetric_entries > 0);
    assert!(topo.restore_switch_link(l0, agg, 0));
    compare("clos smoke, restored", &topo, Some(&mut engine));
}

#[test]
fn fault_injector_draws_land_on_the_sweep_fabrics() {
    // The sweep applies its faults through `Topology`; the runtime applies
    // them through the `FaultInjector`. Same fabrics, same tables.
    for (family, build) in sweep::FAMILIES {
        for seed in 0..25 {
            let (direct, faults) = sweep::fabric(build, seed);
            let mut topo = build(&mut SimRng::seed_from(seed));
            let mut injector = FaultInjector::new();
            for fault in faults {
                let kind = match fault {
                    Fault::Down(a, b) => FaultKind::LinkDown { a: a.0, b: b.0 },
                    Fault::Degrade(a, b, num, den) => {
                        let (a, b) = (a.0, b.0);
                        FaultKind::Degrade { a, b, num, den }
                    }
                };
                injector.apply(&mut topo, kind);
            }
            let state = |t: &Topology| -> Vec<(bool, u64)> {
                t.links().iter().map(|l| (l.up, l.rate_bps)).collect()
            };
            assert_eq!(state(&direct), state(&topo), "{family} seed {seed}");
            compare(&format!("{family} seed {seed} via injector"), &topo, None);
        }
    }
}

// ---- the failure ladder and the sweep, per family ----------------------

/// (failure count, seed) ladder shared by every family: the pristine
/// fabric, single failures under two seeds, and denser sets.
const FAILURE_SETS: &[(usize, u64)] = &[(0, 0x1), (1, 0xA11CE), (1, 0xB0B), (2, 0x5EED), (4, 0x7)];

#[test]
fn capacity_only_fault_reinstalls_onto_the_old_table_exactly() {
    // `World::reconverge` skips `RouteTable::compute` when no fault of the
    // window can change reachability and reinstalls onto the table that
    // still holds the previous state's groups. Every entry must end up
    // with what a fresh table gets: the sweep's last fault is a degrade,
    // so install before it, degrade, reinstall onto the same table.
    for (family, build) in sweep::FAMILIES {
        for seed in (0..sweep::SEEDS).step_by(5) {
            let (degraded, faults) = sweep::fabric(build, seed);
            let Some((&Fault::Degrade(a, b, num, den), downs)) = faults.split_last() else {
                continue;
            };
            let mut topo = build(&mut SimRng::seed_from(seed));
            for fault in downs {
                let &Fault::Down(a, b) = fault else {
                    unreachable!("only the last fault degrades")
                };
                assert!(topo.fail_switch_link(a, b, 0));
            }
            let mut engine = SymmetryEngine::new();
            let mut routes = RouteTable::compute(&topo);
            engine.install(&topo, &mut routes);
            assert!(topo.degrade_switch_link(a, b, 0, num, den));
            engine.install(&topo, &mut routes);
            let label = format!("{family} seed {seed}, degraded in place");
            let want = compare(&label, &degraded, None);
            assert_eq!(want.table, group_table(&topo, &routes), "{label}");
        }
    }
}

#[test]
fn leaf_spine_matches_eager() {
    for &(n, seed) in FAILURE_SETS {
        check("leaf_spine", leaf_spine(&ls_spec(4, 6)), n, seed);
    }
    sweep_any_link("leaf_spine");
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
    sweep_any_link("leaf_spine_custom");
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
    sweep_any_link("vl2");
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
    // across pods at a size the oracle walks in a blink (45 switches).
    check(
        "fat_tree_k6",
        fat_tree(6, 10_000_000_000, DEFAULT_PROP),
        2,
        0xFEED,
    );
    sweep_any_link("fat_tree");
}

#[test]
fn fat_tree_custom_matches_eager() {
    // 2:1 oversubscribed edge (hosts_per_edge = k), the scalebench shape.
    for &(n, seed) in FAILURE_SETS {
        let rate = 10_000_000_000;
        let topo = clos(&ClosSpec::fat_tree(4, 4, rate, rate, DEFAULT_PROP));
        check("fat_tree_oversub", topo, n, seed);
    }
    sweep_any_link("fat_tree_oversub");
}

#[test]
fn clos_matches_eager() {
    for &(n, seed) in FAILURE_SETS {
        check("clos", clos(&ClosSpec::smoke()), n, seed);
    }
    sweep_any_link("clos");
}

#[test]
fn clos_heterogeneous_rates_match_eager() {
    // Mixed tier rates put finite capacity factors above 1 on every level.
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

/// drillbench's `asym_scale` fabric at its smoke size, four leaf uplinks
/// pre-failed, and the fifth picked link, which that workload flaps.
fn asym_scale_shaped_clos() -> (Topology, (SwitchId, SwitchId)) {
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
    (topo, (SwitchId(picked[4].0), SwitchId(picked[4].1)))
}

#[test]
fn asym_scale_shaped_clos_matches_the_oracle_across_the_flap() {
    let (mut topo, (flap_a, flap_b)) = asym_scale_shaped_clos();
    let mut engine = SymmetryEngine::new();
    compare("asym_scale smoke, cold", &topo, Some(&mut engine));
    assert!(topo.fail_switch_link(flap_a, flap_b, 0));
    compare("asym_scale smoke, flapped", &topo, Some(&mut engine));
    assert!(topo.restore_switch_link(flap_a, flap_b, 0));
    compare("asym_scale smoke, replay", &topo, Some(&mut engine));
}

#[test]
fn asym_scale_shaped_clos_counts_are_pinned() {
    // What the engine decomposes, reuses and enumerates on the cold,
    // new-failure and replay installs was captured at commit 6a9dc8d,
    // before the control plane was optimised for speed; a change that
    // moves these has changed *what* is computed.
    let (mut topo, (flap_a, flap_b)) = asym_scale_shaped_clos();
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
    // Distinct candidate lists and distinct group tables of each install's
    // route table: what the entries above share.
    const SHARING: [(usize, usize); 3] = [(10, 6), (12, 10), (10, 6)];
    let mut engine = SymmetryEngine::new();
    let mut install = |topo: &Topology| {
        let mut routes = RouteTable::compute(topo);
        let report = engine.install(topo, &mut routes);
        let shared = (routes.distinct_cand_lists(), routes.distinct_group_tables());
        // The accessors count pool slots; count the entries' values too.
        let entries = || {
            let leaves = 0..topo.num_leaves() as u32;
            (0..topo.num_switches() as u32)
                .flat_map(move |s| leaves.clone().map(move |d| (SwitchId(s), d)))
        };
        let lists: HashSet<&[u16]> = entries().map(|(s, d)| routes.candidates(s, d)).collect();
        let tables: HashSet<&[PortGroup]> = entries().map(|(s, d)| routes.groups(s, d)).collect();
        assert_eq!(
            shared,
            (lists.len() - 1, tables.len() - 1),
            "empty ones aside"
        );
        assert!(
            shared.1 <= report.classes * shared.0,
            "a table per (class, candidate list) pair at most: {shared:?}"
        );
        (report, shared)
    };
    let (cold, cold_shared) = install(&topo);
    assert_eq!(counts(&cold), COLD);
    assert!(topo.fail_switch_link(flap_a, flap_b, 0));
    let (new_failure, new_failure_shared) = install(&topo);
    assert_eq!(counts(&new_failure), NEW_FAILURE);
    assert!(topo.restore_switch_link(flap_a, flap_b, 0));
    let (replay, replay_shared) = install(&topo);
    assert_eq!(counts(&replay), REPLAY);
    assert_eq!([cold_shared, new_failure_shared, replay_shared], SHARING);
    assert_eq!(replay.values_interned, 0, "a seen fabric interns nothing");
    assert!(cold.values_interned > 0 && new_failure.values_interned > 0);
    assert_eq!(replay.signatures_walked, 0, "a seen fabric walks nothing");
}
