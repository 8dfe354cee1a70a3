//! Seeded randomized invariants of the topology builders and the
//! mergeable statistics.
//!
//! Topology builders must match their closed-form counts, expose port maps
//! that exactly cover the link table, and wire every leaf pair reachable;
//! sketched distributions must merge deterministically and stay within the
//! configured rank-error bound of exact order statistics; exact
//! distributions, moments and histograms must merge like one pass.

use drill::net::{
    clos, vl2, ClosSpec, HostId, NodeRef, RouteTable, SwitchId, SwitchKind, Topology, Vl2Spec,
    DEFAULT_PROP,
};
use drill::sim::SimRng;
use drill::stats::{Distribution, Histogram, Moments};

/// The port maps are an exact disjoint cover of the directed link table:
/// every switch port and every host uplink resolves to a link whose
/// `src`/`src_port` point back at it, and together those links account for
/// every entry in `Topology::links` exactly once.
fn assert_port_cover(topo: &Topology) {
    let mut ids: Vec<usize> = Vec::with_capacity(topo.links().len());
    for si in 0..topo.num_switches() {
        let s = SwitchId(si as u32);
        assert_eq!(topo.egress_links(s).len(), topo.num_ports(s));
        for (port, &lid) in topo.egress_links(s).iter().enumerate() {
            let l = topo.link(lid);
            assert_eq!(l.src, NodeRef::Switch(s));
            assert_eq!(l.src_port as usize, port);
            ids.push(lid.index());
        }
    }
    for h in 0..topo.num_hosts() {
        let l = topo.host_uplink(HostId(h as u32));
        assert_eq!(l.src, NodeRef::Host(HostId(h as u32)));
        ids.push(l.id.index());
    }
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..topo.links().len()).collect::<Vec<_>>(),
        "port maps must cover the link table exactly once"
    );
}

#[test]
fn clos_invariants_hold_on_seeded_random_specs() {
    let mut rng = SimRng::seed_from(0xC105);
    for round in 0..24 {
        let app = 1 + rng.below(3);
        let spec = ClosSpec {
            pods: 2 + rng.below(3),
            leaves_per_pod: 1 + rng.below(3),
            aggs_per_pod: app,
            cores: app * (1 + rng.below(3)),
            hosts_per_leaf: 1 + rng.below(3),
            host_rate: 10_000_000_000,
            leaf_agg_rate: 40_000_000_000,
            agg_core_rate: 40_000_000_000,
            prop: DEFAULT_PROP,
        };
        let topo = clos(&spec);
        assert_eq!(topo.num_hosts(), spec.num_hosts(), "round {round}");
        assert_eq!(topo.num_switches(), spec.num_switches(), "round {round}");
        assert_eq!(
            topo.links().len(),
            spec.expected_link_entries(),
            "round {round}: {spec:?}"
        );
        assert_port_cover(&topo);
        for si in 0..topo.num_switches() {
            let s = SwitchId(si as u32);
            let want = match topo.switch_kind(s) {
                SwitchKind::Leaf => spec.aggs_per_pod + spec.hosts_per_leaf,
                SwitchKind::Agg => spec.leaves_per_pod + spec.core_group(),
                SwitchKind::Spine => spec.pods,
            };
            assert_eq!(topo.num_ports(s), want, "round {round}: switch {si}");
        }
        let routes = RouteTable::compute(&topo);
        for (i, &a) in topo.leaves().iter().enumerate() {
            for j in 0..topo.num_leaves() as u32 {
                if i as u32 == j {
                    continue;
                }
                let same_pod = i / spec.leaves_per_pod == j as usize / spec.leaves_per_pod;
                assert_eq!(routes.dist(a, j), Some(if same_pod { 2 } else { 4 }));
                assert_eq!(routes.candidates(a, j).len(), spec.aggs_per_pod);
            }
        }
    }
}

#[test]
fn fat_tree_invariants_hold_across_arity_and_subscription() {
    for half in 1usize..=4 {
        for hpe in 1usize..=4 {
            let k = 2 * half;
            let rate = 10_000_000_000;
            let topo = clos(&ClosSpec::fat_tree(k, hpe, rate, rate, DEFAULT_PROP));
            assert_eq!(topo.num_hosts(), k * half * hpe);
            assert_eq!(topo.num_switches(), k * k + half * half);
            assert_eq!(
                topo.links().len(),
                2 * (2 * k * half * half + k * half * hpe)
            );
            assert_port_cover(&topo);
            for si in 0..topo.num_switches() {
                let s = SwitchId(si as u32);
                let want = match topo.switch_kind(s) {
                    SwitchKind::Leaf => half + hpe,
                    SwitchKind::Agg | SwitchKind::Spine => k,
                };
                assert_eq!(topo.num_ports(s), want, "k={k} hpe={hpe} switch {si}");
            }
            let routes = RouteTable::compute(&topo);
            for (i, &a) in topo.leaves().iter().enumerate() {
                for j in 0..topo.num_leaves() as u32 {
                    if i as u32 == j {
                        continue;
                    }
                    let same_pod = i / half == j as usize / half;
                    assert_eq!(routes.dist(a, j), Some(if same_pod { 2 } else { 4 }));
                    assert_eq!(routes.candidates(a, j).len(), half);
                }
            }
        }
    }
}

#[test]
fn vl2_invariants_hold_on_seeded_random_specs() {
    let mut rng = SimRng::seed_from(0x512);
    for round in 0..24 {
        let aggs = 2 + rng.below(4);
        let spec = Vl2Spec {
            tors: 2 + rng.below(6),
            aggs,
            ints: 1 + rng.below(4),
            hosts_per_tor: 1 + rng.below(3),
            host_rate: 1_000_000_000,
            core_rate: 10_000_000_000,
            tor_uplinks: (1 + rng.below(5)).min(aggs),
            prop: DEFAULT_PROP,
        };
        let topo = vl2(&spec);
        assert_eq!(topo.num_hosts(), spec.tors * spec.hosts_per_tor);
        assert_eq!(topo.num_switches(), spec.tors + spec.aggs + spec.ints);
        assert_eq!(
            topo.links().len(),
            2 * (spec.tors * spec.tor_uplinks
                + spec.aggs * spec.ints
                + spec.tors * spec.hosts_per_tor),
            "round {round}: {spec:?}"
        );
        assert_port_cover(&topo);
        let routes = RouteTable::compute(&topo);
        for (i, &a) in topo.leaves().iter().enumerate() {
            for j in 0..topo.num_leaves() as u32 {
                if i as u32 == j {
                    continue;
                }
                let d = routes.dist(a, j);
                assert!(
                    d == Some(2) || d == Some(4),
                    "round {round}: tor {i} -> {j} unreachable or off-distance: {d:?}"
                );
            }
        }
    }
}

/// Merging shard sketches agrees with one big stream on count, the merge
/// replays bit-identically (pure function of its operands), and every
/// quantile of the merged sketch stays within the configured rank-error
/// bound of the exact order statistics. Rank error is scored against the
/// closed interval of ranks the estimate occupies so duplicate values
/// cannot inflate it.
#[test]
fn sketch_merge_matches_single_stream_within_bound() {
    let mut rng = SimRng::seed_from(0x5EED);
    for round in 0..12 {
        let nx = 1 + rng.below(3000);
        let ny = rng.below(3000);
        let draw = |rng: &mut SimRng| -> f64 {
            let u = (rng.below(u32::MAX as usize) as f64 + 1.0) / (u32::MAX as f64 + 1.0);
            // Heavy tail on even rounds, duplicate-heavy grid on odd ones.
            if round % 2 == 0 {
                1.0 / u.powf(0.5)
            } else {
                (u * 8.0).floor()
            }
        };
        let xs: Vec<f64> = (0..nx).map(|_| draw(&mut rng)).collect();
        let ys: Vec<f64> = (0..ny).map(|_| draw(&mut rng)).collect();
        let build = |vals: &[f64]| {
            let mut d = Distribution::sketched();
            for &v in vals {
                d.add(v);
            }
            d
        };
        let mut merged = build(&xs);
        merged.merge(&build(&ys));
        assert!(!merged.is_exact());
        assert_eq!(merged.count(), nx + ny);
        let mut replay = build(&xs);
        replay.merge(&build(&ys));
        assert_eq!(
            merged.digest(),
            replay.digest(),
            "round {round}: merge replay diverged"
        );

        let mut exact: Vec<f64> = xs.iter().chain(ys.iter()).copied().collect();
        exact.sort_unstable_by(f64::total_cmp);
        let n = exact.len() as f64;
        let eps = merged.rank_error_bound().expect("sketch mode");
        for q in [0.25, 0.5, 0.9, 0.99] {
            let est = merged.quantile(q);
            let lo = exact.partition_point(|&v| v < est) as f64 / n;
            let hi = exact.partition_point(|&v| v <= est) as f64 / n;
            let err = if lo <= q && q <= hi {
                0.0
            } else {
                (lo - q).abs().min((hi - q).abs())
            };
            assert!(
                err <= eps + 1.0 / n,
                "round {round}: q={q} est={est} rank=[{lo}, {hi}] err={err} > bound {eps}"
            );
        }
        assert_eq!(merged.min().to_bits(), exact[0].to_bits());
        assert_eq!(merged.max().to_bits(), exact[exact.len() - 1].to_bits());
    }
}

/// Exact-mode distributions, moments and histograms merge like one pass
/// over the concatenated stream: distributions bit for bit at every
/// quantile, moments to floating-point tolerance, histogram buckets (the
/// overflow bucket too) exactly. Either side may be empty.
#[test]
fn exact_merges_match_single_stream() {
    fn fold(xs: &[usize]) -> (Distribution, Moments, Histogram) {
        let (mut d, mut m, mut h) = (Distribution::new(), Moments::new(), Histogram::new(16));
        for &x in xs {
            d.add(x as f64);
            m.add(x as f64 / 500.0 - 1e3);
            h.add(x % 40);
        }
        (d, m, h)
    }
    let mut rng = SimRng::seed_from(0x3E26);
    for round in 0..64 {
        let (nx, ny) = (rng.below(200), rng.below(200));
        let xs: Vec<usize> = (0..nx + ny).map(|_| rng.below(1_000_000)).collect();
        let (mut whole, mw, hw) = fold(&xs);
        let (mut d, mut m, mut h) = fold(&xs[..nx]);
        let (db, mb, hb) = fold(&xs[nx..]);
        d.merge(&db);
        m.merge(&mb);
        h.merge(&hb);
        assert_eq!(d.count(), whole.count());
        assert_eq!(d.mean().to_bits(), whole.mean().to_bits(), "round {round}");
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.9999, 1.0] {
            let (got, want) = (d.quantile(q), whole.quantile(q));
            assert_eq!(got.to_bits(), want.to_bits(), "round {round}: q {q}");
        }
        assert_eq!(m.count(), mw.count());
        assert!((m.mean() - mw.mean()).abs() < 1e-9, "round {round}");
        assert!((m.variance() - mw.variance()).abs() < 1e-6, "round {round}");
        assert_eq!(h.total(), hw.total());
        for v in 0..40 {
            assert_eq!(h.count(v), hw.count(v), "round {round}: bucket {v}");
            assert_eq!(h.frac_at_least(v).to_bits(), hw.frac_at_least(v).to_bits());
        }
    }
}
