//! Property-based invariants across the crates.
//!
//! Compiled only with `--features proptest`, which additionally needs the
//! `proptest` dev-dependency restored on a networked machine (see the
//! feature's note in the root Cargo.toml). The std-only suites cover the
//! same invariants deterministically; this file widens them to random
//! topologies when available.
#![cfg(feature = "proptest")]

mod support;

use drill::core::{DrillPolicy, SymmetryEngine};
use drill::net::{
    clos, fat_tree_custom, leaf_spine, leaf_spine_custom, vl2, ClosSpec, FlowId, HostId,
    LeafSpineSpec, NodeRef, Packet, PacketArena, PacketRef, QueueView, RouteTable, SelectCtx,
    SwitchId, SwitchKind, SwitchPolicy, Topology, Vl2Spec, DEFAULT_PROP,
};
use drill::runtime::random_leaf_spine_failures;
use drill::sim::{SimRng, Time};
use drill::stats::{Distribution, Histogram, Moments};
use drill::transport::{ShimBuffer, TcpConfig, TcpFlow};
use proptest::prelude::*;
use support::oracle;

use proptest::prop_compose;
prop_compose! {
    fn spec_strategy()(spines in 2usize..6, leaves in 2usize..6, hosts in 1usize..4)
        -> LeafSpineSpec {
        LeafSpineSpec {
            spines,
            leaves,
            hosts_per_leaf: hosts,
            host_rate: 10_000_000_000,
            core_rate: 40_000_000_000,
            prop: DEFAULT_PROP,
        }
    }
}

// Randomized three-tier Clos specs: independent tier widths, cores always
// a positive multiple of `aggs_per_pod` (the builder's wiring
// precondition).
prop_compose! {
    fn clos_strategy()(pods in 2usize..5, lpp in 1usize..4, app in 1usize..4,
                       group in 1usize..4, hosts in 1usize..4)
        -> ClosSpec {
        ClosSpec {
            pods,
            leaves_per_pod: lpp,
            aggs_per_pod: app,
            cores: app * group,
            hosts_per_leaf: hosts,
            host_rate: 10_000_000_000,
            leaf_agg_rate: 40_000_000_000,
            agg_core_rate: 40_000_000_000,
            prop: DEFAULT_PROP,
        }
    }
}

/// Shared checker for the builder properties: the port maps are an exact
/// disjoint cover of the directed link table. Every switch port and every
/// host uplink resolves to a link whose `src`/`src_port` point back at it,
/// and together those links account for every entry in
/// [`Topology::links`] exactly once.
fn assert_port_cover(topo: &Topology) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut ids: Vec<usize> = Vec::with_capacity(topo.links().len());
    for si in 0..topo.num_switches() {
        let s = SwitchId(si as u32);
        prop_assert_eq!(topo.egress_links(s).len(), topo.num_ports(s));
        for (port, &lid) in topo.egress_links(s).iter().enumerate() {
            let l = topo.link(lid);
            prop_assert_eq!(l.src, NodeRef::Switch(s));
            prop_assert_eq!(l.src_port as usize, port);
            ids.push(lid.index());
        }
    }
    for h in 0..topo.num_hosts() {
        let l = topo.host_uplink(HostId(h as u32));
        prop_assert_eq!(l.src, NodeRef::Host(HostId(h as u32)));
        ids.push(l.id.index());
    }
    ids.sort_unstable();
    prop_assert_eq!(ids, (0..topo.links().len()).collect::<Vec<_>>());
    Ok(())
}

/// Shared checker for the structural §3.4 control plane: the
/// [`SymmetryEngine`] must install exactly the group tables the oracle
/// (`support/oracle.rs`, the paper's Quiver definition transcribed)
/// derives for the same fabric, report the counts the oracle recomputes
/// from its own output, and uphold the structural invariants (classes
/// never exceed entries, reuse is exactly the difference, the lazy walk
/// never enumerates more paths than the entries hold).
fn assert_structural_matches_oracle(
    topo: &Topology,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let want = oracle::solve(topo, &RouteTable::compute(topo));
    let mut structural_routes = RouteTable::compute(topo);
    let structural = SymmetryEngine::new().install(topo, &mut structural_routes);
    let installed = support::group_table(topo, &structural_routes);
    prop_assert_eq!(&want.table, &installed, "group tables diverged");
    prop_assert_eq!(want.entries, structural.entries);
    prop_assert_eq!(want.asymmetric_entries, structural.asymmetric_entries);
    prop_assert_eq!(want.max_components, structural.max_components);
    prop_assert!(structural.classes <= structural.entries);
    prop_assert_eq!(
        structural.entries_reused,
        structural.entries - structural.classes
    );
    prop_assert!(structural.paths_enumerated <= want.entry_paths);
    Ok(())
}

/// Fail `n` seeded random leaf uplinks in place (direction-agnostic).
fn fail_random_uplinks(
    topo: &mut Topology,
    n: usize,
    seed: u64,
) -> Result<(), proptest::test_runner::TestCaseError> {
    for &(a, b) in &random_leaf_spine_failures(topo, n, seed) {
        let ok = topo.fail_switch_link(SwitchId(a), SwitchId(b), 0)
            || topo.fail_switch_link(SwitchId(b), SwitchId(a), 0);
        prop_assert!(ok, "pair ({}, {}) matches no live link", a, b);
    }
    Ok(())
}

struct FixedQueues(Vec<u64>);
impl QueueView for FixedQueues {
    fn visible_bytes(&self, p: u16) -> u64 {
        self.0[p as usize]
    }
    fn visible_pkts(&self, p: u16) -> u32 {
        (self.0[p as usize] / 1500) as u32
    }
    fn num_ports(&self) -> usize {
        self.0.len()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Routing: in a healthy leaf-spine fabric every leaf pair is 2 hops
    /// apart with all spines as candidates; after failing one uplink the
    /// affected leaf loses exactly one candidate everywhere.
    #[test]
    fn routing_reachability(spec in spec_strategy(), fail_spine in 0usize..6) {
        let mut topo = leaf_spine(&spec);
        let routes = RouteTable::compute(&topo);
        for (i, &a) in topo.leaves().iter().enumerate() {
            for j in 0..topo.num_leaves() as u32 {
                if i as u32 == j { continue; }
                prop_assert_eq!(routes.dist(a, j), Some(2));
                prop_assert_eq!(routes.candidates(a, j).len(), spec.spines);
            }
        }
        let l0 = topo.leaves()[0];
        let spine = SwitchId((spec.leaves + fail_spine % spec.spines) as u32);
        prop_assert!(topo.fail_switch_link(l0, spine, 0));
        let routes = RouteTable::compute(&topo);
        for j in 1..topo.num_leaves() as u32 {
            prop_assert_eq!(routes.candidates(l0, j).len(), spec.spines - 1);
        }
    }

    /// Decomposition: groups always partition the candidate set, and
    /// weights are positive.
    #[test]
    fn decomposition_partitions(spec in spec_strategy(), fails in 0usize..3, seed in 0u64..1000) {
        let mut topo = leaf_spine(&spec);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..fails {
            let leaf = topo.leaves()[rng.below(spec.leaves)];
            let spine = SwitchId((spec.leaves + rng.below(spec.spines)) as u32);
            let _ = topo.fail_switch_link(leaf, spine, 0);
        }
        let mut routes = RouteTable::compute(&topo);
        SymmetryEngine::new().install(&topo, &mut routes);
        for si in 0..topo.num_switches() {
            let s = SwitchId(si as u32);
            for dst in 0..topo.num_leaves() as u32 {
                let cand = routes.candidates(s, dst);
                // No installed groups = one component of every candidate.
                let groups = routes.groups(s, dst);
                if groups.is_empty() { continue; }
                let mut all: Vec<u16> = groups.iter().flat_map(|g| g.ports.iter().copied()).collect();
                all.sort_unstable();
                all.dedup();
                let mut c = cand.to_vec();
                c.sort_unstable();
                prop_assert_eq!(all, c, "groups partition candidates");
                prop_assert!(groups.iter().all(|g| g.weight >= 1));
            }
        }
    }

    /// DRILL(d, m) always returns a candidate, for arbitrary queue states
    /// and candidate subsets.
    #[test]
    fn drill_select_stays_in_candidates(
        d in 1usize..8,
        m in 0usize..8,
        engines in 1usize..4,
        queues in proptest::collection::vec(0u64..200_000, 2..24),
        seed in 0u64..10_000,
    ) {
        let mut rng = SimRng::seed_from(seed);
        let n = queues.len();
        let view = FixedQueues(queues);
        let mut policy = DrillPolicy::new(d, m, engines);
        // Random strict subset of ports as candidates.
        let k = 1 + rng.below(n);
        let cand: Vec<u16> = rng.sample_indices(n, k).into_iter().map(|i| i as u16).collect();
        for round in 0..20u32 {
            let ctx = SelectCtx {
                now: Time::from_nanos(round as u64 * 100),
                engine: round as usize % engines,
                flow_hash: seed ^ round as u64,
                flow: FlowId(round),
                dst_leaf: 0,
                candidates: &cand,
            };
            let sel = policy.select(&ctx, &view, &mut rng);
            prop_assert!(cand.contains(&sel));
        }
    }

    /// The shim delivers every packet exactly once and never out of
    /// sequence order *within a delivery batch*, for arbitrary arrival
    /// permutations of a window.
    #[test]
    fn shim_delivers_once_in_order(
        n in 1usize..24,
        seed in 0u64..10_000,
        timeout_us in 1u64..500,
    ) {
        let mut rng = SimRng::seed_from(seed);
        let mut order: Vec<u64> = (0..n as u64).collect();
        rng.shuffle(&mut order);
        let mut arena = PacketArena::new();
        let mut shim = ShimBuffer::new(Time::from_micros(timeout_us));
        let mut delivered: Vec<u64> = Vec::new();
        let mut out: Vec<PacketRef> = Vec::new();
        let mut drain = |arena: &mut PacketArena, out: &mut Vec<PacketRef>, sink: &mut Vec<u64>| {
            for r in out.drain(..) {
                let p = arena.take(r);
                sink.push(p.seq / 100);
            }
        };
        let mut pending_timer: Option<(Time, u64)> = None;
        for (i, &k) in order.iter().enumerate() {
            let now = Time::from_micros(i as u64);
            // Fire an expired timer first, as the event loop would.
            if let Some((at, gen)) = pending_timer {
                if at <= now {
                    shim.on_timer(&arena, gen, at, &mut out);
                    drain(&mut arena, &mut out, &mut delivered);
                    pending_timer = None;
                }
            }
            let pkt = Packet::data(k, FlowId(0), HostId(0), HostId(1), 1, k * 100, 100, now);
            let r = arena.insert(pkt);
            let timer = shim.on_packet(&arena, r, now, &mut out);
            drain(&mut arena, &mut out, &mut delivered);
            if let Some(t) = timer {
                pending_timer = Some(t);
            }
        }
        if let Some((at, gen)) = pending_timer {
            shim.on_timer(&arena, gen, at, &mut out);
            drain(&mut arena, &mut out, &mut delivered);
        }
        // Exactly once.
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n as u64).collect::<Vec<_>>());
        // And every delivery released its arena slot.
        prop_assert_eq!(arena.live(), 0);
    }

    /// The packet arena never aliases two live handles: under an arbitrary
    /// interleaving of inserts and frees, every live handle still reads
    /// back the packet it was issued for, and `live()` tracks the ground
    /// truth exactly.
    #[test]
    fn arena_alloc_free_never_aliases(
        ops in proptest::collection::vec(proptest::bool::ANY, 1..300),
        seed in 0u64..10_000,
    ) {
        let mut rng = SimRng::seed_from(seed);
        let mut arena = PacketArena::new();
        let mut held: Vec<(PacketRef, u64)> = Vec::new();
        let mut next_id = 0u64;
        for &grow in &ops {
            if grow || held.is_empty() {
                let pkt = Packet::data(
                    next_id, FlowId(0), HostId(0), HostId(1), 1, 0, 100, Time::ZERO,
                );
                held.push((arena.insert(pkt), next_id));
                next_id += 1;
            } else {
                let (r, id) = held.swap_remove(rng.below(held.len()));
                prop_assert_eq!(arena.take(r).id, id, "freed handle read wrong packet");
            }
            prop_assert_eq!(arena.live(), held.len());
            // If any two live handles shared a slot, one of them would
            // read back the other's packet here.
            for (r, id) in &held {
                prop_assert_eq!(arena.get(r).id, *id, "live handle aliased");
            }
        }
        for (r, _) in held.drain(..) {
            arena.free(r);
        }
        prop_assert_eq!(arena.live(), 0);
    }

    /// TCP delivers a transfer completely over a lossy, reordering pipe:
    /// every run terminates with all bytes ACKed, regardless of drop
    /// pattern (as long as not everything is dropped).
    #[test]
    fn tcp_survives_loss_and_reordering(
        size in 1_000u64..200_000,
        drop_mod in 5u64..50,
        swap in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let cfg = TcpConfig {
            rto_min: Time::from_micros(500),
            rto_init: Time::from_micros(500),
            rto_max: Time::from_millis(5),
            init_cwnd: 10,
            ..Default::default()
        };
        let mut f = TcpFlow::new(FlowId(0), HostId(0), HostId(1), seed, size, Time::ZERO, cfg);
        let mut ids = 0u64;
        let mut wire: Vec<Packet> = Vec::new();
        let mut now = Time::ZERO;
        f.start_sending(now, &mut ids, &mut wire);
        let mut dropped = 0u64;
        let mut guard = 0;
        while !f.is_done() {
            guard += 1;
            prop_assert!(guard < 30_000, "no livelock");
            now += Time::from_micros(20);
            let mut data: Vec<Packet> = std::mem::take(&mut wire);
            if swap && data.len() >= 2 {
                data.swap(0, 1);
            }
            let mut acks = Vec::new();
            for p in &data {
                dropped += 1;
                // Drop every drop_mod-th data packet (but never the very
                // last retransmission chain forever: ids keep increasing).
                if p.id % drop_mod == 0 && p.id % (3 * drop_mod) != 0 {
                    continue;
                }
                f.on_data(p, now, &mut ids, &mut acks);
            }
            now += Time::from_micros(20);
            for a in &acks {
                f.on_ack(a, now, &mut ids, &mut wire);
            }
            // Drive the RTO when the window stalls.
            if wire.is_empty() && !f.is_done() {
                if let Some((at, gen)) = f.rto_deadline(now) {
                    now = at;
                    f.on_timer(gen, now, &mut ids, &mut wire);
                }
            }
        }
        prop_assert!(f.is_done());
        prop_assert_eq!(f.bytes_acked, size);
        prop_assert!(dropped > 0);
    }

    /// Mergeable distributions: merge(a, b) must equal a single pass over
    /// the concatenated stream — exactly, since the store is sample-based.
    /// This is what makes the sweep executor's cross-replication
    /// aggregation equivalent to one big serial run.
    #[test]
    fn distribution_merge_equals_single_pass(
        xs in proptest::collection::vec(0.0f64..1e6, 0..200),
        ys in proptest::collection::vec(0.0f64..1e6, 0..200),
    ) {
        let mut merged = Distribution::new();
        let mut parts = (Distribution::new(), Distribution::new());
        for &x in &xs { merged.add(x); parts.0.add(x); }
        for &y in &ys { merged.add(y); parts.1.add(y); }
        let mut combined = parts.0;
        combined.merge(&parts.1);
        prop_assert_eq!(combined.count(), merged.count());
        prop_assert_eq!(combined.mean().to_bits(), merged.mean().to_bits());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.9999, 1.0] {
            prop_assert_eq!(
                combined.quantile(q).to_bits(),
                merged.quantile(q).to_bits(),
                "quantile {} diverged", q
            );
        }
    }

    /// Mergeable moments: the Chan et al. combine must agree with a
    /// single-pass Welford over the concatenation on count exactly and on
    /// mean/variance to floating-point tolerance.
    #[test]
    fn moments_merge_equals_single_pass(
        xs in proptest::collection::vec(-1e3f64..1e3, 0..200),
        ys in proptest::collection::vec(-1e3f64..1e3, 0..200),
    ) {
        let mut merged = Moments::new();
        let mut parts = (Moments::new(), Moments::new());
        for &x in &xs { merged.add(x); parts.0.add(x); }
        for &y in &ys { merged.add(y); parts.1.add(y); }
        let mut combined = parts.0;
        combined.merge(&parts.1);
        prop_assert_eq!(combined.count(), merged.count());
        prop_assert!((combined.mean() - merged.mean()).abs() < 1e-9);
        prop_assert!((combined.variance() - merged.variance()).abs() < 1e-6);
    }

    /// Mergeable histograms: per-bucket counts add exactly, whatever mix
    /// of in-range and overflow values lands on either side.
    #[test]
    fn histogram_merge_equals_single_pass(
        xs in proptest::collection::vec(0usize..40, 0..200),
        ys in proptest::collection::vec(0usize..40, 0..200),
    ) {
        let mut merged = Histogram::new(16);
        let mut parts = (Histogram::new(16), Histogram::new(16));
        for &x in &xs { merged.add(x); parts.0.add(x); }
        for &y in &ys { merged.add(y); parts.1.add(y); }
        let mut combined = parts.0;
        combined.merge(&parts.1);
        prop_assert_eq!(combined.total(), merged.total());
        for v in 0..40 {
            prop_assert_eq!(combined.count(v), merged.count(v));
        }
        for v in 0..40 {
            prop_assert_eq!(
                combined.frac_at_least(v).to_bits(),
                merged.frac_at_least(v).to_bits()
            );
        }
    }

    /// Three-tier Clos builder: for any randomized spec the counts match
    /// the closed forms (`num_hosts`, `num_switches`,
    /// `expected_link_entries`), the port map is an exact disjoint cover,
    /// every tier has the port width the wiring rules dictate, and every
    /// leaf pair is reachable at the closed-form distance (2 intra-pod,
    /// 4 across pods) with all pod aggs as first-hop candidates.
    #[test]
    fn clos_builder_invariants(spec in clos_strategy()) {
        let topo = clos(&spec);
        prop_assert_eq!(topo.num_hosts(), spec.num_hosts());
        prop_assert_eq!(topo.num_switches(), spec.num_switches());
        prop_assert_eq!(topo.links().len(), spec.expected_link_entries());
        assert_port_cover(&topo)?;
        for si in 0..topo.num_switches() {
            let s = SwitchId(si as u32);
            let want = match topo.switch_kind(s) {
                SwitchKind::Leaf => spec.aggs_per_pod + spec.hosts_per_leaf,
                SwitchKind::Agg => spec.leaves_per_pod + spec.core_group(),
                SwitchKind::Spine => spec.pods,
            };
            prop_assert_eq!(topo.num_ports(s), want, "switch {} port width", si);
        }
        let routes = RouteTable::compute(&topo);
        for (i, &a) in topo.leaves().iter().enumerate() {
            for j in 0..topo.num_leaves() as u32 {
                if i as u32 == j { continue; }
                let same_pod = i / spec.leaves_per_pod == j as usize / spec.leaves_per_pod;
                prop_assert_eq!(routes.dist(a, j), Some(if same_pod { 2 } else { 4 }));
                prop_assert_eq!(routes.candidates(a, j).len(), spec.aggs_per_pod);
            }
        }
    }

    /// Fat-tree builder (including oversubscribed edges): counts match the
    /// k-ary closed forms for any even k and edge subscription, the port
    /// map is an exact disjoint cover, and every edge pair is reachable at
    /// distance 2 (intra-pod) or 4 (across pods) with all `k/2` pod aggs
    /// as candidates.
    #[test]
    fn fat_tree_builder_invariants(half in 1usize..5, hpe in 1usize..5) {
        let k = 2 * half;
        let topo = fat_tree_custom(k, hpe, 10_000_000_000, 10_000_000_000, DEFAULT_PROP);
        prop_assert_eq!(topo.num_hosts(), k * half * hpe);
        prop_assert_eq!(topo.num_switches(), k * k + half * half);
        prop_assert_eq!(topo.links().len(), 2 * (2 * k * half * half + k * half * hpe));
        assert_port_cover(&topo)?;
        for si in 0..topo.num_switches() {
            let s = SwitchId(si as u32);
            let want = match topo.switch_kind(s) {
                SwitchKind::Leaf => half + hpe,
                SwitchKind::Agg | SwitchKind::Spine => k,
            };
            prop_assert_eq!(topo.num_ports(s), want, "switch {} port width", si);
        }
        let routes = RouteTable::compute(&topo);
        for (i, &a) in topo.leaves().iter().enumerate() {
            for j in 0..topo.num_leaves() as u32 {
                if i as u32 == j { continue; }
                let same_pod = i / half == j as usize / half;
                prop_assert_eq!(routes.dist(a, j), Some(if same_pod { 2 } else { 4 }));
                prop_assert_eq!(routes.candidates(a, j).len(), half);
            }
        }
    }

    /// VL2 builder: link entries match the closed form
    /// `2 * (tors * uplinks + aggs * ints + hosts)`, the port map is an
    /// exact disjoint cover, and every ToR pair is reachable (the agg-int
    /// full mesh guarantees a 2- or 4-hop path even when ToRs are
    /// under-connected).
    #[test]
    fn vl2_builder_invariants(
        tors in 2usize..8,
        aggs in 2usize..6,
        ints in 1usize..5,
        hosts in 1usize..4,
        uplinks in 1usize..6,
    ) {
        let spec = Vl2Spec {
            tors,
            aggs,
            ints,
            hosts_per_tor: hosts,
            host_rate: 1_000_000_000,
            core_rate: 10_000_000_000,
            tor_uplinks: uplinks.min(aggs),
            prop: DEFAULT_PROP,
        };
        let topo = vl2(&spec);
        prop_assert_eq!(topo.num_hosts(), tors * hosts);
        prop_assert_eq!(topo.num_switches(), tors + aggs + ints);
        prop_assert_eq!(
            topo.links().len(),
            2 * (tors * spec.tor_uplinks + aggs * ints + tors * hosts)
        );
        assert_port_cover(&topo)?;
        let routes = RouteTable::compute(&topo);
        for (i, &a) in topo.leaves().iter().enumerate() {
            for j in 0..topo.num_leaves() as u32 {
                if i as u32 == j { continue; }
                let d = routes.dist(a, j);
                prop_assert!(
                    d == Some(2) || d == Some(4),
                    "tor {} -> {} unreachable or off-distance: {:?}", i, j, d
                );
            }
        }
    }

    /// Sketched distributions: merging shard sketches must agree with one
    /// big stream on count, the merge must be a pure function of its
    /// operands (replaying it yields bit-identical state), and every
    /// quantile of the merged sketch stays within the configured
    /// rank-error bound of the exact order statistics of the concatenated
    /// stream. Rank error is measured against the closed interval of ranks
    /// the estimate occupies, so duplicate-heavy streams (which proptest
    /// shrinks toward) are scored fairly.
    #[test]
    fn sketch_merge_matches_single_stream_within_bound(
        xs in proptest::collection::vec(0.0f64..1e6, 1..2000),
        ys in proptest::collection::vec(0.0f64..1e6, 0..2000),
    ) {
        let build = |vals: &[f64]| {
            let mut d = Distribution::sketched();
            for &v in vals { d.add(v); }
            d
        };
        let mut merged = build(&xs);
        merged.merge(&build(&ys));
        prop_assert!(!merged.is_exact());
        prop_assert_eq!(merged.count(), xs.len() + ys.len());
        let mut replay = build(&xs);
        replay.merge(&build(&ys));
        prop_assert_eq!(merged.digest(), replay.digest(), "merge replay diverged");

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
            prop_assert!(
                err <= eps + 1.0 / n,
                "q={} est={} rank=[{}, {}] err={} > bound {}", q, est, lo, hi, err, eps
            );
        }
        // Extrema stay exact in sketch mode.
        prop_assert_eq!(merged.min().to_bits(), exact[0].to_bits());
        prop_assert_eq!(merged.max().to_bits(), exact[exact.len() - 1].to_bits());
    }

    /// Structural §3.4 control plane on random heterogeneously-striped
    /// leaf-spine fabrics (every pair keeps at least one uplink, with
    /// random extra parallel links at mixed rates) plus random failures:
    /// the SymmetryEngine's group tables must match the oracle's
    /// exactly.
    #[test]
    fn structural_matches_oracle_on_random_striping(
        spec in spec_strategy(),
        fails in 0usize..3,
        seed in 0u64..1000,
    ) {
        let mut rng = SimRng::seed_from(seed);
        let rates = [10_000_000_000u64, 25_000_000_000, 40_000_000_000];
        let stripe: Vec<Vec<Vec<u64>>> = (0..spec.leaves)
            .map(|_| {
                (0..spec.spines)
                    .map(|_| {
                        let n = 1 + rng.below(3);
                        (0..n).map(|_| rates[rng.below(rates.len())]).collect()
                    })
                    .collect()
            })
            .collect();
        let mut topo = leaf_spine_custom(&spec, |l, s| stripe[l][s].clone());
        fail_random_uplinks(&mut topo, fails, seed)?;
        assert_structural_matches_oracle(&topo)?;
    }

    /// Structural == oracle on random VL2 fabrics with random failure
    /// sets, including under-connected ToRs and failures that partition
    /// a ToR from part of the fabric.
    #[test]
    fn structural_matches_oracle_on_random_vl2(
        tors in 2usize..8,
        aggs in 2usize..6,
        ints in 1usize..5,
        uplinks in 1usize..6,
        fails in 0usize..4,
        seed in 0u64..1000,
    ) {
        let mut topo = vl2(&Vl2Spec {
            tors,
            aggs,
            ints,
            hosts_per_tor: 1,
            host_rate: 1_000_000_000,
            core_rate: 10_000_000_000,
            tor_uplinks: uplinks.min(aggs),
            prop: DEFAULT_PROP,
        });
        fail_random_uplinks(&mut topo, fails, seed)?;
        assert_structural_matches_oracle(&topo)?;
    }

    /// Structural == oracle on random three-tier Clos fabrics with random
    /// failure sets (the multi-tier case: failures below one pod must
    /// reshape group weights at switches in every other pod).
    #[test]
    fn structural_matches_oracle_on_random_clos(
        spec in clos_strategy(),
        fails in 0usize..4,
        seed in 0u64..1000,
    ) {
        let mut topo = clos(&spec);
        fail_random_uplinks(&mut topo, fails, seed)?;
        assert_structural_matches_oracle(&topo)?;
    }
}
