//! Cross-crate integration tests: whole simulations on every topology
//! family, with invariants that must hold regardless of scheme.

use drill::faults::{FaultKind, FaultSchedule};
use drill::net::{ClosSpec, LeafSpineSpec, Vl2Spec, DEFAULT_PROP};
use drill::runtime::{
    random_leaf_spine_failures, run, run_many, ExperimentConfig, Scheme, TopoSpec,
};
use drill::sim::Time;

fn small_leaf_spine() -> TopoSpec {
    TopoSpec::LeafSpine(LeafSpineSpec {
        spines: 4,
        leaves: 4,
        hosts_per_leaf: 6,
        host_rate: 10_000_000_000,
        core_rate: 40_000_000_000,
        prop: DEFAULT_PROP,
    })
}

fn quick(topo: TopoSpec, scheme: Scheme, load: f64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(topo, scheme, load);
    cfg.duration = Time::from_millis(4);
    cfg.drain = Time::from_millis(500);
    cfg.warmup = Time::from_micros(200);
    cfg
}

#[test]
fn every_scheme_completes_on_leaf_spine() {
    let schemes = [
        Scheme::Ecmp,
        Scheme::Random,
        Scheme::RoundRobin,
        Scheme::drill_default(),
        Scheme::drill_no_shim(),
        Scheme::presto(),
        Scheme::Presto { shim: false },
        Scheme::Conga,
        Scheme::Wcmp,
    ];
    let cfgs: Vec<ExperimentConfig> = schemes
        .iter()
        .map(|&s| quick(small_leaf_spine(), s, 0.4))
        .collect();
    for stats in run_many(&cfgs) {
        assert!(
            stats.flows_started > 100,
            "{}: {}",
            stats.scheme,
            stats.flows_started
        );
        assert!(
            stats.completion_rate() > 0.97,
            "{}: completion {}",
            stats.scheme,
            stats.completion_rate()
        );
        assert_eq!(
            stats.blackholed, 0,
            "{}: no blackholes in a healthy fabric",
            stats.scheme
        );
        assert_eq!(stats.nic_drops, 0, "{}: no NIC drops", stats.scheme);
    }
}

#[test]
fn three_stage_topologies_work() {
    for topo in [
        TopoSpec::Vl2(Vl2Spec {
            tors: 4,
            aggs: 4,
            ints: 2,
            hosts_per_tor: 4,
            host_rate: 1_000_000_000,
            core_rate: 10_000_000_000,
            tor_uplinks: 2,
            prop: DEFAULT_PROP,
        }),
        TopoSpec::Clos(ClosSpec::fat_tree(
            4,
            2,
            1_000_000_000,
            1_000_000_000,
            DEFAULT_PROP,
        )),
    ] {
        for scheme in [
            Scheme::Ecmp,
            Scheme::drill_default(),
            Scheme::presto(),
            Scheme::Conga,
        ] {
            let stats = run(&quick(topo.clone(), scheme, 0.3));
            assert!(
                stats.flows_started > 20,
                "{}: {}",
                stats.scheme,
                stats.flows_started
            );
            assert!(
                stats.completion_rate() > 0.95,
                "{}: completion {} on {:?}",
                stats.scheme,
                stats.completion_rate(),
                topo
            );
        }
    }
}

#[test]
fn determinism_across_identical_runs() {
    for scheme in [Scheme::drill_default(), Scheme::Conga, Scheme::presto()] {
        let a = run(&quick(small_leaf_spine(), scheme, 0.5));
        let b = run(&quick(small_leaf_spine(), scheme, 0.5));
        assert_eq!(a.events, b.events, "{}", scheme.name());
        assert_eq!(a.flows_started, b.flows_started);
        assert_eq!(a.flows_completed, b.flows_completed);
        assert_eq!(a.retransmissions, b.retransmissions);
        assert_eq!(a.mean_fct_ms(), b.mean_fct_ms());
    }
}

#[test]
fn packet_conservation_no_drops_low_load() {
    // At 10% load with deep buffers nothing should be lost anywhere, and
    // every measured flow must complete.
    let mut cfg = quick(small_leaf_spine(), Scheme::drill_default(), 0.1);
    cfg.queue_limit_bytes = 50_000_000;
    let stats = run(&cfg);
    assert_eq!(stats.hops.drops.iter().sum::<u64>(), 0, "no drops anywhere");
    assert_eq!(stats.retransmissions, 0);
    assert_eq!(stats.timeouts, 0);
    assert!((stats.completion_rate() - 1.0).abs() < 1e-9);
}

#[test]
fn pre_applied_failure_reroutes_cleanly() {
    let topo = small_leaf_spine();
    let failures = random_leaf_spine_failures(&topo.build(), 2, 3);
    for scheme in [
        Scheme::Ecmp,
        Scheme::drill_default(),
        Scheme::Wcmp,
        Scheme::presto(),
    ] {
        let mut cfg = quick(topo.clone(), scheme, 0.3);
        cfg.failed_links = failures.clone();
        let stats = run(&cfg);
        assert!(
            stats.completion_rate() > 0.95,
            "{}: completion {}",
            stats.scheme,
            stats.completion_rate()
        );
        assert_eq!(
            stats.blackholed, 0,
            "{}: reconverged routing has no blackholes",
            stats.scheme
        );
    }
}

#[test]
fn mid_run_failure_with_detection_delay_recovers() {
    let topo = small_leaf_spine();
    let (a, b) = random_leaf_spine_failures(&topo.build(), 1, 5)[0];
    let mut cfg = quick(topo, Scheme::drill_default(), 0.3);
    cfg.duration = Time::from_millis(8);
    let mut s = FaultSchedule::new(Time::from_millis(1));
    s.push(Time::from_millis(2), FaultKind::LinkDown { a, b });
    cfg.faults = Some(s);
    let stats = run(&cfg);
    assert_eq!((stats.fault_events, stats.reconvergences), (1, 1));
    // Packets in flight on the dying link are lost (blackholes/drops may
    // occur in the outage window), but TCP recovers everything that
    // matters: the vast majority of flows still complete.
    assert!(
        stats.completion_rate() > 0.9,
        "completion {}",
        stats.completion_rate()
    );
}

#[test]
fn load_sweep_is_monotone_in_flow_count() {
    let mut last = 0;
    for load in [0.1, 0.3, 0.6] {
        let stats = run(&quick(small_leaf_spine(), Scheme::Ecmp, load));
        assert!(stats.flows_started > last, "more load, more flows");
        last = stats.flows_started;
    }
}

#[test]
fn burstier_arrivals_increase_queueing() {
    // Averaged over seeds: lognormal gaps concentrate arrivals, so the
    // worst observed queue imbalance grows. (A single short window can go
    // either way — the heavy gap distribution also produces quiet runs.)
    // Core at host rate (10G) so host bursts actually queue upstream.
    let topo = TopoSpec::LeafSpine(LeafSpineSpec {
        spines: 4,
        leaves: 4,
        hosts_per_leaf: 6,
        host_rate: 10_000_000_000,
        core_rate: 10_000_000_000,
        prop: DEFAULT_PROP,
    });
    let mk = |sigma: f64, seed: u64| {
        let mut cfg = quick(topo.clone(), Scheme::Random, 0.6);
        cfg.duration = Time::from_millis(15);
        cfg.seed = seed;
        cfg.workload.burst_sigma = sigma;
        cfg.sample_queues = true;
        cfg.raw_packet_mode = true;
        cfg.queue_limit_bytes = 20_000_000;
        run(&cfg)
    };
    let avg_max =
        |sigma: f64| -> f64 { (1..=3).map(|s| mk(sigma, s).queue_stdv.max()).sum::<f64>() / 3.0 };
    let poisson = avg_max(0.0);
    let bursty = avg_max(2.0);
    assert!(bursty > poisson, "bursty {bursty} vs poisson {poisson}");
}

#[test]
fn engines_do_not_change_packet_conservation() {
    for engines in [1usize, 4, 16] {
        let mut cfg = quick(small_leaf_spine(), Scheme::drill_default(), 0.4);
        cfg.engines = engines;
        let stats = run(&cfg);
        assert!(stats.completion_rate() > 0.97, "engines {engines}");
    }
}

#[test]
fn static_persistent_flows_sustain_goodput() {
    let mut cfg = quick(small_leaf_spine(), Scheme::drill_default(), 0.0);
    cfg.duration = Time::from_millis(20);
    cfg.drain = Time::from_millis(5);
    // One persistent flow between two hosts on different leaves.
    cfg.static_flows = vec![(0, 7, u64::MAX)];
    let stats = run(&cfg);
    assert_eq!(stats.elephant_gbps.count(), 1);
    let gbps = stats.elephant_gbps.mean();
    // A lone flow should reach most of the 10G host line rate.
    assert!(gbps > 8.0, "persistent flow goodput {gbps}");
}
