//! Asymmetry handling (§3.4): what DRILL's control plane computes when a
//! link fails, and why it matters.
//!
//! Reproduces the paper's Figure 4 scenario — the L0-S0 link fails, making
//! the L3→L1 paths asymmetric — then shows the decomposition the control
//! plane installs and compares DRILL with and without its
//! symmetric-component handling.
//!
//! ```sh
//! cargo run --release --example failure_asymmetry
//! ```

use drill::core::{enumerate_shortest_paths, SymmetryEngine};
use drill::net::{leaf_spine, LeafSpineSpec, RouteTable, SwitchId, DEFAULT_PROP};
use drill::runtime::{run_many, ExperimentConfig, Scheme, TopoSpec};
use drill::sim::Time;

fn main() {
    // Figure 4: 4 leaves, 3 spines, all fabric links 40G.
    let spec = LeafSpineSpec {
        spines: 3,
        leaves: 4,
        hosts_per_leaf: 8,
        host_rate: 10_000_000_000,
        core_rate: 40_000_000_000,
        prop: DEFAULT_PROP,
    };
    let mut topo = leaf_spine(&spec);
    let l0 = topo.leaves()[0];
    let s0 = SwitchId(4); // leaves get ids 0..4, spines 4..7
    assert!(topo.fail_switch_link(l0, s0, 0));
    println!("Figure 4 scenario: L0-S0 failed.\n");

    // Control plane: the §3.4 decomposition at L3 toward L1.
    let mut routes = RouteTable::compute(&topo);
    SymmetryEngine::new().install(&topo, &mut routes);
    let l3 = topo.leaves()[3];
    println!("L3 -> L1 shortest paths:");
    for links in enumerate_shortest_paths(&topo, &routes, l3, 1, 64) {
        let first = topo.link(links[0]);
        let cap_bps = links.iter().map(|&l| topo.link(l).rate_bps).min();
        println!(
            "  via {:?}: port {} cap {} Gbps",
            first.dst,
            first.src_port,
            cap_bps.unwrap_or(0) / 1_000_000_000
        );
    }
    println!("\nsymmetric components at L3 toward L1 (ports : weight):");
    for g in routes.groups(l3, 1) {
        println!("  {:?} : {}", g.ports, g.weight);
    }
    println!("(paper: {{P0}} and {{P1, P2}} with weights 1 : 2)\n");

    // Data plane: the paper's exact Figure 4 traffic — hosts under L0 and
    // L3 blast hosts under L1 with persistent flows. The fabric (not the
    // host NICs) must be the bottleneck to expose the effect, so this part
    // uses 20G core links against 10G hosts: into-L1 capacity is 60G
    // (3 spines x 20G), of which the S0 path is reachable only from L3.
    let spec2 = LeafSpineSpec {
        core_rate: 20_000_000_000,
        ..spec
    };
    let topo_spec = TopoSpec::LeafSpine(spec2);
    // Hosts are numbered leaf-major: leaf0 = 0..8, leaf1 = 8..16, leaf3 = 24..32.
    let mut static_flows = Vec::new();
    for i in 0..8u32 {
        static_flows.push((i, 8 + i, u64::MAX)); // L0 -> L1
        static_flows.push((24 + i, 8 + ((i + 1) % 8), u64::MAX)); // L3 -> L1
    }
    let mk = |handling: bool| {
        let mut cfg = ExperimentConfig::new(topo_spec.clone(), Scheme::drill_default(), 0.0);
        cfg.duration = Time::from_millis(50);
        cfg.drain = Time::from_millis(10);
        cfg.failed_links = vec![(l0.0, s0.0)];
        cfg.asymmetry_handling = handling;
        cfg.static_flows = static_flows.clone();
        cfg
    };
    let res = run_many(&[mk(true), mk(false)]);
    println!("persistent L0->L1 and L3->L1 flows (the paper's Figure 4 traffic):");
    for (label, stats) in ["with §3.4 handling", "without (naive ESF)"]
        .into_iter()
        .zip(res)
    {
        println!(
            "  {label:<22} aggregate goodput into L1: {:>6.2} Gbps (per flow mean {:>5.2})",
            stats.elephant_gbps.mean() * 16.0,
            stats.elephant_gbps.mean(),
        );
    }
    println!("\nWithout the decomposition, DRILL equalizes queues across asymmetric");
    println!("paths, capping flows at the most congested path's rate (the paper's");
    println!("P0 half-idle example); with it, DRILL hashes flows across components");
    println!("and micro load balances only inside each symmetric group.");
}
