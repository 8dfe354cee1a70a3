//! Queue microscope: the §3.2.3 experiment in miniature — how evenly does
//! each policy keep a leaf's uplink queues, sampled every 10 µs?
//!
//! ```sh
//! cargo run --release --example queue_microscope
//! ```

use drill::net::{LeafSpineSpec, DEFAULT_PROP};
use drill::runtime::{run_many, ExperimentConfig, Scheme, TopoSpec};
use drill::sim::Time;

fn main() {
    let topo = TopoSpec::LeafSpine(LeafSpineSpec {
        spines: 8,
        leaves: 8,
        hosts_per_leaf: 8,
        host_rate: 10_000_000_000,
        core_rate: 10_000_000_000,
        prop: DEFAULT_PROP,
    });
    let schemes = [
        Scheme::Ecmp,
        Scheme::Random,
        Scheme::RoundRobin,
        Scheme::Drill {
            d: 1,
            m: 0,
            shim: false,
        },
        Scheme::Drill {
            d: 2,
            m: 0,
            shim: false,
        },
        Scheme::Drill {
            d: 2,
            m: 1,
            shim: false,
        },
        Scheme::Drill {
            d: 3,
            m: 2,
            shim: false,
        },
    ];
    println!("8x8x8 fabric, open-loop bursty traffic at 80% load; queue-length STDV");
    println!("across each leaf's uplinks and each leaf's spine downlinks, sampled");
    println!("every 10us (the paper's Figure 2 metric; lower = better balance)\n");

    let cfgs: Vec<ExperimentConfig> = schemes
        .iter()
        .map(|&scheme| {
            let mut cfg = ExperimentConfig::new(topo.clone(), scheme, 0.8);
            cfg.duration = Time::from_millis(10);
            cfg.drain = Time::from_millis(10);
            cfg.raw_packet_mode = true;
            cfg.sample_queues = true;
            cfg.queue_limit_bytes = 20_000_000;
            cfg.workload.burst_sigma = 2.0;
            cfg
        })
        .collect();
    println!("{:<24} {:>14} {:>10}", "scheme", "mean STDV", "max STDV");
    for stats in run_many(&cfgs) {
        println!(
            "{:<24} {:>14.3} {:>10.1}",
            stats.scheme,
            stats.queue_stdv.mean(),
            stats.queue_stdv.max()
        );
    }
    println!("\nReading the ladder: per-flow hashing (ECMP) is orders of magnitude worse");
    println!("than any per-packet scheme; adding one random choice (d=2) and one unit");
    println!("of memory (m=1) tightens per-packet Random substantially — the paper's");
    println!("'small amounts of choice and memory dramatically improve performance'.");
}
