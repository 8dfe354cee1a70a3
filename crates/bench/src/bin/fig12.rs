//! Figure 12: ten random leaf-spine link failures — mean and 99.99th
//! percentile FCT vs load (scale-out topology). Also reproduces the §4
//! note comparing "ideal DRILL" (instant reconvergence) with OSPF-delayed
//! reaction under 5 failures at 70% load.

use drill_bench::{banner, base_config, fct_schemes, fct_tables, sweep_grid, Scale};
use drill_faults::{FaultKind, FaultSchedule};
use drill_net::LeafSpineSpec;
use drill_runtime::{random_leaf_spine_failures, Scheme, SweepSpec, TopoSpec};
use drill_sim::Time;

fn main() {
    let scale = Scale::from_env();
    banner("Figure 12: ten random link failures", scale);

    let n = scale.dim(4, 8, 16);
    let hosts = scale.dim(8, 16, 20);
    let topo = TopoSpec::LeafSpine(LeafSpineSpec {
        spines: n,
        leaves: n,
        hosts_per_leaf: hosts,
        host_rate: 10_000_000_000,
        core_rate: 10_000_000_000,
        prop: drill_net::DEFAULT_PROP,
    });
    let n_failures = scale.dim(3, 6, 10);
    let failures =
        random_leaf_spine_failures(&topo.build(), n_failures, drill_bench::seed_from_env());
    println!(
        "topology: {n} spines x {n} leaves x {hosts} hosts, all 10G; {} failed links (paper: 10)\n",
        failures.len()
    );

    let schemes = fct_schemes();
    let loads = scale.loads();
    let mut base = base_config(topo.clone(), schemes[0], loads[0], scale);
    base.failed_links = failures.clone();
    let mut grid = sweep_grid(base, &schemes, &loads);
    let (mean, tail) = fct_tables(&loads, &schemes, &mut grid);
    println!("(a) mean FCT [ms] vs load, {} failures", failures.len());
    println!("{mean}");
    println!(
        "(b) 99.99th percentile FCT [ms] vs load, {} failures",
        failures.len()
    );
    println!("{tail}");

    // §4: ideal DRILL vs OSPF-delayed reaction, 5 failures at 70% load.
    let five = random_leaf_spine_failures(
        &topo.build(),
        n_failures.min(5),
        drill_bench::seed_from_env() + 1,
    );
    let mut pair_base = base_config(topo, Scheme::drill_default(), 0.7, scale);
    pair_base.failed_links = five.clone();
    let res = SweepSpec::new(pair_base)
        .variants(vec!["ideal", "ospf-delayed"])
        .configure(|cfg, p| {
            if p.variant == "ospf-delayed" {
                // The same links die at 1 ms and routing reconverges 1 ms
                // later.
                let mut s = FaultSchedule::new(Time::from_millis(1));
                for (a, b) in cfg.failed_links.drain(..) {
                    s.push(Time::from_millis(1), FaultKind::LinkDown { a, b });
                }
                cfg.faults = Some(s);
            }
        })
        .run()
        .into_stats();
    let ideal_med = {
        let mut f = res[0].fct_ms.clone();
        f.percentile(50.0)
    };
    let delayed_med = {
        let mut f = res[1].fct_ms.clone();
        f.percentile(50.0)
    };
    println!(
        "ideal-DRILL vs OSPF-delayed DRILL ({} failures, 70% load):",
        five.len()
    );
    println!("  median FCT ideal   = {ideal_med:.3} ms");
    println!("  median FCT delayed = {delayed_med:.3} ms");
    println!(
        "  ideal improvement  = {:.2}% (paper: < 0.6%)\n",
        (delayed_med / ideal_med - 1.0) * 100.0
    );
    println!("expected shape (paper): DRILL and CONGA tolerate many failures best —");
    println!("CONGA shifts load toward surviving capacity, DRILL breaks asymmetric-path");
    println!("rate dependencies via its symmetric decomposition; Presto's static");
    println!("weights and ECMP degrade most.");
}
