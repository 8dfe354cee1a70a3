//! Declarative sweeps: a cartesian grid of experiment points executed in
//! parallel with bit-identical results to a serial replay.
//!
//! Every figure in the paper's §4 is a sweep over independent
//! `(scheme, load, engines, seed)` simulation points. [`SweepSpec`]
//! describes such a grid declaratively — axes plus a per-point config
//! hook — and [`SweepSpec::run`] executes it on the [`drill_exec`] pool.
//!
//! # Determinism contract
//!
//! * **Per-point isolation.** Each point clones the base config, applies
//!   its axis values and the hook, and [`run`]s a fresh `World`. No
//!   simulation state is shared between points, so a point's result is a
//!   pure function of its config.
//! * **Per-point seed derivation.** Replication `rep` of a sweep runs at
//!   seed [`derive_seed`]`(base_seed, rep)`: rep 0 keeps the base seed
//!   (so single-rep sweeps reproduce historic single-run results), later
//!   reps get decorrelated SplitMix64-derived seeds. All points of one
//!   rep share a seed — common random numbers, so scheme A and scheme B
//!   face the exact same arriving workload.
//! * **Ordered collection.** Results land at their point's grid index
//!   regardless of which worker finishes first; `DRILL_THREADS` (and the
//!   completion order it induces) can change wall clock, never output.
//!
//! `tests/determinism_golden.rs` differentially tests serial replay
//! against 1/2/8-thread runs of the same grid.

use drill_exec::Executor;

use crate::{run, ExperimentConfig, RunStats, Scheme};

/// Derive the seed for replication `rep` of a sweep with root seed
/// `base`. Rep 0 is the base seed itself; later reps are SplitMix64
/// mixes, decorrelated from the base and from each other.
pub fn derive_seed(base: u64, rep: usize) -> u64 {
    if rep == 0 {
        return base;
    }
    // SplitMix64 over (base, rep): one golden-ratio step per component.
    let mut z = base
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((rep as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One cell of a sweep grid: the axis values and indices identifying a
/// single simulation point.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Flat index in grid order (`rep`-major, `scheme`-minor).
    pub index: usize,
    /// Scheme under test.
    pub scheme: Scheme,
    /// Offered load.
    pub load: f64,
    /// Forwarding engines per switch.
    pub engines: usize,
    /// Label of the variant axis cell (empty when the axis is unused).
    pub variant: String,
    /// Replication number (selects the derived seed).
    pub rep: usize,
    /// The derived per-point seed actually used.
    pub seed: u64,
    /// Index into the scheme axis.
    pub scheme_idx: usize,
    /// Index into the load axis.
    pub load_idx: usize,
    /// Index into the engines axis.
    pub engines_idx: usize,
    /// Index into the variant axis.
    pub variant_idx: usize,
}

type ConfigHook = Box<dyn Fn(&mut ExperimentConfig, &SweepPoint) + Sync>;

/// A declarative sweep: a base config, up to five axes (scheme, load,
/// engines, variant, seed replication), and an optional per-point hook
/// for knobs that are not an axis.
///
/// Grid order is row-major with `rep` outermost and `scheme` innermost:
/// `rep → load → engines → variant → scheme`. Unset axes default to the
/// base config's value, so a simple "schemes × loads" sweep is:
///
/// ```
/// use drill_runtime::{ExperimentConfig, Scheme, SweepSpec, TopoSpec};
/// use drill_net::LeafSpineSpec;
/// # let topo = TopoSpec::LeafSpine(LeafSpineSpec {
/// #     spines: 2, leaves: 2, hosts_per_leaf: 2,
/// #     host_rate: 10_000_000_000, core_rate: 10_000_000_000,
/// #     prop: drill_net::DEFAULT_PROP,
/// # });
/// let mut base = ExperimentConfig::new(topo, Scheme::Ecmp, 0.3);
/// base.duration = drill_sim::Time::from_millis(1);
/// base.drain = drill_sim::Time::from_millis(20);
/// let results = SweepSpec::new(base)
///     .schemes(vec![Scheme::Ecmp, Scheme::drill_default()])
///     .loads(vec![0.2, 0.3])
///     .threads(2)
///     .run();
/// assert_eq!(results.len(), 4);
/// ```
pub struct SweepSpec {
    base: ExperimentConfig,
    schemes: Vec<Scheme>,
    loads: Vec<f64>,
    engines: Vec<usize>,
    variants: Vec<String>,
    reps: usize,
    threads: Option<usize>,
    configure: Option<ConfigHook>,
}

impl SweepSpec {
    /// A sweep whose every axis is the base config's single value.
    pub fn new(base: ExperimentConfig) -> SweepSpec {
        SweepSpec {
            schemes: vec![base.scheme],
            loads: vec![base.workload.load],
            engines: vec![base.engines],
            variants: vec![String::new()],
            reps: 1,
            threads: None,
            configure: None,
            base,
        }
    }

    /// Set the scheme axis.
    pub fn schemes(mut self, schemes: Vec<Scheme>) -> SweepSpec {
        assert!(!schemes.is_empty(), "scheme axis must be non-empty");
        self.schemes = schemes;
        self
    }

    /// Set the offered-load axis.
    pub fn loads(mut self, loads: Vec<f64>) -> SweepSpec {
        assert!(!loads.is_empty(), "load axis must be non-empty");
        self.loads = loads;
        self
    }

    /// Set the forwarding-engines axis.
    pub fn engines(mut self, engines: Vec<usize>) -> SweepSpec {
        assert!(!engines.is_empty(), "engines axis must be non-empty");
        self.engines = engines;
        self
    }

    /// Set the free-form variant axis. Variants carry no config meaning on
    /// their own; pair them with [`configure`](SweepSpec::configure).
    pub fn variants<S: Into<String>>(mut self, variants: Vec<S>) -> SweepSpec {
        assert!(!variants.is_empty(), "variant axis must be non-empty");
        self.variants = variants.into_iter().map(Into::into).collect();
        self
    }

    /// Run `reps` seed replications of the whole grid (per-point seeds
    /// derived with [`derive_seed`]).
    pub fn reps(mut self, reps: usize) -> SweepSpec {
        assert!(reps > 0, "at least one replication");
        self.reps = reps;
        self
    }

    /// Override the worker count (default: `DRILL_THREADS`, else available
    /// parallelism).
    pub fn threads(mut self, threads: usize) -> SweepSpec {
        self.threads = Some(threads);
        self
    }

    /// Install a per-point config hook, applied after the axis values.
    pub fn configure<F>(mut self, f: F) -> SweepSpec
    where
        F: Fn(&mut ExperimentConfig, &SweepPoint) + Sync + 'static,
    {
        self.configure = Some(Box::new(f));
        self
    }

    fn shape(&self) -> SweepShape {
        SweepShape {
            schemes: self.schemes.len(),
            loads: self.loads.len(),
            engines: self.engines.len(),
            variants: self.variants.len(),
            reps: self.reps,
        }
    }

    /// Materialize every grid point and its fully-configured
    /// `ExperimentConfig`, in grid order.
    pub fn points(&self) -> Vec<(SweepPoint, ExperimentConfig)> {
        let mut out = Vec::with_capacity(self.shape().len());
        for rep in 0..self.reps {
            let seed = derive_seed(self.base.seed, rep);
            for (load_idx, &load) in self.loads.iter().enumerate() {
                for (engines_idx, &engines) in self.engines.iter().enumerate() {
                    for (variant_idx, variant) in self.variants.iter().enumerate() {
                        for (scheme_idx, &scheme) in self.schemes.iter().enumerate() {
                            let point = SweepPoint {
                                index: out.len(),
                                scheme,
                                load,
                                engines,
                                variant: variant.clone(),
                                rep,
                                seed,
                                scheme_idx,
                                load_idx,
                                engines_idx,
                                variant_idx,
                            };
                            let mut cfg = self.base.clone();
                            cfg.scheme = scheme;
                            cfg.workload.load = load;
                            cfg.engines = engines;
                            cfg.seed = seed;
                            if let Some(hook) = &self.configure {
                                hook(&mut cfg, &point);
                            }
                            out.push((point, cfg));
                        }
                    }
                }
            }
        }
        out
    }

    /// Execute the sweep in parallel. Results are bit-identical to
    /// [`run_serial`](SweepSpec::run_serial) for every thread count.
    pub fn run(&self) -> SweepResults {
        let executor = match self.threads {
            Some(n) => Executor::new(n),
            None => Executor::from_env(),
        };
        self.run_on(executor)
    }

    /// Execute the sweep serially on the calling thread (the replay
    /// reference for differential tests).
    pub fn run_serial(&self) -> SweepResults {
        self.run_on(Executor::serial())
    }

    fn run_on(&self, executor: Executor) -> SweepResults {
        let points = self.points();
        let stats = executor.map(&points, |_, (_, cfg)| run(cfg));
        SweepResults {
            shape: self.shape(),
            points: points.into_iter().map(|(p, _)| p).collect(),
            stats,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct SweepShape {
    schemes: usize,
    loads: usize,
    engines: usize,
    variants: usize,
    reps: usize,
}

impl SweepShape {
    fn len(&self) -> usize {
        self.schemes * self.loads * self.engines * self.variants * self.reps
    }

    fn index(
        &self,
        rep: usize,
        load: usize,
        engines: usize,
        variant: usize,
        scheme: usize,
    ) -> usize {
        assert!(
            rep < self.reps
                && load < self.loads
                && engines < self.engines
                && variant < self.variants
                && scheme < self.schemes,
            "sweep index out of range"
        );
        (((rep * self.loads + load) * self.engines + engines) * self.variants + variant)
            * self.schemes
            + scheme
    }
}

/// Results of a sweep, in grid order, with per-cell access and
/// cross-replication aggregation.
pub struct SweepResults {
    shape: SweepShape,
    points: Vec<SweepPoint>,
    stats: Vec<RunStats>,
}

impl SweepResults {
    /// Number of points.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// Whether the sweep was empty.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Iterate points and their stats in grid order.
    pub fn iter(&self) -> impl Iterator<Item = (&SweepPoint, &RunStats)> {
        self.points.iter().zip(&self.stats)
    }

    /// The stats of one grid cell.
    pub fn get(
        &self,
        rep: usize,
        load_idx: usize,
        engines_idx: usize,
        variant_idx: usize,
        scheme_idx: usize,
    ) -> &RunStats {
        &self.stats[self
            .shape
            .index(rep, load_idx, engines_idx, variant_idx, scheme_idx)]
    }

    /// Merge the replications of one `(load, engines, variant, scheme)`
    /// cell into a single aggregated `RunStats`.
    pub fn merged(
        &self,
        load_idx: usize,
        engines_idx: usize,
        variant_idx: usize,
        scheme_idx: usize,
    ) -> RunStats {
        let mut acc = self
            .get(0, load_idx, engines_idx, variant_idx, scheme_idx)
            .clone();
        for rep in 1..self.shape.reps {
            acc.merge(self.get(rep, load_idx, engines_idx, variant_idx, scheme_idx));
        }
        acc
    }

    /// Consume the results, yielding the flat stats vector in grid order.
    pub fn into_stats(self) -> Vec<RunStats> {
        self.stats
    }
}

/// Run every configuration, spreading runs across the `DRILL_THREADS`
/// pool. Results come back in input order, bit-identical to running each
/// config serially.
///
/// Kept for free-form config lists; grids should use [`SweepSpec`].
pub fn run_many(cfgs: &[ExperimentConfig]) -> Vec<RunStats> {
    Executor::from_env().map(cfgs, |_, cfg| run(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TopoSpec;
    use drill_net::LeafSpineSpec;
    use drill_sim::Time;

    fn tiny_base(scheme: Scheme, load: f64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(
            TopoSpec::LeafSpine(LeafSpineSpec {
                spines: 2,
                leaves: 2,
                hosts_per_leaf: 2,
                host_rate: 10_000_000_000,
                core_rate: 10_000_000_000,
                prop: drill_net::DEFAULT_PROP,
            }),
            scheme,
            load,
        );
        cfg.duration = Time::from_millis(2);
        cfg.drain = Time::from_millis(50);
        cfg
    }

    #[test]
    fn parallel_matches_serial() {
        let cfgs = vec![
            tiny_base(Scheme::Ecmp, 0.3),
            tiny_base(Scheme::drill_default(), 0.3),
            tiny_base(Scheme::Random, 0.3),
        ];
        let par = run_many(&cfgs);
        assert_eq!(par.len(), 3);
        for (cfg, stats) in cfgs.iter().zip(&par) {
            let serial = run(cfg);
            assert_eq!(stats.events, serial.events, "{}", cfg.scheme.name());
            assert_eq!(stats.flows_started, serial.flows_started);
        }
        assert_eq!(par[0].scheme, "ECMP");
        assert_eq!(par[1].scheme, "DRILL(2,1)");
    }

    #[test]
    fn grid_order_is_rep_major_scheme_minor() {
        let spec = SweepSpec::new(tiny_base(Scheme::Ecmp, 0.3))
            .schemes(vec![Scheme::Ecmp, Scheme::Random])
            .loads(vec![0.2, 0.4])
            .engines(vec![1, 2])
            .variants(vec!["a", "b"])
            .reps(2);
        let points = spec.points();
        assert_eq!(points.len(), 2 * 2 * 2 * 2 * 2);
        for (i, (p, cfg)) in points.iter().enumerate() {
            assert_eq!(p.index, i);
            assert_eq!(cfg.scheme, p.scheme);
            assert_eq!(cfg.workload.load, p.load);
            assert_eq!(cfg.engines, p.engines);
            assert_eq!(cfg.seed, p.seed);
        }
        // Scheme is the fastest-moving axis; rep the slowest.
        assert_eq!(points[0].0.scheme, Scheme::Ecmp);
        assert_eq!(points[1].0.scheme, Scheme::Random);
        assert_eq!(points[1].0.variant, "a");
        assert_eq!(points[2].0.variant, "b");
        assert_eq!(points[4].0.engines, 2);
        assert_eq!(points[8].0.load, 0.4);
        assert_eq!(points[16].0.rep, 1);
    }

    #[test]
    fn seed_derivation_is_stable_and_rep0_preserves_base() {
        assert_eq!(derive_seed(42, 0), 42);
        assert_eq!(derive_seed(42, 1), derive_seed(42, 1));
        assert_ne!(derive_seed(42, 1), 42);
        assert_ne!(derive_seed(42, 1), derive_seed(42, 2));
        assert_ne!(derive_seed(42, 1), derive_seed(43, 1));
    }

    #[test]
    fn hook_sees_axis_values_and_can_override() {
        let spec = SweepSpec::new(tiny_base(Scheme::Ecmp, 0.3))
            .variants(vec!["commit", "no-commit"])
            .configure(|cfg, p| cfg.model_commit = p.variant == "commit");
        let points = spec.points();
        assert!(points[0].1.model_commit);
        assert!(!points[1].1.model_commit);
    }

    #[test]
    fn sweep_results_index_and_merge() {
        let spec = SweepSpec::new(tiny_base(Scheme::Ecmp, 0.3))
            .schemes(vec![Scheme::Ecmp, Scheme::drill_default()])
            .loads(vec![0.2, 0.4])
            .reps(2)
            .threads(2);
        let res = spec.run();
        assert_eq!(res.len(), 8);
        // Each cell matches a direct run of its config.
        for (p, st) in res.iter() {
            assert_eq!(
                st.events,
                res.get(p.rep, p.load_idx, 0, 0, p.scheme_idx).events
            );
        }
        // Reps differ (different seeds), and the merged cell sums them.
        let a = res.get(0, 0, 0, 0, 0);
        let b = res.get(1, 0, 0, 0, 0);
        assert_ne!(a.events, b.events, "reps use distinct seeds");
        let m = res.merged(0, 0, 0, 0);
        assert_eq!(m.events, a.events + b.events);
        assert_eq!(m.flows_started, a.flows_started + b.flows_started);
        assert_eq!(m.fct_ms.count(), a.fct_ms.count() + b.fct_ms.count());
    }
}
