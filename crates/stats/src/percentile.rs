//! Sample distributions with quantile queries and CDF export: exact, or
//! a streaming sketch when built as one.
//!
//! The paper reports 99.99th percentiles of flow completion time, and a
//! tail that far out is only as good as the order statistic it rests on:
//! a rank-bounded estimate of p99.99 can be any sample from about p99.35
//! up. So a [`Distribution`] keeps every sample (8 bytes each) however
//! many arrive, and its quantiles are order statistics. A caller that
//! wants bounded memory and accepts rank error asks for it by name with
//! [`Distribution::sketched`], a deterministic [`QuantileSketch`]. The
//! query API is identical in both modes; `count`, `mean`, `min` and `max`
//! are exact in both, quantiles/CDF of a sketch are rank-bounded estimates
//! (see [`Distribution::rank_error_bound`]).

use crate::sketch::QuantileSketch;

#[derive(Clone, Debug)]
enum Store {
    /// Exact mode: samples kept verbatim, sorted lazily at query time.
    Exact { samples: Vec<f64>, sorted: bool },
    /// Sketch mode: bounded-memory streaming sketch.
    Sketch(QuantileSketch),
}

/// A store of `f64` samples with quantile queries: exact, or a
/// deterministic mergeable quantile sketch if built with
/// [`Distribution::sketched`].
///
/// Samples in exact mode are kept unsorted until a query, then sorted
/// lazily and the sorted state is cached until the next insertion.
#[derive(Clone, Debug)]
pub struct Distribution {
    store: Store,
    /// Exact running sum (both modes).
    sum: f64,
}

impl Default for Distribution {
    fn default() -> Distribution {
        Distribution::new()
    }
}

impl Distribution {
    /// An empty exact distribution.
    pub fn new() -> Distribution {
        Distribution::with_capacity(0)
    }

    /// An empty distribution in sketch mode — the differential goldens use
    /// this to compare sketch estimates against the exact store on
    /// identical input, and scale runs to bound memory.
    pub fn sketched() -> Distribution {
        Distribution {
            store: Store::Sketch(QuantileSketch::new()),
            sum: 0.0,
        }
    }

    /// An empty exact distribution with space for `n` samples.
    pub fn with_capacity(n: usize) -> Distribution {
        Distribution {
            store: Store::Exact {
                samples: Vec::with_capacity(n),
                sorted: true,
            },
            sum: 0.0,
        }
    }

    /// Whether the store is still exact (quantiles are order statistics,
    /// not estimates).
    pub fn is_exact(&self) -> bool {
        matches!(self.store, Store::Exact { .. })
    }

    /// The exact samples, while in exact mode.
    pub fn exact_samples(&self) -> Option<&[f64]> {
        match &self.store {
            Store::Exact { samples, .. } => Some(samples),
            Store::Sketch(_) => None,
        }
    }

    /// Samples (exact mode) or sketch items (sketch mode) currently held
    /// in memory: O(n) exact, O(k log n) as a sketch.
    pub fn retained(&self) -> usize {
        match &self.store {
            Store::Exact { samples, .. } => samples.len(),
            Store::Sketch(s) => s.retained(),
        }
    }

    /// Rank-error envelope of quantile queries: `None` in exact mode,
    /// `Some(eps)` in sketch mode (estimates land within `eps * count`
    /// ranks of the exact order statistic; see
    /// [`QuantileSketch::rank_error_bound`]).
    pub fn rank_error_bound(&self) -> Option<f64> {
        match &self.store {
            Store::Exact { .. } => None,
            Store::Sketch(s) => Some(s.rank_error_bound()),
        }
    }

    /// FNV-1a digest of the full store state; bit-identical stores give
    /// equal digests. The sweep determinism goldens compare these across
    /// thread counts.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf29ce484222325;
        const FNV_PRIME: u64 = 0x100000001b3;
        match &self.store {
            Store::Exact { samples, .. } => {
                let mut h = FNV_OFFSET;
                for &v in samples {
                    for b in v.to_bits().to_le_bytes() {
                        h ^= b as u64;
                        h = h.wrapping_mul(FNV_PRIME);
                    }
                }
                h
            }
            Store::Sketch(s) => s.digest(),
        }
    }

    /// Observe one value. Non-finite values are a caller bug and panic in
    /// debug builds.
    #[inline]
    pub fn add(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite sample {x}");
        self.sum += x;
        match &mut self.store {
            Store::Exact { samples, sorted } => {
                samples.push(x);
                *sorted = false;
            }
            Store::Sketch(s) => s.add(x),
        }
    }

    /// Merge all mass of `other` into `self`.
    ///
    /// Exact + exact concatenates samples, so quantiles over the merged
    /// store stay order statistics at any size. A sketch on either side
    /// makes the result a sketch: the one lossy operand decides. The
    /// result is a pure function of the operand states, so a fixed merge
    /// order reproduces identical stores on any thread count.
    pub fn merge(&mut self, other: &Distribution) {
        if other.is_empty() {
            // Merging in an empty store (whatever its mode) is a no-op —
            // in particular an empty sketch must not turn an exact store
            // into one.
            return;
        }
        self.sum += other.sum;
        match (&mut self.store, &other.store) {
            (Store::Exact { samples, sorted }, Store::Exact { samples: os, .. }) => {
                samples.extend_from_slice(os);
                *sorted = samples.len() <= 1;
            }
            (Store::Exact { samples, .. }, Store::Sketch(osk)) => {
                let mut sk = QuantileSketch::new();
                for &x in samples.iter() {
                    sk.add(x);
                }
                sk.merge(osk);
                self.store = Store::Sketch(sk);
            }
            (Store::Sketch(sk), Store::Exact { samples: os, .. }) => {
                for &x in os.iter() {
                    sk.add(x);
                }
            }
            (Store::Sketch(sk), Store::Sketch(osk)) => sk.merge(osk),
        }
    }

    /// Number of samples (exact in both modes).
    #[inline]
    pub fn count(&self) -> usize {
        match &self.store {
            Store::Exact { samples, .. } => samples.len(),
            Store::Sketch(s) => s.count() as usize,
        }
    }

    /// Whether no samples have been observed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Arithmetic mean, or 0 if empty (exact in both modes).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum / self.count() as f64
        }
    }

    fn ensure_sorted(&mut self) {
        if let Store::Exact { samples, sorted } = &mut self.store {
            if !*sorted {
                samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite samples"));
                *sorted = true;
            }
        }
    }

    /// The `q`-quantile (`q` in `[0,1]`); 0 if empty. Exact mode
    /// interpolates linearly between order statistics; sketch mode
    /// returns a rank-bounded estimate (extrema stay exact).
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        self.ensure_sorted();
        match &self.store {
            Store::Exact { samples, .. } => {
                let n = samples.len();
                if n == 0 {
                    return 0.0;
                }
                if n == 1 {
                    return samples[0];
                }
                let pos = q * (n - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = pos.ceil() as usize;
                let frac = pos - lo as f64;
                samples[lo] * (1.0 - frac) + samples[hi] * frac
            }
            Store::Sketch(s) => s.quantile(q),
        }
    }

    /// Convenience: the `p`-th percentile (`p` in `[0,100]`).
    pub fn percentile(&mut self, p: f64) -> f64 {
        self.quantile(p / 100.0)
    }

    /// Maximum sample, or 0 if empty (exact in both modes).
    pub fn max(&mut self) -> f64 {
        self.ensure_sorted();
        match &self.store {
            Store::Exact { samples, .. } => samples.last().copied().unwrap_or(0.0),
            Store::Sketch(s) => s.max(),
        }
    }

    /// Minimum sample, or 0 if empty (exact in both modes).
    pub fn min(&mut self) -> f64 {
        self.ensure_sorted();
        match &self.store {
            Store::Exact { samples, .. } => samples.first().copied().unwrap_or(0.0),
            Store::Sketch(s) => s.min(),
        }
    }

    /// Export up to `points` evenly spaced `(value, cumulative fraction)`
    /// pairs describing the empirical CDF — the series the paper's CDF
    /// figures plot. Exact order statistics, or rank-bounded estimates in
    /// sketch mode.
    pub fn cdf(&mut self, points: usize) -> Vec<(f64, f64)> {
        self.ensure_sorted();
        match &self.store {
            Store::Exact { samples, .. } => {
                let n = samples.len();
                if n == 0 || points == 0 {
                    return Vec::new();
                }
                let points = points.min(n);
                let mut out = Vec::with_capacity(points);
                for k in 1..=points {
                    // Index of the k-th of `points` evenly spaced order
                    // statistics.
                    let i = (k * n).div_ceil(points) - 1;
                    out.push((samples[i], (i + 1) as f64 / n as f64));
                }
                out
            }
            Store::Sketch(s) => s.cdf(points),
        }
    }

    /// Fraction of samples strictly greater than `x` (estimated in sketch
    /// mode).
    pub fn frac_above(&mut self, x: f64) -> f64 {
        self.ensure_sorted();
        match &self.store {
            Store::Exact { samples, .. } => {
                if samples.is_empty() {
                    return 0.0;
                }
                let idx = samples.partition_point(|&v| v <= x);
                (samples.len() - idx) as f64 / samples.len() as f64
            }
            Store::Sketch(s) => s.frac_above(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(xs: &[f64]) -> Distribution {
        let mut d = Distribution::new();
        for &x in xs {
            d.add(x);
        }
        d
    }

    #[test]
    fn empty_queries() {
        let mut d = Distribution::new();
        assert_eq!(d.quantile(0.5), 0.0);
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.max(), 0.0);
        assert!(d.cdf(10).is_empty());
        assert!(d.is_exact());
        assert_eq!(d.rank_error_bound(), None);
    }

    #[test]
    fn single_sample() {
        let mut d = dist(&[7.0]);
        assert_eq!(d.quantile(0.0), 7.0);
        assert_eq!(d.quantile(0.5), 7.0);
        assert_eq!(d.quantile(1.0), 7.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let mut d = dist(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(d.quantile(0.0), 10.0);
        assert_eq!(d.quantile(1.0), 40.0);
        assert!((d.quantile(0.5) - 25.0).abs() < 1e-12);
        assert!((d.percentile(25.0) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let mut d = dist(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(d.min(), 1.0);
        assert_eq!(d.max(), 5.0);
        assert_eq!(d.quantile(0.5), 3.0);
    }

    #[test]
    fn add_after_query_resorts() {
        let mut d = dist(&[1.0, 2.0, 3.0]);
        assert_eq!(d.max(), 3.0);
        d.add(0.5);
        assert_eq!(d.min(), 0.5);
        assert_eq!(d.count(), 4);
    }

    #[test]
    fn mean_and_merge() {
        let mut a = dist(&[1.0, 2.0]);
        let b = dist(&[3.0, 4.0]);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert!((a.mean() - 2.5).abs() < 1e-12);
        assert_eq!(a.max(), 4.0);
        assert!(a.is_exact(), "small merges stay exact");
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut d = dist(
            &(0..1000)
                .map(|i| (i as f64 * 7919.0) % 100.0)
                .collect::<Vec<_>>(),
        );
        let cdf = d.cdf(50);
        assert_eq!(cdf.len(), 50);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0, "values monotone");
            assert!(w[0].1 <= w[1].1, "fractions monotone");
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_with_fewer_samples_than_points() {
        let mut d = dist(&[1.0, 2.0, 3.0]);
        let cdf = d.cdf(10);
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf[2], (3.0, 1.0));
    }

    #[test]
    fn frac_above() {
        let mut d = dist(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.frac_above(2.0), 0.5);
        assert_eq!(d.frac_above(0.0), 1.0);
        assert_eq!(d.frac_above(4.0), 0.0);
    }

    #[test]
    fn quantile_boundaries_are_exact_order_statistics() {
        let mut d = dist(&[30.0, 10.0, 20.0]);
        // p=0 and p=100 are the extreme order statistics, no interpolation
        // and no out-of-bounds `hi` index at pos = n-1.
        assert_eq!(d.quantile(0.0), 10.0);
        assert_eq!(d.quantile(1.0), 30.0);
        assert_eq!(d.percentile(0.0), 10.0);
        assert_eq!(d.percentile(100.0), 30.0);
        // An exact order-statistic position (frac == 0) returns the sample
        // verbatim, not a float-drifted interpolation.
        assert_eq!(d.quantile(0.5), 20.0);
    }

    #[test]
    fn single_sample_all_queries_agree() {
        let mut d = dist(&[7.5]);
        assert_eq!(d.min(), 7.5);
        assert_eq!(d.max(), 7.5);
        assert_eq!(d.mean(), 7.5);
        assert_eq!(d.percentile(0.0), 7.5);
        assert_eq!(d.percentile(50.0), 7.5);
        assert_eq!(d.percentile(100.0), 7.5);
        assert_eq!(d.cdf(5), vec![(7.5, 1.0)]);
        assert_eq!(d.frac_above(7.5), 0.0);
        assert_eq!(d.frac_above(7.4), 1.0);
    }

    #[test]
    fn empty_min_is_zero() {
        assert_eq!(Distribution::new().min(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_rejects_out_of_range() {
        dist(&[1.0]).quantile(1.0001);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_rejects_nan() {
        dist(&[1.0]).quantile(f64::NAN);
    }

    #[test]
    fn tail_percentile_hits_extreme_sample() {
        // Two outliers among 9998 small samples: the interpolated p99.99
        // (position 9998.0001 of 0..=9999) lands on the first outlier.
        let mut d = Distribution::with_capacity(10_000);
        for _ in 0..9_998 {
            d.add(1.0);
        }
        d.add(1000.0);
        d.add(1000.0);
        assert!(d.percentile(99.99) > 500.0);
        assert!(d.percentile(99.0) < 2.0);
    }

    // ---- sketch-mode behaviour and mode boundaries ---------------------

    #[test]
    fn sketched_starts_in_sketch_mode() {
        let mut d = Distribution::sketched();
        assert!(!d.is_exact());
        assert!(d.is_empty());
        assert_eq!(d.quantile(0.5), 0.0);
        d.add(3.0);
        assert_eq!(d.quantile(0.5), 3.0);
        assert_eq!(d.count(), 1);
    }

    #[test]
    fn merge_with_empty_preserves_state_in_both_modes() {
        for mut d in [dist(&[1.0, 2.0, 3.0]), {
            let mut s = Distribution::sketched();
            for i in 0..50 {
                s.add(i as f64);
            }
            s
        }] {
            let count = d.count();
            let digest = d.digest();
            d.merge(&Distribution::new());
            d.merge(&Distribution::sketched());
            assert_eq!(d.count(), count);
            assert_eq!(d.digest(), digest, "empty merge changed the store");
        }
    }

    #[test]
    fn exact_merge_past_a_million_samples_stays_exact() {
        // Four seeds' worth of 300 000 samples each: 1.2 M > 2^20, and the
        // merged store still answers with order statistics.
        const PER: usize = 300_000;
        let mut merged = Distribution::new();
        for part in 0..4 {
            let mut d = Distribution::with_capacity(PER);
            for i in 0..PER {
                d.add((i * 4 + part) as f64);
            }
            merged.merge(&d);
        }
        let n = 4 * PER;
        assert!(n > 1 << 20);
        assert!(merged.is_exact());
        assert_eq!(merged.rank_error_bound(), None);
        assert_eq!(merged.count(), n);
        assert_eq!(merged.retained(), n);
        // Samples are 0..n: the q-quantile is the order statistic q(n-1).
        assert_eq!(merged.quantile(0.0), 0.0);
        assert_eq!(merged.quantile(0.5), (n - 1) as f64 / 2.0);
        assert!((merged.percentile(99.99) - 0.9999 * (n - 1) as f64).abs() < 1e-6);
        assert_eq!(merged.max(), (n - 1) as f64);
        assert_eq!(merged.frac_above((n - 2) as f64), 1.0 / n as f64);
    }

    #[test]
    fn mixed_mode_merges_cover_all_pairings() {
        let exact = dist(&[1.0, 2.0, 3.0]);
        let mut sk = Distribution::sketched();
        for i in 0..10 {
            sk.add(i as f64 + 10.0);
        }
        // exact <- sketch
        let mut a = exact.clone();
        a.merge(&sk);
        assert!(!a.is_exact());
        assert_eq!(a.count(), 13);
        assert_eq!(a.max(), 19.0);
        // sketch <- exact
        let mut b = sk.clone();
        b.merge(&exact);
        assert_eq!(b.count(), 13);
        assert_eq!(b.min(), 1.0);
        // sketch <- sketch
        let mut c = sk.clone();
        c.merge(&sk);
        assert_eq!(c.count(), 20);
    }

    #[test]
    fn sketch_digest_is_replay_stable() {
        let build = || {
            let mut d = Distribution::sketched();
            for i in 0..5_000 {
                d.add((i as f64 * 97.0) % 1013.0);
            }
            d
        };
        assert_eq!(build().digest(), build().digest());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite sample")]
    fn nan_add_is_rejected_in_debug() {
        Distribution::new().add(f64::NAN);
    }
}
