//! Flow-size distributions.

use drill_sim::SimRng;

/// A flow-size distribution.
#[derive(Clone, Debug)]
pub enum FlowSizeDist {
    /// Every flow has the same size.
    Fixed(u64),
    /// Piecewise-linear inverse-CDF sampling over `(bytes, cdf)` nodes.
    /// The node list must start at cdf 0, end at cdf 1, and be monotone in
    /// both coordinates.
    Empirical(&'static [(f64, f64)]),
}

/// Approximation of the Facebook web-server flow sizes of Roy et al.
/// (SIGCOMM 2015): most flows are under 10 KB with a heavy tail to tens of
/// megabytes.
static FB_WEB: &[(f64, f64)] = &[
    (250.0, 0.0),
    (500.0, 0.15),
    (1_000.0, 0.30),
    (2_000.0, 0.50),
    (5_000.0, 0.65),
    (10_000.0, 0.78),
    (20_000.0, 0.86),
    (50_000.0, 0.92),
    (100_000.0, 0.95),
    (500_000.0, 0.98),
    (1_000_000.0, 0.99),
    (10_000_000.0, 1.0),
];

impl FlowSizeDist {
    /// The Facebook web-server distribution (the paper's trace-driven
    /// workload, reference \[62\]).
    pub fn fb_web() -> FlowSizeDist {
        FlowSizeDist::Empirical(FB_WEB)
    }

    /// Draw one flow size in bytes.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        match self {
            FlowSizeDist::Fixed(b) => *b,
            FlowSizeDist::Empirical(pts) => {
                let u = rng.unit();
                // Find the segment containing u.
                let mut i = 1;
                while i < pts.len() - 1 && pts[i].1 < u {
                    i += 1;
                }
                let (x0, c0) = pts[i - 1];
                let (x1, c1) = pts[i];
                let frac = if c1 > c0 { (u - c0) / (c1 - c0) } else { 0.0 };
                (x0 + frac.clamp(0.0, 1.0) * (x1 - x0)).round() as u64
            }
        }
    }

    /// Exact mean of the distribution in bytes.
    pub fn mean(&self) -> f64 {
        match self {
            FlowSizeDist::Fixed(b) => *b as f64,
            FlowSizeDist::Empirical(pts) => pts
                .windows(2)
                .map(|w| (w[1].1 - w[0].1) * (w[0].0 + w[1].0) / 2.0)
                .sum(),
        }
    }

    /// Validate structural invariants of an empirical node list.
    pub fn validate(&self) {
        if let FlowSizeDist::Empirical(pts) = self {
            assert!(pts.len() >= 2);
            assert_eq!(pts[0].1, 0.0, "must start at cdf 0");
            assert_eq!(pts[pts.len() - 1].1, 1.0, "must end at cdf 1");
            for w in pts.windows(2) {
                assert!(w[0].0 < w[1].0, "bytes monotone");
                assert!(w[0].1 <= w[1].1, "cdf monotone");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_distributions_are_valid() {
        FlowSizeDist::fb_web().validate();
    }

    #[test]
    fn fixed_is_constant() {
        let d = FlowSizeDist::Fixed(1234);
        let mut rng = SimRng::seed_from(1);
        assert_eq!(d.sample(&mut rng), 1234);
        assert_eq!(d.mean(), 1234.0);
    }

    #[test]
    fn samples_within_support() {
        let d = FlowSizeDist::fb_web();
        let mut rng = SimRng::seed_from(2);
        for _ in 0..10_000 {
            let s = d.sample(&mut rng);
            assert!((250..=10_000_000).contains(&s), "{s}");
        }
    }

    #[test]
    fn sample_mean_matches_analytic_mean() {
        let d = FlowSizeDist::fb_web();
        let mut rng = SimRng::seed_from(3);
        let n = 400_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng) as f64).sum();
        let sample_mean = sum / n as f64;
        let analytic = d.mean();
        assert!(
            (sample_mean - analytic).abs() / analytic < 0.05,
            "sample {sample_mean} vs analytic {analytic}"
        );
    }

    #[test]
    fn fb_web_is_mostly_small_flows() {
        let d = FlowSizeDist::fb_web();
        let mut rng = SimRng::seed_from(4);
        let n = 100_000;
        let small = (0..n).filter(|_| d.sample(&mut rng) <= 10_000).count();
        let frac = small as f64 / n as f64;
        assert!((frac - 0.78).abs() < 0.02, "~78% of flows <= 10KB: {frac}");
    }

    #[test]
    fn median_tracks_cdf() {
        let d = FlowSizeDist::fb_web();
        let mut rng = SimRng::seed_from(5);
        let mut xs: Vec<u64> = (0..50_001).map(|_| d.sample(&mut rng)).collect();
        xs.sort_unstable();
        let median = xs[25_000];
        assert!(
            (1_500..2_600).contains(&median),
            "median near 2KB: {median}"
        );
    }

    #[test]
    fn means_are_ordered_by_heavy_tail() {
        // fb_web's mean is dominated by its heavy tail, far above the
        // ~2 KB median.
        assert!(FlowSizeDist::fb_web().mean() > 10_000.0);
    }
}
