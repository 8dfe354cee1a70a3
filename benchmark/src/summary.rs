//! Order statistics over the timed repetitions.

/// Median, quartiles and extremes of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// The `p`-quantile by the exclusive method Python's
/// `statistics.quantiles` uses (position `p * (n + 1)`, clamped to the
/// sample's ends), so spreads computed here match the ones the benchmark
/// contract is checked with.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if lo >= n {
        sorted[n - 1]
    } else {
        sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
    }
}

pub fn median(xs: &[f64]) -> f64 {
    summarize(xs).median
}

/// Summarize a non-empty sample.
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "summary of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    Summary {
        n: s.len(),
        min: s[0],
        q1: quantile(&s, 0.25),
        median: quantile(&s, 0.5),
        q3: quantile(&s, 0.75),
        max: s[s.len() - 1],
    }
}

impl Summary {
    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(summarize(&[7.0]).median, 7.0);
        assert_eq!(summarize(&[1.0, 3.0]).median, 2.0);
    }
}
