//! Deterministic, splittable randomness.

/// The simulation's random number generator.
///
/// A vendored xoshiro256++ generator (Blackman & Vigna) seeded through
/// SplitMix64, so the simulation kernel needs no external crates and the
/// workspace builds fully offline. On top of the raw stream it adds
/// *splitting*: each component of the simulation (every switch, every host,
/// the workload generator) derives its own independent stream from a root
/// seed plus a stable label, so that adding randomness consumption in one
/// component never perturbs another component's stream. This keeps
/// experiments comparable across schemes: with the same seed, ECMP and
/// DRILL see the exact same arriving workload.
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Root generator for a run.
    pub fn seed_from(seed: u64) -> SimRng {
        // Expand the 64-bit seed into 256 bits of state with SplitMix64,
        // the seeding procedure the xoshiro authors recommend; it can
        // never produce the all-zero state.
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            *slot = splitmix64_mix(sm);
        }
        SimRng { s }
    }

    /// Derive an independent child stream identified by `(label, index)`.
    ///
    /// The derivation mixes the parent seed with the label through
    /// SplitMix64 steps, so children of the same parent with different
    /// labels are decorrelated.
    pub fn derive(seed: u64, label: &str, index: u64) -> SimRng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in label.bytes() {
            h = splitmix64(h ^ b as u64);
        }
        h = splitmix64(h ^ index);
        SimRng::seed_from(h)
    }

    /// The raw 256-bit generator state, for checkpointing. Feeding the
    /// returned words to [`SimRng::from_state`] resumes the exact draw
    /// sequence.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from [`SimRng::state`] output.
    ///
    /// The caller must supply state captured from a real generator; the
    /// all-zero state is a xoshiro fixed point and is rejected by debug
    /// assertion.
    pub fn from_state(s: [u64; 4]) -> SimRng {
        debug_assert!(s != [0; 4], "all-zero xoshiro state");
        SimRng { s }
    }

    /// Uniform `u64` (one xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, n)`. `n` must be positive.
    ///
    /// Lemire's multiply-shift reduction; the bias is at most `n / 2^64`,
    /// far below anything the simulation's statistics can observe, and it
    /// keeps the draw branch-free and deterministic.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform float in `[0, 1)` with 53 random mantissa bits.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponentially distributed sample with the given mean.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Inverse CDF; 1-u avoids ln(0).
        -mean * (1.0 - self.unit()).ln()
    }

    /// Standard normal sample (Box–Muller, one value per call).
    pub fn std_normal(&mut self) -> f64 {
        let u1: f64 = 1.0 - self.unit();
        let u2: f64 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Lognormal sample parameterized by the *underlying* normal's mu and
    /// sigma.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.std_normal()).exp()
    }

    /// `true` with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Choose `k` distinct indices from `[0, n)` (k <= n), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx = Vec::new();
        self.sample_indices_into(n, k, &mut idx);
        idx
    }

    /// [`sample_indices`](SimRng::sample_indices) into a caller-owned
    /// buffer (cleared first), for per-packet callers that must not
    /// allocate. Same draws in the same order, so the two are
    /// interchangeable mid-stream.
    pub fn sample_indices_into(&mut self, n: usize, k: usize, idx: &mut Vec<usize>) {
        debug_assert!(k <= n);
        // Partial Fisher-Yates over an index vector; fine for the small n
        // (port counts) this is used with.
        idx.clear();
        idx.extend(0..n);
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
    }
}

#[inline]
fn splitmix64(z: u64) -> u64 {
    splitmix64_mix(z.wrapping_add(0x9e37_79b9_7f4a_7c15))
}

/// The SplitMix64 output mix (finalizer) alone, without the golden-ratio
/// increment; used by the seeding loop which advances the counter itself.
#[inline]
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(42);
        let mut b = SimRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn stream_is_stable_across_versions() {
        // Golden values for the vendored xoshiro256++ (splitmix64-seeded).
        // Every simulation result in results/ depends on these streams;
        // changing them silently invalidates all recorded goldens, so any
        // intentional generator change must update this test *and* them.
        let mut r = SimRng::seed_from(1);
        let head: Vec<u64> = (0..6).map(|_| r.next_u64()).collect();
        assert_eq!(
            head,
            [
                14971601782005023387,
                13781649495232077965,
                1847458086238483744,
                13765271635752736470,
                3406718355780431780,
                10892412867582108485,
            ]
        );
        let mut d = SimRng::derive(1, "net", 3);
        let head: Vec<u64> = (0..3).map(|_| d.next_u64()).collect();
        assert_eq!(
            head,
            [
                7690795725118980877,
                18380707128133689707,
                4592349343130818056
            ]
        );

        // Snapshot contract: capturing state mid-stream and resuming from
        // it replays the exact tail of the golden sequence above.
        let mut r = SimRng::seed_from(1);
        r.next_u64();
        r.next_u64();
        let mut resumed = SimRng::from_state(r.state());
        assert_eq!(resumed.next_u64(), 1847458086238483744);
        assert_eq!(resumed.next_u64(), 13765271635752736470);
        assert_eq!(resumed.next_u64(), 3406718355780431780);
    }

    #[test]
    fn state_round_trip_is_transparent() {
        let mut a = SimRng::derive(99, "wl", 7);
        for _ in 0..17 {
            a.next_u64();
        }
        let mut b = SimRng::from_state(a.state());
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derived_streams_differ_by_label_and_index() {
        let mut a = SimRng::derive(42, "switch", 0);
        let mut b = SimRng::derive(42, "switch", 1);
        let mut c = SimRng::derive(42, "host", 0);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_ne!(x, y);
        assert_ne!(x, z);
        assert_ne!(y, z);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = SimRng::seed_from(7);
        let mut seen = [false; 5];
        for _ in 0..500 {
            let v = r.below(5);
            assert!(v < 5);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::seed_from(1);
        let n = 200_000;
        let mean = 50.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() / mean < 0.02,
            "sample mean {sample_mean}"
        );
    }

    #[test]
    fn std_normal_moments() {
        let mut r = SimRng::seed_from(2);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.std_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn chance_frequency() {
        let mut r = SimRng::seed_from(3);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.25).abs() < 0.01, "p {p}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed_from(4);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = SimRng::seed_from(5);
        for _ in 0..100 {
            let s = r.sample_indices(10, 4);
            assert_eq!(s.len(), 4);
            let mut u = s.clone();
            u.sort_unstable();
            u.dedup();
            assert_eq!(u.len(), 4, "distinct");
            assert!(s.iter().all(|&i| i < 10));
        }
    }

    #[test]
    fn sample_indices_into_matches_allocating_form() {
        let mut a = SimRng::seed_from(11);
        let mut b = SimRng::seed_from(11);
        let mut buf = vec![99; 3]; // stale contents must not leak through
        for (n, k) in [(20, 2), (5, 5), (7, 0), (1, 1), (20, 2)] {
            b.sample_indices_into(n, k, &mut buf);
            assert_eq!(a.sample_indices(n, k), buf);
        }
        assert_eq!(a.next_u64(), b.next_u64(), "same draws consumed");
    }

    #[test]
    fn sample_indices_full_is_permutation() {
        let mut r = SimRng::seed_from(6);
        let mut s = r.sample_indices(6, 6);
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn lognormal_is_positive() {
        let mut r = SimRng::seed_from(8);
        for _ in 0..1000 {
            assert!(r.lognormal(0.0, 1.0) > 0.0);
        }
    }
}
