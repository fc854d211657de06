//! Deterministic pseudo-random number generation.
//!
//! Every randomized component of the reproduction — 2-stable projection
//! vectors, k-means seeding, dataset generators, LSH hash functions — draws
//! from [`Xoshiro256pp`], seeded through [`SplitMix64`]. Keeping the PRNG
//! in-tree (rather than depending on `rand_distr`) makes every experiment
//! bit-reproducible across platforms and keeps the dependency set to the
//! approved list.

/// SplitMix64: used to expand a single `u64` seed into xoshiro's 256-bit
/// state. Also a perfectly serviceable (if statistically weaker) generator
/// in its own right for seeding hierarchies.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from an arbitrary seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ by Blackman & Vigna: fast, high-quality, 256-bit state.
///
/// The generator also carries a cached Box–Muller spare so consecutive calls
/// to [`Xoshiro256pp::normal`] cost one transcendental pair per two samples.
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
    gauss_spare: Option<f64>,
}

impl Xoshiro256pp {
    /// Seeds the full 256-bit state from a single `u64` via SplitMix64,
    /// as recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self {
            s,
            gauss_spare: None,
        }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo < hi);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` using Lemire's nearly-divisionless method.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Standard normal sample via the Box–Muller transform (with caching of
    /// the second value of each generated pair).
    pub fn normal(&mut self) -> f64 {
        if let Some(spare) = self.gauss_spare.take() {
            return spare;
        }
        // Draw u in (0,1] to avoid ln(0).
        let u = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        let v = self.uniform();
        let r = (-2.0 * u.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * v;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Gamma(shape k, scale θ) sample via Marsaglia–Tsang (for the SIFT-like
    /// histogram generator). Requires `k > 0`.
    pub fn gamma(&mut self, shape: f64, scale: f64) -> f64 {
        debug_assert!(shape > 0.0 && scale > 0.0);
        if shape < 1.0 {
            // Boost: Gamma(k) = Gamma(k+1) · U^{1/k}.
            let u = loop {
                let u = self.uniform();
                if u > 0.0 {
                    break u;
                }
            };
            return self.gamma(shape + 1.0, scale) * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.normal();
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u = self.uniform();
            if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
                return d * v3 * scale;
            }
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (Floyd's algorithm when k
    /// is small relative to n, otherwise a shuffle prefix). Result is sorted.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut out: Vec<usize>;
        if k * 4 < n {
            // Floyd's: O(k) expected.
            let mut chosen = std::collections::HashSet::with_capacity(k);
            for j in (n - k)..n {
                let t = self.below(j as u64 + 1) as usize;
                if !chosen.insert(t) {
                    chosen.insert(j);
                }
            }
            out = chosen.into_iter().collect();
        } else {
            let mut idx: Vec<usize> = (0..n).collect();
            self.shuffle(&mut idx);
            idx.truncate(k);
            out = idx;
        }
        out.sort_unstable();
        out
    }

    /// Derives an independent child generator (for per-thread / per-component
    /// streams) without correlating with the parent's future output.
    pub fn fork(&mut self) -> Self {
        Self::seed_from_u64(self.next_u64() ^ 0xA5A5_5A5A_DEAD_BEEF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Xoshiro256pp::seed_from_u64(42);
        let mut b = Xoshiro256pp::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256pp::seed_from_u64(1);
        let mut b = Xoshiro256pp::seed_from_u64(2);
        let equal = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(equal, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_and_variance() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let n = 200_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let u = rng.uniform();
            sum += u;
            sum2 += u * u;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.005, "var {var}");
    }

    #[test]
    fn below_is_unbiased_and_in_range() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[rng.below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts {counts:?}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let n = 200_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.normal();
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn normal_tail_fractions() {
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let n = 100_000;
        let beyond_2 = (0..n).filter(|_| rng.normal().abs() > 2.0).count();
        let frac = beyond_2 as f64 / n as f64;
        // P(|Z| > 2) ≈ 0.0455.
        assert!((frac - 0.0455).abs() < 0.005, "frac {frac}");
    }

    #[test]
    fn gamma_mean() {
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        let (shape, scale) = (2.5, 1.5);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gamma(shape, scale)).sum();
        let mean = sum / n as f64;
        assert!((mean - shape * scale).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Xoshiro256pp::seed_from_u64(23);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>()); // overwhelmingly likely
    }

    #[test]
    fn sample_indices_distinct_sorted() {
        let mut rng = Xoshiro256pp::seed_from_u64(29);
        for &(n, k) in &[(100usize, 5usize), (100, 50), (100, 100), (10, 0)] {
            let s = rng.sample_indices(n, k);
            assert_eq!(s.len(), k);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "{s:?}");
            assert!(s.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Xoshiro256pp::seed_from_u64(31);
        let mut child = parent.fork();
        let a: Vec<u64> = (0..50).map(|_| parent.next_u64()).collect();
        let b: Vec<u64> = (0..50).map(|_| child.next_u64()).collect();
        assert_ne!(a, b);
    }
}
