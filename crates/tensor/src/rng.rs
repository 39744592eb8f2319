//! Seeded random number utilities.
//!
//! Every stochastic component of the workspace — parameter initialization,
//! dropout mask sampling, synthetic datasets and fault injection — draws its
//! randomness through [`Rng`], a small wrapper around a SplitMix64/xoshiro-style
//! generator with convenience methods for the distributions the paper needs:
//! uniform, Gaussian (Box–Muller) and Bernoulli masks.
//!
//! Keeping the generator local (a self-contained xoshiro256++ seeded through
//! SplitMix64, no external crates) makes Monte-Carlo fault simulation
//! reproducible from a single `u64` seed per simulated chip instance. The
//! Gaussian fault draws take a single `u64` key from an [`Rng`] and draw
//! the rest keyed, lane-parallel (see [`crate::vecmath::normal_pair`]).

/// Seeded random number generator used across the `invnorm` workspace.
///
/// The core generator is xoshiro256++ (Blackman & Vigna), whose 256-bit state
/// is expanded from the 64-bit seed with SplitMix64 — the standard seeding
/// recipe, which guarantees distinct, well-mixed states even for adjacent
/// seeds like the per-chip-instance streams the Monte-Carlo engine derives.
///
/// # Example
///
/// ```
/// use invnorm_tensor::Rng;
///
/// let mut rng = Rng::seed_from(42);
/// let x = rng.normal(0.0, 1.0);
/// assert!(x.is_finite());
/// let mask = rng.bernoulli_mask(10, 0.5);
/// assert_eq!(mask.len(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    state: [u64; 4],
}

/// SplitMix64's increment, `2⁶⁴ / φ` rounded to odd.
pub(crate) const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output finalizer (Steele, Lea & Flood), a bijective
/// avalanche mix of one 64-bit word.
#[inline(always)]
pub(crate) fn splitmix_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    splitmix_finalize(*state)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit output of the xoshiro256++ generator.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
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

    /// Derives an independent child generator; useful for giving each
    /// Monte-Carlo chip instance its own stream.
    pub fn fork(&mut self, stream: u64) -> Rng {
        let base = self.next_u64();
        Rng::seed_from(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        // Use the top 24 bits: the largest mantissa f32 can represent exactly.
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_range(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo <= hi, "uniform_range requires lo <= hi");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` (Lemire's multiply-shift reduction; the
    /// tiny bias over a full 64-bit draw is far below anything observable).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal sample via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f32 {
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1: f32 = 1.0 - self.uniform();
        let u2: f32 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.standard_normal()
    }

    /// Bernoulli trial that succeeds with probability `p` (clamped to `[0,1]`).
    pub fn bernoulli(&mut self, p: f32) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Vector of `n` binary keep/drop values: each entry is `1.0` with
    /// probability `1 - p_drop` and `0.0` with probability `p_drop`.
    ///
    /// This is the "Dropout mask" of the paper: a mask value of `0` means the
    /// corresponding affine weight/bias is dropped.
    pub fn bernoulli_mask(&mut self, n: usize, p_drop: f32) -> Vec<f32> {
        (0..n)
            .map(|_| if self.bernoulli(p_drop) { 0.0 } else { 1.0 })
            .collect()
    }

    /// Vector of `n` standard-normal samples.
    pub fn normal_vec(&mut self, n: usize, mean: f32, std: f32) -> Vec<f32> {
        (0..n).map(|_| self.normal(mean, std)).collect()
    }

    /// Vector of `n` uniform samples in `[lo, hi)`.
    pub fn uniform_vec(&mut self, n: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..n).map(|_| self.uniform_range(lo, hi)).collect()
    }

    /// Samples `k` distinct indices from `[0, n)` (Floyd's algorithm for small
    /// `k`, falling back to a partial Fisher–Yates shuffle when `k` is large).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct indices from {n}");
        if k == 0 {
            return Vec::new();
        }
        if k * 3 < n {
            // Rejection sampling is fast when k << n.
            let mut chosen = std::collections::HashSet::with_capacity(k);
            let mut out = Vec::with_capacity(k);
            while out.len() < k {
                let idx = self.index(n);
                if chosen.insert(idx) {
                    out.push(idx);
                }
            }
            out
        } else {
            let mut pool: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = i + self.index(n - i);
                pool.swap(i, j);
            }
            pool.truncate(k);
            pool
        }
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::seed_from(7);
        let mut b = Rng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let xa: Vec<f32> = (0..16).map(|_| a.uniform()).collect();
        let xb: Vec<f32> = (0..16).map(|_| b.uniform()).collect();
        assert_ne!(xa, xb);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = Rng::seed_from(123);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal(2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn bernoulli_mask_rate() {
        let mut rng = Rng::seed_from(9);
        let mask = rng.bernoulli_mask(10_000, 0.3);
        let dropped = mask.iter().filter(|&&m| m == 0.0).count();
        let rate = dropped as f32 / mask.len() as f32;
        assert!((rate - 0.3).abs() < 0.03, "drop rate {rate}");
        assert!(mask.iter().all(|&m| m == 0.0 || m == 1.0));
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = Rng::seed_from(11);
        assert!(rng.bernoulli_mask(100, 0.0).iter().all(|&m| m == 1.0));
        assert!(rng.bernoulli_mask(100, 1.0).iter().all(|&m| m == 0.0));
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(rng.bernoulli_mask(100, 2.0).iter().all(|&m| m == 0.0));
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Rng::seed_from(5);
        for &(n, k) in &[(100usize, 5usize), (10, 10), (50, 40), (7, 0)] {
            let idx = rng.sample_indices(n, k);
            assert_eq!(idx.len(), k);
            let set: std::collections::HashSet<_> = idx.iter().collect();
            assert_eq!(set.len(), k, "indices must be distinct");
            assert!(idx.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Rng::seed_from(42);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let a: Vec<f32> = (0..8).map(|_| c1.uniform()).collect();
        let b: Vec<f32> = (0..8).map(|_| c2.uniform()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from(77);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_range_bounds() {
        let mut rng = Rng::seed_from(3);
        for _ in 0..1000 {
            let x = rng.uniform_range(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
    }
}
