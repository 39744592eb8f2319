//! Tier-dispatched vectorized elementwise math.
//!
//! The activation, softmax and normalization passes are memory-bound loops of
//! a few FLOPs per element; what keeps them off SIMD units in a generic
//! `x86-64` build is the codegen target, not the algorithm. Every function
//! here is written as a **per-lane scalar body** that is monomorphized behind
//! [`crate::dispatch`]-selected `#[target_feature]` trampolines: the AVX2 and
//! AVX-512 entry points let LLVM autovectorize the identical body with wider
//! registers, while the portable entry compiles it for the baseline target.
//!
//! ## Bit-identity across tiers
//!
//! Unlike the f32 GEMM (where the portable tier rounds differently because it
//! lacks FMA), every function in this module is **bit-identical across all
//! kernel tiers**:
//!
//! * each output lane depends only on its own input lane(s) — there are no
//!   cross-lane reductions inside the dispatched bodies (softmax's max and
//!   sum reductions stay sequential scalar code at the call site), and
//! * the bodies avoid `mul_add`, and Rust never enables floating-point
//!   contraction, so `a * b + c` compiles to the same separate multiply and
//!   add under every `target_feature` set.
//!
//! Widening the vectors therefore changes *which register* a lane sits in,
//! never its rounding. The transcendental functions ([`exp_scalar`],
//! [`sigmoid_scalar`], [`tanh_scalar`], and the `ln` and `sincos` inside
//! [`normal_pair`]) use explicit branch-free polynomials (Cephes `expf`,
//! `sinf` and `cosf`, the classic SIMD-friendly formulations, and an
//! `atanh` series for `ln`) instead of libm, both so the vector tiers can
//! actually vectorize them and so the scalar fallback computes the exact
//! same thing.
//!
//! ## Keyed Gaussian draws
//!
//! [`add_normal`] and [`scale_normal`] apply additive and multiplicative
//! Gaussian variation with counter-based randomness (Salmon et al.,
//! "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11): lane `i` of a
//! slice draws output `i mod 2` of [`normal_pair`]`(key, i/2)`, a pure
//! function of one `u64` key and the pair index, so one realization fills
//! SIMD lanes instead of walking a sequential stream.
//!
//! lint: no_alloc

use crate::dispatch::{self, KernelTier};
use crate::rng::{splitmix_finalize, GOLDEN_GAMMA};

/// Defines a dispatched elementwise function: the given body is compiled
/// once per kernel tier behind `#[target_feature]` trampolines and the
/// wrapper selects a tier with [`dispatch::active`]. Bodies must keep
/// per-lane semantics (see the module docs) so every tier stays
/// bit-identical.
macro_rules! dispatched {
    (
        $(#[$meta:meta])*
        pub fn $name:ident($($arg:ident : $ty:ty),* $(,)?) $body:block
    ) => {
        $(#[$meta])*
        pub fn $name($($arg: $ty),*) {
            #[inline(always)]
            #[allow(clippy::too_many_arguments)]
            fn body($($arg: $ty),*) $body
            // SAFETY: the tier bodies contain no unsafe operations; they
            // are `unsafe fn` only because `#[target_feature]` makes them
            // callable solely from a matching-feature context, which the
            // dispatch below guarantees.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn body_avx2($($arg: $ty),*) {
                body($($arg),*)
            }
            // SAFETY: as for `body_avx2` — no unsafe operations inside;
            // `unsafe fn` only because of `#[target_feature]`.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f", enable = "avx512bw")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn body_avx512($($arg: $ty),*) {
                body($($arg),*)
            }
            match dispatch::active() {
                // SAFETY: `dispatch::active` (and `force`, which asserts)
                // never returns a tier the host CPU does not support.
                #[cfg(target_arch = "x86_64")]
                KernelTier::Avx2 => unsafe { body_avx2($($arg),*) },
                #[cfg(target_arch = "x86_64")]
                KernelTier::Avx512 => unsafe { body_avx512($($arg),*) },
                _ => body($($arg),*),
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Scalar transcendental kernels (shared per-lane bodies).
// ---------------------------------------------------------------------------

/// Inputs below this produce the smallest normal-range result the polynomial
/// supports; together with [`EXP_HI`] it keeps the exponent bit-trick in
/// range (`n ∈ [-126, 127]`).
const EXP_LO: f32 = -87.336_55;
/// Inputs above this would overflow the `2^n` scale factor.
const EXP_HI: f32 = 88.02;
/// `ln 2` split into a high part exact in f32 and a low correction, so the
/// range reduction `r = x - n·ln2` is computed in extended effective
/// precision (Cody–Waite). The published digits are kept verbatim.
#[allow(clippy::excessive_precision)]
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_4e-4;
/// Degree-5 minimax polynomial for `e^r - 1 - r` on `|r| ≤ ln2/2` (Cephes,
/// published digits kept verbatim).
const EXP_P0: f32 = 1.987_569_2e-4;
const EXP_P1: f32 = 1.398_199_9e-3;
const EXP_P2: f32 = 8.333_452e-3;
const EXP_P3: f32 = 4.166_579_6e-2;
const EXP_P4: f32 = 1.666_666_6e-1;
#[allow(clippy::excessive_precision)]
const EXP_P5: f32 = 5.000_000_2e-1;

/// Branch-free polynomial `e^x` (relative error ≲ 1e-7 over the clamped
/// range; inputs outside `[-87.34, 88.02]` saturate to the boundary values
/// rather than producing 0/∞).
///
/// This is the per-lane body every dispatched exp-family function uses, so
/// its result is bit-identical across kernel tiers — and it is `pub` so
/// remaining scalar call sites (LSTM cell tanh, losses) compute the exact
/// same values as the vectorized paths.
#[inline(always)]
pub fn exp_scalar(x: f32) -> f32 {
    let x = x.clamp(EXP_LO, EXP_HI);
    // x = n·ln2 + r with n integral and |r| ≤ ln2/2 (+1 ulp of slack).
    let n = (x * std::f32::consts::LOG2_E).round();
    let r = x - n * LN2_HI;
    let r = r - n * LN2_LO;
    let mut p = EXP_P0;
    p = p * r + EXP_P1;
    p = p * r + EXP_P2;
    p = p * r + EXP_P3;
    p = p * r + EXP_P4;
    p = p * r + EXP_P5;
    let y = p * (r * r) + r + 1.0;
    // 2^n via exponent bits: n ∈ [-126, 127] after the clamp, so the biased
    // exponent stays in the normal range.
    let scale = f32::from_bits((((n as i32) + 127) << 23) as u32);
    y * scale
}

/// Logistic sigmoid `1 / (1 + e^{-x})` on the shared [`exp_scalar`] body;
/// output is always within `[0, 1]`.
#[inline(always)]
pub fn sigmoid_scalar(x: f32) -> f32 {
    1.0 / (1.0 + exp_scalar(-x))
}

/// Hyperbolic tangent `(e^{2x} - 1) / (e^{2x} + 1)` on the shared
/// [`exp_scalar`] body; output magnitude never exceeds 1 (the numerator's
/// magnitude never exceeds the denominator's), which downstream boundedness
/// arguments (LSTM state bounds) rely on.
#[inline(always)]
pub fn tanh_scalar(x: f32) -> f32 {
    let e = exp_scalar(2.0 * x);
    (e - 1.0) / (e + 1.0)
}

// ---------------------------------------------------------------------------
// Keyed Gaussian draws (counter-based Box–Muller).
// ---------------------------------------------------------------------------

/// Spacing of the 24-bit lattice both Box–Muller inputs live on.
const LATTICE: f32 = 1.0 / 16_777_216.0;
/// Bit pattern of `√½`: [`ln_lattice`] splits its input into `2^e · m` with
/// `m ∈ [√½, √2)`.
const SQRT_HALF_BITS: i32 = 0x3f35_04f3;

/// Branch-free natural log for positive normal inputs (the Box–Muller
/// radius only needs `(0, 1]`): `x = 2^e · m` with `m ∈ [√½, √2)`, then
/// `ln m = 2·atanh(s)` with `s = (m − 1)/(m + 1)`, `|s| ≤ 0.172`, summed to
/// `s⁹` (truncation below 1e-9), and `e·ln 2` added in the Cody–Waite split
/// [`exp_scalar`] uses. Exact at 1.
#[inline(always)]
fn ln_lattice(x: f32) -> f32 {
    let bits = x.to_bits() as i32;
    let e = (bits - SQRT_HALF_BITS) >> 23;
    let m = f32::from_bits((bits - (e << 23)) as u32);
    let s = (m - 1.0) / (m + 1.0);
    let t = s * s;
    let mut p = 2.0 / 9.0;
    p = p * t + 2.0 / 7.0;
    p = p * t + 2.0 / 5.0;
    p = p * t + 2.0 / 3.0;
    let ln_m = s * t * p + (s + s);
    let e = e as f32;
    e * LN2_HI + (e * LN2_LO + ln_m)
}

/// `(cos θ, sin θ)` for `θ = 2π · k / 2²⁴`, `k ∈ [0, 2²⁴)`. The quadrant is
/// read exactly off `k`, leaving `|φ| ≤ π/4` for the Cephes `sinf`/`cosf`
/// polynomials; the quadrant then swaps the pair and flips signs bitwise.
#[inline(always)]
fn sincos_turns(k: i32) -> (f32, f32) {
    let q = (k + (1 << 21)) >> 22;
    let phi = (k - (q << 22)) as f32 * (std::f32::consts::TAU * LATTICE);
    let z = phi * phi;
    let mut s = -1.951_529_6e-4;
    s = s * z + 8.332_161e-3;
    s = s * z - 1.666_665_5e-1;
    let sin = s * z * phi + phi;
    let mut c = 2.443_315_7e-5;
    c = c * z - 1.388_731_6e-3;
    c = c * z + 4.166_664_6e-2;
    let cos = c * z * z - 0.5 * z + 1.0;
    let odd = q & 1 != 0;
    let (c, s) = if odd { (sin, cos) } else { (cos, sin) };
    // Quadrants 1 and 2 negate the cosine, 2 and 3 the sine.
    let c_sign = (((q + 1) & 2) as u32) << 30;
    let s_sign = ((q & 2) as u32) << 30;
    (
        f32::from_bits(c.to_bits() ^ c_sign),
        f32::from_bits(s.to_bits() ^ s_sign),
    )
}

/// Box–Muller on one 64-bit hash `h`, using both outputs: the top 24 bits
/// `t` give `u₁ = (t + 1) · 2⁻²⁴ ∈ (0, 1]`, the next 24 the angle, and the
/// pair is `√(−2 ln u₁) · (cos θ, sin θ)`. `|z|` is at most
/// `√(48 ln 2) ≈ 5.77`, at `u₁ = 2⁻²⁴`.
#[inline(always)]
fn box_muller(h: u64) -> (f32, f32) {
    let u1 = ((h >> 40) as i32 + 1) as f32 * LATTICE;
    let r = (-2.0 * ln_lattice(u1)).sqrt();
    let (c, s) = sincos_turns((h >> 16) as i32 & 0x00ff_ffff);
    (r * c, r * s)
}

/// Pair `pair` of the keyed standard-normal stream `key`: Box–Muller on
/// the SplitMix64 hash of `key + (pair + 1)·γ` — the `pair`-th output of
/// SplitMix64 seeded with `key`. A pure function of its arguments, so any
/// part of a stream can be drawn in any order, on any lane. It is the
/// per-lane body of [`add_normal`] and [`scale_normal`], which makes both
/// bit-identical on every tier.
#[inline(always)]
pub fn normal_pair(key: u64, pair: u64) -> (f32, f32) {
    box_muller(splitmix_finalize(
        key.wrapping_add(pair.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)),
    ))
}

/// Pairs drawn per block of [`map_normals`] (its stack staging buffer).
const NORMAL_BLOCK: usize = 64;

/// The loop of the keyed-normal kernels: `dst[i] = f(src[i], z_i)`, where
/// `z_i` is output `i mod 2` of `normal_pair(key, pair0 + i/2)`. Each block
/// first draws its pairs into a stack buffer (a pure vertical loop the
/// tiers vectorize) and then applies `f` lane by lane.
#[inline(always)]
fn map_normals(src: &[f32], dst: &mut [f32], key: u64, pair0: u64, f: impl Fn(f32, f32) -> f32) {
    assert_eq!(src.len(), dst.len());
    let mut z = [0.0f32; 2 * NORMAL_BLOCK];
    for (block, (s, d)) in src
        .chunks(2 * NORMAL_BLOCK)
        .zip(dst.chunks_mut(2 * NORMAL_BLOCK))
        .enumerate()
    {
        let first = pair0.wrapping_add((block * NORMAL_BLOCK) as u64);
        let z = &mut z[..2 * d.len().div_ceil(2)];
        for (j, zz) in z.chunks_exact_mut(2).enumerate() {
            (zz[0], zz[1]) = normal_pair(key, first.wrapping_add(j as u64));
        }
        for ((d, &s), &z) in d.iter_mut().zip(s).zip(z.iter()) {
            *d = f(s, z);
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatched slice kernels.
// ---------------------------------------------------------------------------

dispatched! {
    /// `dst[i] = max(0, src[i])` (compare-select form).
    ///
    /// # Panics
    ///
    /// Panics when `src` and `dst` lengths differ.
    pub fn relu(src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len());
        for (d, &s) in dst.iter_mut().zip(src.iter()) {
            *d = if s > 0.0 { s } else { 0.0 };
        }
    }
}

dispatched! {
    /// In-place [`relu`].
    pub fn relu_mut(x: &mut [f32]) {
        for v in x.iter_mut() {
            let s = *v;
            *v = if s > 0.0 { s } else { 0.0 };
        }
    }
}

dispatched! {
    /// `dst[i] = src[i]` for positive inputs, `slope * src[i]` otherwise.
    ///
    /// # Panics
    ///
    /// Panics when `src` and `dst` lengths differ.
    pub fn leaky_relu(src: &[f32], dst: &mut [f32], slope: f32) {
        assert_eq!(src.len(), dst.len());
        for (d, &s) in dst.iter_mut().zip(src.iter()) {
            *d = if s > 0.0 { s } else { slope * s };
        }
    }
}

dispatched! {
    /// In-place [`leaky_relu`].
    pub fn leaky_relu_mut(x: &mut [f32], slope: f32) {
        for v in x.iter_mut() {
            let s = *v;
            *v = if s > 0.0 { s } else { slope * s };
        }
    }
}

dispatched! {
    /// `dst[i] = clamp(src[i], -1, 1)`.
    ///
    /// # Panics
    ///
    /// Panics when `src` and `dst` lengths differ.
    pub fn hardtanh(src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len());
        for (d, &s) in dst.iter_mut().zip(src.iter()) {
            *d = s.clamp(-1.0, 1.0);
        }
    }
}

dispatched! {
    /// `dst[i] = sign(src[i])` with `sign(0) = +1` — the binarized-network
    /// forward activation (straight-through gradient lives at the layer).
    ///
    /// # Panics
    ///
    /// Panics when `src` and `dst` lengths differ.
    pub fn sign_ste(src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len());
        for (d, &s) in dst.iter_mut().zip(src.iter()) {
            *d = if s >= 0.0 { 1.0 } else { -1.0 };
        }
    }
}

dispatched! {
    /// `dst[i] = sigmoid(src[i])` (see [`sigmoid_scalar`]).
    ///
    /// # Panics
    ///
    /// Panics when `src` and `dst` lengths differ.
    pub fn sigmoid(src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len());
        for (d, &s) in dst.iter_mut().zip(src.iter()) {
            *d = sigmoid_scalar(s);
        }
    }
}

dispatched! {
    /// In-place [`sigmoid`].
    pub fn sigmoid_mut(x: &mut [f32]) {
        for v in x.iter_mut() {
            *v = sigmoid_scalar(*v);
        }
    }
}

dispatched! {
    /// `dst[i] = tanh(src[i])` (see [`tanh_scalar`]).
    ///
    /// # Panics
    ///
    /// Panics when `src` and `dst` lengths differ.
    pub fn tanh(src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len());
        for (d, &s) in dst.iter_mut().zip(src.iter()) {
            *d = tanh_scalar(s);
        }
    }
}

dispatched! {
    /// In-place [`tanh`].
    pub fn tanh_mut(x: &mut [f32]) {
        for v in x.iter_mut() {
            *v = tanh_scalar(*v);
        }
    }
}

dispatched! {
    /// `dst[i] = e^{src[i] - shift}` — the vectorizable pass of a stable
    /// softmax (the caller supplies the row max as `shift` and keeps the sum
    /// reduction sequential).
    ///
    /// # Panics
    ///
    /// Panics when `src` and `dst` lengths differ.
    pub fn exp_sub(src: &[f32], dst: &mut [f32], shift: f32) {
        assert_eq!(src.len(), dst.len());
        for (d, &s) in dst.iter_mut().zip(src.iter()) {
            *d = exp_scalar(s - shift);
        }
    }
}

dispatched! {
    /// `x[i] /= denom` — softmax's normalization pass (division per lane, not
    /// multiplication by a reciprocal, to match the scalar formulation
    /// exactly).
    pub fn div_scalar_mut(x: &mut [f32], denom: f32) {
        for v in x.iter_mut() {
            *v /= denom;
        }
    }
}

dispatched! {
    /// `dst[i] = g * ((src[i] - mean) * inv_std) + b` — the per-channel
    /// normalize-then-affine pass of BatchNorm/GroupNorm, in the exact
    /// operation order of the scalar formulation (no FMA).
    ///
    /// # Panics
    ///
    /// Panics when `src` and `dst` lengths differ.
    pub fn normalize_affine(src: &[f32], dst: &mut [f32], mean: f32, inv_std: f32, g: f32, b: f32) {
        assert_eq!(src.len(), dst.len());
        for (d, &s) in dst.iter_mut().zip(src.iter()) {
            let xh = (s - mean) * inv_std;
            *d = g * xh + b;
        }
    }
}

dispatched! {
    /// [`normalize_affine`] that also stores the normalized value `x̂` (the
    /// training path caches it for the backward pass).
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths differ.
    pub fn normalize_affine2(
        src: &[f32],
        xhat: &mut [f32],
        out: &mut [f32],
        mean: f32,
        inv_std: f32,
        g: f32,
        b: f32,
    ) {
        assert_eq!(src.len(), xhat.len());
        assert_eq!(src.len(), out.len());
        for i in 0..src.len() {
            let xh = (src[i] - mean) * inv_std;
            xhat[i] = xh;
            out[i] = g * xh + b;
        }
    }
}

dispatched! {
    /// `dst[i] = src[i] + std · z_i` — additive Gaussian variation — where
    /// `z_i` is output `i mod 2` of [`normal_pair`]`(key, pair0 + i/2)`.
    /// Splitting a slice at an even index and passing each part its own
    /// `pair0` draws the same values.
    ///
    /// # Panics
    ///
    /// Panics when `src` and `dst` lengths differ.
    pub fn add_normal(src: &[f32], dst: &mut [f32], std: f32, key: u64, pair0: u64) {
        map_normals(src, dst, key, pair0, |s, z| s + std * z);
    }
}

dispatched! {
    /// `dst[i] = src[i] · (1 + sigma · z_i)` — multiplicative Gaussian
    /// variation — with `z_i` drawn as in [`add_normal`].
    ///
    /// # Panics
    ///
    /// Panics when `src` and `dst` lengths differ.
    pub fn scale_normal(src: &[f32], dst: &mut [f32], sigma: f32, key: u64, pair0: u64) {
        map_normals(src, dst, key, pair0, |s, z| s * (1.0 + sigma * z));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_inputs() -> Vec<f32> {
        let mut v: Vec<f32> = (-4000..=4000).map(|i| i as f32 * 0.01).collect();
        v.extend_from_slice(&[
            0.0, -0.0, 1e-8, -1e-8, 50.0, -50.0, 87.0, -87.0, 100.0, -100.0, 1e4, -1e4,
        ]);
        v
    }

    #[test]
    fn exp_matches_libm_to_polynomial_accuracy() {
        for &x in &sample_inputs() {
            if !(EXP_LO..=EXP_HI).contains(&x) {
                continue;
            }
            let got = exp_scalar(x);
            let want = x.exp();
            let rel = (got - want).abs() / want.max(f32::MIN_POSITIVE);
            assert!(rel < 5e-7, "exp({x}): got {got}, want {want}, rel {rel}");
        }
        // Saturation outside the clamp range: finite, monotone endpoints.
        assert!(exp_scalar(1e4).is_finite());
        assert!(exp_scalar(-1e4) > 0.0);
        assert_eq!(exp_scalar(1e4), exp_scalar(EXP_HI));
        assert_eq!(exp_scalar(-1e4), exp_scalar(EXP_LO));
    }

    #[test]
    fn sigmoid_and_tanh_match_libm_and_stay_bounded() {
        for &x in &sample_inputs() {
            let s = sigmoid_scalar(x);
            assert!((0.0..=1.0).contains(&s), "sigmoid({x}) = {s} out of [0,1]");
            assert!(
                (s - 1.0 / (1.0 + (-x).exp())).abs() < 2e-7,
                "sigmoid({x}) = {s}"
            );
            let t = tanh_scalar(x);
            assert!(t.abs() <= 1.0, "tanh({x}) = {t} exceeds 1 in magnitude");
            assert!(
                (t - x.tanh()).abs() < 3e-7,
                "tanh({x}) = {t} vs {}",
                x.tanh()
            );
        }
        assert_eq!(tanh_scalar(0.0), 0.0);
        assert_eq!(tanh_scalar(1e4), 1.0);
        assert_eq!(tanh_scalar(-1e4), -1.0);
    }

    #[test]
    fn slice_ops_match_their_scalar_definitions() {
        let src = sample_inputs();
        let n = src.len();
        let mut dst = vec![0.0f32; n];

        relu(&src, &mut dst);
        for (i, (&s, &d)) in src.iter().zip(dst.iter()).enumerate() {
            assert_eq!(d, if s > 0.0 { s } else { 0.0 }, "relu lane {i}");
        }
        let mut inplace = src.clone();
        relu_mut(&mut inplace);
        assert_eq!(inplace, dst, "relu vs relu_mut");

        leaky_relu(&src, &mut dst, 0.1);
        let mut inplace = src.clone();
        leaky_relu_mut(&mut inplace, 0.1);
        assert_eq!(inplace, dst, "leaky_relu vs leaky_relu_mut");

        sigmoid(&src, &mut dst);
        for (&s, &d) in src.iter().zip(dst.iter()) {
            assert_eq!(d, sigmoid_scalar(s));
        }
        let mut inplace = src.clone();
        sigmoid_mut(&mut inplace);
        assert_eq!(inplace, dst, "sigmoid vs sigmoid_mut");

        tanh(&src, &mut dst);
        for (&s, &d) in src.iter().zip(dst.iter()) {
            assert_eq!(d, tanh_scalar(s));
        }
        let mut inplace = src.clone();
        tanh_mut(&mut inplace);
        assert_eq!(inplace, dst, "tanh vs tanh_mut");

        hardtanh(&src, &mut dst);
        for (&s, &d) in src.iter().zip(dst.iter()) {
            assert_eq!(d, s.clamp(-1.0, 1.0));
        }
        sign_ste(&src, &mut dst);
        for (&s, &d) in src.iter().zip(dst.iter()) {
            assert_eq!(d, if s >= 0.0 { 1.0 } else { -1.0 });
        }
    }

    #[test]
    fn exp_sub_and_div_form_a_stable_softmax() {
        let row = [1.0f32, 3.0, -2.0, 0.5, 3.0];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut e = [0.0f32; 5];
        exp_sub(&row, &mut e, max);
        let denom: f32 = e.iter().sum();
        div_scalar_mut(&mut e, denom);
        let sum: f32 = e.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        // The two equal maxima map to equal probabilities, the largest ones.
        assert_eq!(e[1], e[4]);
        assert!(e.iter().all(|&p| p <= e[1]));
    }

    #[test]
    fn keyed_normal_lanes_follow_normal_pair() {
        let src: Vec<f32> = (0..1031).map(|i| (i as f32 * 0.37).sin()).collect();
        let (std, sigma, key) = (0.3f32, 0.2f32, 0x5EED_0001u64);
        for len in [0usize, 1, 2, 3, 127, 128, 129, 130, 1031] {
            for pair0 in [0u64, 5] {
                let src = &src[..len];
                let (mut add, mut scale) = (vec![0.0f32; len], vec![0.0f32; len]);
                add_normal(src, &mut add, std, key, pair0);
                scale_normal(src, &mut scale, sigma, key, pair0);
                for (i, &s) in src.iter().enumerate() {
                    let (z0, z1) = normal_pair(key, pair0 + i as u64 / 2);
                    let z = if i % 2 == 0 { z0 } else { z1 };
                    let lane = format!("len {len}, pair0 {pair0}, lane {i}");
                    assert_eq!(add[i].to_bits(), (s + std * z).to_bits(), "{lane}");
                    assert_eq!(
                        scale[i].to_bits(),
                        (s * (1.0 + sigma * z)).to_bits(),
                        "{lane}"
                    );
                }
            }
        }
        // Splitting at an even index and resuming at the matching pair
        // draws the same values as one call.
        let mut whole = vec![0.0f32; src.len()];
        add_normal(&src, &mut whole, std, key, 0);
        let mut split = vec![0.0f32; src.len()];
        let (head, tail) = split.split_at_mut(300);
        add_normal(&src[..300], head, std, key, 0);
        add_normal(&src[300..], tail, std, key, 150);
        assert_eq!(whole, split);
    }

    #[test]
    fn box_muller_lattice_extremes() {
        // Top 24 bits zero: u₁ = 2⁻²⁴, the largest radius, √(48 ln 2).
        let r_max = (48.0f64 * std::f64::consts::LN_2).sqrt() as f32;
        let (z0, z1) = box_muller(0);
        assert!(z0.is_finite() && (z0 - r_max).abs() < 1e-5, "z0 = {z0}");
        assert_eq!(z1, 0.0, "θ = 0 has no sine part");
        let (z0, z1) = box_muller(0x0000_00ff_ffff_0000);
        let r = (z0 * z0 + z1 * z1).sqrt();
        assert!((r - r_max).abs() < 1e-5, "radius {r} at the largest angle");
        // Top 24 bits all ones: u₁ = 1, ln 1 = 0 exactly, radius 0.
        assert_eq!(ln_lattice(1.0), 0.0);
        for h in [0xffff_ff00_0000_0000u64, u64::MAX] {
            assert_eq!(box_muller(h), (0.0, 0.0), "h = {h:#x}");
        }
    }

    #[test]
    fn ln_and_sincos_match_libm() {
        // Every third point of the (0, 1] lattice, plus both ends.
        for k in (1..=1u32 << 24).step_by(3).chain([1 << 24]) {
            let u = k as f32 * LATTICE;
            let (got, want) = (f64::from(ln_lattice(u)), f64::from(u).ln());
            assert!(
                (got - want).abs() <= 3e-7 * want.abs(),
                "ln({u}): got {got}, want {want}"
            );
        }
        for k in (0..1i32 << 24).step_by(5).chain([(1 << 24) - 1]) {
            let (c, s) = sincos_turns(k);
            let theta = f64::from(k) * std::f64::consts::TAU / 16_777_216.0;
            assert!(
                (f64::from(c) - theta.cos()).abs() < 2e-7
                    && (f64::from(s) - theta.sin()).abs() < 2e-7,
                "sincos(2π·{k}/2²⁴) = ({c}, {s})"
            );
        }
    }

    #[test]
    fn normalize_affine_matches_scalar_order_and_dual_write() {
        let src = [0.5f32, -1.5, 2.0, 0.0, 7.25];
        let (mean, inv_std, g, b) = (0.4f32, 1.7f32, 1.3f32, -0.2f32);
        let mut dst = [0.0f32; 5];
        normalize_affine(&src, &mut dst, mean, inv_std, g, b);
        let mut xhat = [0.0f32; 5];
        let mut out = [0.0f32; 5];
        normalize_affine2(&src, &mut xhat, &mut out, mean, inv_std, g, b);
        for i in 0..src.len() {
            let xh = (src[i] - mean) * inv_std;
            assert_eq!(xhat[i], xh);
            assert_eq!(dst[i], g * xh + b);
            assert_eq!(out[i], dst[i]);
        }
    }
}
