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
//! SIMD lanes instead of walking a sequential stream. [`normal_strip`]
//! draws the same values in the order of a packed GEMM strip, one row per
//! lane, so a realization is written straight into a packed weight panel.
//!
//! These three kernels have an **explicit AVX-512 body** (`core::arch`,
//! 16 lanes per op, `vpmullq` for SplitMix64's 64-bit multiplies) instead
//! of the autovectorized trampoline: a `target-cpu=native` build on an
//! AVX-512 host keeps LLVM's autovectorized code at 256 bits
//! (`prefer-256-bit`), so the trampoline drew no faster than AVX2. The
//! explicit body performs each lane's scalar operations in their order,
//! FMA-free, so it stays bit-identical to the other tiers. The other
//! kernels here still autovectorize, at 256 bits on such a build. On the
//! portable and AVX2 tiers [`normal_strip`] draws a tile of 8 lanes × 64
//! pairs with the slice kernels' vectorized loop and then writes it to the
//! strip a k-step at a time, the AVX2 body through explicit 8×8
//! transposes.
//!
//! lint: no_alloc

use crate::dispatch::{self, KernelTier};
use crate::rng::{splitmix_finalize, GOLDEN_GAMMA};
use std::ops::Range;

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

/// Pairs drawn per block of the portable keyed-normal loops (their stack
/// staging buffer).
const NORMAL_BLOCK: usize = 64;

/// `z[2j]` and `z[2j + 1]` get both outputs of `normal_pair(key, first + j)`:
/// a pure vertical loop the tiers vectorize.
#[inline(always)]
fn draw_pairs(key: u64, first: u64, z: &mut [f32]) {
    for (j, zz) in z.chunks_exact_mut(2).enumerate() {
        (zz[0], zz[1]) = normal_pair(key, first.wrapping_add(j as u64));
    }
}

/// The portable loop of the keyed slice kernels: `dst[i] = f(src[i], z_i)`,
/// where `z_i` is output `i mod 2` of `normal_pair(key, pair0 + i/2)`. Each
/// block first draws its pairs into a stack buffer and then applies `f`
/// lane by lane.
#[inline(always)]
fn map_normals(src: &[f32], dst: &mut [f32], key: u64, pair0: u64, f: impl Fn(f32, f32) -> f32) {
    let mut z = [0.0f32; 2 * NORMAL_BLOCK];
    for (block, (s, d)) in src
        .chunks(2 * NORMAL_BLOCK)
        .zip(dst.chunks_mut(2 * NORMAL_BLOCK))
        .enumerate()
    {
        let first = pair0.wrapping_add((block * NORMAL_BLOCK) as u64);
        let z = &mut z[..2 * d.len().div_ceil(2)];
        draw_pairs(key, first, z);
        for ((d, &s), &z) in d.iter_mut().zip(s).zip(z.iter()) {
            *d = f(s, z);
        }
    }
}

/// Rows of consecutive strip draws, one per lane of an 8-lane group.
type Tile = [[f32; 2 * NORMAL_BLOCK]; 8];

/// The tile loop of the portable and AVX2 strip kernels: 8 lanes at a time,
/// each lane draws a block of up to `NORMAL_BLOCK` consecutive pairs into
/// its row of a stack [`Tile`] with [`draw_pairs`] (the vertical loop the
/// slice kernels vectorize), then `put(tile, lanes, steps)` writes the
/// tile's columns to k-steps `steps` of lanes `lanes` of the strip, column
/// `s` to k-step `steps.start + s`. Writing each lane's draws straight down
/// its column, one strided element at a time, drew a strip about a quarter
/// slower than a slice.
#[inline(always)]
fn strip_tiles(
    pairs: usize,
    lanes: Range<usize>,
    key: u64,
    pair0: u64,
    row_pairs: u64,
    mut put: impl FnMut(&Tile, Range<usize>, Range<usize>),
) {
    let mut tile = [[0.0f32; 2 * NORMAL_BLOCK]; 8];
    for g in (lanes.start..lanes.end).step_by(8) {
        let count = (lanes.end - g).min(8);
        let j0 = (g - lanes.start) as u64;
        for q0 in (0..pairs).step_by(NORMAL_BLOCK) {
            let steps = 2 * (pairs - q0).min(NORMAL_BLOCK);
            for (j, row) in (j0..).zip(&mut tile[..count]) {
                let first = pair0.wrapping_add(j.wrapping_mul(row_pairs));
                draw_pairs(key, first.wrapping_add(q0 as u64), &mut row[..steps]);
            }
            put(&tile, g..g + count, 2 * q0..2 * q0 + steps);
        }
    }
}

/// The portable loop of [`normal_strip`]: [`strip_tiles`], each tile
/// written one k-step at a time.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn strip_lanes(
    clean: &[f32],
    live: &mut [f32],
    width: usize,
    lanes: Range<usize>,
    key: u64,
    pair0: u64,
    row_pairs: u64,
    f: impl Fn(f32, f32) -> f32,
) {
    let pairs = clean.len() / (2 * width);
    strip_tiles(pairs, lanes, key, pair0, row_pairs, |tile, lanes, steps| {
        for (s, step) in steps.enumerate() {
            let (lo, hi) = (step * width + lanes.start, step * width + lanes.end);
            for ((d, &c), row) in live[lo..hi].iter_mut().zip(&clean[lo..hi]).zip(tile) {
                *d = f(c, row[s]);
            }
        }
    });
}

/// A keyed Gaussian weight variation: what [`add_normal`] (additive) and
/// [`scale_normal`] (multiplicative) apply to a slice, and what
/// [`normal_strip`] applies to one packed strip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NormalVariation {
    /// `w + std · z`.
    Additive {
        /// Standard deviation of the added noise, in weight units.
        std: f32,
    },
    /// `w · (1 + sigma · z)`.
    Multiplicative {
        /// Standard deviation of the relative change.
        sigma: f32,
    },
}

impl NormalVariation {
    /// Applies the variation to a slice: [`add_normal`] or [`scale_normal`]
    /// with this magnitude.
    ///
    /// # Panics
    ///
    /// Panics when `src` and `dst` lengths differ.
    pub fn apply(self, src: &[f32], dst: &mut [f32], key: u64, pair0: u64) {
        assert_eq!(src.len(), dst.len());
        match dispatch::active() {
            // SAFETY: `dispatch::active` (and `force`, which asserts) never
            // returns a tier the host CPU does not support, and the AVX-512
            // tier requires AVX-512F and DQ.
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => unsafe { keyed_slice_avx512(self, src, dst, key, pair0) },
            // SAFETY: as above; the AVX2 tier requires AVX2.
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => unsafe { keyed_slice_avx2(self, src, dst, key, pair0) },
            _ => keyed_slice(self, src, dst, key, pair0),
        }
    }

    /// `std` or `sigma`.
    fn magnitude(self) -> f32 {
        match self {
            NormalVariation::Additive { std } => std,
            NormalVariation::Multiplicative { sigma } => sigma,
        }
    }
}

/// The portable body of [`NormalVariation::apply`].
#[inline(always)]
fn keyed_slice(v: NormalVariation, src: &[f32], dst: &mut [f32], key: u64, pair0: u64) {
    match v {
        NormalVariation::Additive { std } => map_normals(src, dst, key, pair0, |s, z| s + std * z),
        NormalVariation::Multiplicative { sigma } => {
            map_normals(src, dst, key, pair0, |s, z| s * (1.0 + sigma * z))
        }
    }
}

/// The portable body of [`normal_strip`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn keyed_strip(
    v: NormalVariation,
    clean: &[f32],
    live: &mut [f32],
    width: usize,
    lanes: Range<usize>,
    key: u64,
    pair0: u64,
    row_pairs: u64,
) {
    let (c, w, l, p) = (clean, width, lanes, row_pairs);
    match v {
        NormalVariation::Additive { std } => {
            strip_lanes(c, live, w, l, key, pair0, p, |s, z| s + std * z)
        }
        NormalVariation::Multiplicative { sigma } => {
            strip_lanes(c, live, w, l, key, pair0, p, |s, z| s * (1.0 + sigma * z))
        }
    }
}

/// [`keyed_slice`] compiled for AVX2 (autovectorized at 256 bits).
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn keyed_slice_avx2(v: NormalVariation, src: &[f32], dst: &mut [f32], key: u64, pair0: u64) {
    keyed_slice(v, src, dst, key, pair0)
}

// ---------------------------------------------------------------------------
// Explicit SIMD bodies: the AVX2 strip writes (8 lanes per op) and the
// AVX-512 keyed-normal kernels (16 lanes per op).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::{
    __m256, __m256i, __m512, __m512i, __mmask16, _mm256_add_ps, _mm256_cmpgt_epi32,
    _mm256_loadu_ps, _mm256_maskload_ps, _mm256_maskstore_ps, _mm256_mul_ps,
    _mm256_permute2f128_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32,
    _mm256_shuffle_ps, _mm256_unpackhi_ps, _mm256_unpacklo_ps, _mm512_add_epi32, _mm512_add_epi64,
    _mm512_add_ps, _mm512_and_si512, _mm512_castps_si512, _mm512_castsi256_si512,
    _mm512_castsi512_ps, _mm512_cvtepi32_ps, _mm512_cvtepi64_epi32, _mm512_div_ps,
    _mm512_inserti64x4, _mm512_loadu_ps, _mm512_loadu_si512, _mm512_mask_blend_ps,
    _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps, _mm512_mullo_epi64,
    _mm512_permutex2var_ps, _mm512_set1_epi32, _mm512_set1_epi64, _mm512_set1_ps,
    _mm512_setr_epi32, _mm512_slli_epi32, _mm512_sqrt_ps, _mm512_srai_epi32, _mm512_srli_epi64,
    _mm512_storeu_ps, _mm512_sub_epi32, _mm512_sub_ps, _mm512_test_epi32_mask, _mm512_xor_si512,
};

/// The AVX2 body of [`normal_strip`]: the tiles of [`strip_tiles`], each
/// turned into k-step rows by 8×8 transposes and applied 8 lanes per op.
/// (The portable loop compiled for AVX2 writes each tile element by
/// element and drew the probe's packed operand about 15 % slower.)
///
/// # Safety
///
/// The host must support AVX2; `clean` and `live` must hold the same whole
/// number of `2·width`-element k-step pairs, and `lanes.end <= width`.
#[allow(clippy::too_many_arguments)]
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn keyed_strip_avx2(
    v: NormalVariation,
    clean: &[f32],
    live: &mut [f32],
    width: usize,
    lanes: Range<usize>,
    key: u64,
    pair0: u64,
    row_pairs: u64,
) {
    let pairs = clean.len() / (2 * width);
    let m = _mm256_set1_ps(v.magnitude());
    let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    strip_tiles(pairs, lanes, key, pair0, row_pairs, |tile, lanes, steps| {
        let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes.len() as i32), lane);
        for c0 in (0..steps.len()).step_by(8) {
            // SAFETY: AVX2 is this fn's contract; `c0` is a multiple of 8
            // below `steps.len() <= 2·NORMAL_BLOCK`, itself a multiple of 8,
            // so `c0 + 8 <= 2·NORMAL_BLOCK`. Row `step < 2·pairs` of lanes
            // `lanes` ends at element `step·width + lanes.end - 1 <
            // 2·pairs·width == live.len() == clean.len()`, since `lanes.end
            // <= width`; the masked loads and stores touch no other lane.
            unsafe {
                let rows = transpose8x8(tile, c0);
                for (step, &z) in (steps.start + c0..steps.end).zip(&rows) {
                    let at = step * width + lanes.start;
                    let c = _mm256_maskload_ps(clean.as_ptr().add(at), mask);
                    _mm256_maskstore_ps(live.as_mut_ptr().add(at), mask, apply8(v, m, c, z));
                }
            }
        }
    });
}

/// Columns `c0 .. c0 + 8` of a tile as 8-lane rows: `out[s][l] = tile[l][c0
/// + s]`.
///
/// # Safety
///
/// The host must support AVX, and `c0 + 8 <= 2·NORMAL_BLOCK`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx")]
unsafe fn transpose8x8(tile: &Tile, c0: usize) -> [__m256; 8] {
    let r: [__m256; 8] = std::array::from_fn(|l| {
        // SAFETY: reads `tile[l][c0 .. c0 + 8]`, in bounds by the contract.
        unsafe { _mm256_loadu_ps(tile[l].as_ptr().add(c0)) }
    });
    let t = [
        _mm256_unpacklo_ps(r[0], r[1]),
        _mm256_unpackhi_ps(r[0], r[1]),
        _mm256_unpacklo_ps(r[2], r[3]),
        _mm256_unpackhi_ps(r[2], r[3]),
        _mm256_unpacklo_ps(r[4], r[5]),
        _mm256_unpackhi_ps(r[4], r[5]),
        _mm256_unpacklo_ps(r[6], r[7]),
        _mm256_unpackhi_ps(r[6], r[7]),
    ];
    // `u[c]` holds column `c` of rows 0–3 in its low half and column `c + 4`
    // in its high half; `u[c + 4]` the same for rows 4–7.
    let u = [
        _mm256_shuffle_ps::<0x44>(t[0], t[2]),
        _mm256_shuffle_ps::<0xEE>(t[0], t[2]),
        _mm256_shuffle_ps::<0x44>(t[1], t[3]),
        _mm256_shuffle_ps::<0xEE>(t[1], t[3]),
        _mm256_shuffle_ps::<0x44>(t[4], t[6]),
        _mm256_shuffle_ps::<0xEE>(t[4], t[6]),
        _mm256_shuffle_ps::<0x44>(t[5], t[7]),
        _mm256_shuffle_ps::<0xEE>(t[5], t[7]),
    ];
    std::array::from_fn(|s| match s {
        0..4 => _mm256_permute2f128_ps::<0x20>(u[s], u[s + 4]),
        _ => _mm256_permute2f128_ps::<0x31>(u[s - 4], u[s]),
    })
}

/// `s + m·z` (additive) or `s · (1 + m·z)` (multiplicative) on 8 lanes.
///
/// # Safety
///
/// The host must support AVX.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx")]
unsafe fn apply8(v: NormalVariation, m: __m256, s: __m256, z: __m256) -> __m256 {
    match v {
        NormalVariation::Additive { .. } => _mm256_add_ps(s, _mm256_mul_ps(m, z)),
        NormalVariation::Multiplicative { .. } => {
            _mm256_mul_ps(s, _mm256_add_ps(_mm256_set1_ps(1.0), _mm256_mul_ps(m, z)))
        }
    }
}

/// The SplitMix64 states `key + (pair(l) + 1)·γ` of 16 lanes, lanes 0–7
/// and 8–15: hashing them gives lane `l` the hash of [`normal_pair`]`(key,
/// pair(l))`, and adding `γ` to a state steps its lane to the next pair.
///
/// # Safety
///
/// The host must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn states16(key: u64, pair: impl Fn(usize) -> u64) -> [__m512i; 2] {
    let mut x = [0u64; 16];
    for (l, x) in x.iter_mut().enumerate() {
        *x = key.wrapping_add(pair(l).wrapping_add(1).wrapping_mul(GOLDEN_GAMMA));
    }
    // SAFETY: `x` holds 16 `u64`s, two full 512-bit vectors.
    unsafe {
        [
            _mm512_loadu_si512(x.as_ptr().cast()),
            _mm512_loadu_si512(x.as_ptr().add(8).cast()),
        ]
    }
}

/// [`splitmix_finalize`] on 8 lanes (`vpmullq` is AVX-512DQ).
///
/// # Safety
///
/// The host must support AVX-512F and AVX-512DQ.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f", enable = "avx512dq")]
unsafe fn finalize8(z: __m512i) -> __m512i {
    let m1 = _mm512_set1_epi64(crate::rng::SPLITMIX_M1 as i64);
    let m2 = _mm512_set1_epi64(crate::rng::SPLITMIX_M2 as i64);
    let z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)), m1);
    let z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)), m2);
    _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z))
}

/// Bits `[shift, shift + 32)` of 16 hashes (lanes 0–7 in `lo`, 8–15 in
/// `hi`) as 16 `i32` lanes.
///
/// # Safety
///
/// The host must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn bits16<const SHIFT: u32>(lo: __m512i, hi: __m512i) -> __m512i {
    let lo: __m256i = _mm512_cvtepi64_epi32(_mm512_srli_epi64::<SHIFT>(lo));
    let hi: __m256i = _mm512_cvtepi64_epi32(_mm512_srli_epi64::<SHIFT>(hi));
    _mm512_inserti64x4::<1>(_mm512_castsi256_si512(lo), hi)
}

/// [`ln_lattice`] on 16 lanes, in its operation order.
///
/// # Safety
///
/// The host must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn ln_lattice16(x: __m512) -> __m512 {
    let bits = _mm512_castps_si512(x);
    let e = _mm512_srai_epi32::<23>(_mm512_sub_epi32(bits, _mm512_set1_epi32(SQRT_HALF_BITS)));
    let m = _mm512_castsi512_ps(_mm512_sub_epi32(bits, _mm512_slli_epi32::<23>(e)));
    let one = _mm512_set1_ps(1.0);
    let s = _mm512_div_ps(_mm512_sub_ps(m, one), _mm512_add_ps(m, one));
    let t = _mm512_mul_ps(s, s);
    let mut p = _mm512_set1_ps(2.0f32 / 9.0);
    p = _mm512_add_ps(_mm512_mul_ps(p, t), _mm512_set1_ps(2.0f32 / 7.0));
    p = _mm512_add_ps(_mm512_mul_ps(p, t), _mm512_set1_ps(2.0f32 / 5.0));
    p = _mm512_add_ps(_mm512_mul_ps(p, t), _mm512_set1_ps(2.0f32 / 3.0));
    let ln_m = _mm512_add_ps(_mm512_mul_ps(_mm512_mul_ps(s, t), p), _mm512_add_ps(s, s));
    let e = _mm512_cvtepi32_ps(e);
    let hi = _mm512_mul_ps(e, _mm512_set1_ps(LN2_HI));
    let lo = _mm512_mul_ps(e, _mm512_set1_ps(LN2_LO));
    _mm512_add_ps(hi, _mm512_add_ps(lo, ln_m))
}

/// [`sincos_turns`] on 16 lanes, in its operation order.
///
/// # Safety
///
/// The host must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn sincos_turns16(k: __m512i) -> (__m512, __m512) {
    let q = _mm512_srai_epi32::<22>(_mm512_add_epi32(k, _mm512_set1_epi32(1 << 21)));
    let phi = _mm512_mul_ps(
        _mm512_cvtepi32_ps(_mm512_sub_epi32(k, _mm512_slli_epi32::<22>(q))),
        _mm512_set1_ps(std::f32::consts::TAU * LATTICE),
    );
    let z = _mm512_mul_ps(phi, phi);
    let mut s = _mm512_set1_ps(-1.951_529_6e-4);
    s = _mm512_add_ps(_mm512_mul_ps(s, z), _mm512_set1_ps(8.332_161e-3));
    s = _mm512_sub_ps(_mm512_mul_ps(s, z), _mm512_set1_ps(1.666_665_5e-1));
    let sin = _mm512_add_ps(_mm512_mul_ps(_mm512_mul_ps(s, z), phi), phi);
    let mut c = _mm512_set1_ps(2.443_315_7e-5);
    c = _mm512_sub_ps(_mm512_mul_ps(c, z), _mm512_set1_ps(1.388_731_6e-3));
    c = _mm512_add_ps(_mm512_mul_ps(c, z), _mm512_set1_ps(4.166_664_6e-2));
    let czz = _mm512_mul_ps(_mm512_mul_ps(c, z), z);
    let half_z = _mm512_mul_ps(_mm512_set1_ps(0.5), z);
    let cos = _mm512_add_ps(_mm512_sub_ps(czz, half_z), _mm512_set1_ps(1.0));
    let odd = _mm512_test_epi32_mask(q, _mm512_set1_epi32(1));
    let (c, s) = (
        _mm512_mask_blend_ps(odd, cos, sin),
        _mm512_mask_blend_ps(odd, sin, cos),
    );
    let two = _mm512_set1_epi32(2);
    let c_sign = _mm512_slli_epi32::<30>(_mm512_and_si512(
        _mm512_add_epi32(q, _mm512_set1_epi32(1)),
        two,
    ));
    let s_sign = _mm512_slli_epi32::<30>(_mm512_and_si512(q, two));
    (
        _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(c), c_sign)),
        _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(s), s_sign)),
    )
}

/// Both outputs of [`normal_pair`] on 16 lanes, from their SplitMix states
/// (see [`states16`]): [`box_muller`] in its operation order.
///
/// # Safety
///
/// The host must support AVX-512F and AVX-512DQ.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f", enable = "avx512dq")]
unsafe fn normals16([lo, hi]: [__m512i; 2]) -> (__m512, __m512) {
    // SAFETY: the helpers need AVX-512F and DQ, which this fn's contract
    // guarantees.
    unsafe {
        let (lo, hi) = (finalize8(lo), finalize8(hi));
        let t = _mm512_add_epi32(bits16::<40>(lo, hi), _mm512_set1_epi32(1));
        let u1 = _mm512_mul_ps(_mm512_cvtepi32_ps(t), _mm512_set1_ps(LATTICE));
        let r = _mm512_sqrt_ps(_mm512_mul_ps(_mm512_set1_ps(-2.0), ln_lattice16(u1)));
        let k = _mm512_and_si512(bits16::<16>(lo, hi), _mm512_set1_epi32(0x00ff_ffff));
        let (c, s) = sincos_turns16(k);
        (_mm512_mul_ps(r, c), _mm512_mul_ps(r, s))
    }
}

/// `s + m·z` (additive) or `s · (1 + m·z)` (multiplicative) on 16 lanes.
///
/// # Safety
///
/// The host must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn apply16(v: NormalVariation, m: __m512, s: __m512, z: __m512) -> __m512 {
    match v {
        NormalVariation::Additive { .. } => _mm512_add_ps(s, _mm512_mul_ps(m, z)),
        NormalVariation::Multiplicative { .. } => {
            _mm512_mul_ps(s, _mm512_add_ps(_mm512_set1_ps(1.0), _mm512_mul_ps(m, z)))
        }
    }
}

/// The AVX-512 body of [`NormalVariation::apply`]: 16 pairs per step give
/// 32 outputs, interleaved back into slice order; the last `len mod 32`
/// elements take the portable loop.
///
/// # Safety
///
/// The host must support AVX-512F and AVX-512DQ, and `dst` must be as long
/// as `src`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512dq")]
unsafe fn keyed_slice_avx512(
    v: NormalVariation,
    src: &[f32],
    dst: &mut [f32],
    key: u64,
    pair0: u64,
) {
    let full = src.len() / 32 * 32;
    // SAFETY: the helpers need AVX-512F and DQ, which this fn's contract
    // guarantees, and every load and store covers `[i, i + 32)` with
    // `i + 32 <= full <= src.len() == dst.len()`.
    unsafe {
        let m = _mm512_set1_ps(v.magnitude());
        let mut states = states16(key, |l| pair0.wrapping_add(l as u64));
        let step = _mm512_set1_epi64(GOLDEN_GAMMA.wrapping_mul(16) as i64);
        // Output 2j is z0 of lane j, output 2j + 1 its z1.
        let even = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
        let odd = _mm512_setr_epi32(8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31);
        for i in (0..full).step_by(32) {
            let (z0, z1) = normals16(states);
            let za = _mm512_permutex2var_ps(z0, even, z1);
            let zb = _mm512_permutex2var_ps(z0, odd, z1);
            let (s, d) = (src.as_ptr().add(i), dst.as_mut_ptr().add(i));
            _mm512_storeu_ps(d, apply16(v, m, _mm512_loadu_ps(s), za));
            _mm512_storeu_ps(d.add(16), apply16(v, m, _mm512_loadu_ps(s.add(16)), zb));
            states = states.map(|x| _mm512_add_epi64(x, step));
        }
    }
    let tail = pair0.wrapping_add((full / 2) as u64);
    keyed_slice(v, &src[full..], &mut dst[full..], key, tail);
}

/// The AVX-512 body of [`normal_strip`]: the lanes go 16 at a time (a
/// masked group at a partial end), each group stepping its 16 SplitMix
/// states down the k-steps.
///
/// # Safety
///
/// The host must support AVX-512F and AVX-512DQ; `clean` and `live` must
/// hold the same whole number of `2·width`-element k-step pairs, and
/// `lanes.end <= width`.
#[allow(clippy::too_many_arguments)]
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512dq")]
unsafe fn keyed_strip_avx512(
    v: NormalVariation,
    clean: &[f32],
    live: &mut [f32],
    width: usize,
    lanes: Range<usize>,
    key: u64,
    pair0: u64,
    row_pairs: u64,
) {
    let pairs = clean.len() / (2 * width);
    // SAFETY: the helpers need AVX-512F and DQ, which this fn's contract
    // guarantees. Group `g` touches lanes `[g, g + count)` of k-steps `2q`
    // and `2q + 1`, at most element `(2q + 1)·width + lanes.end - 1 <
    // 2·pairs·width == live.len() == clean.len()`, since `lanes.end <=
    // width`; the masked loads and stores touch no other lane.
    unsafe {
        let m = _mm512_set1_ps(v.magnitude());
        let gamma = _mm512_set1_epi64(GOLDEN_GAMMA as i64);
        for g in (lanes.start..lanes.end).step_by(16) {
            let count = (lanes.end - g).min(16);
            let mask = (u32::MAX >> (32 - count)) as __mmask16;
            let j0 = g - lanes.start;
            let lane_pair =
                |l: usize| pair0.wrapping_add(((j0 + l) as u64).wrapping_mul(row_pairs));
            let mut states = states16(key, lane_pair);
            for q in 0..pairs {
                let (z0, z1) = normals16(states);
                let (s, d) = (
                    clean.as_ptr().add(2 * q * width + g),
                    live.as_mut_ptr().add(2 * q * width + g),
                );
                let s0 = _mm512_maskz_loadu_ps(mask, s);
                _mm512_mask_storeu_ps(d, mask, apply16(v, m, s0, z0));
                let s1 = _mm512_maskz_loadu_ps(mask, s.add(width));
                _mm512_mask_storeu_ps(d.add(width), mask, apply16(v, m, s1, z1));
                states = states.map(|x| _mm512_add_epi64(x, gamma));
            }
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

/// `dst[i] = src[i] + std · z_i` — additive Gaussian variation — where
/// `z_i` is output `i mod 2` of [`normal_pair`]`(key, pair0 + i/2)`.
/// Splitting a slice at an even index and passing each part its own
/// `pair0` draws the same values.
///
/// # Panics
///
/// Panics when `src` and `dst` lengths differ.
pub fn add_normal(src: &[f32], dst: &mut [f32], std: f32, key: u64, pair0: u64) {
    NormalVariation::Additive { std }.apply(src, dst, key, pair0);
}

/// `dst[i] = src[i] · (1 + sigma · z_i)` — multiplicative Gaussian
/// variation — with `z_i` drawn as in [`add_normal`].
///
/// # Panics
///
/// Panics when `src` and `dst` lengths differ.
pub fn scale_normal(src: &[f32], dst: &mut [f32], sigma: f32, key: u64, pair0: u64) {
    NormalVariation::Multiplicative { sigma }.apply(src, dst, key, pair0);
}

/// Applies `variation` to lanes `lanes` of one packed strip. `clean` and
/// `live` hold `steps × width` elements, k-step `s` of lane `r` at
/// `s·width + r` (the layout of one [`crate::gemm::PackedB`] nr-strip), and
/// `live[s·width + r] = variation(clean[s·width + r], z)`, where lane
/// `lanes.start + j` takes both outputs of [`normal_pair`]`(key, pair0 +
/// j·row_pairs + q)`: the first at k-step `2q`, the second at `2q + 1`.
/// Lanes outside `lanes` are not written.
///
/// With `row_pairs = k/2` for an even `k`, that is the draw
/// [`add_normal`]/[`scale_normal`] gives element `(row, kidx)` of a
/// row-major `[rows, k]` matrix, so a packed operand is perturbed in the
/// order its microkernel reads it, without an unpacked copy.
///
/// # Panics
///
/// Panics when `clean` and `live` lengths differ or are not a multiple of
/// `2·width`, or when `lanes` reaches past `width`.
#[allow(clippy::too_many_arguments)]
pub fn normal_strip(
    variation: NormalVariation,
    clean: &[f32],
    live: &mut [f32],
    width: usize,
    lanes: Range<usize>,
    key: u64,
    pair0: u64,
    row_pairs: u64,
) {
    assert_eq!(clean.len(), live.len(), "strips must have the same length");
    assert!(
        width > 0 && clean.len().is_multiple_of(2 * width),
        "a strip holds whole pairs of {width}-wide k-steps"
    );
    assert!(
        lanes.start <= lanes.end && lanes.end <= width,
        "lanes must lie within the strip's width"
    );
    let (v, w, p) = (variation, width, row_pairs);
    match dispatch::active() {
        // SAFETY: `dispatch::active` (and `force`, which asserts) never
        // returns a tier the host CPU does not support, and the AVX-512 tier
        // requires AVX-512F and DQ; the asserts above are the body's bounds.
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx512 => unsafe {
            keyed_strip_avx512(v, clean, live, w, lanes, key, pair0, p)
        },
        // SAFETY: as above; the AVX2 tier requires AVX2.
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => unsafe { keyed_strip_avx2(v, clean, live, w, lanes, key, pair0, p) },
        _ => keyed_strip(v, clean, live, w, lanes, key, pair0, p),
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
    fn strip_lanes_follow_normal_pair() {
        let (key, pair0, row_pairs) = (0x5EED_0002u64, 7u64, 13u64);
        let sentinel = -7.5f32;
        // Enough k-steps to cross a portable staging block.
        let steps = 2 * (NORMAL_BLOCK + 3);
        let variations = [
            NormalVariation::Additive { std: 0.25 },
            NormalVariation::Multiplicative { sigma: 0.2 },
        ];
        for width in [8usize, 16, 32, 40] {
            let clean: Vec<f32> = (0..steps * width)
                .map(|i| (i as f32 * 0.31).cos())
                .collect();
            let partial = [
                0..width,
                0..1,
                3..width.min(21),
                width - 1..width,
                5..5,
                2..width,
            ];
            for (lanes, v) in partial
                .iter()
                .flat_map(|l| variations.map(|v| (l.clone(), v)))
            {
                let mut live = vec![sentinel; clean.len()];
                normal_strip(
                    v,
                    &clean,
                    &mut live,
                    width,
                    lanes.clone(),
                    key,
                    pair0,
                    row_pairs,
                );
                for (at, (&got, &c)) in live.iter().zip(&clean).enumerate() {
                    let (step, lane) = (at / width, at % width);
                    let what =
                        format!("{v:?}, width {width}, lanes {lanes:?}, step {step}, lane {lane}");
                    if !lanes.contains(&lane) {
                        assert_eq!(got.to_bits(), sentinel.to_bits(), "{what}");
                        continue;
                    }
                    let j = (lane - lanes.start) as u64;
                    let (z0, z1) = normal_pair(key, pair0 + j * row_pairs + step as u64 / 2);
                    let z = if step % 2 == 0 { z0 } else { z1 };
                    let want = match v {
                        NormalVariation::Additive { std } => c + std * z,
                        NormalVariation::Multiplicative { sigma } => c * (1.0 + sigma * z),
                    };
                    assert_eq!(got.to_bits(), want.to_bits(), "{what}");
                }
            }
        }
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
