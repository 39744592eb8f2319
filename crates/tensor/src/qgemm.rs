//! The **i8 × i8 → i32** element of the blocked GEMM in [`crate::gemm`]:
//! the integer compute core of the quantized inference path.
//!
//! `gemm::<i8>` multiplies signed 8-bit quantization codes into exact 32-bit
//! integer accumulators through the same blocking, packing, parallel path
//! and packed operands ([`crate::gemm::PackedA`], [`crate::gemm::PackedB`])
//! as f32. What this module supplies is the integer-specific part: the
//! k-dimension is packed in **quads of four** codes so the SIMD
//! microkernels can consume them with `maddubs`-pair or `vpdpbusd` quad
//! products, and one microkernel per tier, selected at runtime through
//! [`crate::dispatch`]:
//!
//! * **AVX2** uses the sign-split trick (as in the i8 dot kernels of
//!   llama.cpp and rten): `a·b == |a| · sign(b, a)`, which makes the
//!   unsigned-by-signed `_mm256_maddubs_epi16` applicable to two signed
//!   operands. Because codes are constrained to `[-127, 127]`, each i16 pair
//!   sum is at most `2 · 127² = 32258 < 32767`, so the saturating
//!   multiply-add can never saturate.
//! * **AVX-512 VNNI** replaces the `maddubs` + widen pair with a single
//!   `vpdpbusd` per B vector: the same sign-split feeds the unsigned×signed
//!   dot accumulate, whose 4-product sums (≤ `4 · 127² = 64516`) land in the
//!   i32 accumulators without any intermediate saturation at all, over an
//!   8×32 tile.
//! * The **portable** kernel is plain scalar quad accumulation.
//!
//! Integer arithmetic is exact, so every kernel tier, thread count and
//! prepacked variant returns the same integers as a naive integer
//! reference — the quantized path is **bit-exact across the whole dispatch
//! ladder**, unlike f32 where the portable tier rounds differently.
//!
//! Accumulation depth is bounded: `k · 127² ≤ i32::MAX` requires
//! `k ≤ 133 152` ([`MAX_K`]), far beyond any layer in the workspace. Debug
//! builds assert it, and that no code is `-128`, wherever an i8 operand is
//! packed.
//!
//! lint: no_alloc

use crate::dispatch::KernelTier;
use crate::gemm::{Element, Kernel};
use crate::scratch::Scratch;

/// k-quad: the microkernel consumes four codes per k-step.
const KQ: usize = 4;

/// Maximum k supported without risking i32 accumulator overflow
/// (`k · 127² ≤ i32::MAX`).
pub const MAX_K: usize = (i32::MAX as usize) / (127 * 127);

/// Portable 4×16 kernel (the AVX2 tile, scalar quad accumulation).
const PORTABLE_I8: Kernel<i8> = Kernel {
    mr: 4,
    nr: 16,
    micro: microkernel_portable,
};

/// AVX2 4×16 `maddubs` sign-split kernel: eight 256-bit i32 accumulators
/// plus the packed-B loads and the sign/abs temporaries fit the 16 ymm
/// registers without spilling.
#[cfg(target_arch = "x86_64")]
const AVX2_I8: Kernel<i8> = Kernel {
    mr: 4,
    nr: 16,
    micro: microkernel_avx2,
};

/// AVX-512 VNNI 8×32 `vpdpbusd` kernel: sixteen zmm accumulators plus the
/// loads and sign-split temporaries stay within the 32 zmm registers.
#[cfg(target_arch = "x86_64")]
const VNNI_I8: Kernel<i8> = Kernel {
    mr: 8,
    nr: 32,
    micro: microkernel_vnni,
};

impl Element for i8 {
    type Acc = i32;
    const KQ: usize = KQ;

    fn kernel(tier: KernelTier) -> Kernel<i8> {
        match tier {
            KernelTier::Portable => PORTABLE_I8,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => AVX2_I8,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => VNNI_I8,
            // Non-x86 hosts never detect (nor may they force) the SIMD tiers.
            #[cfg(not(target_arch = "x86_64"))]
            _ => PORTABLE_I8,
        }
    }

    /// `round(c · factor)` per code — the code-domain retention drift. With
    /// `0 ≤ factor ≤ 1`, `|round(c · factor)| ≤ |c|`, so codes stay in range
    /// and zero stays zero.
    fn scale(dst: &mut [i8], src: &[i8], factor: f32) {
        assert!(
            (0.0..=1.0).contains(&factor),
            "code scale {factor} outside [0, 1]"
        );
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = (f32::from(s) * factor).round() as i8;
        }
    }

    /// Debug builds assert `k ≤ MAX_K` and that no code is `-128` (the
    /// sign-split microkernels require magnitudes ≤ 127; every quantizer in
    /// the workspace clamps to `[-qmax, qmax]`).
    fn check_operand(k: usize, codes: &[i8]) {
        debug_assert!(k <= MAX_K, "k={k} exceeds the i32 accumulation bound");
        debug_assert!(
            codes.iter().all(|&x| x != i8::MIN),
            "codes must lie in [-127, 127] (the sign-split microkernels need |code| ≤ 127)"
        );
    }

    fn packing_buffers(scratch: &mut Scratch) -> (&mut Vec<i8>, &mut Vec<i8>) {
        (&mut scratch.packed_a_i8, &mut scratch.packed_b_i8)
    }
}

/// Portable scalar variant of the quantized microkernel (identical packed
/// quad layout and — integers being exact — identical results to the SIMD
/// tiers).
///
/// # Safety
///
/// Contains no unsafe operations of its own; it is `unsafe fn` only to
/// match the [`crate::gemm::Microkernel`] signature shared with the SIMD tiers.
/// Callable with any arguments (bounds are asserted).
unsafe fn microkernel_portable(quads: usize, pa: &[i8], pb: &[i8], acc_out: &mut [i32]) {
    const QMR: usize = 4;
    const QNR: usize = 16;
    assert!(pa.len() >= quads * KQ * QMR && pb.len() >= quads * KQ * QNR);
    assert!(acc_out.len() >= QMR * QNR);
    let mut acc = [[0i32; QNR]; QMR];
    for q in 0..quads {
        let aq = &pa[q * QMR * KQ..][..QMR * KQ];
        let bq = &pb[q * QNR * KQ..][..QNR * KQ];
        for r in 0..QMR {
            let ar = &aq[r * KQ..][..KQ];
            for j in 0..QNR {
                let bj = &bq[j * KQ..][..KQ];
                let mut dot = 0i32;
                for kk in 0..KQ {
                    dot += i32::from(ar[kk]) * i32::from(bj[kk]);
                }
                acc[r][j] += dot;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        acc_out[r * QNR..(r + 1) * QNR].copy_from_slice(row);
    }
}

/// The register-resident 4×16 AVX2 i32 tile product over one packed k-panel,
/// consuming four codes per k-step: per k-quad, two 256-bit loads of packed
/// B (16 columns × 4 codes) and, per row, one 4-byte broadcast of packed A.
/// The signed×signed product is computed as `maddubs(|a|, sign(b, a))`
/// (never saturates for codes in `[-127, 127]`), widened to i32 with
/// `madd(…, 1)` and accumulated.
///
/// # Safety
///
/// The host must support AVX2 (guaranteed when the kernel is reached through
/// [`Element::kernel`] with a detected/forced tier).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn microkernel_avx2(quads: usize, pa: &[i8], pb: &[i8], acc_out: &mut [i32]) {
    use core::arch::x86_64::{
        _mm256_abs_epi8, _mm256_add_epi32, _mm256_loadu_si256, _mm256_madd_epi16,
        _mm256_maddubs_epi16, _mm256_set1_epi16, _mm256_set1_epi32, _mm256_setzero_si256,
        _mm256_sign_epi8, _mm256_storeu_si256,
    };
    const QMR: usize = 4;
    const QNR: usize = 16;
    assert!(pa.len() >= quads * KQ * QMR && pb.len() >= quads * KQ * QNR);
    assert!(acc_out.len() >= QMR * QNR);
    // SAFETY: the asserts above bound every pointer offset used below
    // (`pa`/`pb` hold full `quads`-deep packed quad panels, `acc_out` holds
    // the full QMR×QNR tile), and the fn-level contract guarantees the host
    // supports the SIMD features these intrinsics require.
    unsafe {
        let ones = _mm256_set1_epi16(1);
        let mut acc = [_mm256_setzero_si256(); 2 * QMR];
        let mut ap = pa.as_ptr();
        let mut bp = pb.as_ptr();
        for _ in 0..quads {
            let b0 = _mm256_loadu_si256(bp.cast());
            let b1 = _mm256_loadu_si256(bp.add(32).cast());
            for r in 0..QMR {
                // Broadcast the row's 4-code quad across all lanes.
                let aq = _mm256_set1_epi32(ap.add(r * KQ).cast::<i32>().read_unaligned());
                let abs_a = _mm256_abs_epi8(aq);
                let sb0 = _mm256_sign_epi8(b0, aq);
                let sb1 = _mm256_sign_epi8(b1, aq);
                // 16 i16 pair sums → 8 i32 quad sums per vector (one per column).
                let p0 = _mm256_madd_epi16(_mm256_maddubs_epi16(abs_a, sb0), ones);
                let p1 = _mm256_madd_epi16(_mm256_maddubs_epi16(abs_a, sb1), ones);
                acc[2 * r] = _mm256_add_epi32(acc[2 * r], p0);
                acc[2 * r + 1] = _mm256_add_epi32(acc[2 * r + 1], p1);
            }
            ap = ap.add(QMR * KQ);
            bp = bp.add(QNR * KQ);
        }
        for r in 0..QMR {
            _mm256_storeu_si256(acc_out.as_mut_ptr().add(r * QNR).cast(), acc[2 * r]);
            _mm256_storeu_si256(acc_out.as_mut_ptr().add(r * QNR + 8).cast(), acc[2 * r + 1]);
        }
    }
}

/// The register-resident 8×32 AVX-512 VNNI i32 tile product over one packed
/// k-panel: per k-quad, two 512-bit loads of packed B (32 columns × 4 codes)
/// and, per row, one 4-byte broadcast of packed A. `vpdpbusd` wants an
/// unsigned left operand, so the sign-split trick reappears in AVX-512 form:
/// there is no `vpsignb`, so `sign(b, a)` is emulated with a per-byte sign
/// mask of `a` (`vpmovb2m`) driving a masked subtract-from-zero of `b`. The
/// single `vpdpbusd` then replaces AVX2's `maddubs` + `madd` widening pair,
/// and its 4-product sums (≤ `4 · 127² = 64516`) accumulate into i32 lanes
/// with no intermediate saturation — exact, hence bit-identical to every
/// other tier.
///
/// # Safety
///
/// The host must support AVX-512F/BW/VNNI (guaranteed when the kernel is
/// reached through [`Element::kernel`] with a detected/forced tier).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vnni")]
unsafe fn microkernel_vnni(quads: usize, pa: &[i8], pb: &[i8], acc_out: &mut [i32]) {
    use core::arch::x86_64::{
        _mm512_abs_epi8, _mm512_dpbusd_epi32, _mm512_loadu_si512, _mm512_mask_sub_epi8,
        _mm512_movepi8_mask, _mm512_set1_epi32, _mm512_setzero_si512, _mm512_storeu_si512,
    };
    const QMR: usize = 8;
    const QNR: usize = 32;
    assert!(pa.len() >= quads * KQ * QMR && pb.len() >= quads * KQ * QNR);
    assert!(acc_out.len() >= QMR * QNR);
    // SAFETY: the asserts above bound every pointer offset used below
    // (`pa`/`pb` hold full `quads`-deep packed quad panels, `acc_out` holds
    // the full QMR×QNR tile), and the fn-level contract guarantees the host
    // supports the SIMD features these intrinsics require.
    unsafe {
        let zero = _mm512_setzero_si512();
        let mut acc = [_mm512_setzero_si512(); 2 * QMR];
        let mut ap = pa.as_ptr();
        let mut bp = pb.as_ptr();
        for _ in 0..quads {
            let b0 = _mm512_loadu_si512(bp.cast());
            let b1 = _mm512_loadu_si512(bp.add(64).cast());
            for r in 0..QMR {
                let aq = _mm512_set1_epi32(ap.add(r * KQ).cast::<i32>().read_unaligned());
                let abs_a = _mm512_abs_epi8(aq);
                // Negate the b bytes wherever the matching a byte is negative
                // (a == 0 contributes 0 via |a| regardless).
                let neg = _mm512_movepi8_mask(aq);
                let sb0 = _mm512_mask_sub_epi8(b0, neg, zero, b0);
                let sb1 = _mm512_mask_sub_epi8(b1, neg, zero, b1);
                acc[2 * r] = _mm512_dpbusd_epi32(acc[2 * r], abs_a, sb0);
                acc[2 * r + 1] = _mm512_dpbusd_epi32(acc[2 * r + 1], abs_a, sb1);
            }
            ap = ap.add(QMR * KQ);
            bp = bp.add(QNR * KQ);
        }
        for r in 0..QMR {
            _mm512_storeu_si512(acc_out.as_mut_ptr().add(r * QNR).cast(), acc[2 * r]);
            _mm512_storeu_si512(
                acc_out.as_mut_ptr().add(r * QNR + 16).cast(),
                acc[2 * r + 1],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    //! The i8 runs of the generic driver and packed-operand checks in
    //! `gemm::tests`, plus what only the integer microkernels need.

    use crate::gemm::gemm;
    use crate::gemm::tests::*;
    use crate::rng::Rng;
    use proptest::prelude::*;

    impl Check for i8 {
        const GARBAGE: i32 = i32::MIN;
        const UNWRITTEN: i8 = i8::MIN;
        fn random(len: usize, rng: &mut Rng) -> Vec<i8> {
            (0..len)
                .map(|_| (rng.normal(0.0, 48.0).round().clamp(-127.0, 127.0)) as i8)
                .collect()
        }
        fn random_acc(len: usize, rng: &mut Rng) -> Vec<i32> {
            (0..len)
                .map(|_| rng.normal(0.0, 1e4).round() as i32)
                .collect()
        }
        fn nudge(self) -> i8 {
            self.wrapping_add(3).clamp(-127, 127)
        }
        fn mul(a: i8, b: i8) -> i32 {
            i32::from(a) * i32::from(b)
        }
        fn close(got: i32, want: i32) -> bool {
            got == want
        }
        fn bits(self) -> u64 {
            u64::from(self as u8)
        }
        fn acc_bits(c: i32) -> u64 {
            u64::from(c as u32)
        }
    }

    #[test]
    fn matches_integer_oracle_over_odd_shapes() {
        check_odd_shapes::<i8>();
    }

    #[test]
    fn empty_dims_are_handled() {
        check_empty_dims::<i8>();
    }

    #[test]
    fn accumulate_adds_to_existing_contents() {
        check_overwrite_and_accumulate::<i8>();
    }

    #[test]
    fn packing_copies_match_the_transposed_gather() {
        check_packing_copies::<i8>();
    }

    #[test]
    fn scratch_reuse_is_alloc_free_after_warmup() {
        check_scratch_reuse::<i8>();
    }

    #[test]
    fn prepacked_is_bit_exact_and_reusable() {
        check_prepacked_ab::<i8>();
        check_prepacked_a_reuse::<i8>();
    }

    #[test]
    fn prepacked_b_is_bit_exact_and_repacks_dirty_rows() {
        check_prepacked_b::<i8>();
        check_repack_rows::<i8>();
    }

    #[test]
    fn write_cell_is_bit_identical_to_repack() {
        check_write_cell::<i8>();
    }

    #[test]
    fn repack_rows_with_base_offset_addresses_stacked_dirty_sets() {
        check_repack_base_offset::<i8>();
    }

    #[test]
    fn parallel_is_bit_exact_for_every_worker_count() {
        check_parallel::<i8>();
    }

    #[test]
    fn scale_from_is_bit_identical_to_packing_drifted_codes() {
        check_scale_from::<i8>();
    }

    #[test]
    fn extreme_codes_do_not_saturate() {
        // ±127 everywhere maximizes every intermediate the SIMD kernels
        // compute; any maddubs/dpbusd saturation would show up immediately.
        let (m, n, k) = (5, 33, 130);
        let a = vec![127i8; m * k];
        let b: Vec<i8> = (0..k * n)
            .map(|i| if i % 2 == 0 { 127 } else { -127 })
            .collect();
        let mut want = vec![0i32; m * n];
        reference(false, false, m, n, k, &a, &b, false, &mut want);
        let mut got = vec![0i32; m * n];
        gemm(false, false, m, n, k, &a, &b, false, &mut got);
        assert_eq!(got, want);
    }

    /// The debug guard runs wherever codes are packed — including the
    /// prepacked operands the planned engine multiplies.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "codes must lie in [-127, 127]")]
    fn packing_b_rejects_code_minus_128_in_debug_builds() {
        use crate::gemm::PackedB;
        PackedB::<i8>::new().pack(true, &[1, i8::MIN, 3, 4], 2, 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "codes must lie in [-127, 127]")]
    fn packing_a_rejects_code_minus_128_in_debug_builds() {
        use crate::gemm::PackedA;
        PackedA::<i8>::new().pack(false, &[1, 2, i8::MIN, 4], 2, 2);
    }

    proptest! {
        #[test]
        fn prop_qgemm_matches_oracle(
            m in 1usize..24,
            k in 1usize..48,
            n in 1usize..24,
            seed in 0u32..1000,
        ) {
            check_gemm_prop::<i8>(m, k, n, seed);
        }

        #[test]
        fn prop_repack_matches_direct_pack(
            n in 1usize..40,
            k in 1usize..20,
            seed in 0u32..1000,
            dirty_rows in proptest::collection::vec(0usize..40, 0..8),
        ) {
            check_repack_prop::<i8>(n, k, seed, &dirty_rows);
        }
    }
}
