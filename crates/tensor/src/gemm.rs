//! Cache-blocked, register-tiled, parallel GEMM over f32 weights and i8
//! codes.
//!
//! This is the compute core every dense layer in the workspace funnels into:
//! `C ← op(A) · op(B)`, or `C += op(A) · op(B)` when accumulating, with
//! optional transposition of either operand, in the classic three-level
//! blocking scheme (Goto/BLIS):
//!
//! * the k-dimension is split into panels of [`KC`] so a packed strip of B
//!   stays resident in L1 while the microkernel streams over it;
//! * the m-dimension is split into blocks of [`MC`] so the packed A block
//!   stays resident in L2;
//! * the innermost microkernel computes an `mr × nr` tile of C entirely in
//!   registers — branch-free, with no loads or stores of C inside the k-loop
//!   (the naive kernel's biggest cost after its data-dependent sparsity
//!   branch).
//!
//! As in BLIS, the blocked framework exists once and only the microkernel is
//! written per element type ([`Element`]): `f32` multiplies into f32
//! accumulators one k-step at a time; `i8` quantization codes multiply into
//! exact i32 accumulators in k-quads of four (see [`crate::qgemm`]). Packed
//! operands interleave k in groups of the type's k-step, so the f32 layout is
//! the quad layout at k-step 1.
//!
//! The microkernel (and with it the `mr × nr` register-tile geometry) is
//! selected **at runtime** through [`crate::dispatch`]: for f32, a portable
//! 4×8 scalar kernel that works everywhere, a 6×16 AVX2+FMA kernel, and a
//! 14×32 AVX-512 kernel. The tier is resolved once per process; packed
//! operands remember the tier they were laid out for, so prepacked
//! multiplies stay coherent even if tests pin a different tier afterwards.
//!
//! Both operands are packed into contiguous, tile-major buffers before the
//! microkernel runs, with edge tiles zero-padded so the microkernel never
//! needs bounds checks. Packing buffers come from a caller-supplied
//! [`Scratch`] (or a thread-local one for the convenience entry point), so
//! steady-state calls allocate nothing.
//!
//! Large products are parallelized over [`MC`]-row blocks with rayon: worker
//! threads claim row blocks from an atomic counter (work stealing) and each
//! element of C is written by exactly one worker with a fixed, sequential
//! k-accumulation order — results are therefore **bit-identical** for every
//! thread count and schedule. Across kernel tiers, the AVX2 and AVX-512 f32
//! kernels share the same per-element FMA accumulation order and produce
//! bit-identical results; only the portable f32 tier (separate multiply +
//! add roundings) diverges, and integer products are exact on every tier.
//! The active tier is thus the sole reproducibility boundary, and it is
//! surfaced via telemetry.
//!
//! lint: no_alloc

use crate::arena::DirtyRows;
use crate::dispatch::{self, KernelTier};
use crate::epilogue::Accumulator;
use crate::scratch::{uninit_slice, Scratch};
use crate::telemetry;
use std::cell::RefCell;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicUsize, Ordering};

/// k-panel size: a KC×nr strip of packed B stays L1-resident. A multiple of
/// every element type's k-step, so only a matrix's last panel is ragged.
pub const KC: usize = 256;
/// m-block size: an MC×KC block of packed f32 A (128 KiB) stays L2-resident.
pub const MC: usize = 128;
/// n-panel size: bounds the packed-B buffer at KC×NC (256 KiB of f32).
pub const NC: usize = 256;

/// Minimum `m·n·k` before the row-block loop is parallelized; below this the
/// fork/steal overhead outweighs the work.
const PARALLEL_FLOP_THRESHOLD: usize = 1 << 21;

/// Accumulators in the largest microkernel tile of any element type (f32
/// AVX-512's 14×32); sizes the stack tile every kernel writes a prefix of.
const MAX_TILE: usize = 14 * 32;

/// A microkernel: computes the full `mr × nr` register tile over one packed
/// k-panel of `steps` k-steps (each [`Element::KQ`] elements deep) and
/// writes it row-major (leading dimension `nr`) into `acc`, overwriting the
/// `mr * nr` prefix.
///
/// # Safety
///
/// The callee may use the SIMD features of the tier it belongs to; callers
/// must only invoke kernels obtained from [`Element::kernel`] with a tier
/// the host supports. Slice bounds are asserted by each kernel.
type Microkernel<T> = unsafe fn(steps: usize, pa: &[T], pb: &[T], acc: &mut [<T as Element>::Acc]);

/// One tier's GEMM kernel for element type `T`: its register-tile geometry
/// plus the microkernel that fills such a tile.
#[derive(Clone, Copy)]
pub struct Kernel<T: Element> {
    /// Rows of C computed per microkernel tile.
    pub(crate) mr: usize,
    /// Columns of C computed per microkernel tile.
    pub(crate) nr: usize,
    pub(crate) micro: Microkernel<T>,
}

/// An element type the blocked GEMM multiplies: `f32` weights or `i8`
/// quantization codes. Each type supplies only what differs between them —
/// its accumulator, its k-step, its per-tier microkernels, its drift-scale
/// rule and its debug operand guard; the blocking, packing, parallel path
/// and packed operands are shared.
pub trait Element: Copy + Default + Send + Sync + std::fmt::Debug + 'static {
    /// The element type of C, which [`crate::epilogue::store`] reads.
    type Acc: Copy + Default + AddAssign + Send + Sync + std::fmt::Debug + Accumulator;
    /// Reduction elements one microkernel k-step consumes: packed operands
    /// interleave k in groups of this size, zero-padding the last group.
    const KQ: usize;
    /// This type's kernel on `tier`.
    fn kernel(tier: KernelTier) -> Kernel<Self>;
    /// Overwrites `dst` with every element of `src` scaled by `factor` — the
    /// retention-drift realization. Zero must map to zero, so scaling a
    /// packed operand equals packing the scaled matrix.
    fn scale(dst: &mut [Self], src: &[Self], factor: f32);
    /// Debug-build guard on an operand about to be packed for a product of
    /// reduction depth `k` (a no-op unless the microkernels need one).
    fn check_operand(_k: usize, _x: &[Self]) {}
    /// The [`Scratch`] buffers staging this type's packed A and B blocks.
    fn packing_buffers(scratch: &mut Scratch) -> (&mut Vec<Self>, &mut Vec<Self>);
}

/// Portable 4×8 kernel: small enough not to spill on baseline SSE2.
const PORTABLE_F32: Kernel<f32> = Kernel {
    mr: 4,
    nr: 8,
    micro: microkernel_portable,
};

/// AVX2+FMA 6×16 kernel: twelve independent 256-bit FMA accumulator chains —
/// enough to cover FMA latency at two FMAs per cycle.
#[cfg(target_arch = "x86_64")]
const AVX2_F32: Kernel<f32> = Kernel {
    mr: 6,
    nr: 16,
    micro: microkernel_avx2,
};

/// AVX-512 14×32 kernel: 28 of the 32 zmm registers hold accumulators, the
/// rest stream packed B and the scalar broadcast.
#[cfg(target_arch = "x86_64")]
const AVX512_F32: Kernel<f32> = Kernel {
    mr: 14,
    nr: 32,
    micro: microkernel_avx512,
};

impl Element for f32 {
    type Acc = f32;
    const KQ: usize = 1;

    fn kernel(tier: KernelTier) -> Kernel<f32> {
        match tier {
            KernelTier::Portable => PORTABLE_F32,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => AVX2_F32,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => AVX512_F32,
            // Non-x86 hosts never detect (nor may they force) the SIMD tiers.
            #[cfg(not(target_arch = "x86_64"))]
            _ => PORTABLE_F32,
        }
    }

    /// `s · factor` per weight (`0.0 · factor == 0.0`).
    fn scale(dst: &mut [f32], src: &[f32], factor: f32) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = s * factor;
        }
    }

    fn packing_buffers(scratch: &mut Scratch) -> (&mut Vec<f32>, &mut Vec<f32>) {
        (&mut scratch.packed_a, &mut scratch.packed_b)
    }
}

/// Columns of C one microkernel tile of element type `T` computes on
/// `tier` (for f32 32, 16 or 8; for i8 32 or 16): the narrowest GEMM that
/// runs at the kernel's full register width.
pub fn nr<T: Element>(tier: KernelTier) -> usize {
    T::kernel(tier).nr
}

/// Packed depth of a `kc`-deep k-panel: `kc` rounded up to whole k-steps.
fn depth<T: Element>(kc: usize) -> usize {
    kc.next_multiple_of(T::KQ)
}

thread_local! {
    static LOCAL_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// General matrix multiply `C ← op(A) · op(B)`, or `C += op(A) · op(B)` when
/// `accumulate` is set: f32 weights into f32 C, or i8 codes into i32 C.
///
/// `op(A)` is `A` (`[m, k]`, row-major) or `Aᵀ` (stored `[k, m]`) when
/// `trans_a` is set; likewise `op(B)` is `[k, n]` or stored `[n, k]` when
/// `trans_b` is set. `C` is always `[m, n]` row-major. Without `accumulate`,
/// `C` is overwritten without being read (so it may hold garbage, including
/// NaNs); with it, backward passes fuse their `+=` instead of allocating a
/// temporary.
///
/// Packing buffers are borrowed from a thread-local [`Scratch`]; use
/// [`gemm_with_scratch`] to supply your own. Large products run in parallel;
/// results are bit-identical for every thread count.
///
/// # Panics
///
/// Panics when a slice length disagrees with the given dimensions. For i8
/// codes, debug builds also assert what the integer microkernels need (see
/// [`crate::qgemm`]).
#[allow(clippy::too_many_arguments)]
pub fn gemm<T: Element>(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    b: &[T],
    accumulate: bool,
    c: &mut [T::Acc],
) {
    let _span = telemetry::span(telemetry::Phase::Gemm);
    check_dims(m, n, k, a, b, c);
    if degenerate(m, n, k, accumulate, c) {
        return;
    }
    let kern = T::kernel(dispatch::active());
    let row_blocks = m.div_ceil(MC);
    let workers = rayon::current_num_threads().min(row_blocks);
    if workers > 1 && m * n * k >= PARALLEL_FLOP_THRESHOLD {
        gemm_parallel(
            &kern, trans_a, trans_b, m, n, k, a, b, accumulate, c, workers,
        );
    } else {
        LOCAL_SCRATCH.with(|s| {
            gemm_packing(
                &kern,
                trans_a,
                trans_b,
                m,
                n,
                k,
                a,
                b,
                accumulate,
                c,
                &mut s.borrow_mut(),
            );
        });
    }
}

/// Single-threaded [`gemm`] with an explicit packing workspace, for callers
/// that manage buffer reuse themselves (layers, the conv path).
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_scratch<T: Element>(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    b: &[T],
    accumulate: bool,
    c: &mut [T::Acc],
    scratch: &mut Scratch,
) {
    let _span = telemetry::span(telemetry::Phase::Gemm);
    check_dims(m, n, k, a, b, c);
    if degenerate(m, n, k, accumulate, c) {
        return;
    }
    let kern = T::kernel(dispatch::active());
    gemm_packing(
        &kern, trans_a, trans_b, m, n, k, a, b, accumulate, c, scratch,
    );
}

/// The single-threaded body of [`gemm`] and [`gemm_with_scratch`]: both
/// operands are packed block by block into `scratch`.
#[allow(clippy::too_many_arguments)]
fn gemm_packing<T: Element>(
    kern: &Kernel<T>,
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    b: &[T],
    accumulate: bool,
    c: &mut [T::Acc],
    scratch: &mut Scratch,
) {
    let (a_buf, b_buf) = T::packing_buffers(scratch);
    let a = Source::Raw {
        trans: trans_a,
        data: a,
        buf: uninit_slice(a_buf, MC.next_multiple_of(kern.mr) * KC),
    };
    let b = Source::Raw {
        trans: trans_b,
        data: b,
        buf: uninit_slice(b_buf, KC * NC.min(n.next_multiple_of(kern.nr))),
    };
    drive(kern, m, n, k, a, b, accumulate, c);
}

/// Work-stealing parallel path: row blocks are claimed from an atomic
/// counter; each worker packs its own A blocks, while the packed B panel for
/// the current `(jc, pc)` stage is shared read-only across workers.
// lint: alloc_ok(per-call packing scratch: one shared B panel plus one A
// panel per worker, allocated at entry — steady-state callers go through
// `PackedA`/`PackedB` plans that hoist even these)
#[allow(clippy::too_many_arguments)]
fn gemm_parallel<T: Element>(
    kern: &Kernel<T>,
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    b: &[T],
    accumulate: bool,
    c: &mut [T::Acc],
    workers: usize,
) {
    let (mr, nr) = (kern.mr, kern.nr);
    let row_blocks = m.div_ceil(MC);
    let mut packed_b_buf = vec![T::default(); KC * NC.min(n.next_multiple_of(nr))];
    let c_ptr = SendPtr(c.as_mut_ptr());
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(nr, trans_b, b, k, n, pc, kc, jc, nc, &mut packed_b_buf);
            let packed_b = &packed_b_buf;
            let acc_block = accumulate || pc > 0;
            let next = AtomicUsize::new(0);
            rayon::scope(|s| {
                for _ in 0..workers {
                    let next = &next;
                    let c_ptr = &c_ptr;
                    let kern = *kern;
                    s.spawn(move || {
                        let mut packed_a = vec![T::default(); MC.next_multiple_of(mr) * KC];
                        loop {
                            let blk = next.fetch_add(1, Ordering::Relaxed);
                            if blk >= row_blocks {
                                break;
                            }
                            let ic = blk * MC;
                            let mc = MC.min(m - ic);
                            pack_a(mr, trans_a, a, m, k, ic, mc, pc, kc, &mut packed_a);
                            // SAFETY: each row block `[ic, ic+mc)` is claimed
                            // by exactly one worker (atomic counter), so the
                            // C rows written here are disjoint between
                            // workers for the lifetime of this scope.
                            let c_rows = unsafe {
                                std::slice::from_raw_parts_mut(c_ptr.0.add(ic * n), mc * n)
                            };
                            block_kernel(
                                &kern, &packed_a, packed_b, c_rows, n, 0, mc, jc, nc, kc, acc_block,
                            );
                        }
                    });
                }
            });
        }
    }
}

/// Raw pointer wrapper so scoped workers can share the output buffer; safety
/// rests on the disjoint row-block claim discipline in [`gemm_parallel`].
struct SendPtr<A>(*mut A);
// SAFETY: SendPtr is only handed to scoped workers that write disjoint
// row blocks of C (each `mc` block is claimed by exactly one worker via the
// fetch_add ticket in `gemm_parallel`), so concurrent access never aliases.
unsafe impl<A: Send> Send for SendPtr<A> {}
unsafe impl<A: Send> Sync for SendPtr<A> {}

/// Where the blocked driver reads an operand from: its raw matrix, packed
/// block by block into a staging buffer, or a prepacked operand `P`.
enum Source<'a, T, P> {
    Raw {
        trans: bool,
        data: &'a [T],
        buf: &'a mut [T],
    },
    Packed(&'a P),
}

/// The blocked loop nest every single-threaded entry point runs: n-panels,
/// then k-panels (one packed B panel each), then m-blocks (one packed A
/// block each), each multiplied tile by tile into C. The first k-panel
/// overwrites C unless `accumulate`; later ones add to it.
#[allow(clippy::too_many_arguments)]
fn drive<T: Element>(
    kern: &Kernel<T>,
    m: usize,
    n: usize,
    k: usize,
    mut a: Source<'_, T, PackedA<T>>,
    mut b: Source<'_, T, PackedB<T>>,
    accumulate: bool,
    c: &mut [T::Acc],
) {
    for (ji, jc) in (0..n).step_by(NC).enumerate() {
        let nc = NC.min(n - jc);
        for (pi, pc) in (0..k).step_by(KC).enumerate() {
            let kc = KC.min(k - pc);
            let pb: &[T] = match &mut b {
                Source::Raw { trans, data, buf } => {
                    pack_b(kern.nr, *trans, data, k, n, pc, kc, jc, nc, buf);
                    buf
                }
                Source::Packed(packed) => packed.panel(ji, pi),
            };
            for (bi, ic) in (0..m).step_by(MC).enumerate() {
                let mc = MC.min(m - ic);
                let pa: &[T] = match &mut a {
                    Source::Raw { trans, data, buf } => {
                        pack_a(kern.mr, *trans, data, m, k, ic, mc, pc, kc, buf);
                        buf
                    }
                    Source::Packed(packed) => packed.block(pi, bi),
                };
                block_kernel(kern, pa, pb, c, n, ic, mc, jc, nc, kc, accumulate || pc > 0);
            }
        }
    }
}

/// Elements-per-block stride of one packed `(k-panel, m-block)` A block
/// inside a [`PackedA`] buffer for a tier with the given `mr`: every block
/// occupies a fixed-size slot (edge blocks use a prefix of theirs) so
/// offsets are index arithmetic.
fn a_block_stride(mr: usize) -> usize {
    MC.div_ceil(mr) * mr * KC
}

/// A fully packed `op(A)` operand: every `(k-panel, m-block)` of A in the
/// exact strip layout the microkernel consumes.
///
/// [`gemm`] re-packs A on every call; when the *same* A is multiplied against
/// many different B matrices — a compiled plan's frozen input activation,
/// which meets every perturbed weight realization's [`PackedB`] panel —
/// packing once via [`PackedA::pack`] and calling [`gemm_prepacked_ab`] per
/// B amortizes that work. Results are **bit-identical** to
/// [`gemm_with_scratch`] (same packed values, same block traversal, same
/// accumulation order).
///
/// The layout depends on the kernel tier's `mr`, so the operand records the
/// tier active when it was packed and prepacked multiplies always use that
/// tier's kernel.
///
/// The buffer grows monotonically and never shrinks, so steady-state repacks
/// allocate nothing.
#[derive(Debug, Default, Clone)]
pub struct PackedA<T> {
    m: usize,
    k: usize,
    tier: KernelTier,
    buf: Vec<T>,
}

impl<T: Element> PackedA<T> {
    /// Creates an empty handle; the buffer grows on first [`PackedA::pack`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Rows of the packed operand.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Shared (reduction) dimension of the packed operand.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The kernel tier whose strip layout this operand was packed for.
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// Packs `op(A)` (`[m, k]`, or stored `[k, m]` when `trans_a`) in full.
    ///
    /// # Panics
    ///
    /// Panics when the slice length disagrees with `m * k`.
    pub fn pack(&mut self, trans_a: bool, a: &[T], m: usize, k: usize) {
        let _span = telemetry::span(telemetry::Phase::Pack);
        assert_eq!(a.len(), m * k, "A must hold m*k elements");
        T::check_operand(k, a);
        self.m = m;
        self.k = k;
        self.tier = dispatch::active();
        let mr = T::kernel(self.tier).mr;
        let stride = a_block_stride(mr);
        let m_blocks = m.div_ceil(MC);
        let k_panels = k.div_ceil(KC);
        let buf = uninit_slice(&mut self.buf, m_blocks * k_panels * stride);
        for (pi, pc) in (0..k).step_by(KC).enumerate() {
            let kc = KC.min(k - pc);
            for (bi, ic) in (0..m).step_by(MC).enumerate() {
                let mc = MC.min(m - ic);
                let slot = &mut buf[(pi * m_blocks + bi) * stride..][..stride];
                pack_a(mr, trans_a, a, m, k, ic, mc, pc, kc, slot);
            }
        }
    }

    /// The packed block for k-panel `pi` and m-block `bi`.
    fn block(&self, pi: usize, bi: usize) -> &[T] {
        let stride = a_block_stride(T::kernel(self.tier).mr);
        let m_blocks = self.m.div_ceil(MC);
        &self.buf[(pi * m_blocks + bi) * stride..][..stride]
    }
}

/// A fully packed `op(B)` operand: every `(n-panel, k-panel)` of B in the
/// exact nr-strip layout the microkernel consumes — the weight-side
/// counterpart of [`PackedA`].
///
/// This is the cache a compiled inference plan keeps per weighted layer: the
/// clean weight matrix (or code matrix) is packed **once** at plan-compile
/// time, and between Monte-Carlo fault realizations only the strips
/// covering rows the injector actually touched are re-packed
/// ([`PackedB::repack_rows`]). For sparse fault models that removes the
/// dominant per-run re-packing cost of the direct path, which packs the full
/// weight operand on every forward.
///
/// Panels are stored in fixed-stride slots, so offsets are index arithmetic,
/// and results through [`gemm_prepacked_b`] / [`gemm_prepacked_ab`] are
/// **bit-identical** to [`gemm_with_scratch`] (same packed values, same block
/// traversal, same accumulation order). Like [`PackedA`], the operand
/// records the kernel tier whose strip width it was packed for.
#[derive(Debug, Default, Clone)]
pub struct PackedB<T> {
    k: usize,
    n: usize,
    trans_b: bool,
    tier: KernelTier,
    k_panels: usize,
    slot: usize,
    buf: Vec<T>,
}

impl<T: Element> PackedB<T> {
    /// Creates an empty handle; the buffer grows on first [`PackedB::pack`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared (reduction) dimension of the packed operand.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of the packed operand (rows of the stored matrix when
    /// `trans_b` — e.g. output features of a `[out, in]` weight).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The kernel tier whose strip layout this operand was packed for.
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// Packs `op(B)` (`[k, n]`, or stored `[n, k]` when `trans_b`) in full.
    ///
    /// # Panics
    ///
    /// Panics when the slice length disagrees with `k * n`.
    pub fn pack(&mut self, trans_b: bool, b: &[T], k: usize, n: usize) {
        let _span = telemetry::span(telemetry::Phase::Pack);
        assert_eq!(b.len(), k * n, "B must hold k*n elements");
        T::check_operand(k, b);
        self.k = k;
        self.n = n;
        self.trans_b = trans_b;
        self.tier = dispatch::active();
        let nr = T::kernel(self.tier).nr;
        self.k_panels = k.div_ceil(KC).max(1);
        // Fixed slot stride: a full (NC, KC) panel packs to NC-padded × KC
        // elements; edge panels use a prefix of their slot.
        self.slot = KC * NC.min(n.next_multiple_of(nr)).max(nr);
        let n_panels = n.div_ceil(NC).max(1);
        let buf = uninit_slice(&mut self.buf, n_panels * self.k_panels * self.slot);
        for (ji, jc) in (0..n).step_by(NC).enumerate() {
            let nc = NC.min(n - jc);
            for (pi, pc) in (0..k).step_by(KC).enumerate() {
                let kc = KC.min(k - pc);
                let slot = &mut buf[(ji * self.k_panels + pi) * self.slot..][..self.slot];
                pack_b(nr, trans_b, b, k, n, pc, kc, jc, nc, slot);
            }
        }
    }

    /// The packed panel for n-panel `ji` and k-panel `pi`.
    fn panel(&self, ji: usize, pi: usize) -> &[T] {
        &self.buf[(ji * self.k_panels + pi) * self.slot..][..self.slot]
    }

    /// Overwrites this operand with `src` scaled by a constant `factor`
    /// under the element type's drift rule ([`Element::scale`]): `w · f`
    /// for weights, `round(c · f)` with `0 ≤ f ≤ 1` for codes.
    ///
    /// Because packing is a pure permutation with zero padding (and the
    /// rule maps zero to zero), the result is bit-identical to packing a
    /// matrix whose every element was scaled — the retention-drift
    /// realization, applied without touching the unpacked matrix at all.
    ///
    /// # Panics
    ///
    /// Panics when the two operands were packed with different dimensions or
    /// under different kernel tiers, or (codes) `factor` lies outside
    /// `[0, 1]`.
    pub fn scale_from(&mut self, src: &PackedB<T>, factor: f32) {
        let _span = telemetry::span(telemetry::Phase::Repack);
        telemetry::count(telemetry::Counter::UniformScales, 1);
        let len = self.same_layout_len(src);
        T::scale(&mut self.buf[..len], &src.buf[..len], factor);
    }

    /// Overwrites this operand with a copy of `src` (used when a plan leaves
    /// the uniformly-scaled regime and must restore the clean panels before
    /// sparse re-packing).
    ///
    /// # Panics
    ///
    /// Panics when the two operands were packed with different dimensions or
    /// under different kernel tiers.
    pub fn copy_from(&mut self, src: &PackedB<T>) {
        let len = self.same_layout_len(src);
        self.buf[..len].copy_from_slice(&src.buf[..len]);
    }

    /// Packed elements covering the dimensions both operands must share.
    fn same_layout_len(&self, src: &PackedB<T>) -> usize {
        assert_eq!(
            (self.k, self.n, self.trans_b, self.tier),
            (src.k, src.n, src.trans_b, src.tier),
            "packed operands disagree on shape or kernel tier"
        );
        self.n.div_ceil(NC).max(1) * self.k_panels * self.slot
    }

    /// Re-packs only the nr-strips covering rows marked in `dirty` from the
    /// (updated) source matrix `b` — rows meaning columns of `op(B)`, i.e.
    /// rows of the stored `[n, k]` weight when `trans_b`.
    ///
    /// `base` offsets the lookup into `dirty`: row `j` of this operand
    /// consults mark `base + j`, so one dirty set over `batch · n` rows can
    /// drive the per-realization panels of a stacked batched plan (each
    /// realization passes its own `base = b · n`). Single-operand callers
    /// pass `0`.
    ///
    /// After the call the packed operand equals `pack(trans_b, b, k, n)`
    /// **provided** every column that changed since the last pack/repack is
    /// marked (callers union the previous realization's dirty set so
    /// reverted rows are restored too).
    ///
    /// # Panics
    ///
    /// Panics when `b` or `dirty` disagree with the packed dimensions.
    pub fn repack_rows(&mut self, b: &[T], dirty: &DirtyRows, base: usize) {
        let _span = telemetry::span(telemetry::Phase::Repack);
        assert_eq!(b.len(), self.k * self.n, "B must hold k*n elements");
        assert!(dirty.rows() >= base + self.n, "dirty set must cover n rows");
        T::check_operand(self.k, b);
        let (k, n) = (self.k, self.n);
        let nr = T::kernel(self.tier).nr;
        let mut repacked_rows = 0u64;
        for (ji, jc) in (0..n).step_by(NC).enumerate() {
            let nc = NC.min(n - jc);
            for jr in (0..nc).step_by(nr) {
                let j0 = jc + jr;
                if !dirty.any_in(base + j0, base + (j0 + nr).min(n)) {
                    continue;
                }
                let cols = nr.min(nc - jr);
                repacked_rows += cols as u64;
                for (pi, pc) in (0..k).step_by(KC).enumerate() {
                    let kc = KC.min(k - pc);
                    let len = depth::<T>(kc) * nr;
                    let slot = (ji * self.k_panels + pi) * self.slot;
                    let strip = &mut self.buf[slot + (jr / nr) * len..][..len];
                    pack_b_strip(self.trans_b, b, k, n, pc, kc, j0, cols, nr, strip);
                }
            }
        }
        telemetry::count(telemetry::Counter::RowsRepacked, repacked_rows);
    }

    /// Writes a single element of the packed operand in place: stored row
    /// `row` (an output feature of a `[n, k]` weight packed with `trans_b`),
    /// reduction index `kidx`.
    ///
    /// This is the packed-domain injection primitive for sparse fault
    /// models: a realization touching a handful of cells (stuck weights,
    /// whole crossbar lines of codes) lands straight in the panels in O(1)
    /// per cell, instead of re-packing every dirty row's full k extent
    /// through [`PackedB::repack_rows`]. Writing the same value this way is
    /// bit-identical to a re-pack (packing is a pure permutation).
    ///
    /// # Panics
    ///
    /// Panics when the operand was not packed with `trans_b`, or the indices
    /// are out of range.
    pub fn write_cell(&mut self, row: usize, kidx: usize, value: T) {
        telemetry::count(telemetry::Counter::CellScatters, 1);
        assert!(self.trans_b, "write_cell addresses trans_b packed operands");
        assert!(row < self.n && kidx < self.k, "cell out of range");
        T::check_operand(self.k, &[value]);
        let nr = T::kernel(self.tier).nr;
        let ji = row / NC;
        let jc = ji * NC;
        let jr = ((row - jc) / nr) * nr;
        let pi = kidx / KC;
        let pc = pi * KC;
        let p = kidx - pc;
        let pos = (ji * self.k_panels + pi) * self.slot // panel slot
            + (jr / nr) * (depth::<T>(KC.min(self.k - pc)) * nr) // nr-strip within it
            + (p / T::KQ) * (nr * T::KQ) // k-step within strip
            + (row - jc - jr) * T::KQ // row within the k-step
            + p % T::KQ; // element within the k-step
        self.buf[pos] = value;
    }
}

/// GEMM with a cached pre-packed B operand (see [`PackedB`]):
/// `C ← op(A) · op(B)` (or `C += …` when `accumulate`) where only A is
/// packed per call, blockwise into the caller's [`Scratch`].
///
/// Runs on the kernel tier `packed_b` was packed for. Bit-identical to
/// [`gemm`] / [`gemm_with_scratch`] on that tier for the same operands.
///
/// # Panics
///
/// Panics when a slice length disagrees with the packed dimensions.
pub fn gemm_prepacked_b<T: Element>(
    trans_a: bool,
    m: usize,
    a: &[T],
    packed_b: &PackedB<T>,
    accumulate: bool,
    c: &mut [T::Acc],
    scratch: &mut Scratch,
) {
    let _span = telemetry::span(telemetry::Phase::Gemm);
    let (k, n) = (packed_b.k, packed_b.n);
    assert_eq!(a.len(), m * k, "A must hold m*k elements");
    assert_eq!(c.len(), m * n, "C must hold m*n elements");
    T::check_operand(k, a);
    if degenerate(m, n, k, accumulate, c) {
        return;
    }
    let kern = T::kernel(packed_b.tier);
    let (a_buf, _) = T::packing_buffers(scratch);
    let a = Source::Raw {
        trans: trans_a,
        data: a,
        buf: uninit_slice(a_buf, MC.next_multiple_of(kern.mr) * KC),
    };
    drive(&kern, m, n, k, a, Source::Packed(packed_b), accumulate, c);
}

/// GEMM with **both** operands pre-packed ([`PackedA`] × [`PackedB`]): the
/// fully amortized steady state of a compiled plan whose input activation is
/// constant across Monte-Carlo runs — per call, no packing happens at all.
///
/// Runs on the kernel tier the operands were packed for. Bit-identical to
/// [`gemm`] / [`gemm_with_scratch`] on that tier for the same operands.
///
/// # Panics
///
/// Panics when the packed reduction dimensions disagree, the operands were
/// packed under different kernel tiers, or `c` has the wrong length.
pub fn gemm_prepacked_ab<T: Element>(
    packed_a: &PackedA<T>,
    packed_b: &PackedB<T>,
    accumulate: bool,
    c: &mut [T::Acc],
) {
    let _span = telemetry::span(telemetry::Phase::Gemm);
    let (m, k) = (packed_a.m, packed_a.k);
    let n = packed_b.n;
    assert_eq!(k, packed_b.k, "packed operands disagree on k");
    assert_eq!(
        packed_a.tier, packed_b.tier,
        "packed operands disagree on kernel tier"
    );
    assert_eq!(c.len(), m * n, "C must hold m*n elements");
    if degenerate(m, n, k, accumulate, c) {
        return;
    }
    let kern = T::kernel(packed_a.tier);
    let (a, b) = (Source::Packed(packed_a), Source::Packed(packed_b));
    drive(&kern, m, n, k, a, b, accumulate, c);
}

fn check_dims<T: Element>(m: usize, n: usize, k: usize, a: &[T], b: &[T], c: &[T::Acc]) {
    assert_eq!(a.len(), m * k, "A must hold m*k elements");
    assert_eq!(b.len(), k * n, "B must hold k*n elements");
    assert_eq!(c.len(), m * n, "C must hold m*n elements");
    T::check_operand(k, a);
    T::check_operand(k, b);
}

/// Finishes the products with nothing to multiply — `m == 0` or `n == 0`
/// (no C), or `k == 0` (C zeroed, or left alone when accumulating) — and
/// returns whether the call is done.
fn degenerate<A: Copy + Default>(
    m: usize,
    n: usize,
    k: usize,
    accumulate: bool,
    c: &mut [A],
) -> bool {
    if k == 0 && !accumulate {
        c.fill(A::default());
    }
    m == 0 || n == 0 || k == 0
}

/// Packs the `mc × kc` block of `op(A)` starting at `(ic, pc)` into mr-row
/// strips (see [`pack_strip`]).
#[allow(clippy::too_many_arguments)]
fn pack_a<T: Element>(
    mr: usize,
    trans_a: bool,
    a: &[T],
    m: usize,
    k: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    packed: &mut [T],
) {
    let len = depth::<T>(kc) * mr;
    for ir in (0..mc).step_by(mr) {
        let (i0, rows) = (ic + ir, mr.min(mc - ir));
        let strip = &mut packed[(ir / mr) * len..][..len];
        if trans_a {
            pack_strip(&a[pc * m + i0..], 1, m, rows, mr, kc, strip);
        } else {
            pack_strip(&a[i0 * k + pc..], k, 1, rows, mr, kc, strip);
        }
    }
}

/// Packs the `kc × nc` block of `op(B)` starting at `(pc, jc)` into
/// nr-column strips (see [`pack_strip`]).
#[allow(clippy::too_many_arguments)]
fn pack_b<T: Element>(
    nr: usize,
    trans_b: bool,
    b: &[T],
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    packed: &mut [T],
) {
    let len = depth::<T>(kc) * nr;
    for jr in (0..nc).step_by(nr) {
        let (j0, cols) = (jc + jr, nr.min(nc - jr));
        let strip = &mut packed[(jr / nr) * len..][..len];
        pack_b_strip(trans_b, b, k, n, pc, kc, j0, cols, nr, strip);
    }
}

/// Packs the `cols` columns of `op(B)` from `j0`, `kc` deep from `pc`, into
/// one nr-wide strip (see [`pack_strip`]).
#[allow(clippy::too_many_arguments)]
fn pack_b_strip<T: Element>(
    trans_b: bool,
    b: &[T],
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    j0: usize,
    cols: usize,
    nr: usize,
    strip: &mut [T],
) {
    if trans_b {
        pack_strip(&b[j0 * k + pc..], k, 1, cols, nr, kc, strip);
    } else {
        pack_strip(&b[pc * n + j0..], 1, n, cols, nr, kc, strip);
    }
}

/// Packs one strip of `width` lines — rows of `op(A)` or columns of
/// `op(B)` — `kc` reduction steps deep, in the order the microkernels read:
/// `strip[k-step][line][0..KQ]`. Line `x` at reduction index `p` is
/// `src[x * line_stride + p * step_stride]`; lines past `lines` and the
/// ragged end of the last k-step are zero, so the microkernel always reads
/// full tiles. At k-step 1, a strip whose lines are adjacent in memory
/// (transposed A, untransposed B) packs each step with one copy.
fn pack_strip<T: Element>(
    src: &[T],
    line_stride: usize,
    step_stride: usize,
    lines: usize,
    width: usize,
    kc: usize,
    strip: &mut [T],
) {
    let mut steps = strip.chunks_exact_mut(width * T::KQ);
    for p in (0..kc).step_by(T::KQ) {
        let dst = steps.next().expect("packed buffer holds every k-step");
        let (body, tail) = dst.split_at_mut(lines * T::KQ);
        let src = &src[p * step_stride..];
        if T::KQ == 1 && line_stride == 1 {
            body.copy_from_slice(&src[..lines]);
        } else {
            let valid = kc - p;
            for (x, step) in body.chunks_exact_mut(T::KQ).enumerate() {
                for (kk, d) in step.iter_mut().enumerate() {
                    *d = if kk < valid {
                        src[x * line_stride + kk * step_stride]
                    } else {
                        T::default()
                    };
                }
            }
        }
        tail.fill(T::default());
    }
}

/// Runs the microkernel over every `mr × nr` tile of an `mc × nc` block,
/// writing into `c` (row-major with leading dimension `n`) at row offset
/// `ic` and column offset `jc`.
#[allow(clippy::too_many_arguments)]
fn block_kernel<T: Element>(
    kern: &Kernel<T>,
    packed_a: &[T],
    packed_b: &[T],
    c: &mut [T::Acc],
    n: usize,
    ic: usize,
    mc: usize,
    jc: usize,
    nc: usize,
    kc: usize,
    accumulate: bool,
) {
    let (mr, nr) = (kern.mr, kern.nr);
    let depth = depth::<T>(kc);
    let mut acc = [T::Acc::default(); MAX_TILE];
    for jr in (0..nc).step_by(nr) {
        let cols = nr.min(nc - jr);
        let pb = &packed_b[(jr / nr) * (depth * nr)..][..depth * nr];
        for ir in (0..mc).step_by(mr) {
            let rows = mr.min(mc - ir);
            let pa = &packed_a[(ir / mr) * (depth * mr)..][..depth * mr];
            // SAFETY: kernels come from `Element::kernel` with a tier the
            // host supports ([`dispatch::active`]/[`dispatch::force`]
            // guarantee that), and the slices cover depth·mr / depth·nr /
            // mr·nr elements.
            unsafe { (kern.micro)(depth / T::KQ, pa, pb, &mut acc[..mr * nr]) };
            store_tile(
                &acc[..mr * nr],
                nr,
                c,
                n,
                ic + ir,
                jc + jr,
                rows,
                cols,
                accumulate,
            );
        }
    }
}

/// Portable 4×8 microkernel: plain scalar accumulation (separate multiply
/// and add roundings — the one f32 tier that is *not* bit-identical to the
/// FMA tiers), auto-vectorized by LLVM where the build target allows.
///
/// # Safety
///
/// Contains no unsafe operations of its own; it is `unsafe fn` only to
/// match the [`Microkernel`] signature shared with the SIMD tiers.
/// Callable with any arguments (bounds are asserted).
unsafe fn microkernel_portable(kc: usize, pa: &[f32], pb: &[f32], acc_out: &mut [f32]) {
    const MR: usize = 4;
    const NR: usize = 8;
    assert!(pa.len() >= kc * MR && pb.len() >= kc * NR && acc_out.len() >= MR * NR);
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..kc {
        let bv: &[f32; NR] = pb[p * NR..p * NR + NR].try_into().expect("NR panel");
        let av: &[f32; MR] = pa[p * MR..p * MR + MR].try_into().expect("MR panel");
        for r in 0..MR {
            let ar = av[r];
            for j in 0..NR {
                acc[r][j] += ar * bv[j];
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        acc_out[r * NR..(r + 1) * NR].copy_from_slice(row);
    }
}

/// Hand-written 6×16 AVX2+FMA microkernel: twelve ymm accumulators, two
/// packed-B vector loads and six scalar broadcasts per k-step. `acc += Ā · B̄`
/// over one packed k-panel; branch-free, the accumulators live entirely in
/// vector registers, so the k-loop touches memory only to stream the packed
/// panels.
///
/// # Safety
///
/// The host must support AVX2 and FMA (guaranteed when the kernel is reached
/// through [`Element::kernel`] with a detected/forced tier).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_avx2(kc: usize, pa: &[f32], pb: &[f32], acc_out: &mut [f32]) {
    use core::arch::x86_64::{
        _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    const MR: usize = 6;
    const NR: usize = 16;
    assert!(pa.len() >= kc * MR && pb.len() >= kc * NR && acc_out.len() >= MR * NR);
    // SAFETY: the asserts above bound every pointer offset used below
    // (`pa`/`pb` hold full `kc`-deep packed panels, `acc_out` holds the full
    // MR×NR tile), and the fn-level contract guarantees the host supports
    // the SIMD features these intrinsics require.
    unsafe {
        let mut acc = [_mm256_setzero_ps(); 2 * MR];
        let mut ap = pa.as_ptr();
        let mut bp = pb.as_ptr();
        for _ in 0..kc {
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            // Fixed trip count: fully unrolled, `acc` stays in registers.
            for r in 0..MR {
                let ar = _mm256_broadcast_ss(&*ap.add(r));
                acc[2 * r] = _mm256_fmadd_ps(ar, b0, acc[2 * r]);
                acc[2 * r + 1] = _mm256_fmadd_ps(ar, b1, acc[2 * r + 1]);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        for r in 0..MR {
            _mm256_storeu_ps(acc_out.as_mut_ptr().add(r * NR), acc[2 * r]);
            _mm256_storeu_ps(acc_out.as_mut_ptr().add(r * NR + 8), acc[2 * r + 1]);
        }
    }
}

/// Hand-written 14×32 AVX-512 microkernel: 28 zmm accumulators (of 32), two
/// packed-B vector loads and fourteen scalar broadcasts per k-step. The
/// per-element accumulation is the same sequential k-order FMA chain as the
/// AVX2 kernel, so the two SIMD tiers are bit-identical — the wider tile
/// only changes which elements share a register, not how any element is
/// computed.
///
/// # Safety
///
/// The host must support AVX-512F (guaranteed when the kernel is reached
/// through [`Element::kernel`] with a detected/forced tier).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512(kc: usize, pa: &[f32], pb: &[f32], acc_out: &mut [f32]) {
    use core::arch::x86_64::{
        _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
    };
    const MR: usize = 14;
    const NR: usize = 32;
    assert!(pa.len() >= kc * MR && pb.len() >= kc * NR && acc_out.len() >= MR * NR);
    // SAFETY: the asserts above bound every pointer offset used below
    // (`pa`/`pb` hold full `kc`-deep packed panels, `acc_out` holds the full
    // MR×NR tile), and the fn-level contract guarantees the host supports
    // the SIMD features these intrinsics require.
    unsafe {
        let mut acc = [_mm512_setzero_ps(); 2 * MR];
        let mut ap = pa.as_ptr();
        let mut bp = pb.as_ptr();
        for _ in 0..kc {
            let b0 = _mm512_loadu_ps(bp);
            let b1 = _mm512_loadu_ps(bp.add(16));
            for r in 0..MR {
                let ar = _mm512_set1_ps(*ap.add(r));
                acc[2 * r] = _mm512_fmadd_ps(ar, b0, acc[2 * r]);
                acc[2 * r + 1] = _mm512_fmadd_ps(ar, b1, acc[2 * r + 1]);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        for r in 0..MR {
            _mm512_storeu_ps(acc_out.as_mut_ptr().add(r * NR), acc[2 * r]);
            _mm512_storeu_ps(acc_out.as_mut_ptr().add(r * NR + 16), acc[2 * r + 1]);
        }
    }
}

/// Writes one accumulator tile (row-major, leading dimension `nr`) back to
/// C, overwriting it (without reading C) or adding to it.
#[allow(clippy::too_many_arguments)]
#[inline]
fn store_tile<A: Copy + AddAssign>(
    acc: &[A],
    nr: usize,
    c: &mut [A],
    n: usize,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
    accumulate: bool,
) {
    for r in 0..rows {
        let acc_row = &acc[r * nr..][..cols];
        let out = &mut c[(row0 + r) * n + col0..][..cols];
        if accumulate {
            for (o, &v) in out.iter_mut().zip(acc_row) {
                *o += v;
            }
        } else {
            out.copy_from_slice(acc_row);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! Every driver and packed-operand check is one generic helper below,
    //! run for f32 by this module's tests and for i8 by `qgemm::tests`.

    use super::*;
    use crate::rng::Rng;

    /// What the generic checks need of an element type beyond [`Element`].
    pub(crate) trait Check: Element {
        /// A value C may hold that an overwrite must never read.
        const GARBAGE: Self::Acc;
        /// A value no packer writes, marking unwritten buffer slots.
        const UNWRITTEN: Self;
        /// A random operand (codes stay within ±127).
        fn random(len: usize, rng: &mut Rng) -> Vec<Self>;
        /// Random prior contents of C.
        fn random_acc(len: usize, rng: &mut Rng) -> Vec<Self::Acc>;
        /// Another valid element: a fault's stand-in.
        fn nudge(self) -> Self;
        /// `a · b` in the accumulator type.
        fn mul(a: Self, b: Self) -> Self::Acc;
        /// Whether `got` is the reference's `want` up to the type's rounding.
        fn close(got: Self::Acc, want: Self::Acc) -> bool;
        /// The bits of an element.
        fn bits(self) -> u64;
        /// The bits of an accumulator.
        fn acc_bits(c: Self::Acc) -> u64;
    }

    impl Check for f32 {
        const GARBAGE: f32 = f32::NAN;
        const UNWRITTEN: f32 = f32::NAN;
        fn random(len: usize, rng: &mut Rng) -> Vec<f32> {
            (0..len).map(|_| rng.normal(0.0, 1.0)).collect()
        }
        fn random_acc(len: usize, rng: &mut Rng) -> Vec<f32> {
            f32::random(len, rng)
        }
        fn nudge(self) -> f32 {
            self + 1.0
        }
        fn mul(a: f32, b: f32) -> f32 {
            a * b
        }
        fn close(got: f32, want: f32) -> bool {
            (got - want).abs() <= 1e-3 * (1.0 + want.abs())
        }
        fn bits(self) -> u64 {
            u64::from(self.to_bits())
        }
        fn acc_bits(c: f32) -> u64 {
            u64::from(c.to_bits())
        }
    }

    /// Textbook reference used to validate the blocked kernel.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn reference<T: Check>(
        trans_a: bool,
        trans_b: bool,
        m: usize,
        n: usize,
        k: usize,
        a: &[T],
        b: &[T],
        accumulate: bool,
        c: &mut [T::Acc],
    ) {
        for i in 0..m {
            for j in 0..n {
                let mut dot = T::Acc::default();
                for p in 0..k {
                    let av = if trans_a { a[p * m + i] } else { a[i * k + p] };
                    let bv = if trans_b { b[j * k + p] } else { b[p * n + j] };
                    dot += T::mul(av, bv);
                }
                if accumulate {
                    c[i * n + j] += dot;
                } else {
                    c[i * n + j] = dot;
                }
            }
        }
    }

    /// Bit-identical accumulator buffers.
    fn same<T: Check>(x: &[T::Acc], y: &[T::Acc]) -> bool {
        x.len() == y.len()
            && x.iter()
                .zip(y)
                .all(|(&p, &q)| T::acc_bits(p) == T::acc_bits(q))
    }

    /// Bit-identical element buffers.
    fn same_elems<T: Check>(x: &[T], y: &[T]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.bits() == q.bits())
    }

    /// The packed elements covering an operand's current dimensions.
    fn packed<T: Element>(p: &PackedB<T>) -> &[T] {
        &p.buf[..p.same_layout_len(p)]
    }

    /// Asserts `packed` equals a from-scratch pack of the `[n, k]` matrix `b`.
    fn assert_packs_to<T: Check>(packed_b: &PackedB<T>, b: &[T], k: usize, n: usize, what: &str) {
        let mut want = PackedB::new();
        want.pack(true, b, k, n);
        assert!(
            same_elems(packed(packed_b), packed(&want)),
            "{what}: n={n} k={k} diverged from a fresh pack"
        );
    }

    /// Nudges every element of row `row` of a `[_, k]` matrix.
    fn nudge_row<T: Check>(x: &mut [T], row: usize, k: usize) {
        for v in &mut x[row * k..(row + 1) * k] {
            *v = v.nudge();
        }
    }

    /// Awkward shapes — non-multiples of any tier's mr/nr, of the k-quad or
    /// of KC; GEMV-like m=1 and n=1; k spanning several KC panels; tiny
    /// everything — against the reference, overwriting and accumulating.
    pub(crate) fn check_odd_shapes<T: Check>() {
        let mut rng = Rng::seed_from(7);
        let shapes = [
            (1usize, 1usize, 1usize),
            (1, 17, 300),
            (5, 1, 3),
            (3, 7, 2),
            (4, 8, 256),
            (4, 16, 256),
            (13, 29, 31),
            (33, 65, 17),
            (130, 9, 270),
            (2, 300, 5),
            (7, 19, 515),
        ];
        for &(m, n, k) in &shapes {
            for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
                for accumulate in [false, true] {
                    let a = T::random(m * k, &mut rng);
                    let b = T::random(k * n, &mut rng);
                    let prior = T::random_acc(m * n, &mut rng);
                    let mut want = prior.clone();
                    reference(ta, tb, m, n, k, &a, &b, accumulate, &mut want);
                    let mut got = prior;
                    gemm(ta, tb, m, n, k, &a, &b, accumulate, &mut got);
                    for (idx, (&g, &w)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            T::close(g, w),
                            "m={m} n={n} k={k} ta={ta} tb={tb} accumulate={accumulate} \
                             idx={idx}: {g:?} vs {w:?}"
                        );
                    }
                }
            }
        }
    }

    /// `m == 0` / `n == 0` write nothing; `k == 0` zeroes C, or leaves it
    /// alone when accumulating.
    pub(crate) fn check_empty_dims<T: Check>() {
        let zeros = [T::default(); 12];
        gemm::<T>(false, false, 0, 4, 3, &[], &zeros, false, &mut []);
        gemm::<T>(false, false, 4, 0, 3, &zeros, &[], false, &mut []);
        let prior = T::random_acc(6, &mut Rng::seed_from(5));
        let mut c = prior.clone();
        gemm::<T>(false, false, 2, 3, 0, &[], &[], true, &mut c);
        assert!(
            same::<T>(&c, &prior),
            "accumulating k == 0 must leave C alone"
        );
        gemm::<T>(false, false, 2, 3, 0, &[], &[], false, &mut c);
        assert!(same::<T>(&c, &[T::Acc::default(); 6]), "k == 0 must zero C");
    }

    /// Overwriting never reads C (garbage, NaN for f32, is ignored);
    /// accumulating adds the product to what C holds.
    pub(crate) fn check_overwrite_and_accumulate<T: Check>() {
        let mut rng = Rng::seed_from(8);
        let (m, n, k) = (9, 11, 23);
        let a = T::random(m * k, &mut rng);
        let b = T::random(k * n, &mut rng);
        for accumulate in [false, true] {
            let prior = if accumulate {
                T::random_acc(m * n, &mut rng)
            } else {
                vec![T::GARBAGE; m * n]
            };
            let mut want = prior.clone();
            reference(false, false, m, n, k, &a, &b, accumulate, &mut want);
            let mut got = prior;
            gemm(false, false, m, n, k, &a, &b, accumulate, &mut got);
            for (&g, &w) in got.iter().zip(&want) {
                assert!(T::close(g, w), "accumulate={accumulate}: {g:?} vs {w:?}");
            }
        }
    }

    /// An operand stored in strip order at k-step 1 (transposed A,
    /// untransposed B) packs by contiguous copies; the other storage of the
    /// same operand packs element by element. Both must lay out the same
    /// panel, padding included, for every tier's strip width, across block
    /// edges and a ragged final k-step.
    pub(crate) fn check_packing_copies<T: Check>() {
        let mut rng = Rng::seed_from(16);
        let (rows, cols) = (KC + 9, NC + 21);
        let x = T::random(rows * cols, &mut rng);
        let xt: Vec<T> = (0..cols * rows)
            .map(|i| x[(i % rows) * cols + i / rows])
            .collect();
        let identical = |p: &[T], q: &[T]| {
            p.iter().all(|v| v.bits() != T::UNWRITTEN.bits()) && same_elems(p, q)
        };
        for width in [4, 6, 8, 14, 16, 32] {
            for (p0, j0) in [(0, 0), (0, NC), (KC, 0), (KC, NC)] {
                let (pn, jn) = (KC.min(rows - p0), NC.min(cols - j0));
                let len = depth::<T>(pn) * jn.next_multiple_of(width);
                // B = x is [k = rows, n = cols]; stored [n, k] it is xt.
                let mut copied = vec![T::UNWRITTEN; len];
                let mut gathered = vec![T::UNWRITTEN; len];
                pack_b(width, false, &x, rows, cols, p0, pn, j0, jn, &mut copied);
                pack_b(width, true, &xt, rows, cols, p0, pn, j0, jn, &mut gathered);
                assert!(
                    identical(&copied, &gathered),
                    "B nr={width} pc={p0} jc={j0}"
                );
                // A = xt is [m = cols, k = rows]; stored [k, m] it is x.
                let mut copied = vec![T::UNWRITTEN; len];
                let mut gathered = vec![T::UNWRITTEN; len];
                pack_a(width, true, &x, cols, rows, j0, jn, p0, pn, &mut copied);
                pack_a(width, false, &xt, cols, rows, j0, jn, p0, pn, &mut gathered);
                assert!(
                    identical(&copied, &gathered),
                    "A mr={width} ic={j0} pc={p0}"
                );
            }
        }
    }

    /// Repeat calls through one [`Scratch`] never grow it.
    pub(crate) fn check_scratch_reuse<T: Check>() {
        let mut rng = Rng::seed_from(9);
        let (m, n, k) = (64, 32, 48);
        let a = T::random(m * k, &mut rng);
        let b = T::random(k * n, &mut rng);
        let mut c = vec![T::Acc::default(); m * n];
        let mut scratch = Scratch::new();
        gemm_with_scratch(false, false, m, n, k, &a, &b, false, &mut c, &mut scratch);
        let cap = scratch.capacity();
        for _ in 0..3 {
            gemm_with_scratch(false, false, m, n, k, &a, &b, false, &mut c, &mut scratch);
        }
        assert_eq!(
            scratch.capacity(),
            cap,
            "repeat calls must not grow scratch"
        );
    }

    /// [`gemm_prepacked_ab`] is bit-identical to [`gemm_with_scratch`], with
    /// one handle per operand repacked across every shape and one packed A
    /// meeting a fresh B per accumulate mode.
    pub(crate) fn check_prepacked_ab<T: Check>() {
        let mut rng = Rng::seed_from(13);
        let shapes = [
            (1usize, 1usize, 1usize),
            (5, 7, 3),
            (13, 29, 31),
            (64, 256, 512),
            (MC + 3, NC + 5, KC + 7),
            (2 * MC + 1, 9, 2 * KC + 3),
        ];
        let mut packed_a = PackedA::new();
        let mut packed_b = PackedB::new();
        for &(m, n, k) in &shapes {
            for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
                let a = T::random(m * k, &mut rng);
                packed_a.pack(ta, &a, m, k);
                assert_eq!((packed_a.m(), packed_a.k()), (m, k));
                assert_eq!(packed_a.tier(), dispatch::active());
                for accumulate in [false, true] {
                    let b = T::random(k * n, &mut rng);
                    let prior = T::random_acc(m * n, &mut rng);
                    let mut want = prior.clone();
                    let mut scratch = Scratch::new();
                    gemm_with_scratch(ta, tb, m, n, k, &a, &b, accumulate, &mut want, &mut scratch);
                    packed_b.pack(tb, &b, k, n);
                    let mut got = prior;
                    gemm_prepacked_ab(&packed_a, &packed_b, accumulate, &mut got);
                    assert!(
                        same::<T>(&got, &want),
                        "m={m} n={n} k={k} ta={ta} tb={tb} accumulate={accumulate}"
                    );
                }
            }
        }
    }

    /// The frozen-input plan access pattern: one packed activation panel
    /// multiplied against several perturbed weight panels; repacking the
    /// same shape does not reallocate.
    pub(crate) fn check_prepacked_a_reuse<T: Check>() {
        let mut rng = Rng::seed_from(14);
        let (m, n, k) = (33, 17, 300);
        let a = T::random(m * k, &mut rng);
        let mut packed_a = PackedA::new();
        packed_a.pack(false, &a, m, k);
        let warm = packed_a.buf.capacity();
        let mut packed_b = PackedB::new();
        for trial in 0..4 {
            let b = T::random(k * n, &mut rng);
            let mut want = vec![T::Acc::default(); m * n];
            gemm(false, true, m, n, k, &a, &b, false, &mut want);
            packed_b.pack(true, &b, k, n);
            let mut got = vec![T::GARBAGE; m * n];
            gemm_prepacked_ab(&packed_a, &packed_b, false, &mut got);
            assert!(same::<T>(&got, &want), "trial {trial}");
        }
        packed_a.pack(false, &a, m, k);
        assert_eq!(
            packed_a.buf.capacity(),
            warm,
            "repacking must not reallocate"
        );
    }

    /// [`gemm_prepacked_b`] is bit-identical to [`gemm_with_scratch`] for
    /// either storage of both operands, one handle repacked across shapes.
    pub(crate) fn check_prepacked_b<T: Check>() {
        let mut rng = Rng::seed_from(15);
        let shapes = [
            (1usize, 1usize, 1usize),
            (5, 7, 3),
            (5, 19, 300),
            (33, NC + 5, KC + 7),
            (64, 256, 512),
            (MC + 3, NC + 5, KC + 7),
            (9, 2 * NC + 1, 2 * KC + 3),
        ];
        let mut packed_b = PackedB::new();
        let mut scratch = Scratch::new();
        for &(m, n, k) in &shapes {
            for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
                for accumulate in [false, true] {
                    let a = T::random(m * k, &mut rng);
                    let b = T::random(k * n, &mut rng);
                    let prior = T::random_acc(m * n, &mut rng);
                    let mut want = prior.clone();
                    let fresh = &mut Scratch::new();
                    gemm_with_scratch(ta, tb, m, n, k, &a, &b, accumulate, &mut want, fresh);
                    packed_b.pack(tb, &b, k, n);
                    assert_eq!((packed_b.k(), packed_b.n()), (k, n));
                    assert_eq!(packed_b.tier(), dispatch::active());
                    let mut got = prior;
                    gemm_prepacked_b(ta, m, &a, &packed_b, accumulate, &mut got, &mut scratch);
                    assert!(
                        same::<T>(&got, &want),
                        "m={m} n={n} k={k} ta={ta} tb={tb} accumulate={accumulate}"
                    );
                }
            }
        }
    }

    /// The plan's access pattern: pack clean weights once, perturb a few
    /// rows, repack only those rows; then revert them and dirty another,
    /// and repack the union. Each time the operand equals a fresh pack.
    pub(crate) fn check_repack_rows<T: Check>() {
        let mut rng = Rng::seed_from(16);
        let shapes = [
            (1usize, 1usize),
            (7, 5),
            (19, 300),
            (NC + 5, KC + 7),
            (NC + 9, KC + 3),
            (300, 40),
        ];
        for &(n, k) in &shapes {
            let clean = T::random(k * n, &mut rng);
            let mut packed_b = PackedB::new();
            packed_b.pack(true, &clean, k, n); // [n, k] weight layout
            let mut faulty = clean.clone();
            let mut dirty = DirtyRows::new(n);
            for row in [0, n / 2, n - 1] {
                nudge_row(&mut faulty, row, k);
                dirty.mark(row);
            }
            packed_b.repack_rows(&faulty, &dirty, 0);
            assert_packs_to(&packed_b, &faulty, k, n, "dirty repack");
            // Previously faulty rows must be restored, row 1 picked up.
            let mut next = clean.clone();
            let row = 1.min(n - 1);
            nudge_row(&mut next, row, k);
            let mut union = DirtyRows::new(n);
            union.merge_range(&dirty, 0, n);
            union.mark(row);
            packed_b.repack_rows(&next, &union, 0);
            assert_packs_to(&packed_b, &next, k, n, "union repack");
        }
    }

    /// The packed-domain injection primitive: scattering individual cells
    /// leaves the operand bit-identical to a full pack of the same matrix,
    /// across interior cells and k-step, strip and panel edges.
    pub(crate) fn check_write_cell<T: Check>() {
        let mut rng = Rng::seed_from(61);
        let nr = nr::<T>(dispatch::active());
        let shapes = [
            (1usize, 1usize),
            (7, 5),
            (7, 9),
            (nr + 3, 22),
            (NC + 5, KC + 7),
            (NC + 9, KC + 3),
            (300, 40),
        ];
        for &(n, k) in &shapes {
            let clean = T::random(k * n, &mut rng);
            let mut packed_b = PackedB::new();
            packed_b.pack(true, &clean, k, n);
            let mut faulty = clean.clone();
            let mut cells = vec![
                (0usize, 0usize),
                (n - 1, 0),
                (0, k - 1),
                (n - 1, k - 1),
                (n / 2, k / 2),
                (nr.min(n - 1), 0),
                (n - 1, KC.min(k - 1)),
            ];
            for i in 0..(n * k).min(37) {
                cells.push(((i * 7) % n, (i * 13) % k));
            }
            for &(row, kidx) in &cells {
                let v = faulty[row * k + kidx].nudge();
                faulty[row * k + kidx] = v;
                packed_b.write_cell(row, kidx, v);
            }
            assert_packs_to(&packed_b, &faulty, k, n, "write_cell");
        }
    }

    /// One dirty set over `batch · n` rows drives per-realization panels:
    /// `repack_rows` consults only the marks at its `base`.
    pub(crate) fn check_repack_base_offset<T: Check>() {
        let mut rng = Rng::seed_from(62);
        let (n, k) = (10usize, 6usize);
        let clean = T::random(k * n, &mut rng);
        let mut faulty = clean.clone();
        nudge_row(&mut faulty, 3, k);
        let mut stacked = DirtyRows::new(3 * n);
        stacked.mark(2 * n + 3); // realization 2, row 3
        let mut packed_b = PackedB::new();
        packed_b.pack(true, &clean, k, n);
        // Bases 0 and n see no marks — nothing repacked.
        packed_b.repack_rows(&faulty, &stacked, 0);
        packed_b.repack_rows(&faulty, &stacked, n);
        assert_packs_to(&packed_b, &clean, k, n, "unmarked bases");
        // Base 2n sees the mark — row 3, the only faulty row, repacked.
        packed_b.repack_rows(&faulty, &stacked, 2 * n);
        assert_packs_to(&packed_b, &faulty, k, n, "marked base");
    }

    /// The parallel path is bit-identical to the sequential one for every
    /// worker count, overwriting and accumulating: same k-accumulation order
    /// per element, only the (disjoint) row-block assignment differs.
    pub(crate) fn check_parallel<T: Check>() {
        let mut rng = Rng::seed_from(11);
        let (m, n, k) = (2 * MC + 3, NC + 5, KC + 7);
        let a = T::random(m * k, &mut rng);
        let b = T::random(k * n, &mut rng);
        let prior = T::random_acc(m * n, &mut rng);
        let kern = T::kernel(dispatch::active());
        for (workers, accumulate) in [(2, false), (3, true), (4, false), (5, true), (8, false)] {
            let mut seq = prior.clone();
            let scratch = &mut Scratch::new();
            gemm_with_scratch(false, false, m, n, k, &a, &b, accumulate, &mut seq, scratch);
            let mut par = prior.clone();
            gemm_parallel(
                &kern, false, false, m, n, k, &a, &b, accumulate, &mut par, workers,
            );
            assert!(same::<T>(&seq, &par), "workers={workers}");
        }
    }

    /// [`PackedB::scale_from`] equals packing the scaled matrix, padding
    /// included; `copy_from` restores the clean operand exactly.
    pub(crate) fn check_scale_from<T: Check>() {
        let mut rng = Rng::seed_from(34);
        let nr = nr::<T>(dispatch::active());
        for &(n, k) in &[(1usize, 1usize), (nr + 3, 22), (NC + 5, KC + 7)] {
            let b = T::random(k * n, &mut rng);
            let (mut clean, mut expected) = (PackedB::new(), PackedB::new());
            clean.pack(true, &b, k, n);
            for factor in [1.0f32, 0.83, 0.5, 0.0] {
                let mut drifted = b.clone();
                T::scale(&mut drifted, &b, factor);
                expected.pack(true, &drifted, k, n);
                let mut scaled = clean.clone();
                scaled.scale_from(&clean, factor);
                assert!(
                    same_elems(packed(&scaled), packed(&expected)),
                    "n={n} k={k} factor={factor}"
                );
                scaled.copy_from(&clean);
                assert!(
                    same_elems(packed(&scaled), packed(&clean)),
                    "copy_from n={n} k={k}"
                );
            }
        }
    }

    /// Property: repacking an arbitrary dirty subset of rows from an updated
    /// matrix leaves the cached operand bit-identical to a fresh pack.
    pub(crate) fn check_repack_prop<T: Check>(n: usize, k: usize, seed: u32, dirty_rows: &[usize]) {
        let mut rng = Rng::seed_from(u64::from(seed));
        let clean = T::random(k * n, &mut rng);
        let mut packed_b = PackedB::new();
        packed_b.pack(true, &clean, k, n);
        let mut faulty = clean.clone();
        let mut dirty = DirtyRows::new(n);
        for &row in dirty_rows.iter().filter(|&&r| r < n) {
            nudge_row(&mut faulty, row, k);
            dirty.mark(row);
        }
        packed_b.repack_rows(&faulty, &dirty, 0);
        assert_packs_to(&packed_b, &faulty, k, n, "cached repack");
    }

    /// Property: random small products match the reference.
    pub(crate) fn check_gemm_prop<T: Check>(m: usize, k: usize, n: usize, seed: u32) {
        let mut rng = Rng::seed_from(u64::from(seed));
        let a = T::random(m * k, &mut rng);
        let b = T::random(k * n, &mut rng);
        let mut want = vec![T::Acc::default(); m * n];
        reference(false, false, m, n, k, &a, &b, false, &mut want);
        let mut got = vec![T::GARBAGE; m * n];
        gemm(false, false, m, n, k, &a, &b, false, &mut got);
        for (&g, &w) in got.iter().zip(&want) {
            assert!(T::close(g, w), "m={m} n={n} k={k}: {g:?} vs {w:?}");
        }
    }

    #[test]
    fn matches_reference_over_odd_shapes() {
        check_odd_shapes::<f32>();
    }

    #[test]
    fn empty_dims_are_handled() {
        check_empty_dims::<f32>();
    }

    #[test]
    fn beta_zero_overwrites_nan_garbage() {
        check_overwrite_and_accumulate::<f32>();
    }

    #[test]
    fn packing_copies_match_the_transposed_gather() {
        check_packing_copies::<f32>();
    }

    #[test]
    fn scratch_reuse_is_alloc_free_after_warmup() {
        check_scratch_reuse::<f32>();
    }

    #[test]
    fn prepacked_is_bit_identical_to_gemm() {
        check_prepacked_ab::<f32>();
    }

    #[test]
    fn prepacked_a_is_reusable_across_many_b() {
        check_prepacked_a_reuse::<f32>();
    }

    #[test]
    fn prepacked_b_is_bit_identical_to_gemm() {
        check_prepacked_b::<f32>();
    }

    #[test]
    fn repack_rows_restores_dirty_panels_exactly() {
        check_repack_rows::<f32>();
    }

    #[test]
    fn write_cell_matches_full_repack() {
        check_write_cell::<f32>();
    }

    #[test]
    fn repack_rows_with_base_offset_addresses_stacked_dirty_sets() {
        check_repack_base_offset::<f32>();
    }

    #[test]
    fn accumulation_order_is_thread_count_invariant() {
        check_parallel::<f32>();
    }

    #[test]
    fn scale_from_is_bit_identical_to_packing_drifted_weights() {
        check_scale_from::<f32>();
    }

    mod packed_b_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_repack_matches_direct_pack(
                n in 1usize..40,
                k in 1usize..20,
                seed in 0u32..1000,
                dirty_rows in proptest::collection::vec(0usize..40, 0..8),
            ) {
                check_repack_prop::<f32>(n, k, seed, &dirty_rows);
            }

            #[test]
            fn prop_gemm_matches_reference(
                m in 1usize..24,
                k in 1usize..48,
                n in 1usize..24,
                seed in 0u32..1000,
            ) {
                check_gemm_prop::<f32>(m, k, n, seed);
            }
        }
    }
}
