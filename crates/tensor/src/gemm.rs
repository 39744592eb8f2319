//! Cache-blocked, register-tiled, parallel f32 GEMM.
//!
//! This is the compute core every dense layer in the workspace funnels into:
//! `C ← α · op(A) · op(B) + β · C` with optional transposition of either
//! operand, in the classic three-level blocking scheme (Goto/BLIS):
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
//! The microkernel (and with it the `mr × nr` register-tile geometry) is
//! selected **at runtime** through [`crate::dispatch`]: a portable 4×8
//! scalar kernel that works everywhere, a 6×16 AVX2+FMA kernel, and a 14×32
//! AVX-512 kernel. The tier is resolved once per process; packed operands
//! remember the tier they were laid out for, so prepacked multiplies stay
//! coherent even if tests pin a different tier afterwards.
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
//! thread count and schedule. Across kernel tiers, the AVX2 and AVX-512
//! kernels share the same per-element FMA accumulation order and produce
//! bit-identical results; only the portable tier (separate multiply + add
//! roundings) diverges. The active tier is thus the sole reproducibility
//! boundary, and it is surfaced via telemetry.
//!
//! lint: no_alloc

use crate::arena::DirtyRows;
use crate::dispatch::{self, KernelTier};
use crate::qgemm::QPackedB;
use crate::scratch::{uninit_slice, Scratch};
use crate::telemetry;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// k-panel size: a KC×nr strip of packed B stays L1-resident.
pub const KC: usize = 256;
/// m-block size: an MC×KC block of packed A (128 KiB) stays L2-resident.
pub const MC: usize = 128;
/// n-panel size: bounds the packed-B buffer at KC×NC (256 KiB).
pub const NC: usize = 256;

/// Minimum `m·n·k` before the row-block loop is parallelized; below this the
/// fork/steal overhead outweighs the work.
const PARALLEL_FLOP_THRESHOLD: usize = 1 << 21;

/// Elements in the largest microkernel tile (AVX-512's 14×32); sizes the
/// stack accumulator every tier writes a prefix of.
const MAX_TILE: usize = 14 * 32;

/// A microkernel: computes the full `mr × nr` register tile over one packed
/// k-panel and writes it row-major (leading dimension `nr`) into `acc`,
/// overwriting the `mr * nr` prefix.
///
/// # Safety
///
/// The callee may use the SIMD features of the tier it belongs to; callers
/// must only invoke kernels obtained from [`f32_kernel`] with a tier the
/// host supports. Slice bounds are asserted by each kernel.
type MicrokernelF32 = unsafe fn(kc: usize, pa: &[f32], pb: &[f32], acc: &mut [f32]);

/// One tier's f32 GEMM kernel: its register-tile geometry plus the
/// microkernel that fills such a tile.
#[derive(Clone, Copy)]
pub(crate) struct F32Kernel {
    /// Rows of C computed per microkernel tile.
    pub(crate) mr: usize,
    /// Columns of C computed per microkernel tile.
    pub(crate) nr: usize,
    micro: MicrokernelF32,
}

/// Portable 4×8 kernel: small enough not to spill on baseline SSE2.
const PORTABLE_F32: F32Kernel = F32Kernel {
    mr: 4,
    nr: 8,
    micro: microkernel_portable,
};

/// AVX2+FMA 6×16 kernel: twelve independent 256-bit FMA accumulator chains —
/// enough to cover FMA latency at two FMAs per cycle.
#[cfg(target_arch = "x86_64")]
const AVX2_F32: F32Kernel = F32Kernel {
    mr: 6,
    nr: 16,
    micro: microkernel_avx2,
};

/// AVX-512 14×32 kernel: 28 of the 32 zmm registers hold accumulators, the
/// rest stream packed B and the scalar broadcast.
#[cfg(target_arch = "x86_64")]
const AVX512_F32: F32Kernel = F32Kernel {
    mr: 14,
    nr: 32,
    micro: microkernel_avx512,
};

/// The f32 GEMM kernel for a dispatch tier.
pub(crate) fn f32_kernel(tier: KernelTier) -> F32Kernel {
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

/// Columns of C one f32 microkernel tile computes on `tier` (32, 16 or 8):
/// the narrowest GEMM that runs at the kernel's full register width.
pub fn nr(tier: KernelTier) -> usize {
    f32_kernel(tier).nr
}

thread_local! {
    static LOCAL_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// General matrix multiply-accumulate `C ← α · op(A) · op(B) + β · C`.
///
/// `op(A)` is `A` (`[m, k]`, row-major) or `Aᵀ` (stored `[k, m]`) when
/// `trans_a` is set; likewise `op(B)` is `[k, n]` or stored `[n, k]` when
/// `trans_b` is set. `C` is always `[m, n]` row-major. With `beta == 0.0`,
/// `C` is overwritten without being read (so it may hold garbage, including
/// NaNs); with `beta == 1.0` the product accumulates into `C`, which lets
/// backward passes fuse their `+=` instead of allocating a temporary.
///
/// Packing buffers are borrowed from a thread-local [`Scratch`]; use
/// [`gemm_with_scratch`] to supply your own. Large products run in parallel;
/// results are bit-identical for every thread count.
///
/// # Panics
///
/// Panics when a slice length disagrees with the given dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    let _span = telemetry::span(telemetry::Phase::Gemm);
    check_dims(m, n, k, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || alpha == 0.0 {
        scale_in_place(c, beta);
        return;
    }
    let kern = f32_kernel(dispatch::active());
    let row_blocks = m.div_ceil(MC);
    let workers = rayon::current_num_threads().min(row_blocks);
    if workers > 1 && m * n * k >= PARALLEL_FLOP_THRESHOLD {
        gemm_parallel(
            &kern, trans_a, trans_b, m, n, k, alpha, a, b, beta, c, workers,
        );
    } else {
        LOCAL_SCRATCH.with(|s| {
            gemm_with_scratch_impl(
                &kern,
                trans_a,
                trans_b,
                m,
                n,
                k,
                alpha,
                a,
                b,
                beta,
                c,
                &mut s.borrow_mut(),
            );
        });
    }
}

/// Single-threaded [`gemm`] with an explicit packing workspace, for callers
/// that manage buffer reuse themselves (layers, the conv path).
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_scratch(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    scratch: &mut Scratch,
) {
    let _span = telemetry::span(telemetry::Phase::Gemm);
    let kern = f32_kernel(dispatch::active());
    gemm_with_scratch_impl(
        &kern, trans_a, trans_b, m, n, k, alpha, a, b, beta, c, scratch,
    );
}

/// Shared body of [`gemm`]'s single-threaded path and [`gemm_with_scratch`],
/// so each public entry opens exactly one telemetry span.
#[allow(clippy::too_many_arguments)]
fn gemm_with_scratch_impl(
    kern: &F32Kernel,
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    scratch: &mut Scratch,
) {
    check_dims(m, n, k, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || alpha == 0.0 {
        scale_in_place(c, beta);
        return;
    }
    let (mr, nr) = (kern.mr, kern.nr);
    let packed_b = uninit_slice(&mut scratch.packed_b, KC * NC.min(n.next_multiple_of(nr)));
    let packed_a = uninit_slice(&mut scratch.packed_a, MC.next_multiple_of(mr) * KC);
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(nr, trans_b, b, k, n, pc, kc, jc, nc, packed_b);
            let beta_block = if pc == 0 { beta } else { 1.0 };
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                pack_a(mr, trans_a, a, m, k, ic, mc, pc, kc, packed_a);
                block_kernel(
                    kern, packed_a, packed_b, c, n, ic, mc, jc, nc, kc, alpha, beta_block,
                );
            }
        }
    }
}

/// Work-stealing parallel path: row blocks are claimed from an atomic
/// counter; each worker packs its own A blocks, while the packed B panel for
/// the current `(jc, pc)` stage is shared read-only across workers.
// lint: alloc_ok(per-call packing scratch: one shared B panel plus one A
// panel per worker, allocated at entry — steady-state callers go through
// `PackedA`/`PackedB` plans that hoist even these)
#[allow(clippy::too_many_arguments)]
fn gemm_parallel(
    kern: &F32Kernel,
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    workers: usize,
) {
    let (mr, nr) = (kern.mr, kern.nr);
    let row_blocks = m.div_ceil(MC);
    let mut packed_b_buf = vec![0.0f32; KC * NC.min(n.next_multiple_of(nr))];
    let c_ptr = SendPtr(c.as_mut_ptr());
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(nr, trans_b, b, k, n, pc, kc, jc, nc, &mut packed_b_buf);
            let packed_b = &packed_b_buf;
            let beta_block = if pc == 0 { beta } else { 1.0 };
            let next = AtomicUsize::new(0);
            rayon::scope(|s| {
                for _ in 0..workers {
                    let next = &next;
                    let c_ptr = &c_ptr;
                    let kern = *kern;
                    s.spawn(move || {
                        let mut packed_a = vec![0.0f32; MC.next_multiple_of(mr) * KC];
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
                                &kern, &packed_a, packed_b, c_rows, n, 0, mc, jc, nc, kc, alpha,
                                beta_block,
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
struct SendPtr(*mut f32);
// SAFETY: SendPtr is only handed to scoped workers that write disjoint
// row blocks of C (each `mc` block is claimed by exactly one worker via the
// fetch_add ticket in `gemm_parallel`), so concurrent access never aliases.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

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
pub struct PackedA {
    m: usize,
    k: usize,
    tier: KernelTier,
    buf: Vec<f32>,
}

impl PackedA {
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
    pub fn pack(&mut self, trans_a: bool, a: &[f32], m: usize, k: usize) {
        let _span = telemetry::span(telemetry::Phase::Pack);
        assert_eq!(a.len(), m * k, "A must hold m*k elements");
        self.m = m;
        self.k = k;
        self.tier = dispatch::active();
        let mr = f32_kernel(self.tier).mr;
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
}

/// A fully packed `op(B)` operand: every `(n-panel, k-panel)` of B in the
/// exact nr-strip layout the microkernel consumes — the weight-side
/// counterpart of [`PackedA`].
///
/// This is the cache a compiled inference plan keeps per weighted layer: the
/// clean weight matrix is packed **once** at plan-compile time, and between
/// Monte-Carlo fault realizations only the strips covering rows the injector
/// actually touched are re-packed ([`PackedB::repack_rows`]). For sparse
/// fault models that removes the dominant per-run re-packing cost of the
/// direct path, which packs the full weight operand on every forward.
///
/// Panels are stored in fixed-stride slots, so offsets are index arithmetic,
/// and results through [`gemm_prepacked_b`] / [`gemm_prepacked_ab`] are
/// **bit-identical** to [`gemm_with_scratch`] (same packed values, same block
/// traversal, same accumulation order). Like [`PackedA`], the operand
/// records the kernel tier whose strip width it was packed for.
#[derive(Debug, Default, Clone)]
pub struct PackedB {
    k: usize,
    n: usize,
    trans_b: bool,
    tier: KernelTier,
    k_panels: usize,
    slot: usize,
    buf: Vec<f32>,
}

impl PackedB {
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
    pub fn pack(&mut self, trans_b: bool, b: &[f32], k: usize, n: usize) {
        let _span = telemetry::span(telemetry::Phase::Pack);
        assert_eq!(b.len(), k * n, "B must hold k*n elements");
        self.k = k;
        self.n = n;
        self.trans_b = trans_b;
        self.tier = dispatch::active();
        let nr = f32_kernel(self.tier).nr;
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
    fn panel(&self, ji: usize, pi: usize) -> &[f32] {
        &self.buf[(ji * self.k_panels + pi) * self.slot..][..self.slot]
    }

    /// Overwrites this operand with `src` scaled by a constant `factor`.
    ///
    /// Because packing is a pure permutation with zero padding (and
    /// `0.0 · factor == 0.0`), the result is bit-identical to packing a
    /// weight matrix whose every element was multiplied by `factor` — the
    /// retention-drift realization, applied without touching the unpacked
    /// weights at all.
    ///
    /// # Panics
    ///
    /// Panics when the two operands were packed with different dimensions or
    /// under different kernel tiers.
    pub fn scale_from(&mut self, src: &PackedB, factor: f32) {
        let _span = telemetry::span(telemetry::Phase::Repack);
        telemetry::count(telemetry::Counter::UniformScales, 1);
        assert_eq!(
            (self.k, self.n, self.trans_b, self.tier),
            (src.k, src.n, src.trans_b, src.tier),
            "packed operands disagree on shape or kernel tier"
        );
        let len = self.packed_len();
        for (d, &s) in self.buf[..len].iter_mut().zip(&src.buf[..len]) {
            *d = s * factor;
        }
    }

    /// Packed elements covering the current dimensions.
    fn packed_len(&self) -> usize {
        self.n.div_ceil(NC).max(1) * self.k_panels * self.slot
    }

    /// Overwrites this operand with a copy of `src` (used when a plan leaves
    /// the uniformly-scaled regime and must restore the clean panels before
    /// sparse re-packing).
    ///
    /// # Panics
    ///
    /// Panics when the two operands were packed with different dimensions or
    /// under different kernel tiers.
    pub fn copy_from(&mut self, src: &PackedB) {
        assert_eq!(
            (self.k, self.n, self.trans_b, self.tier),
            (src.k, src.n, src.trans_b, src.tier),
            "packed operands disagree on shape or kernel tier"
        );
        let len = self.packed_len();
        self.buf[..len].copy_from_slice(&src.buf[..len]);
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
    pub fn repack_rows(&mut self, b: &[f32], dirty: &DirtyRows, base: usize) {
        let _span = telemetry::span(telemetry::Phase::Repack);
        assert_eq!(b.len(), self.k * self.n, "B must hold k*n elements");
        assert!(dirty.rows() >= base + self.n, "dirty set must cover n rows");
        let (k, n, trans_b) = (self.k, self.n, self.trans_b);
        let nr = f32_kernel(self.tier).nr;
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
                    let slot = (ji * self.k_panels + pi) * self.slot;
                    let strip = &mut self.buf[slot + (jr / nr) * (kc * nr)..][..kc * nr];
                    let mut dst = 0;
                    for p in 0..kc {
                        for j in 0..nr {
                            strip[dst] = if j < cols {
                                if trans_b {
                                    b[(j0 + j) * k + pc + p]
                                } else {
                                    b[(pc + p) * n + j0 + j]
                                }
                            } else {
                                0.0
                            };
                            dst += 1;
                        }
                    }
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
    /// models: a stuck-at realization touching a handful of cells lands
    /// straight in the panels in O(1) per cell, instead of re-packing every
    /// dirty row's full k extent through [`PackedB::repack_rows`]. Writing
    /// the same value this way is bit-identical to a re-pack (packing is a
    /// pure permutation).
    ///
    /// # Panics
    ///
    /// Panics when the operand was not packed with `trans_b`, or the indices
    /// are out of range.
    pub fn write_cell(&mut self, row: usize, kidx: usize, value: f32) {
        telemetry::count(telemetry::Counter::CellScatters, 1);
        assert!(self.trans_b, "write_cell addresses trans_b packed operands");
        assert!(row < self.n && kidx < self.k, "cell out of range");
        let nr = f32_kernel(self.tier).nr;
        let ji = row / NC;
        let jc = ji * NC;
        let jr = ((row - jc) / nr) * nr;
        let pi = kidx / KC;
        let pc = pi * KC;
        let kc = KC.min(self.k - pc);
        let p = kidx - pc;
        let pos = (ji * self.k_panels + pi) * self.slot  // panel slot
            + (jr / nr) * (kc * nr)                      // nr-strip within it
            + p * nr                                     // k step within strip
            + (row - jc - jr);
        self.buf[pos] = value;
    }
}

/// A packed GEMM `B` operand cached across fault realizations ([`PackedB`]
/// for f32 weights, [`QPackedB`] for i8 codes), so compiled plans hold one
/// operand type for both fault domains. Each method is the inherent one.
pub trait PackedOperand: Clone + Default + std::fmt::Debug {
    /// Element type of the unpacked matrix.
    type Elem: Copy + std::fmt::Debug;
    /// See [`PackedB::pack`].
    fn pack(&mut self, trans_b: bool, b: &[Self::Elem], k: usize, n: usize);
    /// See [`PackedB::repack_rows`].
    fn repack_rows(&mut self, b: &[Self::Elem], dirty: &DirtyRows, base: usize);
    /// See [`PackedB::write_cell`].
    fn write_cell(&mut self, row: usize, kidx: usize, value: Self::Elem);
    /// See [`PackedB::copy_from`].
    fn copy_from(&mut self, src: &Self);
    /// See [`PackedB::scale_from`] and [`QPackedB::scale_from`].
    fn scale_from(&mut self, src: &Self, factor: f32);
    /// See [`PackedB::n`].
    fn n(&self) -> usize;
    /// Columns of C one microkernel tile computes on the active tier
    /// ([`nr`] or [`crate::qgemm::nr`]).
    fn nr() -> usize;
}

macro_rules! packed_operand {
    ($packed:ident, $elem:ty, $nr:path) => {
        impl PackedOperand for $packed {
            type Elem = $elem;
            fn pack(&mut self, trans_b: bool, b: &[$elem], k: usize, n: usize) {
                $packed::pack(self, trans_b, b, k, n);
            }
            fn repack_rows(&mut self, b: &[$elem], dirty: &DirtyRows, base: usize) {
                $packed::repack_rows(self, b, dirty, base);
            }
            fn write_cell(&mut self, row: usize, kidx: usize, value: $elem) {
                $packed::write_cell(self, row, kidx, value);
            }
            fn copy_from(&mut self, src: &Self) {
                $packed::copy_from(self, src);
            }
            fn scale_from(&mut self, src: &Self, factor: f32) {
                $packed::scale_from(self, src, factor);
            }
            fn n(&self) -> usize {
                $packed::n(self)
            }
            fn nr() -> usize {
                $nr(dispatch::active())
            }
        }
    };
}

packed_operand!(PackedB, f32, nr);
packed_operand!(QPackedB, i8, crate::qgemm::nr);

/// GEMM with a cached pre-packed B operand (see [`PackedB`]):
/// `C ← α · op(A) · op(B) + β · C` where only A is packed per call, blockwise
/// into the caller's [`Scratch`].
///
/// Runs on the kernel tier `packed_b` was packed for. Bit-identical to
/// [`gemm`] / [`gemm_with_scratch`] on that tier for the same operands.
///
/// # Panics
///
/// Panics when a slice length disagrees with the packed dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_prepacked_b(
    trans_a: bool,
    m: usize,
    alpha: f32,
    a: &[f32],
    packed_b: &PackedB,
    beta: f32,
    c: &mut [f32],
    scratch: &mut Scratch,
) {
    let _span = telemetry::span(telemetry::Phase::Gemm);
    let (k, n) = (packed_b.k, packed_b.n);
    assert_eq!(a.len(), m * k, "A must hold m*k elements");
    assert_eq!(c.len(), m * n, "C must hold m*n elements");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || alpha == 0.0 {
        scale_in_place(c, beta);
        return;
    }
    let kern = f32_kernel(packed_b.tier);
    let mr = kern.mr;
    let packed_a = uninit_slice(&mut scratch.packed_a, MC.next_multiple_of(mr) * KC);
    for (ji, jc) in (0..n).step_by(NC).enumerate() {
        let nc = NC.min(n - jc);
        for (pi, pc) in (0..k).step_by(KC).enumerate() {
            let kc = KC.min(k - pc);
            let pb = packed_b.panel(ji, pi);
            let beta_block = if pc == 0 { beta } else { 1.0 };
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                pack_a(mr, trans_a, a, m, k, ic, mc, pc, kc, packed_a);
                block_kernel(
                    &kern, packed_a, pb, c, n, ic, mc, jc, nc, kc, alpha, beta_block,
                );
            }
        }
    }
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
pub fn gemm_prepacked_ab(
    packed_a: &PackedA,
    packed_b: &PackedB,
    alpha: f32,
    beta: f32,
    c: &mut [f32],
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
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || alpha == 0.0 {
        scale_in_place(c, beta);
        return;
    }
    let kern = f32_kernel(packed_a.tier);
    let stride = a_block_stride(kern.mr);
    let m_blocks = m.div_ceil(MC);
    for (ji, jc) in (0..n).step_by(NC).enumerate() {
        let nc = NC.min(n - jc);
        for (pi, pc) in (0..k).step_by(KC).enumerate() {
            let kc = KC.min(k - pc);
            let pb = packed_b.panel(ji, pi);
            let beta_block = if pc == 0 { beta } else { 1.0 };
            for (bi, ic) in (0..m).step_by(MC).enumerate() {
                let mc = MC.min(m - ic);
                let pa = &packed_a.buf[(pi * m_blocks + bi) * stride..];
                block_kernel(&kern, pa, pb, c, n, ic, mc, jc, nc, kc, alpha, beta_block);
            }
        }
    }
}

fn check_dims(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A must hold m*k elements");
    assert_eq!(b.len(), k * n, "B must hold k*n elements");
    assert_eq!(c.len(), m * n, "C must hold m*n elements");
}

fn scale_in_place(c: &mut [f32], beta: f32) {
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for v in c {
            *v *= beta;
        }
    }
}

/// Packs the `mc × kc` block of `op(A)` starting at `(ic, pc)` into mr-row
/// strips laid out p-major (`packed[strip][p][r]`), zero-padding the ragged
/// final strip so the microkernel always reads full tiles. Transposed A is
/// stored in the strip's own order, so each of its k-steps is one copy.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    mr: usize,
    trans_a: bool,
    a: &[f32],
    m: usize,
    k: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    packed: &mut [f32],
) {
    let mut steps = packed.chunks_exact_mut(mr);
    for ir in (0..mc).step_by(mr) {
        let i0 = ic + ir;
        let rows = mr.min(mc - ir);
        for p in pc..pc + kc {
            let dst = steps.next().expect("packed buffer holds every strip");
            let (body, tail) = dst.split_at_mut(rows);
            if trans_a {
                body.copy_from_slice(&a[p * m + i0..][..rows]);
            } else {
                for (r, d) in body.iter_mut().enumerate() {
                    *d = a[(i0 + r) * k + p];
                }
            }
            tail.fill(0.0);
        }
    }
}

/// Packs the `kc × nc` block of `op(B)` starting at `(pc, jc)` into nr-column
/// strips laid out p-major (`packed[strip][p][j]`), zero-padded like
/// [`pack_a`]. Untransposed B is row-major in the strip's own order, so each
/// k-step of a strip is one contiguous copy.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    nr: usize,
    trans_b: bool,
    b: &[f32],
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    packed: &mut [f32],
) {
    let mut steps = packed.chunks_exact_mut(nr);
    for jr in (0..nc).step_by(nr) {
        let j0 = jc + jr;
        let cols = nr.min(nc - jr);
        for p in pc..pc + kc {
            let dst = steps.next().expect("packed buffer holds every strip");
            let (body, tail) = dst.split_at_mut(cols);
            if trans_b {
                for (j, d) in body.iter_mut().enumerate() {
                    *d = b[(j0 + j) * k + p];
                }
            } else {
                body.copy_from_slice(&b[p * n + j0..][..cols]);
            }
            tail.fill(0.0);
        }
    }
}

/// Runs the microkernel over every `mr × nr` tile of an `mc × nc` block,
/// writing into `c` (row-major with leading dimension `n`) at row offset
/// `ic` and column offset `jc`.
#[allow(clippy::too_many_arguments)]
fn block_kernel(
    kern: &F32Kernel,
    packed_a: &[f32],
    packed_b: &[f32],
    c: &mut [f32],
    n: usize,
    ic: usize,
    mc: usize,
    jc: usize,
    nc: usize,
    kc: usize,
    alpha: f32,
    beta: f32,
) {
    let (mr, nr) = (kern.mr, kern.nr);
    let mut acc = [0.0f32; MAX_TILE];
    for jr in (0..nc).step_by(nr) {
        let cols = nr.min(nc - jr);
        let pb = &packed_b[(jr / nr) * (kc * nr)..][..kc * nr];
        for ir in (0..mc).step_by(mr) {
            let rows = mr.min(mc - ir);
            let pa = &packed_a[(ir / mr) * (kc * mr)..][..kc * mr];
            // SAFETY: kernels come from `f32_kernel` with a tier the host
            // supports ([`dispatch::active`]/[`dispatch::force`] guarantee
            // that), and the slices cover kc·mr / kc·nr / mr·nr elements.
            unsafe { (kern.micro)(kc, pa, pb, &mut acc[..mr * nr]) };
            store_tile(
                &acc[..mr * nr],
                nr,
                c,
                n,
                ic + ir,
                jc + jr,
                rows,
                cols,
                alpha,
                beta,
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
/// match the [`MicrokernelF32`] signature shared with the SIMD tiers.
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
/// through [`f32_kernel`] with a detected/forced tier).
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
/// through [`f32_kernel`] with a detected/forced tier).
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
/// C, applying `alpha`/`beta`. `beta == 0.0` overwrites without reading C.
#[allow(clippy::too_many_arguments)]
#[inline]
fn store_tile(
    acc: &[f32],
    nr: usize,
    c: &mut [f32],
    n: usize,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
    alpha: f32,
    beta: f32,
) {
    for r in 0..rows {
        let acc_row = &acc[r * nr..][..cols];
        let out = &mut c[(row0 + r) * n + col0..][..cols];
        if beta == 0.0 {
            for (o, &v) in out.iter_mut().zip(acc_row.iter()) {
                *o = alpha * v;
            }
        } else if beta == 1.0 {
            for (o, &v) in out.iter_mut().zip(acc_row.iter()) {
                *o += alpha * v;
            }
        } else {
            for (o, &v) in out.iter_mut().zip(acc_row.iter()) {
                *o = alpha * v + beta * *o;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Textbook reference used to validate the blocked kernel.
    #[allow(clippy::too_many_arguments)]
    fn gemm_reference(
        trans_a: bool,
        trans_b: bool,
        m: usize,
        n: usize,
        k: usize,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        beta: f32,
        c: &mut [f32],
    ) {
        for i in 0..m {
            for j in 0..n {
                let mut dot = 0.0f32;
                for p in 0..k {
                    let av = if trans_a { a[p * m + i] } else { a[i * k + p] };
                    let bv = if trans_b { b[j * k + p] } else { b[p * n + j] };
                    dot += av * bv;
                }
                let old = if beta == 0.0 {
                    0.0
                } else {
                    beta * c[i * n + j]
                };
                c[i * n + j] = alpha * dot + old;
            }
        }
    }

    fn random_vec(len: usize, rng: &mut Rng) -> Vec<f32> {
        (0..len).map(|_| rng.normal(0.0, 1.0)).collect()
    }

    #[test]
    fn matches_reference_over_odd_shapes() {
        let mut rng = Rng::seed_from(7);
        // Deliberately awkward shapes: non-multiples of any tier's mr/nr or
        // of KC, GEMV-like m=1 and n=1, k spanning several KC panels, tiny
        // everything.
        let shapes = [
            (1usize, 1usize, 1usize),
            (1, 17, 300),
            (5, 1, 3),
            (3, 7, 2),
            (4, 8, 256),
            (13, 29, 31),
            (33, 65, 17),
            (130, 9, 270),
            (2, 300, 5),
        ];
        for &(m, n, k) in &shapes {
            for &(ta, tb) in &[(false, false), (true, false), (false, true), (true, true)] {
                for &(alpha, beta) in &[(1.0f32, 0.0f32), (0.5, 1.0), (2.0, -0.5), (0.0, 2.0)] {
                    let a = random_vec(m * k, &mut rng);
                    let b = random_vec(k * n, &mut rng);
                    let seed_c = random_vec(m * n, &mut rng);
                    let mut expected = seed_c.clone();
                    gemm_reference(ta, tb, m, n, k, alpha, &a, &b, beta, &mut expected);
                    let mut got = seed_c.clone();
                    gemm(ta, tb, m, n, k, alpha, &a, &b, beta, &mut got);
                    for (idx, (g, e)) in got.iter().zip(expected.iter()).enumerate() {
                        assert!(
                            (g - e).abs() <= 1e-3 * (1.0 + e.abs()),
                            "m={m} n={n} k={k} ta={ta} tb={tb} α={alpha} β={beta} idx={idx}: {g} vs {e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_dims_are_handled() {
        // m == 0 / n == 0: nothing to write.
        gemm(false, false, 0, 4, 3, 1.0, &[], &[0.0; 12], 0.0, &mut []);
        gemm(false, false, 4, 0, 3, 1.0, &[0.0; 12], &[], 0.0, &mut []);
        // k == 0: C ← β·C without touching A/B.
        let mut c = vec![2.0f32; 6];
        gemm(false, false, 2, 3, 0, 1.0, &[], &[], 0.5, &mut c);
        assert_eq!(c, vec![1.0; 6]);
        gemm(false, false, 2, 3, 0, 1.0, &[], &[], 0.0, &mut c);
        assert_eq!(c, vec![0.0; 6]);
    }

    #[test]
    fn beta_zero_overwrites_nan_garbage() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        let mut c = [f32::NAN; 1];
        gemm(false, false, 1, 1, 2, 1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c[0], 11.0);
    }

    #[test]
    fn packing_copies_match_the_transposed_gather() {
        // An operand stored in strip order (transposed A, untransposed B)
        // packs by contiguous copies; the other storage of the same operand
        // packs element by element. Both must lay out the same panel,
        // padding included, for every tier's strip width, across block
        // edges.
        let mut rng = Rng::seed_from(16);
        let (rows, cols) = (KC + 9, NC + 21);
        let x = random_vec(rows * cols, &mut rng);
        let xt: Vec<f32> = (0..cols * rows)
            .map(|i| x[(i % rows) * cols + i / rows])
            .collect();
        let identical = |p: &[f32], q: &[f32]| {
            p.iter().all(|v| !v.is_nan())
                && p.iter().zip(q).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        for width in [4, 6, 8, 14, 16, 32] {
            for (p0, j0) in [(0, 0), (0, NC), (KC, 0), (KC, NC)] {
                let (pn, jn) = (KC.min(rows - p0), NC.min(cols - j0));
                let len = pn * jn.next_multiple_of(width);
                // B = x is [k = rows, n = cols]; stored [n, k] it is xt.
                let mut copied = vec![f32::NAN; len];
                let mut gathered = vec![f32::NAN; len];
                pack_b(width, false, &x, rows, cols, p0, pn, j0, jn, &mut copied);
                pack_b(width, true, &xt, rows, cols, p0, pn, j0, jn, &mut gathered);
                assert!(
                    identical(&copied, &gathered),
                    "B nr={width} pc={p0} jc={j0}"
                );
                // A = xt is [m = cols, k = rows]; stored [k, m] it is x.
                let mut copied = vec![f32::NAN; len];
                let mut gathered = vec![f32::NAN; len];
                pack_a(width, true, &x, cols, rows, j0, jn, p0, pn, &mut copied);
                pack_a(width, false, &xt, cols, rows, j0, jn, p0, pn, &mut gathered);
                assert!(
                    identical(&copied, &gathered),
                    "A mr={width} ic={j0} pc={p0}"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_is_alloc_free_after_warmup() {
        let mut rng = Rng::seed_from(9);
        let a = random_vec(64 * 48, &mut rng);
        let b = random_vec(48 * 32, &mut rng);
        let mut c = vec![0.0f32; 64 * 32];
        let mut scratch = Scratch::new();
        gemm_with_scratch(
            false,
            false,
            64,
            32,
            48,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
            &mut scratch,
        );
        let cap = s_total(&scratch);
        for _ in 0..3 {
            gemm_with_scratch(
                false,
                false,
                64,
                32,
                48,
                1.0,
                &a,
                &b,
                0.0,
                &mut c,
                &mut scratch,
            );
        }
        assert_eq!(s_total(&scratch), cap, "repeat calls must not grow scratch");
    }

    fn s_total(s: &Scratch) -> usize {
        s.capacity()
    }

    #[test]
    fn prepacked_is_bit_identical_to_gemm() {
        let mut rng = Rng::seed_from(13);
        let shapes = [
            (1usize, 1usize, 1usize),
            (5, 7, 3),
            (64, 256, 512),
            (MC + 3, NC + 5, KC + 7),
            (2 * MC + 1, 9, 2 * KC + 3),
        ];
        // One handle per operand, repacked across every shape.
        let mut packed = PackedA::new();
        let mut packed_b = PackedB::new();
        for &(m, n, k) in &shapes {
            for &trans_a in &[false, true] {
                for &trans_b in &[false, true] {
                    for &(alpha, beta) in &[(1.0f32, 0.0f32), (0.5, 1.0)] {
                        let a = random_vec(m * k, &mut rng);
                        let b = random_vec(k * n, &mut rng);
                        let seed_c = random_vec(m * n, &mut rng);
                        let mut expected = seed_c.clone();
                        let mut scratch = Scratch::new();
                        gemm_with_scratch(
                            trans_a,
                            trans_b,
                            m,
                            n,
                            k,
                            alpha,
                            &a,
                            &b,
                            beta,
                            &mut expected,
                            &mut scratch,
                        );
                        packed.pack(trans_a, &a, m, k);
                        assert_eq!((packed.m(), packed.k()), (m, k));
                        assert_eq!(packed.tier(), dispatch::active());
                        packed_b.pack(trans_b, &b, k, n);
                        let mut got = seed_c.clone();
                        gemm_prepacked_ab(&packed, &packed_b, alpha, beta, &mut got);
                        let identical = expected
                            .iter()
                            .zip(got.iter())
                            .all(|(x, y)| x.to_bits() == y.to_bits());
                        assert!(
                            identical,
                            "m={m} n={n} k={k} ta={trans_a} tb={trans_b} α={alpha} β={beta}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prepacked_a_is_reusable_across_many_b() {
        // The frozen-input plan access pattern: one packed activation panel
        // multiplied against several perturbed weight panels.
        let mut rng = Rng::seed_from(14);
        let (m, n, k) = (33, 17, 300);
        let a = random_vec(m * k, &mut rng);
        let mut packed = PackedA::new();
        packed.pack(false, &a, m, k);
        let warm = packed.buf.capacity();
        let mut packed_b = PackedB::new();
        for trial in 0..4 {
            let b = random_vec(k * n, &mut rng);
            let mut expected = vec![0.0f32; m * n];
            gemm(false, true, m, n, k, 1.0, &a, &b, 0.0, &mut expected);
            packed_b.pack(true, &b, k, n);
            let mut got = vec![0.0f32; m * n];
            gemm_prepacked_ab(&packed, &packed_b, 1.0, 0.0, &mut got);
            let identical = expected
                .iter()
                .zip(got.iter())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(identical, "trial {trial}");
        }
        packed.pack(false, &a, m, k);
        assert_eq!(packed.buf.capacity(), warm, "repacking must not reallocate");
    }

    #[test]
    fn prepacked_b_is_bit_identical_to_gemm() {
        let mut rng = Rng::seed_from(15);
        let shapes = [
            (1usize, 1usize, 1usize),
            (5, 7, 3),
            (64, 256, 512),
            (MC + 3, NC + 5, KC + 7),
            (9, 2 * NC + 1, 2 * KC + 3),
        ];
        let mut packed = PackedB::new();
        let mut scratch = Scratch::new();
        for &(m, n, k) in &shapes {
            for &trans_a in &[false, true] {
                for &trans_b in &[false, true] {
                    for &(alpha, beta) in &[(1.0f32, 0.0f32), (0.5, 1.0)] {
                        let a = random_vec(m * k, &mut rng);
                        let b = random_vec(k * n, &mut rng);
                        let seed_c = random_vec(m * n, &mut rng);
                        let mut expected = seed_c.clone();
                        gemm_with_scratch(
                            trans_a,
                            trans_b,
                            m,
                            n,
                            k,
                            alpha,
                            &a,
                            &b,
                            beta,
                            &mut expected,
                            &mut Scratch::new(),
                        );
                        packed.pack(trans_b, &b, k, n);
                        assert_eq!((packed.k(), packed.n()), (k, n));
                        assert_eq!(packed.tier(), dispatch::active());
                        let mut got = seed_c.clone();
                        gemm_prepacked_b(
                            trans_a,
                            m,
                            alpha,
                            &a,
                            &packed,
                            beta,
                            &mut got,
                            &mut scratch,
                        );
                        let identical = expected
                            .iter()
                            .zip(got.iter())
                            .all(|(x, y)| x.to_bits() == y.to_bits());
                        assert!(
                            identical,
                            "prepacked_b m={m} n={n} k={k} ta={trans_a} tb={trans_b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn repack_rows_restores_dirty_panels_exactly() {
        // The plan's access pattern: pack clean weights once, perturb a few
        // rows, repack only those rows, multiply; then revert some rows and
        // dirty others, repack the union, multiply again.
        let mut rng = Rng::seed_from(16);
        for &(n, k) in &[(7usize, 5usize), (NC + 9, KC + 3), (300, 40)] {
            let m = 13;
            let clean = random_vec(k * n, &mut rng);
            let a = random_vec(m * k, &mut rng);
            let mut packed = PackedB::new();
            packed.pack(true, &clean, k, n); // [n, k] weight layout
            let mut faulty = clean.clone();
            let mut dirty = DirtyRows::new(n);
            for row in [0usize, n / 2, n - 1] {
                for v in &mut faulty[row * k..(row + 1) * k] {
                    *v += 1.0;
                }
                dirty.mark(row);
            }
            packed.repack_rows(&faulty, &dirty, 0);
            let mut reference = PackedB::new();
            reference.pack(true, &faulty, k, n);
            let mut got = vec![0.0f32; m * n];
            let mut want = vec![0.0f32; m * n];
            let mut scratch = Scratch::new();
            gemm_prepacked_b(false, m, 1.0, &a, &packed, 0.0, &mut got, &mut scratch);
            gemm_prepacked_b(false, m, 1.0, &a, &reference, 0.0, &mut want, &mut scratch);
            assert!(
                got.iter()
                    .zip(&want)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "n={n} k={k} dirty repack diverged"
            );
            // Revert row 0, dirty row 1: repacking the union must restore
            // the clean values of row 0 and pick up row 1.
            let mut next = clean.clone();
            for v in &mut next[k..2 * k] {
                *v -= 2.0;
            }
            let mut union = DirtyRows::new(n);
            union.merge(&dirty); // previously-faulty rows must be restored
            union.mark(1);
            packed.repack_rows(&next, &union, 0);
            let mut reference = PackedB::new();
            reference.pack(true, &next, k, n);
            gemm_prepacked_b(false, m, 1.0, &a, &packed, 0.0, &mut got, &mut scratch);
            gemm_prepacked_b(false, m, 1.0, &a, &reference, 0.0, &mut want, &mut scratch);
            assert!(
                got.iter()
                    .zip(&want)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "n={n} k={k} union repack diverged"
            );
        }
    }

    #[test]
    fn write_cell_matches_full_repack() {
        // The packed-domain injection primitive: scattering individual cell
        // values must leave the operand bit-identical to a full pack of the
        // same matrix, across interior cells, strip edges and panel edges.
        let mut rng = Rng::seed_from(61);
        let nr = f32_kernel(dispatch::active()).nr;
        for &(n, k) in &[(7usize, 5usize), (NC + 9, KC + 3), (300, 40)] {
            let clean = random_vec(k * n, &mut rng);
            let mut packed = PackedB::new();
            packed.pack(true, &clean, k, n);
            let mut faulty = clean.clone();
            let cells = [
                (0usize, 0usize),
                (n - 1, k - 1),
                (n / 2, k / 2),
                (nr.min(n - 1), 0),
                (n - 1, KC.min(k - 1)),
            ];
            for &(row, kidx) in &cells {
                let v = faulty[row * k + kidx] + 3.5;
                faulty[row * k + kidx] = v;
                packed.write_cell(row, kidx, v);
            }
            let mut reference = PackedB::new();
            reference.pack(true, &faulty, k, n);
            assert_eq!(packed.packed_len(), reference.packed_len());
            let identical = packed.buf[..packed.packed_len()]
                .iter()
                .zip(&reference.buf[..reference.packed_len()])
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(identical, "n={n} k={k} write_cell diverged from pack");
        }
    }

    #[test]
    fn repack_rows_with_base_offset_addresses_stacked_dirty_sets() {
        // One dirty set over batch·n rows drives per-realization panels.
        let mut rng = Rng::seed_from(62);
        let (n, k, m) = (10usize, 6usize, 4usize);
        let clean = random_vec(k * n, &mut rng);
        let a = random_vec(m * k, &mut rng);
        let mut faulty = clean.clone();
        for v in &mut faulty[3 * k..4 * k] {
            *v += 1.0;
        }
        let mut stacked = DirtyRows::new(3 * n);
        stacked.mark(2 * n + 3); // realization 2, row 3
        let mut packed = PackedB::new();
        packed.pack(true, &clean, k, n);
        // Base 0 and n see no marks — nothing repacked.
        packed.repack_rows(&faulty, &stacked, 0);
        packed.repack_rows(&faulty, &stacked, n);
        let mut want = vec![0.0f32; m * n];
        let mut got = vec![0.0f32; m * n];
        let mut scratch = Scratch::new();
        let mut reference = PackedB::new();
        reference.pack(true, &clean, k, n);
        gemm_prepacked_b(false, m, 1.0, &a, &packed, 0.0, &mut got, &mut scratch);
        gemm_prepacked_b(false, m, 1.0, &a, &reference, 0.0, &mut want, &mut scratch);
        assert!(got
            .iter()
            .zip(&want)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        // Base 2n sees the mark — row 3 repacked.
        packed.repack_rows(&faulty, &stacked, 2 * n);
        reference.pack(true, &faulty, k, n);
        gemm_prepacked_b(false, m, 1.0, &a, &packed, 0.0, &mut got, &mut scratch);
        gemm_prepacked_b(false, m, 1.0, &a, &reference, 0.0, &mut want, &mut scratch);
        // Only row 3 of the faulty matrix was marked, so columns j != 3 of
        // the product still match the clean reference; column 3 matches the
        // faulty one.
        let mut clean_ref = PackedB::new();
        clean_ref.pack(true, &clean, k, n);
        let mut clean_want = vec![0.0f32; m * n];
        gemm_prepacked_b(
            false,
            m,
            1.0,
            &a,
            &clean_ref,
            0.0,
            &mut clean_want,
            &mut scratch,
        );
        for i in 0..m {
            for j in 0..n {
                let expect = if j == 3 {
                    want[i * n + j]
                } else {
                    clean_want[i * n + j]
                };
                assert_eq!(got[i * n + j].to_bits(), expect.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn accumulation_order_is_thread_count_invariant() {
        // The sequential and parallel paths must agree bit-for-bit: same
        // k-accumulation order per element, only the (disjoint) row-block
        // assignment differs.
        let mut rng = Rng::seed_from(11);
        let (m, n, k) = (2 * MC + 3, NC + 5, KC + 7);
        let a = random_vec(m * k, &mut rng);
        let b = random_vec(k * n, &mut rng);
        let mut seq = vec![0.0f32; m * n];
        LOCAL_SCRATCH.with(|s| {
            gemm_with_scratch(
                false,
                false,
                m,
                n,
                k,
                1.0,
                &a,
                &b,
                0.0,
                &mut seq,
                &mut s.borrow_mut(),
            );
        });
        let mut par = vec![0.0f32; m * n];
        let kern = f32_kernel(dispatch::active());
        gemm_parallel(&kern, false, false, m, n, k, 1.0, &a, &b, 0.0, &mut par, 4);
        let identical = seq
            .iter()
            .zip(par.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(
            identical,
            "parallel GEMM must be bit-identical to sequential"
        );
    }

    mod packed_b_props {
        use super::*;
        use proptest::prelude::*;

        // Round-trip property: repacking an arbitrary dirty subset of rows
        // from an updated matrix leaves the cached operand bit-identical to
        // a from-scratch pack of that matrix.
        proptest! {
            #[test]
            fn prop_repack_matches_direct_pack(
                n in 1usize..40,
                k in 1usize..20,
                seed in 0u32..1000,
                dirty_rows in proptest::collection::vec(0usize..40, 0..8),
            ) {
                let mut rng = Rng::seed_from(u64::from(seed));
                let clean: Vec<f32> = (0..k * n).map(|_| rng.normal(0.0, 1.0)).collect();
                let mut packed = PackedB::new();
                packed.pack(true, &clean, k, n);
                let mut faulty = clean.clone();
                let mut dirty = DirtyRows::new(n);
                for &row in dirty_rows.iter().filter(|&&r| r < n) {
                    for v in &mut faulty[row * k..(row + 1) * k] {
                        *v = -*v + 0.5;
                    }
                    dirty.mark(row);
                }
                packed.repack_rows(&faulty, &dirty, 0);
                let mut direct = PackedB::new();
                direct.pack(true, &faulty, k, n);
                prop_assert_eq!(packed.buf.len(), direct.buf.len());
                let identical = packed
                    .buf
                    .iter()
                    .zip(direct.buf.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                prop_assert!(identical, "cached repack diverged from direct pack");
            }
        }
    }
}
