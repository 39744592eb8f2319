//! Cache-blocked, register-tiled, parallel **i8 × i8 → i32** GEMM.
//!
//! This is the integer compute core of the quantized inference path:
//! `C ← op(A) · op(B)` (optionally accumulating into C) where A and B hold
//! signed 8-bit quantization codes and C holds exact 32-bit integer
//! accumulators. It mirrors the blocking structure of the f32 kernel in
//! [`crate::gemm`] (KC k-panels, MC row blocks, NC column panels, packed
//! operands, zero-padded edge tiles) with one integer-specific twist: the
//! k-dimension is packed in **quads of four** codes so the SIMD microkernels
//! can consume them with `maddubs`-pair or `vpdpbusd` quad products.
//!
//! The microkernel is selected at runtime through [`crate::dispatch`]:
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
//! prepacked variant returns the same integers as the naive reference oracle
//! in `ops::reference::qmatmul_i8` — the quantized path is **bit-exact
//! across the whole dispatch ladder**, unlike f32 where the portable tier
//! rounds differently.
//!
//! Accumulation depth is bounded: `k · 127² ≤ i32::MAX` requires
//! `k ≤ 133 152`, far beyond any layer in the workspace; the entry points
//! debug-assert it.
//!
//! lint: no_alloc

use crate::arena::DirtyRows;
use crate::dispatch::{self, KernelTier};
use crate::scratch::{uninit_slice_of, Scratch};
use crate::telemetry;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// k-panel size (shared with the f32 kernel; the packed i8 strips are 4×
/// smaller, so they sit even deeper in L1).
pub const QKC: usize = 256;
/// m-block size.
pub const QMC: usize = 128;
/// n-panel size.
pub const QNC: usize = 256;
/// k-quad: the microkernel consumes four codes per k-step.
const KQ: usize = 4;

/// Maximum k supported without risking i32 accumulator overflow
/// (`k · 127² ≤ i32::MAX`).
pub const MAX_K: usize = (i32::MAX as usize) / (127 * 127);

/// Minimum `m·n·k` before the row-block loop is parallelized.
const PARALLEL_FLOP_THRESHOLD: usize = 1 << 21;

/// Elements in the largest quantized microkernel tile (VNNI's 8×32); sizes
/// the stack accumulator every tier writes a prefix of.
const QMAX_TILE: usize = 8 * 32;

/// A quantized microkernel: computes the full `qmr × qnr` register tile over
/// one packed k-panel (`quads` k-quads) and writes it row-major (leading
/// dimension `qnr`) into `acc`, overwriting the `qmr * qnr` prefix.
///
/// # Safety
///
/// The callee may use the SIMD features of the tier it belongs to; callers
/// must only invoke kernels obtained from [`q_kernel`] with a tier the host
/// supports. Slice bounds are asserted by each kernel.
type MicrokernelI8 = unsafe fn(quads: usize, pa: &[i8], pb: &[i8], acc: &mut [i32]);

/// One tier's quantized GEMM kernel: its register-tile geometry plus the
/// microkernel that fills such a tile.
#[derive(Clone, Copy)]
pub(crate) struct QKernel {
    /// Rows of C computed per microkernel tile.
    pub(crate) qmr: usize,
    /// Columns of C computed per microkernel tile.
    pub(crate) qnr: usize,
    micro: MicrokernelI8,
}

/// Portable 4×16 kernel (the AVX2 tile, scalar quad accumulation).
const PORTABLE_I8: QKernel = QKernel {
    qmr: 4,
    qnr: 16,
    micro: microkernel_portable,
};

/// AVX2 4×16 `maddubs` sign-split kernel: eight 256-bit i32 accumulators
/// plus the packed-B loads and the sign/abs temporaries fit the 16 ymm
/// registers without spilling.
#[cfg(target_arch = "x86_64")]
const AVX2_I8: QKernel = QKernel {
    qmr: 4,
    qnr: 16,
    micro: microkernel_avx2,
};

/// AVX-512 VNNI 8×32 `vpdpbusd` kernel: sixteen zmm accumulators plus the
/// loads and sign-split temporaries stay within the 32 zmm registers.
#[cfg(target_arch = "x86_64")]
const VNNI_I8: QKernel = QKernel {
    qmr: 8,
    qnr: 32,
    micro: microkernel_vnni,
};

/// The quantized GEMM kernel for a dispatch tier.
pub(crate) fn q_kernel(tier: KernelTier) -> QKernel {
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

/// Columns of C one quantized microkernel tile computes on `tier` (32 or
/// 16): the narrowest integer GEMM that runs at the kernel's full register
/// width.
pub fn nr(tier: KernelTier) -> usize {
    q_kernel(tier).qnr
}

thread_local! {
    static LOCAL_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Integer matrix multiply `C ← op(A) · op(B)` (or `C += …` when
/// `accumulate`), for i8 codes in `[-127, 127]` and an i32 output.
///
/// `op(A)` is `A` (`[m, k]`, row-major) or `Aᵀ` (stored `[k, m]`) when
/// `trans_a` is set; likewise `op(B)` is `[k, n]` or stored `[n, k]` when
/// `trans_b` is set. `C` is always `[m, n]` row-major.
///
/// Results are **bit-exact** for every kernel tier, variant and thread count
/// (integer arithmetic, fixed per-element accumulation). Large products are
/// parallelized over row blocks.
///
/// # Panics
///
/// Panics when a slice length disagrees with the given dimensions. Debug
/// builds also assert `k ≤ MAX_K` and that no code is `-128` (the sign-split
/// microkernels require magnitudes ≤ 127; every quantizer in the workspace
/// clamps to `[-qmax, qmax]`).
#[allow(clippy::too_many_arguments)]
pub fn qgemm(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[i8],
    b: &[i8],
    accumulate: bool,
    c: &mut [i32],
) {
    let _span = telemetry::span(telemetry::Phase::Gemm);
    check_dims(m, n, k, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            c.fill(0);
        }
        return;
    }
    let kern = q_kernel(dispatch::active());
    let row_blocks = m.div_ceil(QMC);
    let workers = rayon::current_num_threads().min(row_blocks);
    if workers > 1 && m * n * k >= PARALLEL_FLOP_THRESHOLD {
        qgemm_parallel(
            &kern, trans_a, trans_b, m, n, k, a, b, accumulate, c, workers,
        );
    } else {
        LOCAL_SCRATCH.with(|s| {
            qgemm_with_scratch_impl(
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

/// Single-threaded [`qgemm`] with an explicit packing workspace, for callers
/// that manage buffer reuse themselves (the quantized layers).
#[allow(clippy::too_many_arguments)]
pub fn qgemm_with_scratch(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[i8],
    b: &[i8],
    accumulate: bool,
    c: &mut [i32],
    scratch: &mut Scratch,
) {
    let _span = telemetry::span(telemetry::Phase::Gemm);
    let kern = q_kernel(dispatch::active());
    qgemm_with_scratch_impl(
        &kern, trans_a, trans_b, m, n, k, a, b, accumulate, c, scratch,
    );
}

/// Shared body of [`qgemm`]'s single-threaded path and
/// [`qgemm_with_scratch`], so each public entry opens exactly one telemetry
/// span.
#[allow(clippy::too_many_arguments)]
fn qgemm_with_scratch_impl(
    kern: &QKernel,
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[i8],
    b: &[i8],
    accumulate: bool,
    c: &mut [i32],
    scratch: &mut Scratch,
) {
    check_dims(m, n, k, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            c.fill(0);
        }
        return;
    }
    let (qmr, qnr) = (kern.qmr, kern.qnr);
    let kq_panel = QKC / KQ; // quads per full k-panel
    let packed_b = uninit_slice_of(
        &mut scratch.packed_b_i8,
        kq_panel * KQ * QNC.min(n.next_multiple_of(qnr)),
    );
    let packed_a = uninit_slice_of(
        &mut scratch.packed_a_i8,
        QMC.next_multiple_of(qmr) * kq_panel * KQ,
    );
    for jc in (0..n).step_by(QNC) {
        let nc = QNC.min(n - jc);
        for pc in (0..k).step_by(QKC) {
            let kc = QKC.min(k - pc);
            pack_b(qnr, trans_b, b, k, n, pc, kc, jc, nc, packed_b);
            let acc_block = accumulate || pc > 0;
            for ic in (0..m).step_by(QMC) {
                let mc = QMC.min(m - ic);
                pack_a(qmr, trans_a, a, m, k, ic, mc, pc, kc, packed_a);
                block_kernel(
                    kern, packed_a, packed_b, c, n, ic, mc, jc, nc, kc, acc_block,
                );
            }
        }
    }
}

/// Work-stealing parallel path mirroring `gemm_parallel`: row blocks are
/// claimed from an atomic counter, each worker packs its own A blocks, and
/// the packed B panel is shared read-only.
// lint: alloc_ok(per-call packing scratch: one shared B panel plus one A
// panel per worker, allocated at entry — steady-state callers go through
// `QPackedA`/`QPackedB` plans that hoist even these)
#[allow(clippy::too_many_arguments)]
fn qgemm_parallel(
    kern: &QKernel,
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[i8],
    b: &[i8],
    accumulate: bool,
    c: &mut [i32],
    workers: usize,
) {
    let (qmr, qnr) = (kern.qmr, kern.qnr);
    let row_blocks = m.div_ceil(QMC);
    let kq_panel = QKC / KQ;
    let mut packed_b_buf = vec![0i8; kq_panel * KQ * QNC.min(n.next_multiple_of(qnr))];
    let c_ptr = SendPtr(c.as_mut_ptr());
    for jc in (0..n).step_by(QNC) {
        let nc = QNC.min(n - jc);
        for pc in (0..k).step_by(QKC) {
            let kc = QKC.min(k - pc);
            pack_b(qnr, trans_b, b, k, n, pc, kc, jc, nc, &mut packed_b_buf);
            let packed_b = &packed_b_buf;
            let acc_block = accumulate || pc > 0;
            let next = AtomicUsize::new(0);
            rayon::scope(|s| {
                for _ in 0..workers {
                    let next = &next;
                    let c_ptr = &c_ptr;
                    let kern = *kern;
                    s.spawn(move || {
                        let mut packed_a = vec![0i8; QMC.next_multiple_of(qmr) * kq_panel * KQ];
                        loop {
                            let blk = next.fetch_add(1, Ordering::Relaxed);
                            if blk >= row_blocks {
                                break;
                            }
                            let ic = blk * QMC;
                            let mc = QMC.min(m - ic);
                            pack_a(qmr, trans_a, a, m, k, ic, mc, pc, kc, &mut packed_a);
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
/// rests on the disjoint row-block claim discipline in [`qgemm_parallel`].
struct SendPtr(*mut i32);
// SAFETY: SendPtr is only handed to scoped workers that write disjoint
// row blocks of C (each `mc` block is claimed by exactly one worker via the
// fetch_add ticket in `qgemm_parallel`), so concurrent access never aliases.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Fixed slot stride of one packed `(k-panel, m-block)` A block inside a
/// [`QPackedA`] buffer for a tier with the given `qmr` (`QKC` is a multiple
/// of the k-quad, so a full panel packs to exactly `QMC'·QKC` codes).
fn qa_block_stride(qmr: usize) -> usize {
    QMC.div_ceil(qmr) * qmr * QKC
}

/// A fully packed i8 `op(A)` operand in the quad-major strip layout the
/// quantized microkernel consumes — the integer counterpart of
/// [`crate::gemm::PackedA`], used by compiled plans to pack a frozen
/// activation-code panel once and reuse it against every perturbed
/// weight-code panel through [`qgemm_prepacked_ab`]. Bit-exact vs
/// [`qgemm_with_scratch`]. Records the kernel tier active when packed;
/// prepacked multiplies use that tier.
#[derive(Debug, Default, Clone)]
pub struct QPackedA {
    m: usize,
    k: usize,
    tier: KernelTier,
    buf: Vec<i8>,
}

impl QPackedA {
    /// Creates an empty handle; the buffer grows on first [`QPackedA::pack`].
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

    /// Packs `op(A)` (`[m, k]` codes, or stored `[k, m]` when `trans_a`).
    ///
    /// # Panics
    ///
    /// Panics when the slice length disagrees with `m * k`.
    pub fn pack(&mut self, trans_a: bool, a: &[i8], m: usize, k: usize) {
        let _span = telemetry::span(telemetry::Phase::Pack);
        assert_eq!(a.len(), m * k, "A must hold m*k codes");
        self.m = m;
        self.k = k;
        self.tier = dispatch::active();
        let qmr = q_kernel(self.tier).qmr;
        let stride = qa_block_stride(qmr);
        let m_blocks = m.div_ceil(QMC);
        let k_panels = k.div_ceil(QKC);
        let buf = uninit_slice_of(&mut self.buf, m_blocks * k_panels * stride);
        for (pi, pc) in (0..k).step_by(QKC).enumerate() {
            let kc = QKC.min(k - pc);
            for (bi, ic) in (0..m).step_by(QMC).enumerate() {
                let mc = QMC.min(m - ic);
                let slot = &mut buf[(pi * m_blocks + bi) * stride..][..stride];
                pack_a(qmr, trans_a, a, m, k, ic, mc, pc, kc, slot);
            }
        }
    }
}

/// A fully packed i8 `op(B)` operand in the quad-major strip layout the
/// quantized microkernel consumes — the integer counterpart of
/// [`crate::gemm::PackedB`], cached by compiled plans for quantized layers
/// and re-packed only where a code-domain fault realization marked rows
/// dirty ([`QPackedB::repack_rows`]). Bit-exact vs [`qgemm_with_scratch`].
/// Records the kernel tier active when packed.
#[derive(Debug, Default, Clone)]
pub struct QPackedB {
    k: usize,
    n: usize,
    trans_b: bool,
    tier: KernelTier,
    k_panels: usize,
    slot: usize,
    buf: Vec<i8>,
}

impl QPackedB {
    /// Creates an empty handle; the buffer grows on first [`QPackedB::pack`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared (reduction) dimension of the packed operand.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of the packed operand.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The kernel tier whose strip layout this operand was packed for.
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// Packs `op(B)` (`[k, n]` codes, or stored `[n, k]` when `trans_b`).
    ///
    /// # Panics
    ///
    /// Panics when the slice length disagrees with `k * n`.
    pub fn pack(&mut self, trans_b: bool, b: &[i8], k: usize, n: usize) {
        let _span = telemetry::span(telemetry::Phase::Pack);
        assert_eq!(b.len(), k * n, "B must hold k*n codes");
        self.k = k;
        self.n = n;
        self.trans_b = trans_b;
        self.tier = dispatch::active();
        let qnr = q_kernel(self.tier).qnr;
        self.k_panels = k.div_ceil(QKC).max(1);
        self.slot = QKC * QNC.min(n.next_multiple_of(qnr)).max(qnr);
        let n_panels = n.div_ceil(QNC).max(1);
        let buf = uninit_slice_of(&mut self.buf, n_panels * self.k_panels * self.slot);
        for (ji, jc) in (0..n).step_by(QNC).enumerate() {
            let nc = QNC.min(n - jc);
            for (pi, pc) in (0..k).step_by(QKC).enumerate() {
                let kc = QKC.min(k - pc);
                let slot = &mut buf[(ji * self.k_panels + pi) * self.slot..][..self.slot];
                pack_b(qnr, trans_b, b, k, n, pc, kc, jc, nc, slot);
            }
        }
    }

    /// The packed panel for n-panel `ji` and k-panel `pi`.
    fn panel(&self, ji: usize, pi: usize) -> &[i8] {
        &self.buf[(ji * self.k_panels + pi) * self.slot..][..self.slot]
    }

    /// Overwrites this operand with `round(c · factor)` of every packed code
    /// `c` of `src` — the code-domain retention-drift realization, applied
    /// without re-packing. With `0 ≤ factor ≤ 1`, `|round(c · factor)| ≤
    /// |c|`, so codes stay in range and zero padding stays zero: the result
    /// is bit-identical to packing the per-code drifted matrix.
    ///
    /// # Panics
    ///
    /// Panics when `factor` lies outside `[0, 1]`, or the operands disagree
    /// on shape or kernel tier.
    pub fn scale_from(&mut self, src: &QPackedB, factor: f32) {
        let _span = telemetry::span(telemetry::Phase::Repack);
        telemetry::count(telemetry::Counter::UniformScales, 1);
        assert!(
            (0.0..=1.0).contains(&factor),
            "code scale {factor} outside [0, 1]"
        );
        let len = self.same_layout_len(src);
        for (d, &s) in self.buf[..len].iter_mut().zip(&src.buf[..len]) {
            *d = (f32::from(s) * factor).round() as i8;
        }
    }

    /// Overwrites this operand with a copy of `src`.
    ///
    /// # Panics
    ///
    /// Panics when the operands disagree on shape or kernel tier.
    pub fn copy_from(&mut self, src: &QPackedB) {
        let len = self.same_layout_len(src);
        self.buf[..len].copy_from_slice(&src.buf[..len]);
    }

    /// Packed codes covering the dimensions both operands must share.
    fn same_layout_len(&self, src: &QPackedB) -> usize {
        assert_eq!(
            (self.k, self.n, self.trans_b, self.tier),
            (src.k, src.n, src.trans_b, src.tier),
            "packed operands disagree on shape or kernel tier"
        );
        self.n.div_ceil(QNC).max(1) * self.k_panels * self.slot
    }

    /// Re-packs only the qnr-strips covering rows marked in `dirty` from the
    /// updated code matrix `b` (see [`crate::gemm::PackedB::repack_rows`] for
    /// the contract — every column changed since the last pack must be
    /// marked). `base` offsets the lookup into `dirty`, so one dirty set over
    /// `batch · n` rows can drive the per-realization panels of a stacked
    /// batched plan; single-operand callers pass `0`.
    ///
    /// # Panics
    ///
    /// Panics when `b` or `dirty` disagree with the packed dimensions.
    pub fn repack_rows(&mut self, b: &[i8], dirty: &DirtyRows, base: usize) {
        let _span = telemetry::span(telemetry::Phase::Repack);
        assert_eq!(b.len(), self.k * self.n, "B must hold k*n codes");
        assert!(dirty.rows() >= base + self.n, "dirty set must cover n rows");
        let (k, n, trans_b) = (self.k, self.n, self.trans_b);
        let qnr = q_kernel(self.tier).qnr;
        let mut repacked_rows = 0u64;
        for (ji, jc) in (0..n).step_by(QNC).enumerate() {
            let nc = QNC.min(n - jc);
            for jr in (0..nc).step_by(qnr) {
                let j0 = jc + jr;
                if !dirty.any_in(base + j0, base + (j0 + qnr).min(n)) {
                    continue;
                }
                let cols = qnr.min(nc - jr);
                repacked_rows += cols as u64;
                for (pi, pc) in (0..k).step_by(QKC).enumerate() {
                    let kc = QKC.min(k - pc);
                    let quads = kc.div_ceil(KQ);
                    let slot = (ji * self.k_panels + pi) * self.slot;
                    let strip =
                        &mut self.buf[slot + (jr / qnr) * (quads * KQ * qnr)..][..quads * KQ * qnr];
                    let mut dst = 0;
                    for q in 0..quads {
                        for j in 0..qnr {
                            for kk in 0..KQ {
                                let p = q * KQ + kk;
                                strip[dst] = if j < cols && p < kc {
                                    if trans_b {
                                        b[(j0 + j) * k + pc + p]
                                    } else {
                                        b[(pc + p) * n + j0 + j]
                                    }
                                } else {
                                    0
                                };
                                dst += 1;
                            }
                        }
                    }
                }
            }
        }
        telemetry::count(telemetry::Counter::RowsRepacked, repacked_rows);
    }

    /// Writes a single code of the packed operand in place: stored row `row`
    /// (an output feature of a `[n, k]` code matrix packed with `trans_b`),
    /// reduction index `kidx`.
    ///
    /// The integer-domain counterpart of
    /// [`crate::gemm::PackedB::write_cell`]: the packed-domain injection
    /// primitive for structured sparse fault models, whose exact fired-cell
    /// lists (whole crossbar lines, stuck cells) land straight in the
    /// quad-interleaved panels in O(1) per code instead of re-packing every
    /// dirty row's full k extent through [`QPackedB::repack_rows`]. Writing
    /// the same value this way is bit-identical to a re-pack (packing is a
    /// pure permutation with zero padding).
    ///
    /// # Panics
    ///
    /// Panics when the operand was not packed with `trans_b`, or the indices
    /// are out of range.
    pub fn write_cell(&mut self, row: usize, kidx: usize, value: i8) {
        telemetry::count(telemetry::Counter::CellScatters, 1);
        assert!(self.trans_b, "write_cell addresses trans_b packed operands");
        assert!(row < self.n && kidx < self.k, "cell out of range");
        let qnr = q_kernel(self.tier).qnr;
        let ji = row / QNC;
        let jc = ji * QNC;
        let jr = ((row - jc) / qnr) * qnr;
        let pi = kidx / QKC;
        let pc = pi * QKC;
        let kc = QKC.min(self.k - pc);
        let quads = kc.div_ceil(KQ);
        let p = kidx - pc;
        let pos = (ji * self.k_panels + pi) * self.slot // panel slot
            + (jr / qnr) * (quads * KQ * qnr)           // qnr-strip within it
            + (p / KQ) * (qnr * KQ)                     // quad step within strip
            + (row - jc - jr) * KQ                      // row within quad block
            + p % KQ; // code within quad
        self.buf[pos] = value;
    }
}

/// Integer GEMM with a cached pre-packed B operand (see [`QPackedB`]): only
/// A is packed per call, blockwise into the caller's [`Scratch`]. Bit-exact
/// vs every other kernel variant.
///
/// # Panics
///
/// Panics when a slice length disagrees with the packed dimensions.
pub fn qgemm_prepacked_b(
    trans_a: bool,
    m: usize,
    a: &[i8],
    packed_b: &QPackedB,
    accumulate: bool,
    c: &mut [i32],
    scratch: &mut Scratch,
) {
    let _span = telemetry::span(telemetry::Phase::Gemm);
    let (k, n) = (packed_b.k, packed_b.n);
    assert_eq!(a.len(), m * k, "A must hold m*k codes");
    assert_eq!(c.len(), m * n, "C must hold m*n accumulators");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            c.fill(0);
        }
        return;
    }
    let kern = q_kernel(packed_b.tier);
    let qmr = kern.qmr;
    let kq_panel = QKC / KQ;
    let packed_a = uninit_slice_of(
        &mut scratch.packed_a_i8,
        QMC.next_multiple_of(qmr) * kq_panel * KQ,
    );
    for (ji, jc) in (0..n).step_by(QNC).enumerate() {
        let nc = QNC.min(n - jc);
        for (pi, pc) in (0..k).step_by(QKC).enumerate() {
            let kc = QKC.min(k - pc);
            let pb = packed_b.panel(ji, pi);
            let acc_block = accumulate || pc > 0;
            for ic in (0..m).step_by(QMC) {
                let mc = QMC.min(m - ic);
                pack_a(qmr, trans_a, a, m, k, ic, mc, pc, kc, packed_a);
                block_kernel(&kern, packed_a, pb, c, n, ic, mc, jc, nc, kc, acc_block);
            }
        }
    }
}

/// Integer GEMM with **both** operands pre-packed ([`QPackedA`] ×
/// [`QPackedB`]): per call, no packing happens at all. Bit-exact vs every
/// other kernel variant.
///
/// # Panics
///
/// Panics when the packed reduction dimensions disagree, the operands were
/// packed under different kernel tiers, or `c` has the wrong length.
pub fn qgemm_prepacked_ab(
    packed_a: &QPackedA,
    packed_b: &QPackedB,
    accumulate: bool,
    c: &mut [i32],
) {
    let _span = telemetry::span(telemetry::Phase::Gemm);
    let (m, k) = (packed_a.m, packed_a.k);
    let n = packed_b.n;
    assert_eq!(k, packed_b.k, "packed operands disagree on k");
    assert_eq!(
        packed_a.tier, packed_b.tier,
        "packed operands disagree on kernel tier"
    );
    assert_eq!(c.len(), m * n, "C must hold m*n accumulators");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            c.fill(0);
        }
        return;
    }
    let kern = q_kernel(packed_a.tier);
    let stride = qa_block_stride(kern.qmr);
    let m_blocks = m.div_ceil(QMC);
    for (ji, jc) in (0..n).step_by(QNC).enumerate() {
        let nc = QNC.min(n - jc);
        for (pi, pc) in (0..k).step_by(QKC).enumerate() {
            let kc = QKC.min(k - pc);
            let pb = packed_b.panel(ji, pi);
            let acc_block = accumulate || pc > 0;
            for (bi, ic) in (0..m).step_by(QMC).enumerate() {
                let mc = QMC.min(m - ic);
                let pa = &packed_a.buf[(pi * m_blocks + bi) * stride..];
                block_kernel(&kern, pa, pb, c, n, ic, mc, jc, nc, kc, acc_block);
            }
        }
    }
}

fn check_dims(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    assert_eq!(a.len(), m * k, "A must hold m*k codes");
    assert_eq!(b.len(), k * n, "B must hold k*n codes");
    assert_eq!(c.len(), m * n, "C must hold m*n accumulators");
    debug_assert!(k <= MAX_K, "k={k} exceeds the i32 accumulation bound");
    debug_assert!(
        a.iter().all(|&x| x != i8::MIN) && b.iter().all(|&x| x != i8::MIN),
        "codes must lie in [-127, 127] (the sign-split microkernels need |code| ≤ 127)"
    );
}

/// Packs the `mc × kc` block of `op(A)` starting at `(ic, pc)` into qmr-row
/// strips laid out quad-major (`packed[strip][quad][r][0..4]`), zero-padding
/// both the ragged final strip and the ragged final k-quad.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    qmr: usize,
    trans_a: bool,
    a: &[i8],
    m: usize,
    k: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    packed: &mut [i8],
) {
    let at = |i: usize, p: usize| -> i8 {
        if trans_a {
            a[p * m + i]
        } else {
            a[i * k + p]
        }
    };
    let quads = kc.div_ceil(KQ);
    let mut dst = 0;
    for ir in (0..mc).step_by(qmr) {
        let rows = qmr.min(mc - ir);
        for q in 0..quads {
            for r in 0..qmr {
                for kk in 0..KQ {
                    let p = q * KQ + kk;
                    packed[dst] = if r < rows && p < kc {
                        at(ic + ir + r, pc + p)
                    } else {
                        0
                    };
                    dst += 1;
                }
            }
        }
    }
}

/// Packs the `kc × nc` block of `op(B)` starting at `(pc, jc)` into
/// qnr-column strips laid out quad-major (`packed[strip][quad][j][0..4]`),
/// zero-padded like [`pack_a`].
#[allow(clippy::too_many_arguments)]
fn pack_b(
    qnr: usize,
    trans_b: bool,
    b: &[i8],
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    packed: &mut [i8],
) {
    let bt = |p: usize, j: usize| -> i8 {
        if trans_b {
            b[j * k + p]
        } else {
            b[p * n + j]
        }
    };
    let quads = kc.div_ceil(KQ);
    let mut dst = 0;
    for jr in (0..nc).step_by(qnr) {
        let cols = qnr.min(nc - jr);
        for q in 0..quads {
            for j in 0..qnr {
                for kk in 0..KQ {
                    let p = q * KQ + kk;
                    packed[dst] = if j < cols && p < kc {
                        bt(pc + p, jc + jr + j)
                    } else {
                        0
                    };
                    dst += 1;
                }
            }
        }
    }
}

/// Runs the microkernel over every `qmr × qnr` tile of an `mc × nc` block,
/// writing into `c` (row-major with leading dimension `n`) at row offset
/// `ic` and column offset `jc`.
#[allow(clippy::too_many_arguments)]
fn block_kernel(
    kern: &QKernel,
    packed_a: &[i8],
    packed_b: &[i8],
    c: &mut [i32],
    n: usize,
    ic: usize,
    mc: usize,
    jc: usize,
    nc: usize,
    kc: usize,
    accumulate: bool,
) {
    let (qmr, qnr) = (kern.qmr, kern.qnr);
    let quads = kc.div_ceil(KQ);
    let mut acc = [0i32; QMAX_TILE];
    for jr in (0..nc).step_by(qnr) {
        let cols = qnr.min(nc - jr);
        let pb = &packed_b[(jr / qnr) * (quads * KQ * qnr)..][..quads * KQ * qnr];
        for ir in (0..mc).step_by(qmr) {
            let rows = qmr.min(mc - ir);
            let pa = &packed_a[(ir / qmr) * (quads * KQ * qmr)..][..quads * KQ * qmr];
            // SAFETY: kernels come from `q_kernel` with a tier the host
            // supports ([`dispatch::active`]/[`dispatch::force`] guarantee
            // that), and the slices cover the asserted extents.
            unsafe { (kern.micro)(quads, pa, pb, &mut acc[..qmr * qnr]) };
            store_tile(
                &acc[..qmr * qnr],
                qnr,
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

/// Portable scalar variant of the quantized microkernel (identical packed
/// quad layout and — integers being exact — identical results to the SIMD
/// tiers).
///
/// # Safety
///
/// Contains no unsafe operations of its own; it is `unsafe fn` only to
/// match the [`MicrokernelI8`] signature shared with the SIMD tiers.
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
/// [`q_kernel`] with a detected/forced tier).
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
/// reached through [`q_kernel`] with a detected/forced tier).
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

/// Writes one accumulator tile (row-major, leading dimension `qnr`) back to
/// C, overwriting or accumulating.
#[allow(clippy::too_many_arguments)]
#[inline]
fn store_tile(
    acc: &[i32],
    qnr: usize,
    c: &mut [i32],
    n: usize,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
    accumulate: bool,
) {
    for r in 0..rows {
        let acc_row = &acc[r * qnr..][..cols];
        let out = &mut c[(row0 + r) * n + col0..][..cols];
        if accumulate {
            for (o, &v) in out.iter_mut().zip(acc_row.iter()) {
                *o += v;
            }
        } else {
            for (o, &v) in out.iter_mut().zip(acc_row.iter()) {
                *o = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::reference;
    use crate::rng::Rng;
    use proptest::prelude::*;

    fn random_codes(len: usize, rng: &mut Rng) -> Vec<i8> {
        (0..len)
            .map(|_| (rng.normal(0.0, 48.0).round().clamp(-127.0, 127.0)) as i8)
            .collect()
    }

    #[test]
    fn matches_integer_oracle_over_odd_shapes() {
        let mut rng = Rng::seed_from(7);
        // Awkward shapes: non-multiples of any tier's qmr/qnr or of KQ/QKC,
        // GEMV-like m=1 and n=1, k spanning several QKC panels, tiny
        // everything.
        let shapes = [
            (1usize, 1usize, 1usize),
            (1, 17, 300),
            (5, 1, 3),
            (3, 7, 2),
            (4, 16, 256),
            (13, 29, 31),
            (33, 65, 17),
            (130, 9, 270),
            (2, 300, 5),
            (7, 19, 515),
        ];
        for &(m, n, k) in &shapes {
            for &(ta, tb) in &[(false, false), (true, false), (false, true), (true, true)] {
                let a = random_codes(m * k, &mut rng);
                let b = random_codes(k * n, &mut rng);
                let expected = reference::qmatmul_i8(ta, tb, m, n, k, &a, &b);
                let mut got = vec![0i32; m * n];
                qgemm(ta, tb, m, n, k, &a, &b, false, &mut got);
                assert_eq!(got, expected, "m={m} n={n} k={k} ta={ta} tb={tb}");
            }
        }
    }

    #[test]
    fn accumulate_adds_to_existing_contents() {
        let mut rng = Rng::seed_from(8);
        let (m, n, k) = (9, 11, 23);
        let a = random_codes(m * k, &mut rng);
        let b = random_codes(k * n, &mut rng);
        let product = reference::qmatmul_i8(false, false, m, n, k, &a, &b);
        let mut c: Vec<i32> = (0..m * n).map(|i| i as i32 - 40).collect();
        let expected: Vec<i32> = c.iter().zip(&product).map(|(x, p)| x + p).collect();
        qgemm(false, false, m, n, k, &a, &b, true, &mut c);
        assert_eq!(c, expected);
    }

    #[test]
    fn empty_dims_are_handled() {
        qgemm(false, false, 0, 4, 3, &[], &[0i8; 12], false, &mut []);
        qgemm(false, false, 4, 0, 3, &[0i8; 12], &[], false, &mut []);
        // k == 0: overwrite zeroes C, accumulate leaves it alone.
        let mut c = vec![5i32; 6];
        qgemm(false, false, 2, 3, 0, &[], &[], true, &mut c);
        assert_eq!(c, vec![5; 6]);
        qgemm(false, false, 2, 3, 0, &[], &[], false, &mut c);
        assert_eq!(c, vec![0; 6]);
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
        let expected = reference::qmatmul_i8(false, false, m, n, k, &a, &b);
        let mut got = vec![0i32; m * n];
        qgemm(false, false, m, n, k, &a, &b, false, &mut got);
        assert_eq!(got, expected);
    }

    #[test]
    fn parallel_is_bit_exact_for_every_worker_count() {
        let mut rng = Rng::seed_from(11);
        let (m, n, k) = (2 * QMC + 3, QNC + 5, QKC + 7);
        let a = random_codes(m * k, &mut rng);
        let b = random_codes(k * n, &mut rng);
        let mut seq = vec![0i32; m * n];
        LOCAL_SCRATCH.with(|s| {
            qgemm_with_scratch(
                false,
                false,
                m,
                n,
                k,
                &a,
                &b,
                false,
                &mut seq,
                &mut s.borrow_mut(),
            );
        });
        let kern = q_kernel(dispatch::active());
        for workers in [2usize, 3, 5, 8] {
            let mut par = vec![0i32; m * n];
            qgemm_parallel(
                &kern, false, false, m, n, k, &a, &b, false, &mut par, workers,
            );
            assert_eq!(seq, par, "workers={workers}");
        }
    }

    #[test]
    fn prepacked_is_bit_exact_and_reusable() {
        let mut rng = Rng::seed_from(12);
        let shapes = [
            (1usize, 1usize, 1usize),
            (5, 7, 3),
            (13, 29, 31),
            (QMC + 3, QNC + 5, QKC + 7),
            (64, 256, 512),
        ];
        let mut packed = QPackedA::new();
        let mut packed_b = QPackedB::new();
        for &(m, n, k) in &shapes {
            for &trans_a in &[false, true] {
                for &trans_b in &[false, true] {
                    let a = random_codes(m * k, &mut rng);
                    packed.pack(trans_a, &a, m, k);
                    assert_eq!((packed.m(), packed.k()), (m, k));
                    assert_eq!(packed.tier(), dispatch::active());
                    // One packed A against several B realizations — the
                    // frozen-input quantized plan access pattern.
                    for _ in 0..2 {
                        let b = random_codes(k * n, &mut rng);
                        let expected = reference::qmatmul_i8(trans_a, trans_b, m, n, k, &a, &b);
                        packed_b.pack(trans_b, &b, k, n);
                        let mut got = vec![0i32; m * n];
                        qgemm_prepacked_ab(&packed, &packed_b, false, &mut got);
                        assert_eq!(got, expected, "m={m} n={n} k={k} ta={trans_a} tb={trans_b}");
                        // Accumulate path.
                        let mut acc = expected.clone();
                        qgemm_prepacked_ab(&packed, &packed_b, true, &mut acc);
                        let doubled: Vec<i32> = expected.iter().map(|&x| 2 * x).collect();
                        assert_eq!(acc, doubled);
                    }
                    let warm = packed.buf.capacity();
                    packed.pack(trans_a, &a, m, k);
                    assert_eq!(packed.buf.capacity(), warm, "repacking must not reallocate");
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_is_alloc_free_after_warmup() {
        let mut rng = Rng::seed_from(9);
        let (m, n, k) = (64, 32, 48);
        let a = random_codes(m * k, &mut rng);
        let b = random_codes(k * n, &mut rng);
        let mut c = vec![0i32; m * n];
        let mut scratch = Scratch::new();
        qgemm_with_scratch(false, false, m, n, k, &a, &b, false, &mut c, &mut scratch);
        let cap = scratch.capacity();
        for _ in 0..3 {
            qgemm_with_scratch(false, false, m, n, k, &a, &b, false, &mut c, &mut scratch);
        }
        assert_eq!(
            scratch.capacity(),
            cap,
            "repeat calls must not grow scratch"
        );
    }

    #[test]
    fn prepacked_b_is_bit_exact_and_repacks_dirty_rows() {
        let mut rng = Rng::seed_from(21);
        let mut scratch = Scratch::new();
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (5, 19, 300),
            (33, QNC + 5, QKC + 7),
        ] {
            let a = random_codes(m * k, &mut rng);
            let b = random_codes(k * n, &mut rng);
            // Weight-style layout [n, k] with trans_b.
            let expected = reference::qmatmul_i8(false, true, m, n, k, &a, &b);
            let mut packed = QPackedB::new();
            packed.pack(true, &b, k, n);
            assert_eq!((packed.k(), packed.n()), (k, n));
            assert_eq!(packed.tier(), dispatch::active());
            let mut got = vec![0i32; m * n];
            qgemm_prepacked_b(false, m, &a, &packed, false, &mut got, &mut scratch);
            assert_eq!(got, expected, "qgemm_prepacked_b m={m} n={n} k={k}");
            let mut pa = QPackedA::new();
            pa.pack(false, &a, m, k);
            let mut got_ab = vec![0i32; m * n];
            qgemm_prepacked_ab(&pa, &packed, false, &mut got_ab);
            assert_eq!(got_ab, expected, "qgemm_prepacked_ab m={m} n={n} k={k}");

            // Perturb a few weight rows, repack only those, and check the
            // cached operand behaves like a from-scratch pack.
            let mut faulty = b.clone();
            let mut dirty = DirtyRows::new(n);
            for row in [0usize, n / 2, n - 1] {
                for c in &mut faulty[row * k..(row + 1) * k] {
                    *c = c.wrapping_add(3).clamp(-127, 127);
                }
                dirty.mark(row);
            }
            packed.repack_rows(&faulty, &dirty, 0);
            let expected = reference::qmatmul_i8(false, true, m, n, k, &a, &faulty);
            qgemm_prepacked_b(false, m, &a, &packed, false, &mut got, &mut scratch);
            assert_eq!(got, expected, "dirty repack m={m} n={n} k={k}");
            // Reverting the rows (union-marked) restores the clean product.
            packed.repack_rows(&b, &dirty, 0);
            let expected = reference::qmatmul_i8(false, true, m, n, k, &a, &b);
            qgemm_prepacked_b(false, m, &a, &packed, false, &mut got, &mut scratch);
            assert_eq!(got, expected, "revert repack m={m} n={n} k={k}");
        }
    }

    #[test]
    fn write_cell_is_bit_identical_to_repack() {
        // Scattering individual codes through `write_cell` must leave the
        // packed operand exactly as a from-scratch pack of the same matrix —
        // across quad, strip and panel boundaries.
        let mut rng = Rng::seed_from(33);
        let mut scratch = Scratch::new();
        let qnr = q_kernel(dispatch::active()).qnr;
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (4, 7, 9),
            (5, qnr + 3, KQ * 5 + 2),
            (9, QNC + 5, QKC + 7),
        ] {
            let a = random_codes(m * k, &mut rng);
            let b = random_codes(k * n, &mut rng);
            let mut faulty = b.clone();
            let mut packed = QPackedB::new();
            packed.pack(true, &b, k, n);
            // Touch a spread of cells, including the four corners.
            let mut cells = vec![(0usize, 0usize), (n - 1, 0), (0, k - 1), (n - 1, k - 1)];
            for i in 0..(n * k).min(37) {
                cells.push(((i * 7) % n, (i * 13) % k));
            }
            for &(row, kidx) in &cells {
                let v = faulty[row * k + kidx].wrapping_add(5).clamp(-127, 127);
                faulty[row * k + kidx] = v;
                packed.write_cell(row, kidx, v);
            }
            let expected = reference::qmatmul_i8(false, true, m, n, k, &a, &faulty);
            let mut got = vec![0i32; m * n];
            qgemm_prepacked_b(false, m, &a, &packed, false, &mut got, &mut scratch);
            assert_eq!(got, expected, "write_cell scatter m={m} n={n} k={k}");
        }
    }

    #[test]
    fn scale_from_is_bit_identical_to_packing_drifted_codes() {
        // Padding included; `copy_from` restores the clean operand exactly.
        let mut rng = Rng::seed_from(34);
        let qnr = q_kernel(dispatch::active()).qnr;
        for &(n, k) in &[(1usize, 1usize), (qnr + 3, KQ * 5 + 2), (QNC + 5, QKC + 7)] {
            let b = random_codes(k * n, &mut rng);
            let (mut clean, mut expected) = (QPackedB::new(), QPackedB::new());
            clean.pack(true, &b, k, n);
            for factor in [1.0f32, 0.83, 0.5, 0.0] {
                let drifted: Vec<i8> = b
                    .iter()
                    .map(|&c| (f32::from(c) * factor).round() as i8)
                    .collect();
                expected.pack(true, &drifted, k, n);
                let mut scaled = clean.clone();
                scaled.scale_from(&clean, factor);
                assert_eq!(scaled.buf, expected.buf, "n={n} k={k} factor={factor}");
                scaled.copy_from(&clean);
                assert_eq!(scaled.buf, clean.buf, "copy_from n={n} k={k}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_qgemm_matches_oracle(
            m in 1usize..24,
            k in 1usize..48,
            n in 1usize..24,
            seed in 0u32..1000,
        ) {
            let mut rng = Rng::seed_from(seed as u64);
            let a = random_codes(m * k, &mut rng);
            let b = random_codes(k * n, &mut rng);
            let expected = reference::qmatmul_i8(false, false, m, n, k, &a, &b);
            let mut got = vec![0i32; m * n];
            qgemm(false, false, m, n, k, &a, &b, false, &mut got);
            prop_assert_eq!(got, expected);
        }
    }
}
