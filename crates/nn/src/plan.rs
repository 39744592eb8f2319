//! Compiled inference plans: one-shot shape inference, arena-backed buffers
//! and plan-owned fault operands.
//!
//! The Monte-Carlo evaluation protocol re-executes the same network
//! thousands of times with only sparse weight perturbations between runs,
//! yet the direct execution path re-derives shapes, re-allocates scratch and
//! re-packs every weight panel on every forward pass. A [`Plan`] removes all
//! of that per-run work, in the style of graph-compiled runtimes:
//!
//! 1. **Compile once** ([`Plan::compile`]): the model is walked once for a
//!    concrete input shape. Every layer records its input/output shapes,
//!    reserves its activation and scratch buffers from a shared bump
//!    [`Arena`] (one allocation per element type), and registers its weight
//!    matrix as a plan-owned [`PlannedOperand`], packed once
//!    ([`invnorm_tensor::gemm::PackedB`], over f32 weights or i8 codes).
//!    Whether a GEMM layer is *frozen* — it reads the plan input, so it
//!    caches its packed input and multiplies all stacked realizations in
//!    one wide GEMM — is decided here too ([`PlanArenas::gemm_layer`]), and
//!    fixes the one form its operand is packed in.
//! 2. **Run many** ([`Plan::forward`]): steady-state forwards perform zero
//!    heap allocations and zero weight packing. Fault injectors write each
//!    operand's *faulty* buffer ([`Plan::weights_mut`], [`Plan::codes_mut`];
//!    the clean parameters are never touched — no snapshot/restore) and
//!    report the rows or cells they dirtied; only the packed strips covering
//!    those are refreshed before the next forward
//!    ([`PlannedOperand::refresh`]).
//!
//! The planned forward is **bit-identical** to the direct eval path: the
//! same kernels run in the same blocking order over the same packed values,
//! so the planned Monte-Carlo engine reproduces the sequential oracle's
//! metrics exactly (tested for all ten fault models of the catalogue, line
//! defects in both orientations).
//!
//! Layers participate through three methods on [`Layer`]
//! ([`Layer::plan_compile`], [`Layer::plan_forward`], [`Layer::plan_end`])
//! plus operand registration ([`Operands::register`]): [`Plan::compile`]
//! walks [`Layer::visit_params`] and [`Layer::visit_codes`] once, so the
//! k-th registered operand of a domain takes the injector RNG fork index of
//! the k-th fault-targetable parameter, and a weighted layer that does not
//! register fails the compile with [`NnError::Config`]. Layers without
//! fault-targetable state get a default *fallback* that routes through
//! their ordinary `forward` (correct, but allocating); it rejects rank ≥ 2
//! weights and quantization codes with [`NnError::Unsupported`] — a loud
//! failure instead of silently evaluating clean weights.
//!
//! A GEMM layer — `Linear`, `Conv2d`, `QuantizedLinear`, `QuantizedConv2d`,
//! or a user layer that multiplies its input by a weight matrix — plans
//! through one [`GemmNode`]: [`GemmNode::compile`] registers its operand
//! and reserves its buffers, and [`GemmNode::forward`] runs the
//! frozen-input cache, the fused wide GEMM or the per-realization GEMMs,
//! the frozen-path counters, and the one output store
//! ([`invnorm_tensor::epilogue::store`]). The layer supplies only its shape
//! check and how it builds the A operand of one realization from its input
//! tile.

use crate::error::NnError;
use crate::layer::{Layer, Mode};
use crate::Result;
use invnorm_tensor::dispatch;
use invnorm_tensor::epilogue::{self, OutputMap};
use invnorm_tensor::gemm::{self, gemm_prepacked_ab, gemm_prepacked_b, Element, PackedA, PackedB};
use invnorm_tensor::telemetry::{self, PlanFootprint};
use invnorm_tensor::vecmath::NormalVariation;
use invnorm_tensor::{Arena, ArenaSlot, DirtyRows, Scratch, Tensor};

/// The per-plan buffer arenas, one per element type so f32 activations, i8
/// quantization codes and i32 accumulators each live in a single allocation,
/// plus one registry of plan-owned fault operands per fault domain and the
/// compile-time record of which edges are frozen.
#[derive(Debug)]
pub struct PlanArenas {
    /// f32 activations, im2col patch matrices and GEMM staging.
    pub f: Arena<f32>,
    /// i8 activation codes and code-domain patch matrices.
    pub q: Arena<i8>,
    /// i32 integer-GEMM accumulators.
    pub acc: Arena<i32>,
    /// The f32 weight operands, one per rank ≥ 2 parameter.
    pub weights: Operands<f32>,
    /// The i8 code operands, one per quantized code matrix.
    pub codes: Operands<i8>,
    /// Fault realizations fused per forward pass (see [`Plan::compile_batched`]).
    batch: usize,
    /// Slots holding the plan input or a pure copy of it.
    frozen_edges: Vec<ArenaSlot>,
    /// The most stacked realizations any frozen GEMM layer needs to fill
    /// one microkernel tile (see [`Plan::frozen_fill`]).
    frozen_fill: Option<usize>,
}

impl PlanArenas {
    /// Fault realizations fused per forward pass (1 for ordinary plans).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Seals all three arenas (performs the backing allocations).
    pub fn seal(&mut self) {
        self.f.seal();
        self.q.seal();
        self.acc.seal();
    }

    /// Reserves a fresh f32 edge with the same dims as `shape` (the common
    /// case for shape-preserving layers).
    pub fn reserve_like(&mut self, shape: &PlanShape) -> PlanShape {
        PlanShape {
            slot: self.f.reserve(shape.numel()),
            dims: shape.dims.clone(),
        }
    }

    /// Whether `edge` holds the plan input or a pure copy of it: the same
    /// activation in every run (and in every stacked tile), so a layer
    /// reading it may cache what it derives from it until the next
    /// [`Plan::load_input`]. Such a layer is *frozen*.
    pub fn is_frozen(&self, edge: &PlanShape) -> bool {
        self.frozen_edges.contains(&edge.slot)
    }

    /// Declares `copy` a pure copy of `edge` (e.g. a padded re-layout of the
    /// same values), so it is frozen exactly when `edge` is.
    pub fn copy_edge(&mut self, edge: &PlanShape, copy: &PlanShape) {
        if self.is_frozen(edge) {
            self.frozen_edges.push(copy.slot);
        }
    }

    /// Registers a GEMM layer reading `input` whose product has `width`
    /// output columns per realization and runs on `T`'s microkernel.
    /// Returns whether the layer is frozen; the layer passes that on to
    /// [`Operands::register`]. A frozen layer multiplies its cached input
    /// panel by all B ≥ 1 stacked realizations in one `[rows, B·width]`
    /// GEMM, which reaches the microkernel's full register width once
    /// `B ≥ ceil(NR / width)`: that fill feeds [`Plan::frozen_fill`].
    pub fn gemm_layer<T: Element>(&mut self, input: &PlanShape, width: usize) -> bool {
        let frozen = self.is_frozen(input);
        if frozen {
            let fill = gemm::nr::<T>(dispatch::active()).div_ceil(width.max(1));
            self.frozen_fill = self.frozen_fill.max(Some(fill));
        }
        frozen
    }
}

/// The location and logical shape of one activation edge of a compiled plan:
/// an f32 arena slot plus its tensor dims.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanShape {
    /// The f32 arena slot holding the activation.
    pub slot: ArenaSlot,
    /// Logical tensor dims of the activation.
    pub dims: Vec<usize>,
}

impl PlanShape {
    /// Total element count.
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }
}

/// Per-forward execution context threaded through [`Layer::plan_forward`].
#[derive(Debug, Clone, Copy)]
pub struct PlanCtx {
    /// Generation counter of the plan's input buffer; bumped by
    /// [`Plan::load_input`]. Frozen layers ([`PlanArenas::is_frozen`])
    /// cache what they derive from their input — packed activation panels,
    /// unfolded patches, quantized codes — keyed by this generation.
    pub input_gen: u64,
}

/// The injector-facing view of one [`PlannedOperand`]. The faulty buffer
/// stacks the plan's `batch` realizations (`faulty[b·numel..(b+1)·numel]`
/// is realization `b`) and `dirty` tracks `batch · rows` rows, realization
/// `b` owning rows `[b·rows, (b+1)·rows)`.
///
/// An injector realizes `b` one of four ways: it writes `faulty` and marks
/// the rows it changed in `dirty`; it records exact cells in `cells`
/// besides; it requests a uniform `scale`; or, for a keyed Gaussian
/// variation of f32 weights with an even `k`, it draws straight into the
/// live pack ([`PlanView::draw_packed`]), which leaves realization `b`'s
/// faulty slice stale.
#[derive(Debug)]
pub struct PlanView<'a, T> {
    /// The injector's RNG fork index, fixed at compile: the parameter's
    /// position in [`Layer::visit_params`] (f32) or [`Layer::visit_codes`]
    /// (codes) order, exactly as in the sequential engine.
    pub index: usize,
    /// The clean matrix (never touched by planned injection).
    pub clean: &'a [T],
    /// Leading (output) dimension of one realization's matrix — the row
    /// count structured tile topologies map crossbar lines onto.
    pub rows: usize,
    /// The stacked faulty buffer the packed panels are refreshed from.
    pub faulty: &'a mut [T],
    /// Rows (leading-dimension indices) the injector perturbed; the refresh
    /// re-packs only the panels covering these rows.
    pub dirty: &'a mut DirtyRows,
    /// Uniform-scale fast path: an injector whose realization is the clean
    /// matrix times one factor shared by every stacked realization
    /// (retention drift) sets this instead of writing `faulty`; the refresh
    /// then scales the cached packed panels from the clean operand, and
    /// keeps them scaled for every further forward until an injector sets
    /// this back to `None` with its next realization.
    pub scale: &'a mut Option<f32>,
    /// Sparse packed-domain bookkeeping: injectors touching few cells record
    /// them here, and the refresh writes them straight into the panels.
    pub cells: &'a mut SparseCells,
    packs: &'a mut [PackedB<T>],
    packed_clean: &'a PackedB<T>,
    stale: &'a mut DirtyRows,
    span: usize,
}

impl PlanView<'_, f32> {
    /// Draws realization `b` of a keyed Gaussian `variation` straight into
    /// the live pack that covers it, from the clean pack
    /// ([`PackedB::draw_rows`]): weight `i` of the row-major `[rows, k]`
    /// realization draws output `i mod 2` of
    /// [`vecmath::normal_pair`](invnorm_tensor::vecmath::normal_pair)`(key,
    /// i/2)`, exactly what
    /// [`NormalVariation::apply`](invnorm_tensor::vecmath::NormalVariation::apply)
    /// writes into a faulty slice, without the slice or the refresh's
    /// re-pack. The operand records the fifth regime of
    /// [`PlannedOperand`]: `b`'s rows are stale, its dirty rows are
    /// cleared, and its cell lists are unknown.
    ///
    /// The refresh leaves a pack alone while every realization it covers
    /// was last drawn this way (`realize_plan_batch` draws them all); once
    /// one is written through `faulty` again (its cell list reset or
    /// invalidated) or a row of the pack is marked dirty, the pack is
    /// refreshed from the faulty buffer, every drawn row included.
    ///
    /// # Panics
    ///
    /// Panics when `k` is odd or `b` is not a stacked realization.
    pub fn draw_packed(&mut self, b: usize, variation: NormalVariation, key: u64) {
        let rows = self.rows;
        let r0 = (b % self.span) * rows;
        self.packs[b / self.span].draw_rows(self.packed_clean, r0..r0 + rows, variation, key);
        let (lo, hi) = (b * rows, (b + 1) * rows);
        self.dirty.clear_range(lo, hi);
        self.stale.mark_range(lo, hi);
        self.cells.drawn(b);
    }
}

/// Exact-cell realization bookkeeping for sparse packed-domain injection.
///
/// Per realization, two cell lists are tracked against the clean matrix:
/// the cells where the **faulty buffer** differs (written by the sparse
/// injector) and the cells where the **live packed panel** differs
/// (maintained by [`PlannedOperand`]'s refresh). While both lists are exact,
/// a refresh reverts the panel's previous cells and scatters the new ones
/// through `write_cell` — O(cells) instead of re-packing every dirty row's
/// full k extent. A list overflowing its capacity (a dense realization)
/// degrades to "unknown", and the refresh falls back to the row-granular
/// re-pack; exactness is re-established by the next sparse realization.
#[derive(Debug)]
pub struct SparseCells {
    faulty: Vec<CellList>,
    panel: Vec<CellList>,
    written: Vec<Written>,
    cap: usize,
}

/// Where a realization's values were last written, for the refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Written {
    /// The faulty buffer: the refresh re-packs its marked and stale rows.
    Buffer,
    /// The faulty buffer, by the sparse injector since the last refresh,
    /// with exact cells ([`SparseCells::mark_pending`]).
    Cells,
    /// The pack itself, by a keyed draw ([`PlanView::draw_packed`]); the
    /// faulty slice is stale until the realization is next written there.
    Pack,
}

#[derive(Debug, Clone)]
struct CellList {
    idx: Vec<u32>,
    exact: bool,
}

impl CellList {
    fn set_unknown(&mut self) {
        self.idx.clear();
        self.exact = false;
    }

    fn set_empty_exact(&mut self) {
        self.idx.clear();
        self.exact = true;
    }
}

impl SparseCells {
    fn new(batch: usize, numel: usize) -> Self {
        // Cap the exact lists at numel/8 cells: beyond that the row-granular
        // re-pack is competitive anyway, and capacity is reserved up front so
        // steady-state realizations never allocate.
        let cap = (numel / 8).max(64).min(numel.max(1));
        let list = || CellList {
            idx: Vec::with_capacity(cap),
            exact: false,
        };
        Self {
            faulty: (0..batch).map(|_| list()).collect(),
            panel: (0..batch).map(|_| list()).collect(),
            written: vec![Written::Buffer; batch],
            cap,
        }
    }

    /// The exact faulty-vs-clean cell list of realization `b`, when known.
    pub fn faulty_cells(&self, b: usize) -> Option<&[u32]> {
        self.faulty[b].exact.then(|| self.faulty[b].idx.as_slice())
    }

    /// Begins a fresh exact recording of realization `b`'s faulty cells
    /// (the caller has just reverted the faulty buffer to clean).
    pub fn reset_faulty(&mut self, b: usize) {
        self.faulty[b].set_empty_exact();
        self.written[b] = Written::Buffer;
    }

    /// Records that the sparse injector wrote cell `idx` of realization `b`;
    /// on overflow the list degrades to unknown (dense fallback).
    pub fn push_faulty(&mut self, b: usize, idx: usize) {
        let list = &mut self.faulty[b];
        if !list.exact {
            return;
        }
        if list.idx.len() == self.cap {
            list.set_unknown();
        } else {
            list.idx.push(idx as u32);
        }
    }

    /// Declares realization `b`'s faulty buffer densely rewritten (the exact
    /// cell list no longer describes it).
    pub fn invalidate_faulty(&mut self, b: usize) {
        self.faulty[b].set_unknown();
        self.written[b] = Written::Buffer;
    }

    /// Marks realization `b` as written by the sparse injector since the
    /// last refresh, which is what entitles the refresh to trust the lists.
    pub fn mark_pending(&mut self, b: usize) {
        self.written[b] = Written::Cells;
    }

    /// Records that realization `b` was drawn straight into its pack: the
    /// faulty buffer and the pack no longer match any cell list.
    fn drawn(&mut self, b: usize) {
        self.faulty[b].set_unknown();
        self.panel[b].set_unknown();
        self.written[b] = Written::Pack;
    }

    /// Records that realization `b`'s pack now equals its faulty buffer:
    /// the pack's list becomes the faulty list. `clone_from` reuses the
    /// reserved capacity, so this allocates nothing.
    fn adopt(&mut self, b: usize) {
        let Self { faulty, panel, .. } = self;
        panel[b].idx.clone_from(&faulty[b].idx);
        panel[b].exact = faulty[b].exact;
    }
}

/// One plan-owned fault operand: a weighted layer's clean matrix, packed
/// once, plus the per-realization state injectors write and the refresh
/// consumes — generic over the element type, so f32 weights and i8 codes
/// (each packed as a [`PackedB`]) share one implementation.
///
/// A plan stacks `batch` realizations ([`Plan::compile_batched`]; 1 for
/// ordinary plans): the faulty buffer holds `batch` copies of the matrix
/// and the dirty/stale sets track `batch · rows` rows. The live packed form
/// is fixed at registration by the layer that reads it: a frozen layer
/// ([`PlanArenas::gemm_layer`]) reads **one** pack over the whole
/// `[batch · rows, cols]` stack — the stacked faulty buffer *is* that
/// matrix — in one wide GEMM; any other layer reads one pack per
/// realization. Either way each pack covers `span` realizations (`batch`
/// or 1), realization `b` owning rows `[b·rows, (b+1)·rows)` of the stack,
/// and one clean pack of the same extent is the reference the refresh
/// restores and scales from.
///
/// Five realization regimes are tracked per pack:
///
/// * **Sparse rows** ([`PlanView::dirty`]): the injector rewrote the
///   realizations' faulty slices and marked the touched rows; only the
///   strips covering the union of those rows and the previous
///   realizations' rows are re-packed.
/// * **Sparse cells** ([`PlanView::cells`]): the injector recorded the
///   exact touched cells of every realization the pack covers; they are
///   written straight into the pack (packed-domain injection, O(cells)).
/// * **Uniform scale** ([`PlanView::scale`]): the realization is the clean
///   matrix times one factor (retention drift); every pack is scaled from
///   the clean pack directly — and skipped entirely when the factor is
///   already applied.
/// * **Drawn** ([`PlanView::draw_packed`]): the injector drew every
///   realization the pack covers straight into it from the clean pack (a
///   keyed Gaussian variation of f32 weights with even `k`); their rows are
///   stale, nothing is dirty, the cell lists are unknown, and the refresh
///   leaves the pack alone. The faulty slices are not written, so a later
///   sparse realization reverts them by a full clean copy and the refresh
///   re-packs every stale row.
/// * **Clean**: nothing marked; the packs are already exact.
///
/// Code-domain i.i.d. stuck-at keeps the row path: cell writes into the
/// quad-interleaved i8 packing do not pay for i.i.d. scatter, while line
/// defects fire whole tile lines, far below the row re-pack cost.
#[derive(Debug)]
pub struct PlannedOperand<T: Element> {
    index: usize,
    bits: u8,
    /// The clean matrix tiled `span` times, packed once.
    packed_clean: PackedB<T>,
    /// The live packs: one over the whole stack, or one per realization.
    packs: Vec<PackedB<T>>,
    clean: Vec<T>,
    /// The stacked faulty buffer sparse realizations write (`batch × numel`).
    faulty: Vec<T>,
    /// Rows the current realization batch touched (`batch · rows` rows).
    dirty: DirtyRows,
    /// Rows where the packs still differ from the clean operand (from the
    /// previous realization batch).
    stale: DirtyRows,
    /// Pending uniform-scale request for the next refresh.
    scale_req: Option<f32>,
    applied_scale: Option<f32>,
    cells: SparseCells,
    /// Realizations each pack covers: `batch` when the layer is frozen,
    /// else 1.
    span: usize,
    rows: usize,
    cols: usize,
}

impl<T: Element> PlannedOperand<T> {
    /// Packs the clean `[n, k]` matrix once in the form its layer reads —
    /// `batch` tiled copies for a frozen layer, one copy otherwise — as the
    /// clean reference, clones it into the live packs, and stages the
    /// stacked faulty buffer with `batch` clean copies.
    fn new(target: Target, clean: &[T], k: usize, n: usize, batch: usize, frozen: bool) -> Self {
        let span = if frozen { batch } else { 1 };
        // The faulty buffer starts as `batch` clean copies; its first
        // `span` copies are the clean form the layer reads.
        let faulty = clean.repeat(batch);
        let mut packed_clean = PackedB::new();
        packed_clean.pack(true, &faulty[..span * clean.len()], k, span * n);
        Self {
            index: target.index,
            bits: target.bits,
            packs: vec![packed_clean.clone(); batch / span],
            packed_clean,
            clean: clean.to_vec(),
            faulty,
            dirty: DirtyRows::new(batch * n),
            stale: DirtyRows::new(batch * n),
            scale_req: None,
            applied_scale: None,
            cells: SparseCells::new(batch, clean.len()),
            span,
            rows: n,
            cols: k,
        }
    }

    /// Element bit width: the quantized width (≤ 8) for codes, 32 for f32.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Live pack `i` (call [`PlannedOperand::refresh`] first): for a frozen
    /// layer's operand, pack 0 is the whole `[batch · rows, cols]` stack;
    /// otherwise pack `b` is realization `b`'s `[rows, cols]` matrix.
    pub fn pack(&self, i: usize) -> &PackedB<T> {
        &self.packs[i]
    }

    /// The injector-facing view of this operand's realization state.
    pub fn view(&mut self) -> PlanView<'_, T> {
        PlanView {
            index: self.index,
            clean: &self.clean,
            rows: self.rows,
            faulty: &mut self.faulty,
            dirty: &mut self.dirty,
            scale: &mut self.scale_req,
            cells: &mut self.cells,
            packs: &mut self.packs,
            packed_clean: &self.packed_clean,
            stale: &mut self.stale,
            span: self.span,
        }
    }

    /// Brings every live pack up to date with the realizations the
    /// injector recorded — a uniform scale, sparse cells, dirty rows, a
    /// draw into the pack, or nothing — ready for the layer's GEMMs.
    /// Allocation-free.
    // lint: no_alloc
    pub fn refresh(&mut self) {
        let Self {
            packed_clean,
            packs,
            clean,
            faulty,
            dirty,
            stale,
            scale_req,
            applied_scale,
            cells,
            span,
            rows,
            cols,
            ..
        } = self;
        let (span, rows, cols) = (*span, *rows, *cols);
        if let Some(factor) = *scale_req {
            // Uniform-scale regime: `pack = packed_clean · factor`,
            // bit-identical to packing scaled weights. Skip when the exact
            // factor is already applied and nothing else touched the packs.
            let drawn = cells.written.contains(&Written::Pack);
            if *applied_scale != Some(factor) || dirty.any() || drawn {
                for pack in packs.iter_mut() {
                    pack.scale_from(packed_clean, factor);
                }
                cells.panel.iter_mut().for_each(CellList::set_unknown);
                *applied_scale = Some(factor);
                dirty.clear();
                stale.clear();
            }
            cells.written.fill(Written::Buffer);
            return;
        }
        let unscale = applied_scale.take().is_some();
        let numel = rows * cols;
        for (p, pack) in packs.iter_mut().enumerate() {
            // Pack p covers realizations [first, first + span), which own
            // rows [lo, hi) of the stack.
            let first = p * span;
            let (lo, hi) = (first * rows, (first + span) * rows);
            let last = first + span;
            if cells.written[first..last]
                .iter()
                .all(|&w| w == Written::Pack)
                && !dirty.any_in(lo, hi)
            {
                // Drawn regime: every covered realization was drawn from
                // the clean pack, its rows already marked stale, and stays
                // so until it is next realized.
                continue;
            }
            if unscale {
                // Leaving the scaled regime: restore the clean pack, then
                // apply this realization batch's dirty rows/cells below.
                pack.copy_from(packed_clean);
                cells.panel[first..last]
                    .iter_mut()
                    .for_each(CellList::set_empty_exact);
                stale.clear_range(lo, hi);
            }
            let source = &faulty[first * numel..][..span * numel];
            let sparse = (first..last).all(|b| {
                cells.written[b] == Written::Cells && cells.panel[b].exact && cells.faulty[b].exact
            });
            if sparse {
                // Packed-domain cell update: revert every covered
                // realization's previous cells to clean and scatter its new
                // ones — O(cells), no row re-pack. Bit-identical to a
                // re-pack of the same faulty matrix.
                for b in first..first + span {
                    let j = b - first;
                    let (row0, faulty_b) = (j * rows, &source[j * numel..][..numel]);
                    for &i in &cells.panel[b].idx {
                        let i = i as usize;
                        pack.write_cell(row0 + i / cols, i % cols, clean[i]);
                    }
                    for &i in &cells.faulty[b].idx {
                        let i = i as usize;
                        pack.write_cell(row0 + i / cols, i % cols, faulty_b[i]);
                    }
                    // The pack now equals the faulty buffer exactly.
                    cells.adopt(b);
                }
                stale.copy_range(dirty, lo, hi);
                dirty.clear_range(lo, hi);
            } else if dirty.any_in(lo, hi) || stale.any_in(lo, hi) {
                // Row-granular re-pack of the union of this batch's dirty
                // rows and the pack's stale rows.
                stale.merge_range(dirty, lo, hi);
                pack.repack_rows(source, stale, lo);
                stale.copy_range(dirty, lo, hi);
                dirty.clear_range(lo, hi);
                for b in first..last {
                    if cells.written[b] == Written::Cells {
                        // The sparse injector wrote the buffer (the pack's
                        // list was merely unknown): pack == faulty now.
                        cells.adopt(b);
                    } else {
                        // A dense realization (or a caller writing `faulty`
                        // directly) — the exact lists no longer describe it.
                        cells.panel[b].set_unknown();
                        cells.faulty[b].set_unknown();
                    }
                }
            }
            cells.written[first..last].fill(Written::Buffer);
        }
    }
}

/// One fault-targetable parameter found by the compile-time walk.
#[derive(Debug, Clone, Copy)]
struct Target {
    index: usize,
    numel: usize,
    bits: u8,
}

/// Handle to a registered [`PlannedOperand`], kept in a layer's plan state
/// and resolved by indexing [`PlanArenas::weights`] or [`PlanArenas::codes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperandId(usize);

/// The plan-owned operands of one fault domain, in registration order,
/// matched one-to-one against the fault-targetable parameters the
/// compile-time walk found.
#[derive(Debug)]
pub struct Operands<T: Element> {
    domain: &'static str,
    batch: usize,
    targets: Vec<Target>,
    list: Vec<PlannedOperand<T>>,
}

impl<T: Element> Operands<T> {
    fn new(domain: &'static str, batch: usize, targets: Vec<Target>) -> Self {
        let list = Vec::with_capacity(targets.len());
        Self {
            domain,
            batch,
            targets,
            list,
        }
    }

    /// Registers a weighted layer's clean row-major `[n, k]` matrix as the
    /// domain's next operand (packed once, staged as the plan's batch of
    /// faulty copies) and returns the id [`Layer::plan_forward`] reads it
    /// back by (`arenas.weights[id]`). `frozen` is the layer's
    /// [`PlanArenas::gemm_layer`] answer: a frozen layer reads one pack
    /// over all stacked realizations, any other one pack per realization
    /// (see [`PlannedOperand`]). Layers register in
    /// [`Layer::plan_compile`], in [`Layer::visit_params`] order of their
    /// rank ≥ 2 parameters (f32) or [`Layer::visit_codes`] order (codes).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Config`] when the model exposes no further
    /// parameter of this domain, or the next one holds a different element
    /// count.
    pub fn register(&mut self, clean: &[T], k: usize, n: usize, frozen: bool) -> Result<OperandId> {
        let id = self.list.len();
        let Some(&target) = self.targets.get(id) else {
            return Err(operand_count_mismatch(
                self.domain,
                self.targets.len(),
                id + 1,
            ));
        };
        if clean.len() != target.numel || clean.len() != k * n {
            return Err(NnError::Config(format!(
                "{} operand #{id} registers {} elements as [{n}, {k}], but its parameter holds {}",
                self.domain,
                clean.len(),
                target.numel
            )));
        }
        let operand = PlannedOperand::new(target, clean, k, n, self.batch, frozen);
        self.list.push(operand);
        Ok(OperandId(id))
    }

    fn check_complete(&self) -> Result<()> {
        if self.list.len() == self.targets.len() {
            return Ok(());
        }
        Err(operand_count_mismatch(
            self.domain,
            self.targets.len(),
            self.list.len(),
        ))
    }
}

fn operand_count_mismatch(domain: &str, expected: usize, registered: usize) -> NnError {
    NnError::Config(format!(
        "plan {domain} operands: expected {expected} (one per fault-targetable parameter), \
         registered {registered}; every weighted layer must register its operand in plan_compile"
    ))
}

impl<T: Element> std::ops::Index<OperandId> for Operands<T> {
    type Output = PlannedOperand<T>;
    fn index(&self, id: OperandId) -> &PlannedOperand<T> {
        &self.list[id.0]
    }
}

impl<T: Element> std::ops::IndexMut<OperandId> for Operands<T> {
    fn index_mut(&mut self, id: OperandId) -> &mut PlannedOperand<T> {
        &mut self.list[id.0]
    }
}

/// The element types a [`GemmNode`] multiplies — f32 weights and i8 codes
/// — and where a plan keeps each one's buffers: an f32 node stages its A
/// operand and accumulates in the f32 arena against `arenas.weights`; an i8
/// node stages its input codes and patches in the code arena and
/// accumulates in the i32 arena against `arenas.codes`.
pub trait PlanElement: Element {
    /// This type's fault operands: `arenas.weights` or `arenas.codes`.
    fn operands(arenas: &mut PlanArenas) -> &mut Operands<Self>;
    /// Reserves `stage` elements of A staging and `acc` accumulators.
    fn reserve(arenas: &mut PlanArenas, stage: usize, acc: usize) -> [ArenaSlot; 2];
    /// Borrows one node's buffers at once: the f32 `[input, output]` edges
    /// and the node's `[stage, acc]` slots, plus its operand `id`.
    fn borrow(
        arenas: &mut PlanArenas,
        edges: [ArenaSlot; 2],
        slots: [ArenaSlot; 2],
        id: OperandId,
    ) -> NodeBuffers<'_, Self>;
}

/// What [`PlanElement::borrow`] hands a [`GemmNode`] forward: its input
/// edge, output edge, A staging, accumulators and operand.
pub type NodeBuffers<'a, T> = (
    &'a [f32],
    &'a mut [f32],
    &'a mut [T],
    &'a mut [<T as Element>::Acc],
    &'a mut PlannedOperand<T>,
);

impl PlanElement for f32 {
    fn operands(arenas: &mut PlanArenas) -> &mut Operands<f32> {
        &mut arenas.weights
    }

    fn reserve(arenas: &mut PlanArenas, stage: usize, acc: usize) -> [ArenaSlot; 2] {
        [arenas.f.reserve(stage), arenas.f.reserve(acc)]
    }

    fn borrow(
        arenas: &mut PlanArenas,
        [input, output]: [ArenaSlot; 2],
        [stage, acc]: [ArenaSlot; 2],
        id: OperandId,
    ) -> NodeBuffers<'_, f32> {
        let [x, out, stage, acc] = arenas.f.many_mut([input, output, stage, acc]);
        (x, out, stage, acc, &mut arenas.weights[id])
    }
}

impl PlanElement for i8 {
    fn operands(arenas: &mut PlanArenas) -> &mut Operands<i8> {
        &mut arenas.codes
    }

    fn reserve(arenas: &mut PlanArenas, stage: usize, acc: usize) -> [ArenaSlot; 2] {
        [arenas.q.reserve(stage), arenas.acc.reserve(acc)]
    }

    fn borrow(
        arenas: &mut PlanArenas,
        edges: [ArenaSlot; 2],
        [stage, acc]: [ArenaSlot; 2],
        id: OperandId,
    ) -> NodeBuffers<'_, i8> {
        let [x, out] = arenas.f.many_mut(edges);
        let (stage, acc) = (arenas.q.slot_mut(stage), arenas.acc.slot_mut(acc));
        (x, out, stage, acc, &mut arenas.codes[id])
    }
}

/// The plan node of a GEMM layer (`Linear`, `Conv2d`, `QuantizedLinear`,
/// `QuantizedConv2d`, or a user layer built the same way): it runs the
/// frozen-input protocol for every such layer, so each layer keeps only its
/// shape check and how it builds its A operand from one realization's
/// input tile.
///
/// A realization's product is the `[m, k]` A operand (input rows, or im2col
/// patch rows; f32 as is, or quantized codes) times the transposed `[OC, k]`
/// operand, and [`invnorm_tensor::epilogue::store`] lays it out as the
/// realization's `[N, OC, …]` output block, dequantized by the channel
/// scales and plus the bias. [`GemmNode::compile`] asks
/// [`PlanArenas::gemm_layer`] whether the input is frozen, and that fixes
/// the one path the node runs for every stack B ≥ 1:
///
/// * **Frozen**: the A operand is built from the first input tile and
///   packed once per [`Plan::load_input`] (a `FrozenInputMisses` count,
///   then `FrozenInputHits` until the next load), and meets the stacked
///   operand pack in one `[m, B·OC]` GEMM (`gemm_prepacked_ab`; a
///   `WideGemms` count when B > 1). Realization `b` stores columns
///   `[b·OC, (b+1)·OC)`.
/// * **Per realization**: each tile is built into the one-tile staging
///   slot and multiplied against its realization's pack
///   (`gemm_prepacked_b`).
#[derive(Debug)]
pub struct GemmNode<T: PlanElement> {
    operand: OperandId,
    frozen: bool,
    /// Depth of one realization's `[m, k]` A operand.
    k: usize,
    /// How one realization's `[m, OC]` product lands in its output block
    /// (`m = map.n · map.pixels`).
    map: OutputMap,
    /// The A staging slot and the accumulator slot.
    slots: [ArenaSlot; 2],
    packed_a: PackedA<T>,
    a_gen: u64,
    a_scale: f32,
    scratch: Scratch,
    bias: Option<Vec<f32>>,
    scales: Option<Vec<f32>>,
}

impl<T: PlanElement> GemmNode<T> {
    /// Compiles the node of a GEMM layer reading `input` whose stacked
    /// output edge is `[N, OC, …]` (`out_dims`; the trailing dims multiply
    /// to the outputs per channel). Registers `matrix`, the layer's clean
    /// row-major `[OC, k]` weights or codes, as its operand; reserves
    /// `stage` elements of A staging (what [`GemmNode::forward`]'s `build_a`
    /// writes for one realization: 0 when A is the input tile itself), the
    /// accumulators and the output edge; and copies the per-channel `bias` and, for codes, the
    /// per-channel weight `scales`, as it copies the matrix. Returns the
    /// node and the output edge.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Config`] when the operand does not match the next
    /// parameter of its domain (see [`Operands::register`]).
    ///
    /// # Panics
    ///
    /// Panics when `out_dims` has fewer than two dims.
    pub fn compile(
        arenas: &mut PlanArenas,
        input: &PlanShape,
        matrix: &[T],
        out_dims: Vec<usize>,
        stage: usize,
        bias: Option<&[f32]>,
        scales: Option<&[f32]>,
    ) -> Result<(Self, PlanShape)> {
        // Copied before the operand registers: these small blocks live as
        // long as the plan, and allocated after the operand's large ones
        // they would pin the heap top above them once those are freed
        // (+0.2 MiB peak RSS on a 512→256 linear probe).
        let (bias, scales) = (bias.map(<[f32]>::to_vec), scales.map(<[f32]>::to_vec));
        let batch = arenas.batch();
        let (oc, pixels) = (out_dims[1], out_dims[2..].iter().product());
        let map = OutputMap::dense(out_dims[0] / batch, oc, pixels);
        let k = matrix.len() / oc.max(1);
        let frozen = arenas.gemm_layer::<T>(input, oc);
        let operand = T::operands(arenas).register(matrix, k, oc, frozen)?;
        let wide = if frozen { batch } else { 1 };
        let slots = T::reserve(arenas, stage, map.n * pixels * oc * wide);
        let output = PlanShape {
            slot: arenas.f.reserve(out_dims.iter().product()),
            dims: out_dims,
        };
        let node = Self {
            operand,
            frozen,
            k,
            map,
            slots,
            packed_a: PackedA::new(),
            a_gen: 0,
            a_scale: 1.0,
            scratch: Scratch::new(),
            bias,
            scales,
        };
        Ok((node, output))
    }

    /// Runs the node for every stacked realization. `build_a` turns one
    /// realization's input tile into its `[m, k]` A operand, written into
    /// the staging slot it is handed (or the tile itself), and returns it
    /// with the activation scale the store dequantizes by (ignored without
    /// channel scales).
    ///
    /// # Errors
    ///
    /// Returns what `build_a` or the store returns.
    // lint: no_alloc
    pub fn forward<F>(
        &mut self,
        input: &PlanShape,
        output: &PlanShape,
        ctx: PlanCtx,
        arenas: &mut PlanArenas,
        mut build_a: F,
    ) -> Result<()>
    where
        F: for<'a> FnMut(&'a [f32], &'a mut [T]) -> Result<(&'a [T], f32)>,
    {
        let batch = arenas.batch();
        let (per_in, per_out) = (input.numel() / batch, output.numel() / batch);
        let edges = [input.slot, output.slot];
        let (x, out, stage, acc, operand) = T::borrow(arenas, edges, self.slots, self.operand);
        // Bring the cached packs up to date with this realization batch
        // (cell scatter / dirty-row re-packing / uniform-scale).
        operand.refresh();
        let (map, m, k) = (self.map, self.map.n * self.map.pixels, self.k);
        if self.frozen {
            // The plan input is constant across runs, and its stacked tiles
            // are copies of one activation, so the first tile's A operand is
            // built and packed once per `load_input`.
            if self.a_gen != ctx.input_gen {
                telemetry::count(telemetry::Counter::FrozenInputMisses, 1);
                let (a, scale) = build_a(&x[..per_in], stage)?;
                self.packed_a.pack(false, a, m, k);
                self.a_scale = scale;
                self.a_gen = ctx.input_gen;
            } else {
                telemetry::count(telemetry::Counter::FrozenInputHits, 1);
            }
            // Fused wide product: the cached panel meets the stacked operand
            // pack in a single `[m, B·OC]` GEMM (full microkernel width, the
            // panel streamed once); realization b stores its column block.
            if batch > 1 {
                telemetry::count(telemetry::Counter::WideGemms, 1);
            }
            gemm_prepacked_ab(&self.packed_a, operand.pack(0), false, acc);
        }
        for b in 0..batch {
            let tile = &x[b * per_in..][..per_in];
            let out_b = &mut out[b * per_out..][..per_out];
            let (map, scale) = if self.frozen {
                let (ld, col0) = (batch * map.oc, b * map.oc);
                (OutputMap { ld, col0, ..map }, self.a_scale)
            } else {
                let (a, scale) = build_a(tile, stage)?;
                let scratch = &mut self.scratch;
                gemm_prepacked_b(false, m, a, operand.pack(b), false, acc, scratch);
                (map, scale)
            };
            let dequant = self.scales.as_deref().map(|sw| (scale, sw));
            epilogue::store(acc, map, dequant, self.bias.as_deref(), out_b)?;
        }
        Ok(())
    }
}

/// The input check of a GEMM layer (`what` names it in the error): dims
/// `[N, channels]` at rank 2 or `[N, channels, H, W]` at rank 4, with a
/// leading dimension the plan's `batch` divides (1 outside a plan).
///
/// # Errors
///
/// Returns [`NnError::Config`] naming the expected and the given dims.
pub(crate) fn check_gemm_input(
    what: &str,
    dims: &[usize],
    rank: usize,
    channels: usize,
    batch: usize,
) -> Result<()> {
    if dims.len() == rank && dims[1] == channels && dims[0].is_multiple_of(batch) {
        return Ok(());
    }
    let rest = if rank == 4 { ", H, W" } else { "" };
    let plan = (batch > 1).then(|| format!(" (N divisible by the plan batch {batch})"));
    Err(NnError::Config(format!(
        "{what} expects [N, {channels}{rest}]{}, got {dims:?}",
        plan.unwrap_or_default()
    )))
}

/// A compiled inference plan for one model and one input shape.
///
/// The plan owns the arenas, the input/output edges and every registered
/// fault operand; the remaining per-layer state (operand ids, cached
/// activation panels) lives in the layers, installed by
/// [`Layer::plan_compile`] and released by [`Layer::plan_end`].
#[derive(Debug)]
pub struct Plan {
    arenas: PlanArenas,
    input: PlanShape,
    output: PlanShape,
    out_tensor: Tensor,
    gen: u64,
    /// Per-realization input dims (`input.dims` with the leading dimension
    /// divided by the batch) — the shape [`Plan::load_input`] accepts.
    per_dims: Vec<usize>,
}

impl Plan {
    /// Compiles `model` for the shape of `example` and loads `example` as
    /// the plan input.
    ///
    /// # Errors
    ///
    /// See [`Plan::compile_batched`].
    pub fn compile<M: Layer + ?Sized>(model: &mut M, example: &Tensor) -> Result<Self> {
        Self::compile_batched(model, example, 1)
    }

    /// Compiles `model` for **`batch` fused fault realizations** of the
    /// shape of `example`, and loads `example` as the (shared) plan input.
    ///
    /// The plan's activation edges carry all realizations stacked along the
    /// leading dimension: the input edge holds `batch` tiled copies of the
    /// example (written once per [`Plan::load_input`], so frozen-input
    /// caches — packed activation panels, unfolded patches, quantized codes
    /// — are still computed once per input), and every registered operand
    /// stacks `batch` faulty buffers plus its cached packs (one over the
    /// whole stack for a frozen layer, one per realization otherwise). One
    /// [`Plan::forward`] then evaluates every realization, with
    /// realization `b` owning rows `[b·N, (b+1)·N)` of the output's leading
    /// dimension — each bit-identical to a single-realization planned (and
    /// therefore direct) forward on its faulty weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Unsupported`] when a layer with fault-targetable
    /// state does not implement the plan protocol, and [`NnError::Config`]
    /// when the example has no leading batch dimension, a shape is
    /// inconsistent, or a fault-targetable parameter has no operand.
    pub fn compile_batched<M: Layer + ?Sized>(
        model: &mut M,
        example: &Tensor,
        batch: usize,
    ) -> Result<Self> {
        let _span = telemetry::span(telemetry::Phase::Compile);
        let batch = batch.max(1);
        if example.rank() == 0 {
            return Err(NnError::Config(
                "plan input must have a leading batch dimension".into(),
            ));
        }
        // Fix every operand's fork index once: the k-th f32 (code) operand
        // stands for the k-th rank >= 2 parameter (code matrix).
        let (mut weights, mut codes, mut index) = (Vec::new(), Vec::new(), 0);
        model.visit_params(&mut |p| {
            if p.is_fault_target() {
                weights.push(Target {
                    index,
                    numel: p.numel(),
                    bits: 32,
                });
            }
            index += 1;
        });
        model.visit_codes(&mut |view| {
            codes.push(Target {
                index: codes.len(),
                numel: view.codes.len(),
                bits: view.bits,
            });
        });
        let mut arenas = PlanArenas {
            f: Arena::new(),
            q: Arena::new(),
            acc: Arena::new(),
            weights: Operands::new("f32 weight", batch, weights),
            codes: Operands::new("code", batch, codes),
            batch,
            frozen_edges: Vec::new(),
            frozen_fill: None,
        };
        let per_dims = example.dims().to_vec();
        let mut dims = per_dims.clone();
        dims[0] *= batch;
        let input = PlanShape {
            slot: arenas.f.reserve(example.numel() * batch),
            dims,
        };
        arenas.frozen_edges.push(input.slot);
        let output = model.plan_compile(&input, &mut arenas)?;
        arenas.weights.check_complete()?;
        arenas.codes.check_complete()?;
        arenas.seal();
        let out_tensor = Tensor::zeros(&output.dims);
        let mut plan = Self {
            arenas,
            input,
            output,
            out_tensor,
            gen: 0,
            per_dims,
        };
        plan.load_input(example)?;
        Ok(plan)
    }

    /// Loads a new input activation (same per-realization shape as the
    /// compile-time example), invalidating input-derived caches. Batched
    /// plans tile the input across every stacked realization.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the dims differ from the
    /// compiled per-realization input shape.
    pub fn load_input(&mut self, input: &Tensor) -> Result<()> {
        if input.dims() != self.per_dims.as_slice() {
            return Err(NnError::shape_mismatch(
                "Plan::load_input",
                &self.per_dims,
                input.dims(),
            ));
        }
        let slot = self.arenas.f.slot_mut(self.input.slot);
        let per = input.numel();
        for b in 0..self.arenas.batch {
            slot[b * per..(b + 1) * per].copy_from_slice(input.data());
        }
        self.gen += 1;
        Ok(())
    }

    /// Fault realizations fused per forward pass (1 for ordinary plans).
    pub fn batch(&self) -> usize {
        self.arenas.batch
    }

    /// The smallest stack whose fused wide GEMM fills one microkernel tile
    /// on every frozen layer: the largest `ceil(NR / w)` among them (w
    /// output columns on a kernel NR columns wide), recorded at compile by
    /// [`PlanArenas::gemm_layer`]. `None` when no weighted layer reads the
    /// plan input.
    pub fn frozen_fill(&self) -> Option<usize> {
        self.arenas.frozen_fill
    }

    /// The plan's stack and the bytes of its f32, i8 and i32 arenas.
    pub fn footprint(&self) -> PlanFootprint {
        PlanFootprint {
            stack: self.arenas.batch,
            f32_bytes: self.arenas.f.reserved() * std::mem::size_of::<f32>(),
            i8_bytes: self.arenas.q.reserved(),
            i32_bytes: self.arenas.acc.reserved() * std::mem::size_of::<i32>(),
        }
    }

    /// The plan's f32 weight operands, one per rank ≥ 2 parameter in
    /// [`Layer::visit_params`] order (where weight faults are realized).
    pub fn weights_mut(&mut self) -> &mut [PlannedOperand<f32>] {
        &mut self.arenas.weights.list
    }

    /// The plan's i8 code operands, one per [`Layer::visit_codes`] entry in
    /// that order (where code faults are realized).
    pub fn codes_mut(&mut self) -> &mut [PlannedOperand<i8>] {
        &mut self.arenas.codes.list
    }

    /// Runs one planned forward pass over the loaded input, consuming each
    /// operand's faulty buffers (refreshing dirty panels on the way), and
    /// returns the output. Steady-state calls perform zero heap
    /// allocations.
    ///
    /// # Errors
    ///
    /// Returns an error when a layer rejects its input or the plan state was
    /// released.
    // lint: no_alloc
    pub fn forward<M: Layer + ?Sized>(&mut self, model: &mut M) -> Result<&Tensor> {
        let ctx = PlanCtx {
            input_gen: self.gen,
        };
        model.plan_forward(&self.input, &self.output, ctx, &mut self.arenas)?;
        self.out_tensor
            .data_mut()
            .copy_from_slice(self.arenas.f.slot(self.output.slot));
        Ok(&self.out_tensor)
    }

    /// Dims of the compiled input.
    pub fn input_dims(&self) -> &[usize] {
        &self.input.dims
    }

    /// Dims of the compiled output.
    pub fn output_dims(&self) -> &[usize] {
        &self.output.dims
    }
}

/// Shared implementation of the default (fallback) [`Layer::plan_compile`]:
/// rejects layers carrying fault-targetable state, otherwise discovers the
/// output shape by forwarding zeros of the input shape once.
pub(crate) fn fallback_compile<L: Layer + ?Sized>(
    layer: &mut L,
    input: &PlanShape,
    arenas: &mut PlanArenas,
) -> Result<PlanShape> {
    let mut targetable = false;
    layer.visit_params(&mut |p| targetable |= p.is_fault_target());
    layer.visit_codes(&mut |_| targetable = true);
    if targetable {
        return Err(NnError::unsupported(layer.name(), "compiled plans"));
    }
    let probe = Tensor::zeros(&input.dims);
    let out = layer.forward(&probe, Mode::Eval)?;
    Ok(PlanShape {
        slot: arenas.f.reserve(out.numel()),
        dims: out.dims().to_vec(),
    })
}

/// Shared implementation of the default (fallback) [`Layer::plan_forward`]:
/// routes through the layer's ordinary `forward` (correct for every
/// weightless layer, at the cost of the allocations `forward` makes).
pub(crate) fn fallback_forward<L: Layer + ?Sized>(
    layer: &mut L,
    input: &PlanShape,
    output: &PlanShape,
    arenas: &mut PlanArenas,
) -> Result<()> {
    let x = Tensor::from_vec(arenas.f.slot(input.slot).to_vec(), &input.dims)?;
    let y = layer.forward(&x, Mode::Eval)?;
    if y.dims() != output.dims.as_slice() {
        return Err(NnError::Config(format!(
            "plan for {} compiled output {:?}, forward produced {:?}",
            layer.name(),
            output.dims,
            y.dims()
        )));
    }
    arenas.f.slot_mut(output.slot).copy_from_slice(y.data());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::layer::{CodeView, Param};
    use crate::linear::Linear;
    use crate::Sequential;
    use invnorm_tensor::Rng;

    #[test]
    fn plan_reproduces_direct_eval_forward() {
        let mut rng = Rng::seed_from(1);
        let mut net = Sequential::new()
            .with(Box::new(Linear::new(6, 8, &mut rng)))
            .with(Box::new(Relu::new()))
            .with(Box::new(Linear::new(8, 3, &mut rng)));
        let x = Tensor::randn(&[4, 6], 0.0, 1.0, &mut rng);
        let direct = net.forward(&x, Mode::Eval).unwrap();
        let mut plan = Plan::compile(&mut net, &x).unwrap();
        assert_eq!(plan.input_dims(), x.dims());
        assert_eq!(plan.output_dims(), direct.dims());
        for _ in 0..3 {
            let out = plan.forward(&mut net).unwrap();
            let identical = out
                .data()
                .iter()
                .zip(direct.data().iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(identical, "planned forward diverged from direct eval");
        }
        net.plan_end();
    }

    #[test]
    fn plan_tracks_faulty_weights_and_restores_clean_rows() {
        let mut rng = Rng::seed_from(2);
        let mut net = Sequential::new().with(Box::new(Linear::new(5, 4, &mut rng)));
        let x = Tensor::randn(&[3, 5], 0.0, 1.0, &mut rng);
        let clean = net.forward(&x, Mode::Eval).unwrap();
        let mut plan = Plan::compile(&mut net, &x).unwrap();
        // Perturb row 2 of the weight through the plan view.
        let view = plan.weights_mut()[0].view();
        assert_eq!(view.index, 0);
        for v in &mut view.faulty[2 * 5..3 * 5] {
            *v += 1.0;
        }
        view.dirty.mark(2);
        let faulty_out = plan.forward(&mut net).unwrap().clone();
        assert!(!faulty_out.approx_eq(&clean, 1e-6));
        // Next realization: nothing perturbed → the faulty buffer must be
        // reset by the caller (the injector's contract); simulate it.
        let view = plan.weights_mut()[0].view();
        view.faulty.copy_from_slice(view.clean);
        view.dirty.mark(2); // row reverted → caller marks it again
        let restored = plan.forward(&mut net).unwrap();
        let identical = restored
            .data()
            .iter()
            .zip(clean.data().iter())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(identical, "reverted rows must restore the clean output");
        net.plan_end();
    }

    #[test]
    fn weighted_layers_without_plan_support_are_rejected_loudly() {
        let mut rng = Rng::seed_from(3);
        let mut net = Sequential::new()
            .with(Box::new(Linear::new(4, 4, &mut rng)))
            .with(Box::new(Unplanned {
                weight: Param::new(Tensor::ones(&[4, 4])),
            }));
        let x = Tensor::randn(&[2, 4], 0.0, 1.0, &mut rng);
        let err = Plan::compile(&mut net, &x).unwrap_err();
        assert!(
            matches!(
                err,
                NnError::Unsupported {
                    layer: "Unplanned",
                    op: "compiled plans",
                }
            ),
            "unexpected error: {err}"
        );
        assert!(err.to_string().contains("compiled plans"));
    }

    /// A weighted identity layer with no plan of its own: the default
    /// fallback must reject its rank-2 weight.
    struct Unplanned {
        weight: Param,
    }

    impl Layer for Unplanned {
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
            Ok(input.clone())
        }
        fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
            Ok(grad_output.clone())
        }
        fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
            visitor(&mut self.weight);
        }
        fn name(&self) -> &'static str {
            "Unplanned"
        }
    }

    #[test]
    fn weighted_layers_that_skip_registration_fail_compile() {
        // A weighted layer planning itself without registering its operand
        // would evaluate clean weights under every fault; the compile-time
        // count check names both counts instead, in either domain.
        let mut rng = Rng::seed_from(5);
        let x = Tensor::randn(&[2, 4], 0.0, 1.0, &mut rng);
        for (codes, domain) in [(false, "f32 weight"), (true, "code")] {
            let mut net = Sequential::new()
                .with(Box::new(Linear::new(4, 4, &mut rng)))
                .with(Box::new(Unregistered {
                    weight: Param::new(Tensor::ones(&[4, 4])),
                    codes: if codes { vec![1; 16] } else { Vec::new() },
                }));
            let (expected, registered) = if codes { (1, 0) } else { (2, 1) };
            let err = Plan::compile(&mut net, &x).unwrap_err();
            assert!(
                matches!(&err, NnError::Config(msg) if msg.contains(domain)
                    && msg.contains(&format!("expected {expected}"))
                    && msg.contains(&format!("registered {registered}"))),
                "unexpected error: {err}"
            );
        }
    }

    /// A weighted layer that plans itself as an identity (its own
    /// `plan_compile`, the fallback `plan_forward`) and never registers its
    /// rank-2 weight or, when `codes` is non-empty, its code matrix instead.
    struct Unregistered {
        weight: Param,
        codes: Vec<i8>,
    }

    impl Layer for Unregistered {
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
            Ok(input.clone())
        }
        fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
            Ok(grad_output.clone())
        }
        fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
            if self.codes.is_empty() {
                visitor(&mut self.weight);
            }
        }
        fn visit_codes(&mut self, visitor: &mut dyn FnMut(CodeView<'_>)) {
            if !self.codes.is_empty() {
                visitor(CodeView {
                    codes: &mut self.codes,
                    bits: 8,
                    rows: 4,
                });
            }
        }
        fn plan_compile(
            &mut self,
            input: &PlanShape,
            arenas: &mut PlanArenas,
        ) -> Result<PlanShape> {
            Ok(arenas.reserve_like(input))
        }
        fn name(&self) -> &'static str {
            "Unregistered"
        }
    }

    #[test]
    fn plan_rejects_wrong_input_shape_on_load() {
        let mut rng = Rng::seed_from(4);
        let mut net = Sequential::new().with(Box::new(Linear::new(4, 2, &mut rng)));
        let x = Tensor::randn(&[2, 4], 0.0, 1.0, &mut rng);
        let mut plan = Plan::compile(&mut net, &x).unwrap();
        // Shape mismatches at forward time are the typed `ShapeMismatch`
        // error, carrying both shapes, not a panic or a formatted string.
        let err = plan.load_input(&Tensor::zeros(&[3, 4])).unwrap_err();
        assert!(
            matches!(
                &err,
                NnError::ShapeMismatch { context, expected, got }
                    if *context == "Plan::load_input"
                        && expected == &vec![2, 4]
                        && got == &vec![3, 4]
            ),
            "unexpected error: {err}"
        );
        let err = plan.load_input(&Tensor::zeros(&[2, 5])).unwrap_err();
        assert!(matches!(err, NnError::ShapeMismatch { .. }));
        let err = plan.load_input(&Tensor::zeros(&[2, 4, 1])).unwrap_err();
        assert!(matches!(err, NnError::ShapeMismatch { .. }));
        assert!(plan.load_input(&x).is_ok());
        net.plan_end();
        // Wrong-rank compile inputs are rejected, not misread.
        let mut conv_net =
            Sequential::new().with(Box::new(crate::conv::Conv2d::new(2, 3, 3, 1, 1, &mut rng)));
        assert!(Plan::compile(&mut conv_net, &Tensor::zeros(&[2, 4])).is_err());
        assert!(Plan::compile(&mut net, &Tensor::from_vec(vec![0.0], &[]).unwrap()).is_err());
    }

    #[test]
    fn batched_plan_stacks_realizations_and_loads_tiled_input() {
        let mut rng = Rng::seed_from(10);
        let mut net = Sequential::new()
            .with(Box::new(Linear::new(5, 7, &mut rng)))
            .with(Box::new(Relu::new()))
            .with(Box::new(Linear::new(7, 3, &mut rng)));
        let x = Tensor::randn(&[4, 5], 0.0, 1.0, &mut rng);
        let direct = net.forward(&x, Mode::Eval).unwrap();
        let batch = 3usize;
        let mut plan = Plan::compile_batched(&mut net, &x, batch).unwrap();
        assert_eq!(plan.batch(), batch);
        assert_eq!(plan.input_dims(), &[batch * 4, 5]);
        assert_eq!(plan.output_dims(), &[batch * 4, 3]);
        // Clean stacked forward: every realization's rows equal the direct
        // output bit-for-bit.
        let out = plan.forward(&mut net).unwrap();
        for b in 0..batch {
            let rows = &out.data()[b * direct.numel()..][..direct.numel()];
            let identical = rows
                .iter()
                .zip(direct.data().iter())
                .all(|(a, c)| a.to_bits() == c.to_bits());
            assert!(identical, "clean realization {b} diverged");
        }
        // Perturb realization 1's first weight only; realizations 0 and 2
        // must stay clean.
        let view = plan.weights_mut()[0].view();
        assert_eq!(view.index, 0);
        let numel = view.clean.len();
        for v in &mut view.faulty[numel..][..5] {
            *v += 1.0;
        }
        view.dirty.mark(7); // realization 1, row 0 (7 rows each)
        let out = plan.forward(&mut net).unwrap().clone();
        for b in [0usize, 2] {
            let rows = &out.data()[b * direct.numel()..][..direct.numel()];
            let identical = rows
                .iter()
                .zip(direct.data().iter())
                .all(|(a, c)| a.to_bits() == c.to_bits());
            assert!(identical, "untouched realization {b} was perturbed");
        }
        let mid = &out.data()[direct.numel()..][..direct.numel()];
        assert!(mid.iter().zip(direct.data().iter()).any(|(a, c)| a != c));
        net.plan_end();
    }

    /// The bench CNN: conv 3→8 5×5, ReLU, 2×2 max-pool, flatten, linear
    /// 2048→10, with or without biases on its conv and head, and the two
    /// optionally quantized, with dynamic activation scales or with static
    /// scales calibrated on random samples of each layer's input shape.
    fn gemm_cnn(quantized: bool, bias: bool, calibrated: bool) -> Sequential {
        use crate::conv::Conv2d;
        use crate::layer::BoxedLayer;
        use crate::pool::MaxPool2d;
        use crate::quantized::{QuantizedConv2d, QuantizedLinear};
        use crate::reshape::Flatten;
        let mut rng = Rng::seed_from(12);
        let conv = Conv2d::with_bias(3, 8, 5, 1, 2, bias, &mut rng);
        let head = Linear::with_bias(8 * 16 * 16, 10, bias, &mut rng);
        let (conv, head): (BoxedLayer, BoxedLayer) = if quantized {
            let mut conv = QuantizedConv2d::from_conv2d(&conv, 8).unwrap();
            let mut head = QuantizedLinear::from_linear(&head, 8).unwrap();
            if calibrated {
                conv.calibrate(&Tensor::randn(&[2, 3, 32, 32], 0.0, 1.0, &mut rng))
                    .unwrap();
                head.calibrate(&Tensor::randn(&[2, 8 * 16 * 16], 0.0, 1.0, &mut rng))
                    .unwrap();
            }
            (Box::new(conv), Box::new(head))
        } else {
            (Box::new(conv), Box::new(head))
        };
        Sequential::new()
            .with(conv)
            .with(Box::new(Relu::new()))
            .with(Box::new(MaxPool2d::new(2)))
            .with(Box::new(Flatten::new()))
            .with(head)
    }

    /// A stacked conv plan stages one tile of patches, not one per
    /// realization: compiled at B = 16, the bench CNN reserves at most 16 ×
    /// what one realization owns (its B = 1 arena without the patch tile)
    /// plus that one tile — 0.61 M patch floats instead of 9.8 M — in the
    /// f32 arena. Its quantized twin's i8 arena holds only one tile of input
    /// codes and patches, so it does not grow with the stack at all.
    #[test]
    fn batched_conv_plans_stage_one_tile_of_patches() {
        let x = Tensor::randn(&[8, 3, 32, 32], 0.0, 1.0, &mut Rng::seed_from(13));
        let footprints = |quantized| {
            let mut net = gemm_cnn(quantized, true, false);
            let one = Plan::compile(&mut net, &x).unwrap().footprint();
            let stacked = Plan::compile_batched(&mut net, &x, 16).unwrap().footprint();
            net.plan_end();
            (one, stacked)
        };
        // [8·32·32, 3·5·5] patches of one realization.
        let tile_bytes = 8 * 32 * 32 * 3 * 5 * 5 * std::mem::size_of::<f32>();
        let (one, stacked) = footprints(false);
        assert!(one.f32_bytes > tile_bytes, "{one:?}");
        let bound = 16 * (one.f32_bytes - tile_bytes) + tile_bytes;
        assert!(stacked.f32_bytes <= bound, "{stacked:?}, bound {bound}");
        let (one, stacked) = footprints(true);
        assert!(one.i8_bytes > 8 * 32 * 32 * 3 * 5 * 5, "{one:?}");
        assert_eq!(stacked.i8_bytes, one.i8_bytes);
    }

    /// Both paths of a plan reuse the one-tile slots and reproduce the
    /// direct eval forward in every stacked realization, bit for bit, at
    /// B = 1 and B = 3: the frozen path of the conv reading the plan input,
    /// and the per-realization path of the same conv behind a ReLU, which
    /// leaves the non-negative input unchanged but gives the conv an edge of
    /// its own (the head is per-realization in both). The table covers f32
    /// layers with and without biases and quantized layers with dynamic and
    /// calibrated activation scales.
    #[test]
    fn batched_conv_plans_match_single_realization_on_both_paths() {
        let x = Tensor::randn(&[2, 3, 32, 32], 0.0, 1.0, &mut Rng::seed_from(14)).abs();
        // (quantized, bias, calibrated)
        let table = [
            (false, true, false),
            (false, false, false),
            (true, true, false),
            (true, true, true),
            (true, false, true),
        ];
        for (quantized, bias, calibrated) in table {
            let mut net = gemm_cnn(quantized, bias, calibrated);
            let direct = net.forward(&x, Mode::Eval).unwrap();
            let behind_relu = Sequential::new()
                .with(Box::new(Relu::new()))
                .with(Box::new(gemm_cnn(quantized, bias, calibrated)));
            for (mut net, frozen) in [(net, true), (behind_relu, false)] {
                for batch in [1, 3] {
                    let mut plan = Plan::compile_batched(&mut net, &x, batch).unwrap();
                    assert_eq!(plan.frozen_fill().is_some(), frozen);
                    let out = plan.forward(&mut net).unwrap();
                    for b in 0..batch {
                        let rows = &out.data()[b * direct.numel()..][..direct.numel()];
                        let identical = (rows.iter().zip(direct.data()))
                            .all(|(a, c)| a.to_bits() == c.to_bits());
                        assert!(
                            identical,
                            "quantized={quantized} bias={bias} calibrated={calibrated} \
                             frozen={frozen} B={batch} realization {b}"
                        );
                    }
                    net.plan_end();
                }
            }
        }
    }

    /// A plan records `ceil(NR / w)` for its narrowest frozen GEMM layer:
    /// only layers reading the plan input count, and f32 and integer layers
    /// each use their own kernel's NR.
    #[test]
    fn frozen_fill_reads_the_narrowest_frozen_layer() {
        use crate::quantized::QuantizedLinear;
        use crate::Residual;
        let (f32_nr, i8_nr) = (
            gemm::nr::<f32>(dispatch::active()),
            gemm::nr::<i8>(dispatch::active()),
        );
        let mut rng = Rng::seed_from(15);
        let x = Tensor::randn(&[2, 6], 0.0, 1.0, &mut rng);
        let fill = |mut net: Sequential| {
            let fill = Plan::compile(&mut net, &x).unwrap().frozen_fill();
            net.plan_end();
            fill
        };
        // The 8-wide first layer is frozen; the 2-wide one after it is not.
        let mlp = Sequential::new()
            .with(Box::new(Linear::new(6, 8, &mut rng)))
            .with(Box::new(Linear::new(8, 2, &mut rng)));
        assert_eq!(fill(mlp), Some(f32_nr.div_ceil(8)));
        // Two branches read the input, 3 and 5 wide: the narrower decides.
        let main = Sequential::new()
            .with(Box::new(Linear::new(6, 3, &mut rng)))
            .with(Box::new(Linear::new(3, 5, &mut rng)));
        let shortcut = Sequential::new().with(Box::new(Linear::new(6, 5, &mut rng)));
        let residual = Sequential::new().with(Box::new(Residual::with_shortcut(main, shortcut)));
        assert_eq!(fill(residual), Some(f32_nr.div_ceil(3)));
        let quantized = QuantizedLinear::from_linear(&Linear::new(6, 8, &mut rng), 8).unwrap();
        assert_eq!(
            fill(Sequential::new().with(Box::new(quantized))),
            Some(i8_nr.div_ceil(8))
        );
        // No weighted layer reads the plan input.
        let behind_relu = Sequential::new()
            .with(Box::new(Relu::new()))
            .with(Box::new(Linear::new(6, 2, &mut rng)));
        assert_eq!(fill(behind_relu), None);
    }

    #[test]
    fn batched_plan_rejects_non_divisible_leading_dim() {
        // A layer seeing a stacked edge whose leading dimension is not a
        // multiple of the plan batch must fail at compile time.
        let mut rng = Rng::seed_from(11);
        let mut net = Sequential::new()
            .with(Box::new(Shrinker))
            .with(Box::new(Linear::new(4, 2, &mut rng)));
        let x = Tensor::randn(&[3, 4], 0.0, 1.0, &mut rng);
        // Tiled input [6, 4] shrinks to [3, 4]: not divisible by batch 2.
        assert!(Plan::compile_batched(&mut net, &x, 2).is_err());
    }

    /// A pathological layer that halves the leading dimension, breaking the
    /// per-realization stacking invariant.
    struct Shrinker;

    impl Layer for Shrinker {
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
            let d = input.dims();
            let rows = d[0] / 2;
            Ok(Tensor::from_vec(
                input.data()[..rows * d[1]].to_vec(),
                &[rows, d[1]],
            )?)
        }
        fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
            Ok(grad_output.clone())
        }
        fn name(&self) -> &'static str {
            "Shrinker"
        }
    }
}
