//! Compiled inference plans: one-shot shape inference, arena-backed buffers
//! and cached packed-weight panels.
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
//!    [`Arena`] (one allocation per element type), and packs its weight
//!    matrix into a cached panel ([`invnorm_tensor::gemm::PackedB`] /
//!    [`invnorm_tensor::qgemm::QPackedB`]).
//! 2. **Run many** ([`Plan::forward`]): steady-state forwards perform zero
//!    heap allocations and zero weight packing. Fault injectors perturb each
//!    layer's plan-owned *faulty* weight buffer (the clean parameters are
//!    never touched — no snapshot/restore) and report which weight rows they
//!    dirtied; only the packed panels covering dirty rows are re-packed
//!    before the next forward.
//!
//! The planned forward is **bit-identical** to the direct eval path: the
//! same kernels run in the same blocking order over the same packed values,
//! so the planned Monte-Carlo engine reproduces the sequential and parallel
//! engines' metrics exactly (tested for all eight fault models).
//!
//! Layers participate through the plan protocol on [`Layer`]
//! ([`Layer::plan_compile`], [`Layer::plan_forward`],
//! [`Layer::visit_plan_params`], [`Layer::visit_plan_codes`],
//! [`Layer::plan_end`]). Layers without fault-targetable state get a default
//! *fallback* implementation that routes through their ordinary `forward`
//! (correct, but allocating); layers with rank ≥ 2 weights or quantization
//! codes must implement the protocol or are rejected with
//! [`NnError::Unsupported`] at compile time — a loud failure instead of
//! silently evaluating clean weights.

use crate::error::NnError;
use crate::layer::{Layer, Mode};
use crate::Result;
use invnorm_tensor::gemm::PackedB;
use invnorm_tensor::qgemm::QPackedB;
use invnorm_tensor::telemetry;
use invnorm_tensor::{Arena, ArenaSlot, DirtyRows, Tensor};
use serde::{Deserialize, Serialize};

/// When a fault realization is drawn relative to the inference stream — the
/// **lifetime** axis of a fault specification.
///
/// `Static` faults are programming-time defects: one realization per chip
/// instance, persisting across every forward pass of that instance. To honor
/// `PerInference` faults — transient read noise, re-drawn before every
/// forward pass — the caller re-realizes before each [`Plan::forward`], and
/// the plan must not reuse realization-coupled state between passes. A
/// [`Plan`] models the lifetime explicitly ([`Plan::set_fault_lifetime`]):
/// under `PerInference` it stops asserting the frozen-input property, so
/// first-layer caches keyed on a run-invariant input edge (packed activation
/// panels, the fused wide-GEMM path) are bypassed and every pass re-derives
/// its input-side operands. The frozen and non-frozen execution paths are
/// bit-identical for the same realization (the caching is a pure
/// optimization), so the lifetime controls *when noise is drawn*, never the
/// arithmetic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultLifetime {
    /// Drawn once per chip instance; the realization persists across every
    /// forward pass of that instance's run.
    #[default]
    Static,
    /// Re-drawn before every forward pass (transient read noise).
    PerInference,
}

/// The per-plan buffer arenas, one per element type so f32 activations, i8
/// quantization codes and i32 accumulators each live in a single allocation.
#[derive(Debug)]
pub struct PlanArenas {
    /// f32 activations, im2col patch matrices and GEMM staging.
    pub f: Arena<f32>,
    /// i8 activation codes and code-domain patch matrices.
    pub q: Arena<i8>,
    /// i32 integer-GEMM accumulators.
    pub acc: Arena<i32>,
    /// Fault realizations fused per forward pass (see [`Plan::compile_batched`]).
    /// Weighted layers consult this during `plan_compile` to size their
    /// stacked faulty buffers and per-realization packed panels; `1` for
    /// ordinary plans.
    batch: usize,
}

impl Default for PlanArenas {
    fn default() -> Self {
        Self {
            f: Arena::new(),
            q: Arena::new(),
            acc: Arena::new(),
            batch: 1,
        }
    }
}

impl PlanArenas {
    /// Creates empty arenas in the build phase.
    pub fn new() -> Self {
        Self::default()
    }

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
    /// [`Plan::load_input`]. Layers seeing a frozen input cache packed
    /// activation panels keyed by this generation.
    pub input_gen: u64,
    /// Whether this layer's input is the plan input itself (constant across
    /// Monte-Carlo runs), making input-derived caches (packed activation
    /// panels, unfolded patches, quantized codes) valid until the next
    /// [`Plan::load_input`].
    pub frozen: bool,
}

impl PlanCtx {
    /// Context for a child layer; only the first child of a chain keeps the
    /// frozen-input property.
    pub fn child(self, first: bool) -> PlanCtx {
        PlanCtx {
            frozen: self.frozen && first,
            ..self
        }
    }
}

/// One fault-targetable (rank ≥ 2) parameter's plan-owned state, handed to
/// [`Layer::visit_plan_params`] visitors: the clean value, the faulty buffer
/// the next forward will consume, and the dirty-row set driving panel
/// re-packing.
///
/// For a **batched** plan ([`Plan::compile_batched`]) the faulty buffer
/// stacks `batch` realizations (`faulty[b·numel..(b+1)·numel]` is
/// realization `b`) and `dirty` tracks `batch · rows` rows, realization `b`
/// owning rows `[b·rows, (b+1)·rows)`.
#[derive(Debug)]
pub struct PlanParamView<'a> {
    /// Index of this parameter in [`Layer::visit_params`] order — the fault
    /// injector's RNG fork index, exactly as in the sequential engine.
    pub index: usize,
    /// The clean parameter value (never touched by planned injection).
    pub clean: &'a Tensor,
    /// The faulty weight buffer the plan's packed panels are refreshed from
    /// (stacked per realization for batched plans).
    pub faulty: &'a mut [f32],
    /// Rows (leading-dimension indices) the injector perturbed; the plan
    /// re-packs only the panels covering these rows.
    pub dirty: &'a mut DirtyRows,
    /// Uniform-scale fast path: an injector whose realization is exactly
    /// `clean · factor` for one constant factor (retention drift) sets this
    /// instead of writing `faulty` — the layer then scales its cached packed
    /// panels directly (bit-identical to re-packing scaled weights) and
    /// skips the realization entirely once the factor is already applied.
    /// Batched plans apply the factor to every realization's panel (drift
    /// draws no randomness, so all realizations share the factor).
    pub scale: &'a mut Option<f32>,
    /// Sparse packed-domain realization bookkeeping: injectors whose
    /// realization touches few cells (stuck-at) record the exact touched
    /// cells here, and the refresh writes those cells straight into the
    /// packed panels instead of re-packing every dirty row.
    pub cells: &'a mut SparseCells,
}

/// The code-domain analogue of [`PlanParamView`], handed to
/// [`Layer::visit_plan_codes`] visitors.
#[derive(Debug)]
pub struct PlanCodeView<'a> {
    /// Index of this parameter in [`Layer::visit_codes`] order (the fork
    /// index of the sequential code injector).
    pub index: usize,
    /// The clean codes (never touched by planned injection).
    pub clean: &'a [i8],
    /// Bit width of the quantized representation (≤ 8).
    pub bits: u8,
    /// Leading (output) dimension of one realization's code matrix — the
    /// row count structured tile topologies map crossbar lines onto.
    pub rows: usize,
    /// The faulty code buffer the packed panels are refreshed from.
    pub faulty: &'a mut [i8],
    /// Rows the injector perturbed.
    pub dirty: &'a mut DirtyRows,
    /// Sparse packed-domain realization bookkeeping (see
    /// [`PlanParamView::cells`]): injectors recording exact fired cells let
    /// the refresh scatter them through [`QPackedB::write_cell`] instead of
    /// re-packing whole dirty rows.
    pub cells: &'a mut SparseCells,
}

/// Exact-cell realization bookkeeping for sparse packed-domain injection.
///
/// Per realization, two cell lists are tracked against the clean weight:
/// the cells where the **faulty buffer** differs (written by the sparse
/// injector) and the cells where the **live packed panel** differs
/// (maintained by [`PlannedWeight`]'s refresh). While both lists are exact,
/// a refresh reverts the panel's previous cells and scatters the new ones
/// through `PackedB::write_cell` — O(cells) instead of re-packing every
/// dirty row's full k extent. A list overflowing its capacity (a dense
/// realization) degrades to "unknown", and the refresh falls back to the
/// row-granular re-pack; exactness is re-established by the next sparse
/// realization.
#[derive(Debug)]
pub struct SparseCells {
    faulty: Vec<CellList>,
    panel: Vec<CellList>,
    pending: Vec<bool>,
    cap: usize,
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
            pending: vec![false; batch],
            cap,
        }
    }

    /// Number of realizations tracked.
    pub fn batch(&self) -> usize {
        self.pending.len()
    }

    /// Exact-cell capacity per realization.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The exact faulty-vs-clean cell list of realization `b`, when known.
    pub fn faulty_cells(&self, b: usize) -> Option<&[u32]> {
        self.faulty[b].exact.then(|| self.faulty[b].idx.as_slice())
    }

    /// Begins a fresh exact recording of realization `b`'s faulty cells
    /// (the caller has just reverted the faulty buffer to clean).
    pub fn reset_faulty(&mut self, b: usize) {
        self.faulty[b].set_empty_exact();
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
    }

    /// Marks realization `b` as written by the sparse injector since the
    /// last refresh, which is what entitles the refresh to trust the lists.
    pub fn mark_pending(&mut self, b: usize) {
        self.pending[b] = true;
    }
}

/// Cached packed f32 weight operand with per-realization bookkeeping — the
/// shared plan state of the dense layers (`Linear`, `Conv2d`).
///
/// An ordinary plan tracks one realization; a **batched** plan
/// ([`Plan::compile_batched`]) stacks `batch` of them: the faulty buffer
/// holds `batch` copies of the weight, the dirty/stale sets track
/// `batch · rows` rows, and each realization owns its own cached packed
/// panel, so B fused forward passes share one clean reference pack.
///
/// Four realization regimes are tracked per panel:
///
/// * **Sparse rows** ([`PlanParamView::dirty`]): the injector rewrote the
///   realization's faulty slice and marked the touched rows; only panels
///   covering the union of those rows and the previous realization's rows
///   are re-packed.
/// * **Sparse cells** ([`PlanParamView::cells`]): the injector recorded the
///   exact touched cells; they are written straight into the packed panel
///   (packed-domain injection, O(cells)).
/// * **Uniform scale** ([`PlanParamView::scale`]): the realization is
///   `clean · factor` (retention drift); every packed panel is scaled from
///   the clean operand directly — and skipped entirely when the factor is
///   already applied.
/// * **Clean**: nothing marked; the packed operands are already exact.
#[derive(Debug)]
pub struct PlannedWeight {
    packed_clean: PackedB,
    panels: Vec<PackedB>,
    clean: Vec<f32>,
    /// The stacked faulty weight buffer sparse realizations write
    /// (`batch × numel`).
    pub faulty: Vec<f32>,
    /// Rows the current realization batch touched (`batch · rows` rows).
    pub dirty: DirtyRows,
    /// Rows where the panels still differ from the clean operand (from the
    /// previous realization batch).
    stale: DirtyRows,
    /// Pending uniform-scale request for the next refresh.
    pub scale_req: Option<f32>,
    applied_scale: Option<f32>,
    cells: SparseCells,
    batch: usize,
    rows: usize,
    cols: usize,
    /// Wide representation: ONE packed operand over the whole stacked
    /// `[batch · rows, cols]` faulty matrix, used by frozen layers to drive
    /// a single `[N, batch · rows]` wide GEMM per forward (full microkernel
    /// width, the cached activation panel streamed once). Materialized
    /// lazily on first use — a layer consistently uses either the wide or
    /// the per-realization representation, never both.
    wide: PackedB,
    wide_clean: PackedB,
    wide_stale: DirtyRows,
    wide_applied: Option<f32>,
}

impl PlannedWeight {
    /// Packs the clean `[n, k]` (row-major, `trans_b`) weight matrix for a
    /// single-realization plan.
    pub fn pack(weight: &[f32], k: usize, n: usize) -> Self {
        Self::pack_batched(weight, k, n, 1)
    }

    /// Packs the clean `[n, k]` weight matrix once as the immutable clean
    /// reference and stages the stacked faulty buffer with `batch` clean
    /// copies. The live packed operands (per-realization panels or the wide
    /// stacked operand) are materialized lazily on first refresh.
    pub fn pack_batched(weight: &[f32], k: usize, n: usize, batch: usize) -> Self {
        let batch = batch.max(1);
        let mut packed_clean = PackedB::new();
        packed_clean.pack(true, weight, k, n);
        let mut faulty = Vec::with_capacity(batch * weight.len());
        for _ in 0..batch {
            faulty.extend_from_slice(weight);
        }
        Self {
            packed_clean,
            panels: Vec::new(),
            clean: weight.to_vec(),
            faulty,
            dirty: DirtyRows::new(batch * n),
            stale: DirtyRows::new(batch * n),
            scale_req: None,
            applied_scale: None,
            cells: SparseCells::new(batch, weight.len()),
            batch,
            rows: n,
            cols: k,
            wide: PackedB::new(),
            wide_clean: PackedB::new(),
            wide_stale: DirtyRows::new(batch * n),
            wide_applied: None,
        }
    }

    /// Number of stacked realizations.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Realization `b`'s live packed operand (call
    /// [`PlannedWeight::refresh_all`] first).
    pub fn panel(&self, b: usize) -> &PackedB {
        &self.panels[b]
    }

    /// Single-realization convenience: refreshes and returns panel 0.
    pub fn refresh(&mut self) -> &PackedB {
        self.refresh_all();
        &self.panels[0]
    }

    /// Brings the **wide stacked operand** (`[batch · rows, cols]`, one
    /// panel over every realization) up to date with the realization the
    /// injector recorded and returns it ready for the fused `[N, B·out]`
    /// GEMM. The stacked faulty buffer *is* the wide source matrix, so the
    /// dirty-row, uniform-scale and sparse-cell bookkeeping apply
    /// unchanged, with realization `b` owning rows `[b·rows, (b+1)·rows)`.
    /// Allocation-free once materialized.
    pub fn refresh_wide(&mut self) -> &PackedB {
        let nw = self.batch * self.rows;
        let numel = self.rows * self.cols;
        if self.wide_clean.n() != nw {
            // Lazy materialization (first forward of a frozen layer): pack
            // the tiled clean stack once.
            let mut tiled = Vec::with_capacity(self.batch * numel);
            for _ in 0..self.batch {
                tiled.extend_from_slice(&self.clean);
            }
            self.wide_clean.pack(true, &tiled, self.cols, nw);
            self.wide = self.wide_clean.clone();
        }
        if let Some(factor) = self.scale_req.take() {
            if self.wide_applied != Some(factor) || self.dirty.any() {
                self.wide.scale_from(&self.wide_clean, factor);
                self.wide_applied = Some(factor);
                self.dirty.clear();
                self.wide_stale.clear();
                for b in 0..self.batch {
                    self.cells.panel[b].set_unknown();
                }
            }
            self.cells.pending.fill(false);
            return &self.wide;
        }
        if self.wide_applied.take().is_some() {
            self.wide.copy_from(&self.wide_clean);
            self.wide_stale.clear();
            for b in 0..self.batch {
                self.cells.panel[b].set_empty_exact();
            }
        }
        let all_sparse = (0..self.batch).all(|b| {
            self.cells.pending[b] && self.cells.panel[b].exact && self.cells.faulty[b].exact
        });
        if all_sparse {
            // Packed-domain cell update over the stacked operand: revert
            // every realization's previous cells, scatter the new ones.
            for b in 0..self.batch {
                let row0 = b * self.rows;
                let fb = &self.faulty[b * numel..][..numel];
                for &i in &self.cells.panel[b].idx {
                    let i = i as usize;
                    self.wide
                        .write_cell(row0 + i / self.cols, i % self.cols, self.clean[i]);
                }
                for &i in &self.cells.faulty[b].idx {
                    let i = i as usize;
                    self.wide
                        .write_cell(row0 + i / self.cols, i % self.cols, fb[i]);
                }
                let SparseCells { faulty, panel, .. } = &mut self.cells;
                panel[b].idx.clone_from(&faulty[b].idx);
                panel[b].exact = true;
            }
            std::mem::swap(&mut self.wide_stale, &mut self.dirty);
            self.dirty.clear();
        } else if self.dirty.any() || self.wide_stale.any() {
            self.wide_stale.merge(&self.dirty);
            self.wide.repack_rows(&self.faulty, &self.wide_stale, 0);
            std::mem::swap(&mut self.wide_stale, &mut self.dirty);
            self.dirty.clear();
            for b in 0..self.batch {
                if self.cells.pending[b] {
                    let SparseCells { faulty, panel, .. } = &mut self.cells;
                    panel[b].idx.clone_from(&faulty[b].idx);
                    panel[b].exact = faulty[b].exact;
                } else {
                    self.cells.panel[b].set_unknown();
                    self.cells.faulty[b].set_unknown();
                }
            }
        }
        self.cells.pending.fill(false);
        &self.wide
    }

    /// Brings every per-realization packed panel up to date with the
    /// realization the injector recorded (sparse cells, dirty rows, uniform
    /// scale, or nothing), ready for the per-realization GEMMs.
    /// Allocation-free once materialized.
    pub fn refresh_all(&mut self) {
        let numel = self.rows * self.cols;
        if self.panels.is_empty() {
            // Lazy materialization (first forward): every panel starts as
            // the clean operand; the bookkeeping below applies the pending
            // realization on top.
            self.panels = vec![self.packed_clean.clone(); self.batch];
        }
        if let Some(factor) = self.scale_req.take() {
            // Uniform-scale regime: `panel = packed_clean · factor`,
            // bit-identical to packing scaled weights. Skip when the exact
            // factor is already applied and nothing else touched the panels.
            if self.applied_scale != Some(factor) || self.dirty.any() {
                for (b, panel) in self.panels.iter_mut().enumerate() {
                    panel.scale_from(&self.packed_clean, factor);
                    self.cells.panel[b].set_unknown();
                }
                self.applied_scale = Some(factor);
                self.dirty.clear();
                self.stale.clear();
            }
            self.cells.pending.fill(false);
            return;
        }
        if self.applied_scale.take().is_some() {
            // Leaving the scaled regime: restore the clean panels, then
            // apply this realization's dirty rows/cells below.
            for (b, panel) in self.panels.iter_mut().enumerate() {
                panel.copy_from(&self.packed_clean);
                self.cells.panel[b].set_empty_exact();
            }
            self.stale.clear();
        }
        for b in 0..self.batch {
            let (lo, hi) = (b * self.rows, (b + 1) * self.rows);
            let faulty_b = &self.faulty[b * numel..][..numel];
            let panel = &mut self.panels[b];
            let pending = std::mem::replace(&mut self.cells.pending[b], false);
            if pending && self.cells.panel[b].exact && self.cells.faulty[b].exact {
                // Packed-domain cell update: revert the previous
                // realization's cells to clean, scatter this realization's
                // cells — O(cells), no row re-pack. Bit-identical to a
                // re-pack of the same faulty matrix.
                for &i in &self.cells.panel[b].idx {
                    let i = i as usize;
                    panel.write_cell(i / self.cols, i % self.cols, self.clean[i]);
                }
                for &i in &self.cells.faulty[b].idx {
                    let i = i as usize;
                    panel.write_cell(i / self.cols, i % self.cols, faulty_b[i]);
                }
                // The panel now equals the faulty buffer exactly.
                let (panel_list, faulty_list) = (&mut self.cells.panel[b], &self.cells.faulty[b]);
                panel_list.idx.clone_from(&faulty_list.idx);
                panel_list.exact = true;
                self.stale.copy_range(&self.dirty, lo, hi);
                self.dirty.clear_range(lo, hi);
            } else if self.dirty.any_in(lo, hi) || self.stale.any_in(lo, hi) {
                // Row-granular re-pack of the union of this realization's
                // dirty rows and the panel's stale rows.
                self.stale.merge_range(&self.dirty, lo, hi);
                panel.repack_rows(faulty_b, &self.stale, lo);
                self.stale.copy_range(&self.dirty, lo, hi);
                self.dirty.clear_range(lo, hi);
                if pending {
                    // Sparse injector wrote the buffer (panel list was
                    // merely unknown): panel == faulty now, adopt its list.
                    // `clone_from` reuses the reserved capacity, so even
                    // this recovery transition allocates nothing.
                    let SparseCells { faulty, panel, .. } = &mut self.cells;
                    panel[b].idx.clone_from(&faulty[b].idx);
                    panel[b].exact = faulty[b].exact;
                } else {
                    // A dense realization (or a caller writing `faulty`
                    // directly) — the exact lists no longer describe it.
                    self.cells.panel[b].set_unknown();
                    self.cells.faulty[b].set_unknown();
                }
            }
        }
    }

    /// The injector-facing view of this weight's plan state.
    pub fn view<'a>(&'a mut self, index: usize, clean: &'a Tensor) -> PlanParamView<'a> {
        PlanParamView {
            index,
            clean,
            faulty: &mut self.faulty,
            dirty: &mut self.dirty,
            scale: &mut self.scale_req,
            cells: &mut self.cells,
        }
    }
}

/// Cached packed i8 code operand with per-realization bookkeeping — the
/// quantized layers' counterpart of [`PlannedWeight`], likewise stacking
/// `batch` realizations for batched plans. There is no uniform-scale regime
/// in the code domain (drift rounds per code), so three regimes are tracked:
/// sparse dirty rows, exact sparse cells and clean, with the same
/// merge → repack → swap contract per realization range. The cell regime
/// scatters through [`QPackedB::write_cell`] — per-cell writes into the
/// quad-interleaved packing are unprofitable for i.i.d. scatter, but
/// structured line defects fire whole tile lines whose exact cell lists stay
/// far below the row-granular re-pack cost.
#[derive(Debug)]
pub struct PlannedCodes {
    packed_clean: QPackedB,
    panels: Vec<QPackedB>,
    clean: Vec<i8>,
    /// The stacked faulty code buffer realizations write (`batch × numel`).
    pub faulty: Vec<i8>,
    /// Rows the current realization batch touched (`batch · rows` rows).
    pub dirty: DirtyRows,
    /// Rows where the panels still differ from the clean operand.
    stale: DirtyRows,
    cells: SparseCells,
    batch: usize,
    rows: usize,
    /// Wide representation over the whole stacked `[batch · rows, k]` code
    /// matrix (see [`PlannedWeight`]); lazily materialized for frozen
    /// layers.
    wide: QPackedB,
    wide_stale: DirtyRows,
}

impl PlannedCodes {
    /// Packs the clean `[n, k]` (row-major, `trans_b`) code matrix for a
    /// single-realization plan.
    pub fn pack(codes: &[i8], k: usize, n: usize) -> Self {
        Self::pack_batched(codes, k, n, 1)
    }

    /// Packs the clean `[n, k]` code matrix once as the clean reference and
    /// stages the stacked faulty buffer; live panels are materialized
    /// lazily.
    pub fn pack_batched(codes: &[i8], k: usize, n: usize, batch: usize) -> Self {
        let batch = batch.max(1);
        let mut packed = QPackedB::new();
        packed.pack(true, codes, k, n);
        let mut faulty = Vec::with_capacity(batch * codes.len());
        for _ in 0..batch {
            faulty.extend_from_slice(codes);
        }
        Self {
            packed_clean: packed,
            panels: Vec::new(),
            clean: codes.to_vec(),
            faulty,
            dirty: DirtyRows::new(batch * n),
            stale: DirtyRows::new(batch * n),
            cells: SparseCells::new(batch, codes.len()),
            batch,
            rows: n,
            wide: QPackedB::new(),
            wide_stale: DirtyRows::new(batch * n),
        }
    }

    /// Number of stacked realizations.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Realization `b`'s live packed operand (call
    /// [`PlannedCodes::refresh_all`] first).
    pub fn panel(&self, b: usize) -> &QPackedB {
        &self.panels[b]
    }

    /// Single-realization convenience: refreshes and returns panel 0.
    pub fn refresh(&mut self) -> &QPackedB {
        self.refresh_all();
        &self.panels[0]
    }

    /// Brings the wide stacked operand up to date and returns it ready for
    /// the fused `[N, B·out]` integer GEMM (see
    /// [`PlannedWeight::refresh_wide`]; the code domain has no
    /// uniform-scale regime).
    pub fn refresh_wide(&mut self) -> &QPackedB {
        let nw = self.batch * self.rows;
        let k = self.clean.len().checked_div(self.rows).unwrap_or(0);
        let numel = self.clean.len();
        if self.wide.n() != nw {
            let mut tiled = Vec::with_capacity(self.batch * self.clean.len());
            for _ in 0..self.batch {
                tiled.extend_from_slice(&self.clean);
            }
            self.wide.pack(true, &tiled, k, nw);
        }
        let all_sparse = (0..self.batch).all(|b| {
            self.cells.pending[b] && self.cells.panel[b].exact && self.cells.faulty[b].exact
        });
        if all_sparse {
            // Packed-domain cell update over the stacked operand (see
            // [`PlannedWeight::refresh_wide`]): revert every realization's
            // previous cells, scatter the new ones.
            for b in 0..self.batch {
                let row0 = b * self.rows;
                let fb = &self.faulty[b * numel..][..numel];
                for &i in &self.cells.panel[b].idx {
                    let i = i as usize;
                    self.wide.write_cell(row0 + i / k, i % k, self.clean[i]);
                }
                for &i in &self.cells.faulty[b].idx {
                    let i = i as usize;
                    self.wide.write_cell(row0 + i / k, i % k, fb[i]);
                }
                let SparseCells { faulty, panel, .. } = &mut self.cells;
                panel[b].idx.clone_from(&faulty[b].idx);
                panel[b].exact = true;
            }
            std::mem::swap(&mut self.wide_stale, &mut self.dirty);
            self.dirty.clear();
        } else if self.dirty.any() || self.wide_stale.any() {
            self.wide_stale.merge(&self.dirty);
            self.wide.repack_rows(&self.faulty, &self.wide_stale, 0);
            std::mem::swap(&mut self.wide_stale, &mut self.dirty);
            self.dirty.clear();
            for b in 0..self.batch {
                if self.cells.pending[b] {
                    let SparseCells { faulty, panel, .. } = &mut self.cells;
                    panel[b].idx.clone_from(&faulty[b].idx);
                    panel[b].exact = faulty[b].exact;
                } else {
                    self.cells.panel[b].set_unknown();
                    self.cells.faulty[b].set_unknown();
                }
            }
        }
        self.cells.pending.fill(false);
        &self.wide
    }

    /// Brings every live packed panel up to date with the realization the
    /// injector recorded (see [`PlannedWeight::refresh_all`]).
    pub fn refresh_all(&mut self) {
        if self.panels.is_empty() {
            self.panels = vec![self.packed_clean.clone(); self.batch];
        }
        let numel = self.faulty.len() / self.batch;
        let k = numel.checked_div(self.rows).unwrap_or(0);
        for b in 0..self.batch {
            let (lo, hi) = (b * self.rows, (b + 1) * self.rows);
            let faulty_b = &self.faulty[b * numel..][..numel];
            let panel = &mut self.panels[b];
            let pending = std::mem::replace(&mut self.cells.pending[b], false);
            if pending && self.cells.panel[b].exact && self.cells.faulty[b].exact {
                // Packed-domain cell update (see
                // [`PlannedWeight::refresh_all`]): revert the previous
                // realization's cells to clean, scatter this realization's.
                for &i in &self.cells.panel[b].idx {
                    let i = i as usize;
                    panel.write_cell(i / k, i % k, self.clean[i]);
                }
                for &i in &self.cells.faulty[b].idx {
                    let i = i as usize;
                    panel.write_cell(i / k, i % k, faulty_b[i]);
                }
                let (panel_list, faulty_list) = (&mut self.cells.panel[b], &self.cells.faulty[b]);
                panel_list.idx.clone_from(&faulty_list.idx);
                panel_list.exact = true;
                self.stale.copy_range(&self.dirty, lo, hi);
                self.dirty.clear_range(lo, hi);
            } else if self.dirty.any_in(lo, hi) || self.stale.any_in(lo, hi) {
                self.stale.merge_range(&self.dirty, lo, hi);
                panel.repack_rows(faulty_b, &self.stale, lo);
                self.stale.copy_range(&self.dirty, lo, hi);
                self.dirty.clear_range(lo, hi);
                if pending {
                    let SparseCells { faulty, panel, .. } = &mut self.cells;
                    panel[b].idx.clone_from(&faulty[b].idx);
                    panel[b].exact = faulty[b].exact;
                } else {
                    self.cells.panel[b].set_unknown();
                    self.cells.faulty[b].set_unknown();
                }
            }
        }
    }

    /// The injector-facing view of this code operand's plan state.
    pub fn view<'a>(&'a mut self, index: usize, clean: &'a [i8], bits: u8) -> PlanCodeView<'a> {
        PlanCodeView {
            index,
            clean,
            bits,
            rows: self.rows,
            faulty: &mut self.faulty,
            dirty: &mut self.dirty,
            cells: &mut self.cells,
        }
    }
}

/// A compiled inference plan for one model and one input shape.
///
/// The plan owns the arenas and the input/output edges; per-layer state
/// (cached packed panels, faulty buffers, scratch slots) lives inside the
/// layers themselves, installed by [`Layer::plan_compile`] and released by
/// [`Layer::plan_end`].
#[derive(Debug)]
pub struct Plan {
    arenas: PlanArenas,
    input: PlanShape,
    output: PlanShape,
    out_tensor: Tensor,
    gen: u64,
    batch: usize,
    /// Per-realization input dims (`input.dims` with the leading dimension
    /// divided by `batch`) — the shape [`Plan::load_input`] accepts.
    per_dims: Vec<usize>,
    lifetime: FaultLifetime,
}

impl Plan {
    /// Compiles `model` for the shape of `example` and loads `example` as
    /// the plan input.
    ///
    /// # Errors
    ///
    /// Returns an error when a layer with fault-targetable state does not
    /// implement the plan protocol ([`NnError::Unsupported`]) or a shape is
    /// inconsistent.
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
    /// — are still computed once per input), and every weighted layer owns
    /// `batch` stacked faulty buffers plus per-realization cached packed
    /// panels. One [`Plan::forward`] then evaluates every realization, with
    /// realization `b` owning rows `[b·N, (b+1)·N)` of the output's leading
    /// dimension — each bit-identical to a single-realization planned (and
    /// therefore direct) forward on its faulty weights.
    ///
    /// # Errors
    ///
    /// Returns an error when a layer with fault-targetable state does not
    /// implement the plan protocol, the example has no leading batch
    /// dimension, or a shape is inconsistent.
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
        let mut arenas = PlanArenas::new();
        arenas.batch = batch;
        let per_dims = example.dims().to_vec();
        let mut dims = per_dims.clone();
        dims[0] *= batch;
        let input = PlanShape {
            slot: arenas.f.reserve(example.numel() * batch),
            dims,
        };
        let output = model.plan_compile(&input, &mut arenas)?;
        arenas.seal();
        let out_tensor = Tensor::zeros(&output.dims);
        let mut plan = Self {
            arenas,
            input,
            output,
            out_tensor,
            gen: 0,
            batch,
            per_dims,
            lifetime: FaultLifetime::Static,
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
        for b in 0..self.batch {
            slot[b * per..(b + 1) * per].copy_from_slice(input.data());
        }
        self.gen += 1;
        Ok(())
    }

    /// Fault realizations fused per forward pass (1 for ordinary plans).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Declares the fault lifetime subsequent forwards run under (see
    /// [`FaultLifetime`]). Under [`FaultLifetime::PerInference`] the plan
    /// stops asserting the frozen-input property, so input-derived caches
    /// (packed activation panels, the fused wide-GEMM path) are bypassed and
    /// every pass consumes the freshly realized operands; setting
    /// [`FaultLifetime::Static`] back restores the caching.
    pub fn set_fault_lifetime(&mut self, lifetime: FaultLifetime) {
        self.lifetime = lifetime;
    }

    /// The fault lifetime this plan currently models.
    pub fn fault_lifetime(&self) -> FaultLifetime {
        self.lifetime
    }

    /// Runs one planned forward pass over the loaded input, consuming each
    /// layer's faulty weight buffers (re-packing dirty panels on the way),
    /// and returns the output. Steady-state calls perform zero heap
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
            // A per-inference fault lifetime voids the frozen-input
            // property: caches keyed on a run-invariant input edge must not
            // serve this pass.
            frozen: self.lifetime == FaultLifetime::Static,
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

    /// Total f32/i8/i32 elements reserved across the arenas (diagnostics).
    pub fn arena_elements(&self) -> (usize, usize, usize) {
        (
            self.arenas.f.reserved(),
            self.arenas.q.reserved(),
            self.arenas.acc.reserved(),
        )
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
    layer.visit_params(&mut |p| targetable |= p.value.rank() >= 2);
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
    use crate::linear::Linear;
    use crate::lstm::Lstm;
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
        net.visit_plan_params(&mut |view| {
            assert_eq!(view.index, 0);
            for v in &mut view.faulty[2 * 5..3 * 5] {
                *v += 1.0;
            }
            view.dirty.mark(2);
        });
        let faulty_out = plan.forward(&mut net).unwrap().clone();
        assert!(!faulty_out.approx_eq(&clean, 1e-6));
        // Next realization: nothing perturbed → the faulty buffer must be
        // reset by the caller (the injector's contract); simulate it.
        net.visit_plan_params(&mut |view| {
            view.faulty.copy_from_slice(view.clean.data());
            view.dirty.mark(2); // row reverted → caller marks it again
        });
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
        let mut net = Sequential::new().with(Box::new(Lstm::new(4, 6, false, &mut rng)));
        let x = Tensor::randn(&[2, 5, 4], 0.0, 1.0, &mut rng);
        let err = Plan::compile(&mut net, &x).unwrap_err();
        assert!(
            matches!(
                err,
                NnError::Unsupported {
                    op: "compiled plans",
                    ..
                }
            ),
            "unexpected error: {err}"
        );
        assert!(err.to_string().contains("compiled plans"));
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
        net.visit_plan_params(&mut |view| {
            if view.index == 0 {
                let numel = view.clean.numel();
                for v in &mut view.faulty[numel..][..5] {
                    *v += 1.0;
                }
                view.dirty.mark(7); // realization 1, row 0 (7 rows each)
            }
        });
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
