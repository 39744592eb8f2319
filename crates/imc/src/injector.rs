//! Fault injection into networks.
//!
//! Two injection points are provided, matching the paper's protocol:
//!
//! * [`WeightFaultInjector`] perturbs the learnable weights of a network (the
//!   injection point for 8-bit models). It snapshots the clean weights so
//!   they can be restored between Monte-Carlo runs.
//! * [`ActivationNoise`] is a pass-through layer placed on the weighted sum
//!   (pre-activation) path. For binary networks the paper injects variation
//!   into the *normalized activations before the sign function*, because a
//!   binary weight has no analog magnitude to perturb; model builders insert
//!   this layer at that point and experiments turn it on through the shared
//!   [`NoiseHandle`].

use crate::crossbar::TileShape;
use crate::fault::{
    flip_code_bits, for_each_drift_tile, for_each_fired_line, stuck_levels, FaultModel,
    LineOrientation,
};
use crate::Result;
use invnorm_nn::layer::{Layer, Mode, Param};
use invnorm_nn::plan::{
    Plan, PlanArenas, PlanCtx, PlanShape, PlanView, PlannedOperand, SparseCells,
};
use invnorm_nn::NnError;
use invnorm_tensor::gemm::Element;
use invnorm_tensor::telemetry;
use invnorm_tensor::vecmath::{self, NormalVariation};
use invnorm_tensor::{DirtyRows, Rng, Tensor};
use std::sync::{Arc, RwLock};

/// Minimum total targeted elements before per-parameter perturbation fans
/// out over rayon tasks; below this the spawn overhead dominates.
const PARALLEL_INJECT_THRESHOLD: usize = 1 << 16;

/// Minimum elements a single parameter needs before it gets its own rayon
/// task inside the parallel branch; smaller tensors are perturbed inline so
/// a network of many small parameters doesn't pay one spawn each.
const PARALLEL_INJECT_MIN_PARAM: usize = 1 << 14;

/// Applies a [`FaultModel`] to every learnable weight of a network.
///
/// Only parameters of rank ≥ 2 (convolution kernels, linear/recurrent weight
/// matrices) are perturbed by default — biases and normalization affine
/// parameters are computed digitally outside the crossbar in the paper's
/// architecture. Use [`WeightFaultInjector::including_vectors`] to also
/// perturb rank-1 parameters.
#[derive(Debug)]
pub struct WeightFaultInjector {
    model: FaultModel,
    include_vectors: bool,
    snapshot: Option<Vec<Tensor>>,
}

impl WeightFaultInjector {
    /// Creates an injector for the given fault model, validating it up
    /// front.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Config`] when the model's parameters are invalid
    /// (see [`FaultModel::validate`]): NaN or negative magnitudes, rates
    /// outside `[0, 1]`, non-finite drift parameters, or a zero-extent tile.
    /// Rejecting bad models at construction keeps every sweep loud at its
    /// source instead of deep inside a Monte-Carlo loop.
    pub fn new(model: FaultModel) -> Result<Self> {
        model.validate()?;
        Ok(Self::new_unchecked(model))
    }

    /// Constructs without re-validating — for engine inner loops whose entry
    /// point already validated the model.
    pub(crate) fn new_unchecked(model: FaultModel) -> Self {
        Self {
            model,
            include_vectors: false,
            snapshot: None,
        }
    }

    /// Also perturb rank-1 parameters (biases, affine vectors).
    #[must_use]
    pub fn including_vectors(mut self) -> Self {
        self.include_vectors = true;
        self
    }

    /// The configured fault model.
    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    /// Replaces the fault model (e.g. for the next sweep point) — only
    /// allowed while no faulty weights are outstanding.
    ///
    /// # Errors
    ///
    /// Returns an error if called between `inject` and `restore`, or when
    /// the new model fails [`FaultModel::validate`]; on error the configured
    /// model is unchanged.
    pub fn set_model(&mut self, model: FaultModel) -> Result<()> {
        if self.snapshot.is_some() {
            return Err(NnError::Config(
                "cannot change fault model while faults are injected; call restore() first".into(),
            ));
        }
        model.validate()?;
        self.model = model;
        Ok(())
    }

    fn targets(&self, p: &Param) -> bool {
        p.is_fault_target() || self.include_vectors
    }

    /// Perturbs the network weights in place, remembering the clean values.
    ///
    /// Every targeted parameter draws from its **own RNG stream**, forked
    /// from `rng` in `visit_params` order. That makes the realization a pure
    /// function of the caller's seed and the parameter index, so large
    /// parameters can be perturbed **in parallel** (rayon) without changing
    /// any value — the realization is bit-identical for every thread count,
    /// which is what keeps the parallel Monte-Carlo engine exactly equal to
    /// the sequential engine.
    ///
    /// # Errors
    ///
    /// Returns an error when the fault model is invalid or faults are already
    /// injected (call [`WeightFaultInjector::restore`] first); on error the
    /// network is left untouched.
    pub fn inject<L: Layer + ?Sized>(&mut self, network: &mut L, rng: &mut Rng) -> Result<()> {
        let _span = telemetry::span(telemetry::Phase::Inject);
        if self.snapshot.is_some() {
            return Err(NnError::Config(
                "faults already injected; call restore() before injecting again".into(),
            ));
        }
        self.model.validate()?;
        let include_vectors = self.include_vectors;
        let mut snapshot: Vec<Tensor> = Vec::new();
        let mut targeted: Vec<bool> = Vec::new();
        network.visit_params(&mut |p| {
            targeted.push(p.is_fault_target() || include_vectors);
            snapshot.push(p.value.clone());
        });
        // One independent child stream per targeted parameter, forked in a
        // fixed order so the realization is schedule-independent.
        let mut streams: Vec<Option<Rng>> = targeted
            .iter()
            .enumerate()
            .map(|(idx, &t)| t.then(|| rng.fork(idx as u64)))
            .collect();
        let mut perturbed: Vec<Option<Result<Tensor>>> =
            (0..snapshot.len()).map(|_| None).collect();
        let model = self.model;
        let work: usize = snapshot
            .iter()
            .zip(&targeted)
            .filter(|(_, &t)| t)
            .map(|(v, _)| v.numel())
            .sum();
        if rayon::current_num_threads() > 1 && work >= PARALLEL_INJECT_THRESHOLD {
            rayon::scope(|s| {
                for ((slot, clean), stream) in
                    perturbed.iter_mut().zip(&snapshot).zip(streams.iter_mut())
                {
                    if let Some(stream) = stream.as_mut() {
                        // Only parameters with enough elements to amortize a
                        // task spawn go to a worker; the long tail of small
                        // tensors (biases, norm affines, tiny layers) is
                        // perturbed inline. Streams are pre-forked, so the
                        // split cannot change any value.
                        if clean.numel() >= PARALLEL_INJECT_MIN_PARAM {
                            s.spawn(move || {
                                *slot = Some(model.perturb(clean, stream));
                            });
                        } else {
                            *slot = Some(model.perturb(clean, stream));
                        }
                    }
                }
            });
        } else {
            for ((slot, clean), stream) in
                perturbed.iter_mut().zip(&snapshot).zip(streams.iter_mut())
            {
                if let Some(stream) = stream.as_mut() {
                    *slot = Some(model.perturb(clean, stream));
                }
            }
        }
        // Fail atomically: assign only after every perturbation succeeded.
        let mut values = Vec::with_capacity(perturbed.len());
        for result in perturbed {
            values.push(result.transpose()?);
        }
        let mut idx = 0usize;
        network.visit_params(&mut |p| {
            if let Some(slot) = values.get_mut(idx) {
                if let Some(value) = slot.take() {
                    p.value = value;
                }
            }
            idx += 1;
        });
        self.snapshot = Some(snapshot);
        Ok(())
    }

    /// Restores the clean weights captured by the last
    /// [`WeightFaultInjector::inject`].
    ///
    /// # Errors
    ///
    /// Returns an error when no snapshot is available or the network's
    /// parameter count changed in between.
    pub fn restore<L: Layer + ?Sized>(&mut self, network: &mut L) -> Result<()> {
        let _span = telemetry::span(telemetry::Phase::Inject);
        let snapshot = self
            .snapshot
            .take()
            .ok_or_else(|| NnError::Config("restore() called without a prior inject()".into()))?;
        let expected = snapshot.len();
        let mut clean = snapshot.into_iter();
        let mut visited = 0usize;
        network.visit_params(&mut |p| {
            if let Some(value) = clean.next() {
                p.value = value;
            }
            visited += 1;
        });
        if visited != expected {
            return Err(NnError::Config(
                "parameter count changed between inject() and restore()".into(),
            ));
        }
        Ok(())
    }

    /// Whether faulty weights are currently outstanding.
    pub fn is_injected(&self) -> bool {
        self.snapshot.is_some()
    }

    /// Returns `true` if this injector would perturb the given parameter.
    pub fn would_target(&self, p: &Param) -> bool {
        self.targets(p)
    }

    /// Materializes one fault realization **per entry of `rngs`** into the
    /// plan's stacked f32 weight operands ([`Plan::weights_mut`]), leaving
    /// the clean parameters untouched, and **reports the touched rows or
    /// cells** of every realization so only dirty panels are refreshed —
    /// the planned engine's counterpart of [`WeightFaultInjector::inject`] +
    /// restore.
    ///
    /// Realization `b` of parameter `i` draws from the stream
    /// `rngs[b].fork(i)`, `i` being the parameter's `visit_params` position
    /// the plan fixed at compile — exactly the stream the sequential
    /// injector forks on chip instance `b` — so every stacked realization is
    /// **bit-identical** to what
    /// [`MonteCarloEngine::run`](crate::MonteCarloEngine::run) would have
    /// programmed.
    ///
    /// The two Gaussian variation models draw keyed straight into the
    /// plan's packed panels ([`PlanView::draw_packed`]) for every operand
    /// whose reduction depth `k` is even, so neither a faulty buffer nor a
    /// re-pack is written; an odd-`k` operand (a 3-channel conv stem) draws
    /// into its faulty slice instead. The other dense models (noise, f32
    /// bit flips, which rewrite every element) mark every row dirty; the
    /// sparse stuck-at and line-defect models mark only rows whose values
    /// actually changed and hand their exact cells to the plan, and
    /// retention drift requests the uniform-scale fast path — which is what
    /// removes the per-run weight-pack cost.
    ///
    /// # Errors
    ///
    /// Returns an error when the fault model is invalid, the injector was
    /// configured with [`WeightFaultInjector::including_vectors`] (plans
    /// target the default rank ≥ 2 parameter set only), or `rngs` does not
    /// hold exactly one stream per stacked realization.
    pub fn realize_plan_batch(&self, plan: &mut Plan, rngs: &mut [Rng]) -> Result<()> {
        if self.include_vectors {
            return Err(NnError::Config(
                "compiled plans support the default (rank >= 2) fault targets only".into(),
            ));
        }
        let model = self.model;
        let stuck = matches!(
            model,
            FaultModel::StuckAt { .. } | FaultModel::LineDefect { .. }
        );
        realize_plan(
            model,
            plan.batch(),
            plan.weights_mut(),
            rngs,
            // The stuck levels and the keyed variation (its additive scale
            // folds max|w|) depend only on the clean weights: derived once
            // per parameter, not once per realization.
            |view, _| OperandFaults {
                levels: stuck.then(|| stuck_levels(view.clean)),
                variation: model.keyed_variation(view.clean),
            },
            |view, faults, b, stream| realize_one_f32(view, model, b, faults, stream),
        )
    }
}

/// What [`WeightFaultInjector::realize_plan_batch`] derives from one
/// operand's clean weights before realizing it.
struct OperandFaults {
    /// The stuck-at and line-defect levels.
    levels: Option<(f32, f32)>,
    /// The keyed Gaussian variation.
    variation: Option<NormalVariation>,
}

/// The planned realization loop of both fault domains: validates the
/// model and the stream count, then per operand takes the drift fast path
/// (one uniform-scale request for every stacked realization) or hands
/// realization `b`'s stream `rngs[b].fork(index)` to the domain's `step`,
/// with what `per_operand` derived once. Both paths fork every stream
/// exactly as the sequential injector does.
// lint: no_alloc
fn realize_plan<T: Element, C>(
    model: FaultModel,
    batch: usize,
    operands: &mut [PlannedOperand<T>],
    rngs: &mut [Rng],
    per_operand: impl Fn(&PlanView<'_, T>, u8) -> C,
    step: impl Fn(&mut PlanView<'_, T>, &C, usize, &mut Rng) -> Result<()>,
) -> Result<()> {
    let _span = telemetry::span(telemetry::Phase::Inject);
    model.validate()?;
    if rngs.len() != batch {
        return Err(stream_count_mismatch(rngs.len(), batch));
    }
    let scale = model.uniform_scale();
    for operand in operands {
        let bits = operand.bits();
        let mut view = operand.view();
        // The request stands until the next realization replaces it.
        *view.scale = scale;
        if scale.is_some() {
            for parent in rngs.iter_mut() {
                let _ = parent.fork(view.index as u64);
            }
            continue;
        }
        let ctx = per_operand(&view, bits);
        for (b, parent) in rngs.iter_mut().enumerate() {
            let mut stream = parent.fork(view.index as u64);
            step(&mut view, &ctx, b, &mut stream)?;
        }
    }
    Ok(())
}

// lint: alloc_ok(error path)
#[cold]
#[inline(never)]
fn stream_count_mismatch(streams: usize, batch: usize) -> NnError {
    NnError::Config(format!(
        "realize_plan_batch got {streams} RNG streams for a plan stacking {batch} realizations"
    ))
}

/// Materializes realization `b` of one weight operand, with
/// per-realization dirty-row reporting.
///
/// Stuck-at and line defects take the **sparse packed-domain path**: the
/// previous realization's cells are reverted through the exact cell list
/// (falling back to a full clean copy when unknown), fired cells are written
/// individually, and the list is handed to the plan so the refresh scatters
/// the cells straight into the packed panels. Line defects route through the
/// same canonical tile iteration as the dense perturbation
/// ([`for_each_fired_line`]), so both draw exactly the random variates of
/// the sequential injector, in the same order. The Gaussian variations take
/// the one key [`FaultModel::perturb_into`] would and draw into the packed
/// panel (even `k`) or the faulty slice (odd `k`). Every other model
/// realizes densely via [`FaultModel::perturb_into`].
fn realize_one_f32(
    view: &mut PlanView<'_, f32>,
    model: FaultModel,
    b: usize,
    faults: &OperandFaults,
    stream: &mut Rng,
) -> Result<()> {
    let (rows, numel) = (view.rows, view.clean.len());
    let sparse = rows > 0 && numel > 0;
    let levels = faults.levels;
    match model {
        FaultModel::StuckAt { rate } if rate > 0.0 && sparse => {
            let (lo, hi) = levels.unwrap_or_else(|| stuck_levels(view.clean));
            let cols = numel / rows;
            let faulty_b = revert_cells(view.faulty, view.clean, view.cells, b);
            for (idx, cell) in faulty_b.iter_mut().enumerate() {
                if stream.bernoulli(rate) {
                    *cell = if stream.bernoulli(0.5) { lo } else { hi };
                    view.dirty.mark(b * rows + idx / cols);
                    view.cells.push_faulty(b, idx);
                }
            }
            view.cells.mark_pending(b);
        }
        FaultModel::LineDefect {
            orientation,
            rate,
            tile,
        } if rate > 0.0 && sparse => {
            let levels = levels.unwrap_or_else(|| stuck_levels(view.clean));
            realize_lines(view, b, orientation, rate, tile, levels, stream);
        }
        // Everything else realizes densely. An inactive model (rate 0.0
        // included) copies the clean weights, leaving nothing to re-pack;
        // an active one rewrites every element, so every row is dirty.
        _ => {
            let cols = numel.checked_div(rows).unwrap_or(0);
            let faulty_b = &mut view.faulty[b * numel..][..numel];
            match faults.variation {
                Some(variation) if sparse && cols % 2 == 0 => {
                    view.draw_packed(b, variation, stream.next_u64());
                    return Ok(());
                }
                Some(variation) => variation.apply(view.clean, faulty_b, stream.next_u64(), 0),
                None => model.perturb_into(view.clean, (rows, cols), faulty_b, stream)?,
            }
            view.cells.invalidate_faulty(b);
            if model.is_active() && numel > 0 {
                view.dirty.mark_range(b * rows, (b + 1) * rows);
            }
        }
    }
    Ok(())
}

/// Reverts realization `b`'s previously fired cells to clean (exactly when
/// the cell list is known, by a full clean copy otherwise), begins a fresh
/// exact recording, and returns realization `b`'s faulty slice.
fn revert_cells<'f, T: Copy>(
    faulty: &'f mut [T],
    clean: &[T],
    cells: &mut SparseCells,
    b: usize,
) -> &'f mut [T] {
    let faulty_b = &mut faulty[b * clean.len()..][..clean.len()];
    match cells.faulty_cells(b) {
        Some(fired) => {
            for &i in fired {
                faulty_b[i as usize] = clean[i as usize];
            }
        }
        None => faulty_b.copy_from_slice(clean),
    }
    cells.reset_faulty(b);
    faulty_b
}

/// The sparse line-defect realization of both domains: reverts realization
/// `b`'s previous cells, sticks every line the canonical
/// [`for_each_fired_line`] iteration fires at `lo` (on `pick_lo`) or `hi`,
/// and records the fired rows and exact cells for the plan's packed-domain
/// scatter.
fn realize_lines<T: Copy>(
    view: &mut PlanView<'_, T>,
    b: usize,
    orientation: LineOrientation,
    rate: f32,
    tile: TileShape,
    (lo, hi): (T, T),
    stream: &mut Rng,
) {
    let (rows, cols) = (view.rows, view.clean.len() / view.rows);
    let base = b * rows;
    let faulty_b = revert_cells(view.faulty, view.clean, view.cells, b);
    let (dirty, cells) = (&mut *view.dirty, &mut *view.cells);
    for_each_fired_line(
        rows,
        cols,
        orientation,
        rate,
        tile,
        stream,
        |rr, cc, pick_lo| {
            let level = if pick_lo { lo } else { hi };
            for r in rr {
                dirty.mark(base + r);
                for c in cc.clone() {
                    let idx = r * cols + c;
                    faulty_b[idx] = level;
                    cells.push_faulty(b, idx);
                }
            }
        },
    );
    cells.mark_pending(b);
}

/// Marks every row of `[rows, cols]` code buffers where any code differs,
/// into `[base, base + rows)` of the dirty set.
fn diff_rows(clean: &[i8], faulty: &[i8], dirty: &mut DirtyRows, base: usize, rows: usize) {
    let cols = clean.len().checked_div(rows).unwrap_or(0);
    for row in 0..rows {
        if clean[row * cols..][..cols] != faulty[row * cols..][..cols] {
            dirty.mark(base + row);
        }
    }
}

/// Applies a [`FaultModel`] **directly to the i8 quantization codes** of a
/// network's quantized layers (via [`Layer::visit_codes`]), instead of
/// emulating code-domain faults with a quantize → perturb → dequantize round
/// trip on f32 weights.
///
/// This is the injection point for integer-inference networks built from
/// `invnorm_nn::quantized` layers: the fault realization lands on exactly
/// the integers a host would program into the crossbar, and the subsequent
/// forward pass stays in the integer domain. Fault magnitudes are
/// interpreted in code units relative to the layer's `qmax` (e.g.
/// `AdditiveVariation { sigma }` adds `N(0, σ·qmax)` rounded to the nearest
/// code), mirroring how the f32 models scale noise by each tensor's maximum
/// magnitude.
///
/// Like [`WeightFaultInjector`], the clean codes are snapshotted on inject
/// and restored afterwards, and every quantized parameter draws from its own
/// RNG stream forked in visit order, so a realization is a pure function of
/// the caller's seed.
#[derive(Debug)]
pub struct CodeFaultInjector {
    model: FaultModel,
    snapshot: Option<Vec<Vec<i8>>>,
}

impl CodeFaultInjector {
    /// Creates an injector for the given fault model, validating it up
    /// front (see [`WeightFaultInjector::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Config`] when the model fails
    /// [`FaultModel::validate`].
    pub fn new(model: FaultModel) -> Result<Self> {
        model.validate()?;
        Ok(Self::new_unchecked(model))
    }

    /// Constructs without re-validating — for engine inner loops whose entry
    /// point already validated the model.
    pub(crate) fn new_unchecked(model: FaultModel) -> Self {
        Self {
            model,
            snapshot: None,
        }
    }

    /// The configured fault model.
    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    /// Replaces the fault model — only allowed while no faulty codes are
    /// outstanding.
    ///
    /// # Errors
    ///
    /// Returns an error if called between `inject` and `restore`, or when
    /// the new model fails [`FaultModel::validate`]; on error the configured
    /// model is unchanged.
    pub fn set_model(&mut self, model: FaultModel) -> Result<()> {
        if self.snapshot.is_some() {
            return Err(NnError::Config(
                "cannot change fault model while faults are injected; call restore() first".into(),
            ));
        }
        model.validate()?;
        self.model = model;
        Ok(())
    }

    /// Perturbs every quantized layer's codes in place, remembering the
    /// clean values. Layers without codes (float layers) are untouched.
    ///
    /// # Errors
    ///
    /// Returns an error when the fault model is invalid or faults are
    /// already injected; on error the network is left untouched.
    pub fn inject<L: Layer + ?Sized>(&mut self, network: &mut L, rng: &mut Rng) -> Result<()> {
        let _span = telemetry::span(telemetry::Phase::Inject);
        if self.snapshot.is_some() {
            return Err(NnError::Config(
                "faults already injected; call restore() before injecting again".into(),
            ));
        }
        self.model.validate()?;
        let model = self.model;
        let mut snapshot: Vec<Vec<i8>> = Vec::new();
        // One independent child stream per quantized parameter, forked in
        // visit order, so the realization is schedule-independent.
        network.visit_codes(&mut |view| {
            snapshot.push(view.codes.to_vec());
            let mut stream = rng.fork(snapshot.len() as u64 - 1);
            perturb_codes(view.codes, view.bits, view.rows, model, &mut stream);
        });
        self.snapshot = Some(snapshot);
        Ok(())
    }

    /// Restores the clean codes captured by the last
    /// [`CodeFaultInjector::inject`].
    ///
    /// # Errors
    ///
    /// Returns an error when no snapshot is available or the network's
    /// quantized-parameter count changed in between.
    pub fn restore<L: Layer + ?Sized>(&mut self, network: &mut L) -> Result<()> {
        let _span = telemetry::span(telemetry::Phase::Inject);
        let snapshot = self
            .snapshot
            .take()
            .ok_or_else(|| NnError::Config("restore() called without a prior inject()".into()))?;
        let mut idx = 0usize;
        let mut mismatch = false;
        network.visit_codes(&mut |view| {
            match snapshot.get(idx) {
                Some(clean) if clean.len() == view.codes.len() => {
                    view.codes.copy_from_slice(clean);
                }
                _ => mismatch = true,
            }
            idx += 1;
        });
        if mismatch || idx != snapshot.len() {
            return Err(NnError::Config(
                "quantized parameters changed between inject() and restore()".into(),
            ));
        }
        Ok(())
    }

    /// Whether faulty codes are currently outstanding.
    pub fn is_injected(&self) -> bool {
        self.snapshot.is_some()
    }

    /// Materializes one code-domain fault realization **per entry of
    /// `rngs`** into the plan's stacked code operands ([`Plan::codes_mut`]),
    /// reporting per-realization dirty rows — the code-domain counterpart
    /// of [`WeightFaultInjector::realize_plan_batch`], with the same
    /// bit-identity guarantee against [`CodeFaultInjector::inject`]:
    /// realization `b` of quantized parameter `i` uses the stream
    /// `rngs[b].fork(i)` in `visit_codes` order.
    ///
    /// Dense models are diffed against the clean codes (rounding often
    /// leaves codes unchanged), so only changed rows are re-packed; line
    /// defects hand their exact cells to the plan; retention drift takes the
    /// uniform-scale fast path, `round(c · factor)` per packed code
    /// ([`PackedB::scale_from`]) — with `factor ≤ 1`, exactly the
    /// sequential drift arm, whose clamp never binds.
    ///
    /// # Errors
    ///
    /// Returns an error when the fault model is invalid or `rngs` does not
    /// hold exactly one stream per stacked realization.
    ///
    /// [`PackedB::scale_from`]: invnorm_tensor::gemm::PackedB::scale_from
    pub fn realize_plan_batch(&self, plan: &mut Plan, rngs: &mut [Rng]) -> Result<()> {
        let model = self.model;
        realize_plan(
            model,
            plan.batch(),
            plan.codes_mut(),
            rngs,
            |_, bits| bits,
            |view, &bits, b, stream| {
                realize_one_codes(view, model, b, bits, stream);
                Ok(())
            },
        )
    }
}

/// Materializes realization `b` of one quantized parameter's codes into its
/// slice of the plan-owned faulty buffer — the code-domain counterpart of
/// [`realize_one_f32`]. Line defects take the sparse packed-domain path
/// ([`realize_lines`], scattered through [`PackedB::write_cell`]); every
/// other model realizes densely through [`perturb_codes`] and is diffed row
/// by row. Both routes draw exactly the variates of
/// [`CodeFaultInjector::inject`], in the same order.
///
/// [`PackedB::write_cell`]: invnorm_tensor::gemm::PackedB::write_cell
fn realize_one_codes(
    view: &mut PlanView<'_, i8>,
    model: FaultModel,
    b: usize,
    bits: u8,
    stream: &mut Rng,
) {
    let (rows, numel) = (view.rows, view.clean.len());
    match model {
        FaultModel::LineDefect {
            orientation,
            rate,
            tile,
        } if rate > 0.0 && rows > 0 && numel > 0 => {
            // Same stuck-level convention as the dense code arm: a failed
            // line saturates at ±qmax, low on `pick_lo`.
            let qmax = (((1i32 << (bits - 1)) - 1).min(127)) as i8;
            realize_lines(view, b, orientation, rate, tile, (-qmax, qmax), stream);
        }
        _ => {
            let faulty_b = &mut view.faulty[b * numel..][..numel];
            faulty_b.copy_from_slice(view.clean);
            perturb_codes(faulty_b, bits, rows, model, stream);
            view.cells.invalidate_faulty(b);
            diff_rows(view.clean, faulty_b, view.dirty, b * rows, rows);
        }
    }
}

/// Codes widened to f32 per keyed-kernel call in [`map_codes_keyed`]; even,
/// so every chunk starts on a pair boundary of the keyed stream.
const CODE_CHUNK: usize = 256;

/// Runs a keyed-normal `kernel` ([`vecmath::add_normal`] or
/// [`vecmath::scale_normal`]) with magnitude `std` over a code slice: each
/// chunk is widened to f32 on the stack, perturbed from its first pair
/// index on, rounded to the nearest code and clamped. Code `i` thus draws
/// output `i mod 2` of [`vecmath::normal_pair`]`(key, i/2)`, exactly as
/// weight `i` does in [`FaultModel::perturb_into`].
fn map_codes_keyed(
    codes: &mut [i8],
    kernel: fn(&[f32], &mut [f32], f32, u64, u64),
    std: f32,
    key: u64,
    clamp: impl Fn(i32) -> i8,
) {
    let (mut src, mut dst) = ([0.0f32; CODE_CHUNK], [0.0f32; CODE_CHUNK]);
    for (chunk, codes) in codes.chunks_mut(CODE_CHUNK).enumerate() {
        let (n, pair0) = (codes.len(), (chunk * CODE_CHUNK / 2) as u64);
        for (s, &c) in src.iter_mut().zip(codes.iter()) {
            *s = f32::from(c);
        }
        kernel(&src[..n], &mut dst[..n], std, key, pair0);
        for (c, &v) in codes.iter_mut().zip(&dst) {
            *c = clamp(v.round() as i32);
        }
    }
}

/// Applies a fault model to one slice of `bits`-bit codes, in place.
/// Infallible for validated models; [`FaultModel::BitFlip`]'s `bits` field is
/// ignored in favour of the layer's actual width. `rows` is the leading
/// (output) dimension of the code matrix — the axis the structured tile
/// topologies map crossbar lines onto; element-i.i.d. models ignore it. The
/// two Gaussian variation arms take one `u64` key from `rng` and draw
/// keyed, like the f32 arms of [`FaultModel::perturb_into`]; the rest draw
/// from `rng` itself.
fn perturb_codes(codes: &mut [i8], bits: u8, rows: usize, model: FaultModel, rng: &mut Rng) {
    let qmax = ((1i32 << (bits - 1)) - 1).min(127);
    let clamp = |v: i32| v.clamp(-qmax, qmax) as i8;
    let cols = codes.len().checked_div(rows).unwrap_or(0);
    match model {
        FaultModel::None => {}
        FaultModel::AdditiveVariation { sigma } => {
            if sigma > 0.0 {
                let std = sigma * qmax as f32;
                map_codes_keyed(codes, vecmath::add_normal, std, rng.next_u64(), clamp);
            }
        }
        FaultModel::MultiplicativeVariation { sigma } => {
            if sigma > 0.0 {
                map_codes_keyed(codes, vecmath::scale_normal, sigma, rng.next_u64(), clamp);
            }
        }
        FaultModel::UniformNoise { strength } => {
            if strength > 0.0 {
                let span = strength * qmax as f32;
                for c in codes {
                    let delta = rng.uniform_range(-span, span).round() as i32;
                    *c = clamp(i32::from(*c) + delta);
                }
            }
        }
        FaultModel::BitFlip { rate, .. } => {
            if rate > 0.0 {
                for c in codes {
                    *c = clamp(flip_code_bits(i32::from(*c), bits, rate, rng));
                }
            }
        }
        FaultModel::BinaryBitFlip { rate } => {
            if rate > 0.0 {
                for c in codes {
                    if rng.bernoulli(rate) {
                        *c = clamp(-i32::from(*c));
                    }
                }
            }
        }
        FaultModel::StuckAt { rate } => {
            if rate > 0.0 {
                for c in codes {
                    if rng.bernoulli(rate) {
                        *c = if rng.bernoulli(0.5) {
                            clamp(-qmax)
                        } else {
                            clamp(qmax)
                        };
                    }
                }
            }
        }
        FaultModel::Drift { nu, time_ratio } => {
            let factor = time_ratio.powf(-nu);
            for c in codes {
                *c = clamp((f32::from(*c) * factor).round() as i32);
            }
        }
        FaultModel::LineDefect {
            orientation,
            rate,
            tile,
        } => {
            if rate > 0.0 {
                for_each_fired_line(
                    rows,
                    cols,
                    orientation,
                    rate,
                    tile,
                    rng,
                    |rr, cc, pick_lo| {
                        // A failed line saturates at the code extremes, matching
                        // the element-i.i.d. stuck-at convention above.
                        let level = if pick_lo { clamp(-qmax) } else { clamp(qmax) };
                        for r in rr {
                            for c in cc.clone() {
                                codes[r * cols + c] = level;
                            }
                        }
                    },
                );
            }
        }
        FaultModel::CorrelatedDrift {
            nu,
            time_ratio,
            sigma_nu,
            tile,
        } => {
            for_each_drift_tile(
                rows,
                cols,
                nu,
                time_ratio,
                sigma_nu,
                tile,
                rng,
                |rr, cc, factor| {
                    for r in rr {
                        for c in cc.clone() {
                            let v = &mut codes[r * cols + c];
                            *v = clamp((f32::from(*v) * factor).round() as i32);
                        }
                    }
                },
            );
        }
    }
}

/// Shared, experiment-settable handle controlling every [`ActivationNoise`]
/// layer created from it.
#[derive(Debug, Clone, Default)]
pub struct NoiseHandle {
    inner: Arc<RwLock<FaultModel>>,
}

impl NoiseHandle {
    /// Creates a handle with no active noise.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(RwLock::new(FaultModel::None)),
        }
    }

    /// Sets the fault model applied by every attached layer.
    pub fn set(&self, model: FaultModel) {
        *self.inner.write().expect("noise handle lock poisoned") = model;
    }

    /// Clears the noise (equivalent to `set(FaultModel::None)`).
    pub fn clear(&self) {
        self.set(FaultModel::None);
    }

    /// The currently configured model.
    pub fn current(&self) -> FaultModel {
        *self.inner.read().expect("noise handle lock poisoned")
    }
}

/// A pass-through layer that perturbs its input with the fault model
/// currently configured on its [`NoiseHandle`].
///
/// The backward pass treats the perturbation as additive noise independent of
/// the input (straight-through), which is sufficient because fault injection
/// only happens at inference time.
#[derive(Debug)]
pub struct ActivationNoise {
    handle: NoiseHandle,
    rng: Rng,
}

impl ActivationNoise {
    /// Creates a noise layer attached to `handle`.
    pub fn new(handle: NoiseHandle, seed: u64) -> Self {
        Self {
            handle,
            rng: Rng::seed_from(seed),
        }
    }
}

impl Layer for ActivationNoise {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
        let model = self.handle.current();
        if !model.is_active() {
            return Ok(input.clone());
        }
        model.perturb(input, &mut self.rng)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        Ok(grad_output.clone())
    }

    fn plan_compile(&mut self, input: &PlanShape, arenas: &mut PlanArenas) -> Result<PlanShape> {
        Ok(arenas.reserve_like(input))
    }

    fn plan_forward(
        &mut self,
        input: &PlanShape,
        output: &PlanShape,
        _ctx: PlanCtx,
        arenas: &mut PlanArenas,
    ) -> Result<()> {
        let model = self.handle.current();
        if !model.is_active() {
            // The common planned case: the injection hook is dormant, so the
            // node is a zero-alloc copy.
            let [x, y] = arenas.f.many_mut([input.slot, output.slot]);
            y.copy_from_slice(x);
            return Ok(());
        }
        // Active pre-activation noise is stochastic by design (no
        // reproducibility guarantee vs the direct path, exactly as with the
        // layer's ordinary forward); route through the tensor path.
        let x = Tensor::from_vec(arenas.f.slot(input.slot).to_vec(), &input.dims)?;
        let y = model.perturb(&x, &mut self.rng)?;
        arenas.f.slot_mut(output.slot).copy_from_slice(y.data());
        Ok(())
    }

    fn name(&self) -> &'static str {
        "ActivationNoise"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::TileShape;
    use crate::fault::LineOrientation;
    use invnorm_nn::linear::Linear;
    use invnorm_nn::norm::GroupNorm;
    use invnorm_nn::Sequential;

    fn network(rng: &mut Rng) -> Sequential {
        let mut net = Sequential::new();
        net.push(Box::new(Linear::new(8, 16, rng)));
        net.push(Box::new(GroupNorm::layer_norm(16)));
        net.push(Box::new(Linear::new(16, 4, rng)));
        net
    }

    fn weights_of(net: &mut Sequential) -> Vec<f32> {
        let mut v = Vec::new();
        net.visit_params(&mut |p| v.extend_from_slice(p.value.data()));
        v
    }

    /// The rank ≥ 2 weights `inject` programs on chip instance `seed`, one
    /// vector per seed.
    fn sequential(net: &mut Sequential, fault: FaultModel, seeds: &[u64]) -> Vec<Vec<f32>> {
        seeds
            .iter()
            .map(|&seed| {
                let mut injector = WeightFaultInjector::new(fault).unwrap();
                injector.inject(net, &mut Rng::seed_from(seed)).unwrap();
                let mut faulty = Vec::new();
                net.visit_params(&mut |p| {
                    if p.value.rank() >= 2 {
                        faulty.extend_from_slice(p.value.data());
                    }
                });
                injector.restore(net).unwrap();
                faulty
            })
            .collect()
    }

    /// Refreshes every weight operand of `plan` and asserts that each live
    /// pack equals, bit for bit and padding included, `PackedB::pack` of
    /// the realizations it covers, realization `b` being `expected[b]`
    /// (every operand's weights, in registration order).
    fn assert_live_packs(plan: &mut invnorm_nn::plan::Plan, expected: &[Vec<f32>], what: &str) {
        use invnorm_tensor::gemm::PackedB;
        let mut offset = 0;
        for (o, operand) in plan.weights_mut().iter_mut().enumerate() {
            operand.refresh();
            let (rows, numel) = {
                let view = operand.view();
                (view.rows, view.clean.len())
            };
            let k = numel / rows;
            // A frozen layer's one pack covers the whole stack.
            let span = operand.pack(0).n() / rows;
            for (p, covered) in expected.chunks(span).enumerate() {
                let stack: Vec<f32> = covered
                    .iter()
                    .flat_map(|e| e[offset..offset + numel].iter().copied())
                    .collect();
                let mut want = PackedB::new();
                want.pack(true, &stack, k, span * rows);
                let (got, want) = (operand.pack(p).as_slice(), want.as_slice());
                let same = got.len() == want.len()
                    && got
                        .iter()
                        .zip(want)
                        .all(|(g, w)| g.to_bits() == w.to_bits());
                assert!(
                    same,
                    "{what}: operand {o} ([{rows}, {k}]) pack {p} diverged"
                );
            }
            offset += numel;
        }
    }

    #[test]
    fn inject_then_restore_is_identity() {
        let mut rng = Rng::seed_from(1);
        let mut net = network(&mut rng);
        let clean = weights_of(&mut net);
        let mut injector =
            WeightFaultInjector::new(FaultModel::AdditiveVariation { sigma: 0.5 }).unwrap();
        injector.inject(&mut net, &mut rng).unwrap();
        assert!(injector.is_injected());
        let faulty = weights_of(&mut net);
        assert_ne!(clean, faulty);
        injector.restore(&mut net).unwrap();
        assert!(!injector.is_injected());
        assert_eq!(clean, weights_of(&mut net));
    }

    #[test]
    fn rank1_params_untouched_by_default() {
        let mut rng = Rng::seed_from(2);
        let mut net = network(&mut rng);
        // Collect rank-1 params (biases, norm affine) before injection.
        let mut rank1_before = Vec::new();
        net.visit_params(&mut |p| {
            if p.value.rank() < 2 {
                rank1_before.extend_from_slice(p.value.data());
            }
        });
        let mut injector =
            WeightFaultInjector::new(FaultModel::MultiplicativeVariation { sigma: 0.5 }).unwrap();
        injector.inject(&mut net, &mut rng).unwrap();
        let mut rank1_after = Vec::new();
        net.visit_params(&mut |p| {
            if p.value.rank() < 2 {
                rank1_after.extend_from_slice(p.value.data());
            }
        });
        assert_eq!(rank1_before, rank1_after);
        injector.restore(&mut net).unwrap();

        // With including_vectors the rank-1 params are perturbed too.
        let mut injector = WeightFaultInjector::new(FaultModel::AdditiveVariation { sigma: 0.5 })
            .unwrap()
            .including_vectors();
        injector.inject(&mut net, &mut rng).unwrap();
        let mut rank1_now = Vec::new();
        net.visit_params(&mut |p| {
            if p.value.rank() < 2 {
                rank1_now.extend_from_slice(p.value.data());
            }
        });
        assert_ne!(rank1_before, rank1_now);
        injector.restore(&mut net).unwrap();
    }

    #[test]
    fn double_inject_and_bare_restore_error() {
        let mut rng = Rng::seed_from(3);
        let mut net = network(&mut rng);
        let mut injector =
            WeightFaultInjector::new(FaultModel::AdditiveVariation { sigma: 0.1 }).unwrap();
        assert!(injector.restore(&mut net).is_err());
        injector.inject(&mut net, &mut rng).unwrap();
        assert!(injector.inject(&mut net, &mut rng).is_err());
        assert!(injector
            .set_model(FaultModel::BitFlip { rate: 0.1, bits: 8 })
            .is_err());
        injector.restore(&mut net).unwrap();
        assert!(injector
            .set_model(FaultModel::BitFlip { rate: 0.1, bits: 8 })
            .is_ok());
        assert!(matches!(injector.model(), FaultModel::BitFlip { .. }));
    }

    #[test]
    fn injection_is_deterministic_for_seed() {
        // Large enough to cross the parallel-injection threshold on
        // multi-core machines; per-parameter forked streams must make the
        // realization identical either way.
        let mut build_rng = Rng::seed_from(20);
        let mut net = Sequential::new();
        net.push(Box::new(Linear::new(300, 300, &mut build_rng)));
        net.push(Box::new(Linear::new(300, 10, &mut build_rng)));
        let realize = |net: &mut Sequential| {
            let mut rng = Rng::seed_from(777);
            let mut injector =
                WeightFaultInjector::new(FaultModel::AdditiveVariation { sigma: 0.2 }).unwrap();
            injector.inject(net, &mut rng).unwrap();
            let faulty = weights_of(net);
            injector.restore(net).unwrap();
            faulty
        };
        let first = realize(&mut net);
        let second = realize(&mut net);
        assert_eq!(first, second, "same seed must give the same realization");
    }

    #[test]
    fn realize_plan_matches_sequential_injection_across_rank1_layers() {
        // A rank-1 (norm affine) layer sits between the two Linears,
        // shifting the global parameter indices; a single-stream
        // realize_plan_batch into an ordinary (batch 1) plan must fork the
        // same streams the sequential injector does.
        use invnorm_nn::plan::Plan;
        let mut build = Rng::seed_from(50);
        let mut net = network(&mut build);
        let x = Tensor::randn(&[2, 8], 0.0, 1.0, &mut Rng::seed_from(51));
        for fault in [
            FaultModel::AdditiveVariation { sigma: 0.3 },
            FaultModel::StuckAt { rate: 0.4 },
            FaultModel::BitFlip { rate: 0.1, bits: 8 },
            FaultModel::LineDefect {
                orientation: LineOrientation::Row,
                rate: 0.3,
                tile: TileShape { rows: 4, cols: 4 },
            },
            FaultModel::CorrelatedDrift {
                nu: 0.1,
                time_ratio: 100.0,
                sigma_nu: 0.3,
                tile: TileShape { rows: 4, cols: 4 },
            },
        ] {
            // Sequential realization of chip instance 7.
            let expected = sequential(&mut net, fault, &[7000]);
            // Planned realization from the same stream.
            let mut plan = Plan::compile(&mut net, &x).unwrap();
            WeightFaultInjector::new(fault)
                .unwrap()
                .realize_plan_batch(&mut plan, &mut [Rng::seed_from(7000)])
                .unwrap();
            // Keyed variations draw into the packs (every k here is even)
            // and leave the faulty buffer alone.
            if fault.keyed_variation(&[1.0]).is_none() {
                let mut got = Vec::new();
                for operand in plan.weights_mut() {
                    got.extend_from_slice(operand.view().faulty);
                }
                let identical = expected[0]
                    .iter()
                    .zip(got.iter())
                    .all(|(e, g)| e.to_bits() == g.to_bits());
                assert!(
                    identical && expected[0].len() == got.len(),
                    "{fault:?} planned realization diverged from sequential"
                );
            }
            assert_live_packs(&mut plan, &expected, &format!("{fault:?}"));
            net.plan_end();
        }
    }

    #[test]
    fn realize_plan_batch_matches_sequential_injection_per_instance() {
        // Realization b of the stacked batch must equal what `inject` with
        // the same chip-instance RNG would have programmed — including
        // across the rank-1 norm layer that shifts global parameter indices.
        use invnorm_nn::plan::Plan;
        let mut build = Rng::seed_from(60);
        let mut net = network(&mut build);
        let x = Tensor::randn(&[2, 8], 0.0, 1.0, &mut Rng::seed_from(61));
        let batch = 3usize;
        for fault in [
            FaultModel::AdditiveVariation { sigma: 0.3 },
            FaultModel::StuckAt { rate: 0.4 },
            FaultModel::StuckAt { rate: 1.0 },
            FaultModel::UniformNoise { strength: 0.2 },
            FaultModel::LineDefect {
                orientation: LineOrientation::Row,
                rate: 0.5,
                tile: TileShape { rows: 2, cols: 3 },
            },
            FaultModel::LineDefect {
                orientation: LineOrientation::Col,
                rate: 0.5,
                tile: TileShape { rows: 3, cols: 2 },
            },
            FaultModel::CorrelatedDrift {
                nu: 0.1,
                time_ratio: 100.0,
                sigma_nu: 0.3,
                tile: TileShape { rows: 4, cols: 4 },
            },
        ] {
            let seeds: Vec<u64> = (0..batch as u64).map(|b| 8000 + b).collect();
            let expected = sequential(&mut net, fault, &seeds);
            let mut plan = Plan::compile_batched(&mut net, &x, batch).unwrap();
            // Two realization rounds (different streams first) so the sparse
            // stuck-at path exercises its revert-previous-cells bookkeeping.
            for base_seed in [8100u64, 8000] {
                let mut rngs: Vec<Rng> = (0..batch)
                    .map(|b| Rng::seed_from(base_seed + b as u64))
                    .collect();
                WeightFaultInjector::new(fault)
                    .unwrap()
                    .realize_plan_batch(&mut plan, &mut rngs)
                    .unwrap();
            }
            let mut got: Vec<Vec<f32>> = vec![Vec::new(); batch];
            for operand in plan.weights_mut() {
                let view = operand.view();
                let numel = view.clean.len();
                for (b, dst) in got.iter_mut().enumerate() {
                    dst.extend_from_slice(&view.faulty[b * numel..][..numel]);
                }
            }
            // Keyed variations draw into the packs (every k here is even)
            // and leave the faulty buffer alone.
            for b in (0..batch).filter(|_| fault.keyed_variation(&[1.0]).is_none()) {
                let identical = expected[b]
                    .iter()
                    .zip(got[b].iter())
                    .all(|(e, g)| e.to_bits() == g.to_bits());
                assert!(
                    identical && expected[b].len() == got[b].len(),
                    "{fault:?} stacked realization {b} diverged"
                );
            }
            assert_live_packs(&mut plan, &expected, &format!("{fault:?}"));
            net.plan_end();
        }
        // including_vectors stays unsupported on the planned paths.
        let mut plan = Plan::compile_batched(&mut net, &x, batch).unwrap();
        let mut rngs: Vec<Rng> = (0..batch).map(|b| Rng::seed_from(b as u64)).collect();
        assert!(WeightFaultInjector::new(FaultModel::StuckAt { rate: 0.1 })
            .unwrap()
            .including_vectors()
            .realize_plan_batch(&mut plan, &mut rngs)
            .is_err());
        // Batch mismatch between the plan and the stream count is loud —
        // including on the drift fast path, which skips materialization but
        // not validation.
        let mut rngs: Vec<Rng> = (0..batch + 1).map(|b| Rng::seed_from(b as u64)).collect();
        assert!(WeightFaultInjector::new(FaultModel::StuckAt { rate: 0.1 })
            .unwrap()
            .realize_plan_batch(&mut plan, &mut rngs)
            .is_err());
        assert!(WeightFaultInjector::new(FaultModel::Drift {
            nu: 0.05,
            time_ratio: 100.0
        })
        .unwrap()
        .realize_plan_batch(&mut plan, &mut rngs)
        .is_err());
        net.plan_end();
    }

    #[test]
    fn code_realize_plan_batch_matches_sequential_code_injection() {
        use invnorm_nn::plan::Plan;
        let mut build = Rng::seed_from(70);
        let mut net = quantized_network(&mut build);
        let x = Tensor::randn(&[2, 8], 0.0, 1.0, &mut Rng::seed_from(71));
        let batch = 3usize;
        for fault in [
            FaultModel::BitFlip { rate: 0.1, bits: 8 },
            FaultModel::LineDefect {
                orientation: LineOrientation::Row,
                rate: 0.5,
                tile: TileShape { rows: 2, cols: 3 },
            },
            FaultModel::LineDefect {
                orientation: LineOrientation::Col,
                rate: 0.5,
                tile: TileShape { rows: 3, cols: 2 },
            },
            FaultModel::CorrelatedDrift {
                nu: 0.1,
                time_ratio: 1000.0,
                sigma_nu: 0.3,
                tile: TileShape { rows: 4, cols: 4 },
            },
        ] {
            let mut expected: Vec<Vec<i8>> = Vec::new();
            for b in 0..batch {
                let mut rng = Rng::seed_from(9000 + b as u64);
                let mut injector = CodeFaultInjector::new(fault).unwrap();
                injector.inject(&mut net, &mut rng).unwrap();
                expected.push(codes_of(&mut net));
                injector.restore(&mut net).unwrap();
            }
            let mut plan = Plan::compile_batched(&mut net, &x, batch).unwrap();
            // Two realization rounds (different streams first) so the sparse
            // line-defect path exercises its revert-previous-cells
            // bookkeeping.
            for base_seed in [9100u64, 9000] {
                let mut rngs: Vec<Rng> = (0..batch)
                    .map(|b| Rng::seed_from(base_seed + b as u64))
                    .collect();
                CodeFaultInjector::new(fault)
                    .unwrap()
                    .realize_plan_batch(&mut plan, &mut rngs)
                    .unwrap();
            }
            let mut got: Vec<Vec<i8>> = vec![Vec::new(); batch];
            for operand in plan.codes_mut() {
                let view = operand.view();
                let numel = view.clean.len();
                for (b, dst) in got.iter_mut().enumerate() {
                    dst.extend_from_slice(&view.faulty[b * numel..][..numel]);
                }
            }
            net.plan_end();
            for b in 0..batch {
                assert_eq!(
                    expected[b], got[b],
                    "{fault:?} stacked code realization {b} diverged"
                );
            }
        }
    }

    /// Two plannable MLPs whose operands cover the packed draw's edges, at
    /// B = 3: `[k, n]` of 6→10 (frozen, so its three 10-row realizations
    /// share one stacked pack whose strips straddle them), 10→37 (one pack
    /// per realization, `n` off every strip width) and 37→3 (odd `k`: the
    /// faulty-buffer route); and 520→300 (frozen, `k > KC`, `n > NC`) and
    /// 300→20.
    fn draw_edge_networks() -> [(Sequential, Tensor); 2] {
        use invnorm_nn::activation::Relu;
        let mut rng = Rng::seed_from(90);
        let mut small = Sequential::new();
        small.push(Box::new(Linear::new(6, 10, &mut rng)));
        small.push(Box::new(Relu::new()));
        small.push(Box::new(Linear::new(10, 37, &mut rng)));
        small.push(Box::new(Relu::new()));
        small.push(Box::new(Linear::new(37, 3, &mut rng)));
        let mut large = Sequential::new();
        large.push(Box::new(Linear::new(520, 300, &mut rng)));
        large.push(Box::new(Relu::new()));
        large.push(Box::new(Linear::new(300, 20, &mut rng)));
        [
            (small, Tensor::randn(&[3, 6], 0.0, 1.0, &mut rng)),
            (large, Tensor::randn(&[2, 520], 0.0, 1.0, &mut rng)),
        ]
    }

    #[test]
    fn keyed_variations_draw_each_live_pack_bit_for_bit() {
        use invnorm_nn::plan::Plan;
        let batch = 3;
        let seeds: Vec<u64> = (0..batch as u64).map(|b| 9500 + b).collect();
        for (mut net, x) in draw_edge_networks() {
            for fault in [
                FaultModel::AdditiveVariation { sigma: 0.3 },
                FaultModel::MultiplicativeVariation { sigma: 0.25 },
            ] {
                let expected = sequential(&mut net, fault, &seeds);
                for b in [1, batch] {
                    let mut plan = Plan::compile_batched(&mut net, &x, b).unwrap();
                    let mut rngs: Vec<Rng> =
                        seeds[..b].iter().map(|&s| Rng::seed_from(s)).collect();
                    WeightFaultInjector::new(fault)
                        .unwrap()
                        .realize_plan_batch(&mut plan, &mut rngs)
                        .unwrap();
                    let what = format!("{fault:?} at B = {b}");
                    assert_live_packs(&mut plan, &expected[..b], &what);
                    // A second refresh with nothing realized keeps them.
                    assert_live_packs(&mut plan, &expected[..b], &what);
                    // The odd-k operand took the faulty-buffer route.
                    let odd = plan
                        .weights_mut()
                        .iter_mut()
                        .find(|o| o.pack(0).k() % 2 == 1);
                    if let Some(odd) = odd {
                        let view = odd.view();
                        let numel = view.clean.len();
                        let offset = expected[0].len() - numel;
                        for (r, want) in expected[..b].iter().enumerate() {
                            let got = &view.faulty[r * numel..][..numel];
                            assert!(
                                got.iter()
                                    .zip(&want[offset..])
                                    .all(|(g, w)| g.to_bits() == w.to_bits()),
                                "{what}: odd-k realization {r} diverged"
                            );
                        }
                    }
                    net.plan_end();
                }
            }
        }
    }

    /// One stacked plan through every regime change the drawn regime meets:
    /// each realization's live packs must equal packing what `inject`
    /// programs, however the previous realization left them.
    #[test]
    fn drawn_packs_survive_every_regime_transition() {
        use invnorm_nn::plan::Plan;
        let [(mut net, x), _] = draw_edge_networks();
        let batch = 3;
        let mut plan = Plan::compile_batched(&mut net, &x, batch).unwrap();
        let keyed = [
            FaultModel::AdditiveVariation { sigma: 0.3 },
            FaultModel::MultiplicativeVariation { sigma: 0.2 },
        ];
        let steps = [
            keyed[0],
            FaultModel::StuckAt { rate: 0.2 },
            keyed[1],
            FaultModel::Drift {
                nu: 0.05,
                time_ratio: 100.0,
            },
            keyed[0],
            FaultModel::UniformNoise { strength: 0.2 },
            keyed[1],
        ];
        for (step, fault) in steps.into_iter().enumerate() {
            let seeds: Vec<u64> = (0..batch as u64)
                .map(|b| 9700 + 10 * step as u64 + b)
                .collect();
            let expected = sequential(&mut net, fault, &seeds);
            let mut rngs: Vec<Rng> = seeds.iter().map(|&s| Rng::seed_from(s)).collect();
            WeightFaultInjector::new(fault)
                .unwrap()
                .realize_plan_batch(&mut plan, &mut rngs)
                .unwrap();
            let what = format!("step {step}, {fault:?}");
            assert_live_packs(&mut plan, &expected, &what);
            assert_live_packs(&mut plan, &expected, &what);
        }
        net.plan_end();
    }

    #[test]
    fn invalid_model_is_rejected_at_construction() {
        assert!(WeightFaultInjector::new(FaultModel::BitFlip { rate: 2.0, bits: 8 }).is_err());
        let mut injector = WeightFaultInjector::new(FaultModel::None).unwrap();
        assert!(injector
            .set_model(FaultModel::AdditiveVariation { sigma: -1.0 })
            .is_err());
        // A rejected set_model leaves the configured model unchanged.
        assert!(matches!(injector.model(), FaultModel::None));
    }

    fn quantized_network(rng: &mut Rng) -> Sequential {
        use invnorm_nn::quantized::QuantizedLinear;
        let mut net = Sequential::new();
        net.push(Box::new(
            QuantizedLinear::from_linear(&Linear::new(8, 16, rng), 8).unwrap(),
        ));
        net.push(Box::new(
            QuantizedLinear::from_linear(&Linear::new(16, 4, rng), 8).unwrap(),
        ));
        net
    }

    fn codes_of(net: &mut Sequential) -> Vec<i8> {
        let mut v = Vec::new();
        net.visit_codes(&mut |view| v.extend_from_slice(view.codes));
        v
    }

    #[test]
    fn code_inject_then_restore_is_identity() {
        let mut rng = Rng::seed_from(30);
        let mut net = quantized_network(&mut rng);
        let clean = codes_of(&mut net);
        let mut injector =
            CodeFaultInjector::new(FaultModel::BitFlip { rate: 0.1, bits: 8 }).unwrap();
        injector.inject(&mut net, &mut rng).unwrap();
        assert!(injector.is_injected());
        let faulty = codes_of(&mut net);
        assert_ne!(clean, faulty);
        // Faulty codes stay inside the symmetric range (never -128, which
        // the i8 GEMM's sign-split microkernel excludes).
        assert!(faulty.iter().all(|&c| c != i8::MIN));
        injector.restore(&mut net).unwrap();
        assert!(!injector.is_injected());
        assert_eq!(clean, codes_of(&mut net));
    }

    #[test]
    fn code_injection_is_deterministic_for_seed() {
        let mut build = Rng::seed_from(31);
        let mut net = quantized_network(&mut build);
        let realize = |net: &mut Sequential| {
            let mut rng = Rng::seed_from(555);
            let mut injector =
                CodeFaultInjector::new(FaultModel::AdditiveVariation { sigma: 0.05 }).unwrap();
            injector.inject(net, &mut rng).unwrap();
            let faulty = codes_of(net);
            injector.restore(net).unwrap();
            faulty
        };
        assert_eq!(realize(&mut net), realize(&mut net));
    }

    #[test]
    fn every_code_fault_model_perturbs_and_stays_in_range() {
        let mut rng = Rng::seed_from(32);
        let mut net = quantized_network(&mut rng);
        let clean = codes_of(&mut net);
        let models = [
            FaultModel::AdditiveVariation { sigma: 0.2 },
            FaultModel::MultiplicativeVariation { sigma: 0.3 },
            FaultModel::UniformNoise { strength: 0.2 },
            FaultModel::BitFlip { rate: 0.2, bits: 8 },
            FaultModel::BinaryBitFlip { rate: 0.5 },
            FaultModel::StuckAt { rate: 0.4 },
            FaultModel::Drift {
                nu: 0.1,
                time_ratio: 1000.0,
            },
            FaultModel::LineDefect {
                orientation: LineOrientation::Row,
                rate: 0.5,
                tile: TileShape { rows: 3, cols: 3 },
            },
            FaultModel::CorrelatedDrift {
                nu: 0.1,
                time_ratio: 1000.0,
                sigma_nu: 0.3,
                tile: TileShape { rows: 4, cols: 4 },
            },
        ];
        for model in models {
            let mut injector = CodeFaultInjector::new(model).unwrap();
            injector.inject(&mut net, &mut rng).unwrap();
            let faulty = codes_of(&mut net);
            assert_ne!(clean, faulty, "{model:?} must perturb codes");
            assert!(
                faulty.iter().all(|&c| c != i8::MIN),
                "{model:?} escaped the symmetric code range"
            );
            injector.restore(&mut net).unwrap();
            assert_eq!(clean, codes_of(&mut net), "{model:?} restore failed");
        }
    }

    #[test]
    fn code_injector_guards_mirror_weight_injector() {
        let mut rng = Rng::seed_from(33);
        let mut net = quantized_network(&mut rng);
        let mut injector =
            CodeFaultInjector::new(FaultModel::AdditiveVariation { sigma: 0.1 }).unwrap();
        assert!(injector.restore(&mut net).is_err());
        injector.inject(&mut net, &mut rng).unwrap();
        assert!(injector.inject(&mut net, &mut rng).is_err());
        assert!(injector.set_model(FaultModel::None).is_err());
        injector.restore(&mut net).unwrap();
        assert!(injector.set_model(FaultModel::None).is_ok());
        // Invalid models are rejected at construction and at set_model,
        // leaving the configured model unchanged.
        assert!(CodeFaultInjector::new(FaultModel::BitFlip { rate: 2.0, bits: 8 }).is_err());
        assert!(injector
            .set_model(FaultModel::BitFlip { rate: 2.0, bits: 8 })
            .is_err());
        assert!(matches!(injector.model(), FaultModel::None));
    }

    #[test]
    fn code_injector_is_a_noop_on_float_networks() {
        let mut rng = Rng::seed_from(34);
        let mut net = network(&mut rng); // all-float layers
        let before = weights_of(&mut net);
        let mut injector =
            CodeFaultInjector::new(FaultModel::BitFlip { rate: 0.5, bits: 8 }).unwrap();
        injector.inject(&mut net, &mut rng).unwrap();
        assert_eq!(before, weights_of(&mut net));
        injector.restore(&mut net).unwrap();
    }

    #[test]
    fn code_faults_change_the_quantized_forward_pass() {
        let mut rng = Rng::seed_from(35);
        let mut net = quantized_network(&mut rng);
        let x = Tensor::randn(&[4, 8], 0.0, 1.0, &mut rng);
        let clean = net.forward(&x, Mode::Eval).unwrap();
        let mut injector = CodeFaultInjector::new(FaultModel::StuckAt { rate: 0.3 }).unwrap();
        injector.inject(&mut net, &mut rng).unwrap();
        let faulty = net.forward(&x, Mode::Eval).unwrap();
        assert!(!clean.approx_eq(&faulty, 1e-6));
        injector.restore(&mut net).unwrap();
        let restored = net.forward(&x, Mode::Eval).unwrap();
        assert!(clean.approx_eq(&restored, 0.0));
    }

    #[test]
    fn noise_handle_controls_activation_noise() {
        let handle = NoiseHandle::new();
        let mut layer = ActivationNoise::new(handle.clone(), 5);
        let mut rng = Rng::seed_from(6);
        let x = Tensor::randn(&[4, 8], 0.0, 1.0, &mut rng);
        // No noise configured: identity.
        let y = layer.forward(&x, Mode::Eval).unwrap();
        assert!(y.approx_eq(&x, 0.0));
        assert!(!handle.current().is_active());
        // Configure additive noise through the shared handle.
        handle.set(FaultModel::AdditiveVariation { sigma: 0.5 });
        let y = layer.forward(&x, Mode::Eval).unwrap();
        assert!(!y.approx_eq(&x, 1e-6));
        // Backward is pass-through.
        let g = layer.backward(&Tensor::ones(x.dims())).unwrap();
        assert!(g.approx_eq(&Tensor::ones(x.dims()), 0.0));
        // Clearing restores identity behaviour.
        handle.clear();
        let y = layer.forward(&x, Mode::Eval).unwrap();
        assert!(y.approx_eq(&x, 0.0));
    }

    #[test]
    fn cloned_handles_share_state() {
        let handle = NoiseHandle::new();
        let clone = handle.clone();
        handle.set(FaultModel::UniformNoise { strength: 0.3 });
        assert!(clone.current().is_active());
        assert_eq!(clone.current(), handle.current());
    }

    #[test]
    fn activation_noise_has_no_params() {
        let mut layer = ActivationNoise::new(NoiseHandle::new(), 7);
        assert_eq!(layer.param_count(), 0);
        assert_eq!(layer.name(), "ActivationNoise");
    }
}
