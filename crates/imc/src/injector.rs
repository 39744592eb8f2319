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

use crate::fault::{
    flip_code_bits, for_each_drift_tile, for_each_fired_line, stuck_levels, FaultModel,
};
use crate::Result;
use invnorm_nn::layer::{Layer, Mode, Param};
use invnorm_nn::plan::{PlanArenas, PlanCodeView, PlanCtx, PlanParamView, PlanShape};
use invnorm_nn::NnError;
use invnorm_tensor::telemetry;
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
        p.value.rank() >= 2 || self.include_vectors
    }

    /// Perturbs the network weights in place, remembering the clean values.
    ///
    /// Every targeted parameter draws from its **own RNG stream**, forked
    /// from `rng` in `visit_params` order. That makes the realization a pure
    /// function of the caller's seed and the parameter index, so large
    /// parameters can be perturbed **in parallel** (rayon) without changing
    /// any value — the realization is bit-identical for every thread count,
    /// which is what keeps `MonteCarloEngine::run_parallel` exactly equal to
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
            targeted.push(p.value.rank() >= 2 || include_vectors);
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
        let mut idx = 0usize;
        let mut mismatch = false;
        network.visit_params(&mut |p| {
            if idx < snapshot.len() {
                p.value = snapshot[idx].clone();
            } else {
                mismatch = true;
            }
            idx += 1;
        });
        if mismatch || idx != snapshot.len() {
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

    /// Materializes one fault realization **per entry of `rngs`** into a
    /// compiled plan's stacked faulty weight buffers (installed by
    /// `Layer::plan_compile`; `Plan::compile_batched` stacks one slot per
    /// stream), leaving the clean parameters untouched, and **reports the
    /// touched row blocks** of every realization through the plan's dirty
    /// set so only dirty panels are re-packed — the planned engine's
    /// counterpart of [`WeightFaultInjector::inject`] + restore.
    ///
    /// Realization `b` of parameter `i` draws from the stream
    /// `rngs[b].fork(i)` in `visit_params` order — exactly the stream the
    /// sequential injector forks on chip instance `b` — so every stacked
    /// realization is **bit-identical** to what
    /// [`MonteCarloEngine::run`](crate::MonteCarloEngine::run) would have
    /// programmed.
    ///
    /// Dense fault models (variation, noise, f32 bit flips, which rewrite
    /// every element) mark every row dirty; the sparse stuck-at and
    /// line-defect models mark only rows whose values actually changed and
    /// hand their exact cells to the plan, and retention drift requests the
    /// layers' uniform-scale fast path — which is what removes the per-run
    /// weight-pack cost.
    ///
    /// # Errors
    ///
    /// Returns an error when the fault model is invalid, the injector was
    /// configured with [`WeightFaultInjector::including_vectors`] (plans
    /// target the default rank ≥ 2 parameter set only), `rngs` is empty, or
    /// a staged buffer does not match the batch size.
    pub fn realize_plan_batch<L: Layer + ?Sized>(
        &self,
        network: &mut L,
        rngs: &mut [Rng],
    ) -> Result<()> {
        let _span = telemetry::span(telemetry::Phase::Inject);
        if self.include_vectors {
            return Err(NnError::Config(
                "compiled plans support the default (rank >= 2) fault targets only".into(),
            ));
        }
        self.model.validate()?;
        let model = self.model;
        let batch = rngs.len();
        if batch == 0 {
            return Err(NnError::Config(
                "realize_plan_batch needs at least one RNG stream".into(),
            ));
        }
        let check_staged = |view: &PlanParamView<'_>| -> Result<()> {
            let numel = view.clean.numel();
            if view.faulty.len() != batch * numel || !view.dirty.rows().is_multiple_of(batch) {
                return Err(NnError::Config(format!(
                    "plan staged {} faulty elements / {} dirty rows for a parameter of {} \
                     elements, expected batch {batch}",
                    view.faulty.len(),
                    view.dirty.rows(),
                    numel
                )));
            }
            Ok(())
        };
        if let Some(factor) = model.uniform_scale() {
            // Drift's factor is deterministic, so every realization of the
            // stack shares it: one scale request covers all panels. The
            // forks still run to keep every per-instance stream in lockstep
            // with the sequential injector, and the staged-buffer check
            // still runs so a batch mismatch is as loud as on every other
            // model.
            let mut result: Result<()> = Ok(());
            network.visit_plan_params(&mut |view| {
                if result.is_err() {
                    return;
                }
                if let Err(e) = check_staged(&view) {
                    result = Err(e);
                    return;
                }
                for parent in rngs.iter_mut() {
                    let _ = parent.fork(view.index as u64);
                }
                *view.scale = Some(factor);
            });
            return result;
        }
        let mut result: Result<()> = Ok(());
        network.visit_plan_params(&mut |mut view| {
            if result.is_err() {
                return;
            }
            if let Err(e) = check_staged(&view) {
                result = Err(e);
                return;
            }
            let rows = view.dirty.rows() / batch;
            let levels = matches!(
                model,
                FaultModel::StuckAt { .. } | FaultModel::LineDefect { .. }
            )
            .then(|| stuck_levels(view.clean.data()));
            for (b, parent) in rngs.iter_mut().enumerate() {
                let mut stream = parent.fork(view.index as u64);
                if let Err(e) = realize_one_f32(&mut view, model, b, rows, levels, &mut stream) {
                    result = Err(e);
                    return;
                }
            }
        });
        result
    }
}

/// Materializes realization `b` of one parameter into its slice of the
/// plan-owned faulty buffer, with per-realization dirty-row reporting.
///
/// Stuck-at and line defects take the **sparse packed-domain path**: the
/// previous realization's cells are reverted through the exact cell list
/// (falling back to a full clean copy when unknown), fired cells are written
/// individually, and the list is handed to the plan so the refresh scatters
/// the cells straight into the packed panels. Line defects route through the
/// same canonical tile iteration as the dense perturbation
/// ([`for_each_fired_line`]), so both draw exactly the random variates of
/// the sequential injector, in the same order. Every other model realizes
/// densely via [`FaultModel::perturb_into`].
fn realize_one_f32(
    view: &mut PlanParamView<'_>,
    model: FaultModel,
    b: usize,
    rows: usize,
    levels: Option<(f32, f32)>,
    stream: &mut Rng,
) -> Result<()> {
    let numel = view.clean.numel();
    let base = b * rows;
    let faulty_b = &mut view.faulty[b * numel..][..numel];
    if let FaultModel::StuckAt { rate } = model {
        if rate > 0.0 && rows > 0 && numel > 0 {
            let clean = view.clean.data();
            // Revert the previous realization's cells (exact when known,
            // full copy otherwise), then record this realization exactly.
            match view.cells.faulty_cells(b) {
                Some(cells) => {
                    for &i in cells {
                        faulty_b[i as usize] = clean[i as usize];
                    }
                }
                None => faulty_b.copy_from_slice(clean),
            }
            view.cells.reset_faulty(b);
            let cols = numel / rows;
            // The stuck levels depend only on the clean weights; the caller
            // computes them once per parameter, not once per realization.
            let (lo, hi) = levels.unwrap_or_else(|| stuck_levels(clean));
            for (idx, cell) in faulty_b.iter_mut().enumerate() {
                if stream.bernoulli(rate) {
                    *cell = if stream.bernoulli(0.5) { lo } else { hi };
                    view.dirty.mark(base + idx / cols);
                    view.cells.push_faulty(b, idx);
                }
            }
            view.cells.mark_pending(b);
            return Ok(());
        }
        // rate == 0.0 falls through to the dense (inactive → copy) path so
        // the realization protocol stays uniform.
    }
    if let FaultModel::LineDefect {
        orientation,
        rate,
        tile,
    } = model
    {
        if rate > 0.0 && rows > 0 && numel > 0 {
            let clean = view.clean.data();
            match view.cells.faulty_cells(b) {
                Some(cells) => {
                    for &i in cells {
                        faulty_b[i as usize] = clean[i as usize];
                    }
                }
                None => faulty_b.copy_from_slice(clean),
            }
            view.cells.reset_faulty(b);
            let cols = numel / rows;
            let (lo, hi) = levels.unwrap_or_else(|| stuck_levels(clean));
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
            return Ok(());
        }
    }
    model.perturb_into(view.clean, faulty_b, stream)?;
    view.cells.invalidate_faulty(b);
    mark_dirty_f32(model, view.clean.data(), faulty_b, view.dirty, base, rows);
    Ok(())
}

/// Reports which rows of a `[rows, cols]` parameter a realization touched,
/// marking into `[base, base + rows)` of a (possibly stacked) dirty set.
/// Inactive models left the weights bit-identical to clean (nothing to
/// re-pack); sparse models diff faulty vs clean bits; dense models mark
/// everything (they rewrite every element, so a diff would find everything
/// anyway).
fn mark_dirty_f32(
    model: FaultModel,
    clean: &[f32],
    faulty: &[f32],
    dirty: &mut DirtyRows,
    base: usize,
    rows: usize,
) {
    if !model.is_active() {
        return;
    }
    match model {
        FaultModel::None => {}
        FaultModel::StuckAt { .. } | FaultModel::LineDefect { .. } => {
            diff_rows(clean, faulty, dirty, base, rows, |a, b| {
                a.to_bits() != b.to_bits()
            })
        }
        _ => dirty.mark_range(base, base + rows),
    }
}

/// Marks every row of `[rows, cols]` buffers where any element differs,
/// into `[base, base + rows)` of the dirty set.
fn diff_rows<T: Copy>(
    clean: &[T],
    faulty: &[T],
    dirty: &mut DirtyRows,
    base: usize,
    rows: usize,
    differs: impl Fn(T, T) -> bool,
) {
    if rows == 0 {
        return;
    }
    let cols = clean.len() / rows;
    for row in 0..rows {
        let start = row * cols;
        let changed = (0..cols).any(|i| differs(clean[start + i], faulty[start + i]));
        if changed {
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
    /// `rngs`** into a compiled plan's stacked faulty code buffers,
    /// reporting per-realization dirty rows — the code-domain counterpart
    /// of [`WeightFaultInjector::realize_plan_batch`], with the same
    /// bit-identity guarantee against [`CodeFaultInjector::inject`]:
    /// realization `b` of quantized parameter `i` uses the stream
    /// `rngs[b].fork(i)` in `visit_codes` order.
    ///
    /// In the code domain every dense model is diffed against the clean
    /// codes (rounding frequently leaves codes unchanged even under dense
    /// noise), so only rows with actually-changed codes trigger a panel
    /// re-pack; line defects additionally record their exact fired cells so
    /// the plan scatters them straight into the packed panels.
    ///
    /// # Errors
    ///
    /// Returns an error when the fault model is invalid, `rngs` is empty, or
    /// a staged buffer does not match the batch size.
    pub fn realize_plan_batch<L: Layer + ?Sized>(
        &self,
        network: &mut L,
        rngs: &mut [Rng],
    ) -> Result<()> {
        let _span = telemetry::span(telemetry::Phase::Inject);
        self.model.validate()?;
        let model = self.model;
        let batch = rngs.len();
        if batch == 0 {
            return Err(NnError::Config(
                "realize_plan_batch needs at least one RNG stream".into(),
            ));
        }
        let mut result: Result<()> = Ok(());
        network.visit_plan_codes(&mut |mut view| {
            if result.is_err() {
                return;
            }
            let numel = view.clean.len();
            if view.faulty.len() != batch * numel || !view.dirty.rows().is_multiple_of(batch) {
                result = Err(NnError::Config(format!(
                    "plan staged {} faulty codes / {} dirty rows for a parameter of {} codes, \
                     expected batch {batch}",
                    view.faulty.len(),
                    view.dirty.rows(),
                    numel
                )));
                return;
            }
            let rows = view.dirty.rows() / batch;
            for (b, parent) in rngs.iter_mut().enumerate() {
                let mut stream = parent.fork(view.index as u64);
                realize_one_codes(&mut view, model, b, rows, &mut stream);
            }
        });
        result
    }
}

/// Materializes realization `b` of one quantized parameter's codes into its
/// slice of the plan-owned faulty buffer — the code-domain counterpart of
/// [`realize_one_f32`]. Line defects take the sparse packed-domain path
/// (revert previous cells, fire whole tile lines, record the exact cell
/// list for the plan's [`QPackedB::write_cell`] scatter); every other model
/// realizes densely through [`perturb_codes`] and is diffed row by row.
/// Both routes draw exactly the variates of [`CodeFaultInjector::inject`],
/// in the same order.
///
/// [`QPackedB::write_cell`]: invnorm_tensor::QPackedB::write_cell
fn realize_one_codes(
    view: &mut PlanCodeView<'_>,
    model: FaultModel,
    b: usize,
    rows: usize,
    stream: &mut Rng,
) {
    let numel = view.clean.len();
    let base = b * rows;
    let faulty_b = &mut view.faulty[b * numel..][..numel];
    if let FaultModel::LineDefect {
        orientation,
        rate,
        tile,
    } = model
    {
        if rate > 0.0 && rows > 0 && numel > 0 {
            let clean = view.clean;
            match view.cells.faulty_cells(b) {
                Some(cells) => {
                    for &i in cells {
                        faulty_b[i as usize] = clean[i as usize];
                    }
                }
                None => faulty_b.copy_from_slice(clean),
            }
            view.cells.reset_faulty(b);
            let cols = numel / rows;
            // Same stuck-level convention as the dense code arm: a failed
            // line saturates at ±qmax, low on `pick_lo`.
            let qmax = (((1i32 << (view.bits - 1)) - 1).min(127)) as i8;
            let (dirty, cells) = (&mut *view.dirty, &mut *view.cells);
            for_each_fired_line(
                rows,
                cols,
                orientation,
                rate,
                tile,
                stream,
                |rr, cc, pick_lo| {
                    let level = if pick_lo { -qmax } else { qmax };
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
            return;
        }
    }
    faulty_b.copy_from_slice(view.clean);
    perturb_codes(faulty_b, view.bits, rows, model, stream);
    view.cells.invalidate_faulty(b);
    diff_rows(
        view.clean,
        faulty_b,
        view.dirty,
        base,
        rows,
        |a: i8, b: i8| a != b,
    );
}

/// Applies a fault model to one slice of `bits`-bit codes, in place.
/// Infallible for validated models; [`FaultModel::BitFlip`]'s `bits` field is
/// ignored in favour of the layer's actual width. `rows` is the leading
/// (output) dimension of the code matrix — the axis the structured tile
/// topologies map crossbar lines onto; element-i.i.d. models ignore it.
fn perturb_codes(codes: &mut [i8], bits: u8, rows: usize, model: FaultModel, rng: &mut Rng) {
    let qmax = ((1i32 << (bits - 1)) - 1).min(127);
    let clamp = |v: i32| v.clamp(-qmax, qmax) as i8;
    let cols = codes.len().checked_div(rows).unwrap_or(0);
    match model {
        FaultModel::None => {}
        FaultModel::AdditiveVariation { sigma } => {
            if sigma > 0.0 {
                for c in codes {
                    let delta = rng.normal(0.0, sigma * qmax as f32).round() as i32;
                    *c = clamp(i32::from(*c) + delta);
                }
            }
        }
        FaultModel::MultiplicativeVariation { sigma } => {
            if sigma > 0.0 {
                for c in codes {
                    let factor = 1.0 + rng.normal(0.0, sigma);
                    *c = clamp((f32::from(*c) * factor).round() as i32);
                }
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
            let mut rng = Rng::seed_from(7000);
            let mut injector = WeightFaultInjector::new(fault).unwrap();
            injector.inject(&mut net, &mut rng).unwrap();
            let mut expected = Vec::new();
            net.visit_params(&mut |p| {
                if p.value.rank() >= 2 {
                    expected.extend_from_slice(p.value.data());
                }
            });
            injector.restore(&mut net).unwrap();
            // Planned realization from the same stream.
            let _plan = Plan::compile(&mut net, &x).unwrap();
            WeightFaultInjector::new(fault)
                .unwrap()
                .realize_plan_batch(&mut net, &mut [Rng::seed_from(7000)])
                .unwrap();
            let mut got = Vec::new();
            net.visit_plan_params(&mut |view| got.extend_from_slice(view.faulty));
            net.plan_end();
            let identical = expected
                .iter()
                .zip(got.iter())
                .all(|(e, g)| e.to_bits() == g.to_bits());
            assert!(
                identical && expected.len() == got.len(),
                "{fault:?} planned realization diverged from sequential"
            );
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
            let mut expected: Vec<Vec<f32>> = Vec::new();
            for b in 0..batch {
                let mut rng = Rng::seed_from(8000 + b as u64);
                let mut injector = WeightFaultInjector::new(fault).unwrap();
                injector.inject(&mut net, &mut rng).unwrap();
                let mut faulty = Vec::new();
                net.visit_params(&mut |p| {
                    if p.value.rank() >= 2 {
                        faulty.extend_from_slice(p.value.data());
                    }
                });
                injector.restore(&mut net).unwrap();
                expected.push(faulty);
            }
            let _plan = Plan::compile_batched(&mut net, &x, batch).unwrap();
            // Two realization rounds (different streams first) so the sparse
            // stuck-at path exercises its revert-previous-cells bookkeeping.
            for base_seed in [8100u64, 8000] {
                let mut rngs: Vec<Rng> = (0..batch)
                    .map(|b| Rng::seed_from(base_seed + b as u64))
                    .collect();
                WeightFaultInjector::new(fault)
                    .unwrap()
                    .realize_plan_batch(&mut net, &mut rngs)
                    .unwrap();
            }
            let mut got: Vec<Vec<f32>> = vec![Vec::new(); batch];
            net.visit_plan_params(&mut |view| {
                let numel = view.clean.numel();
                for (b, dst) in got.iter_mut().enumerate() {
                    dst.extend_from_slice(&view.faulty[b * numel..][..numel]);
                }
            });
            net.plan_end();
            for b in 0..batch {
                let identical = expected[b]
                    .iter()
                    .zip(got[b].iter())
                    .all(|(e, g)| e.to_bits() == g.to_bits());
                assert!(
                    identical && expected[b].len() == got[b].len(),
                    "{fault:?} stacked realization {b} diverged"
                );
            }
        }
        // including_vectors stays unsupported on the planned paths.
        let _plan = Plan::compile_batched(&mut net, &x, batch).unwrap();
        let mut rngs: Vec<Rng> = (0..batch).map(|b| Rng::seed_from(b as u64)).collect();
        assert!(WeightFaultInjector::new(FaultModel::StuckAt { rate: 0.1 })
            .unwrap()
            .including_vectors()
            .realize_plan_batch(&mut net, &mut rngs)
            .is_err());
        // Batch mismatch between the plan and the stream count is loud —
        // including on the drift fast path, which skips materialization but
        // not validation.
        let mut rngs: Vec<Rng> = (0..batch + 1).map(|b| Rng::seed_from(b as u64)).collect();
        assert!(WeightFaultInjector::new(FaultModel::StuckAt { rate: 0.1 })
            .unwrap()
            .realize_plan_batch(&mut net, &mut rngs)
            .is_err());
        assert!(WeightFaultInjector::new(FaultModel::Drift {
            nu: 0.05,
            time_ratio: 100.0
        })
        .unwrap()
        .realize_plan_batch(&mut net, &mut rngs)
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
            let _plan = Plan::compile_batched(&mut net, &x, batch).unwrap();
            // Two realization rounds (different streams first) so the sparse
            // line-defect path exercises its revert-previous-cells
            // bookkeeping.
            for base_seed in [9100u64, 9000] {
                let mut rngs: Vec<Rng> = (0..batch)
                    .map(|b| Rng::seed_from(base_seed + b as u64))
                    .collect();
                CodeFaultInjector::new(fault)
                    .unwrap()
                    .realize_plan_batch(&mut net, &mut rngs)
                    .unwrap();
            }
            let mut got: Vec<Vec<i8>> = vec![Vec::new(); batch];
            net.visit_plan_codes(&mut |view| {
                let numel = view.clean.len();
                for (b, dst) in got.iter_mut().enumerate() {
                    dst.extend_from_slice(&view.faulty[b * numel..][..numel]);
                }
            });
            net.plan_end();
            for b in 0..batch {
                assert_eq!(
                    expected[b], got[b],
                    "{fault:?} stacked code realization {b} diverged"
                );
            }
        }
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
