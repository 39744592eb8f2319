//! The fault-model catalogue: how NVM non-idealities perturb a tensor of
//! programmed weights (or pre-activation values).
//!
//! Models follow the abstractions used by the paper (Sec. IV-A2) and the
//! works it cites:
//!
//! * **Conductance variation** (manufacturing + thermal): additive Gaussian
//!   noise `w + N(0, σ)` and multiplicative Gaussian noise `w · (1 + N(0, σ))`.
//! * **Programming / retention faults**: random bit flips of the quantized
//!   integer representation (or sign flips for binary weights).
//! * **Uniform noise**: additive `U(-s, s)`, the extra experiment the paper
//!   runs on the LSTM model.
//! * **Stuck-at faults**: a fraction of cells stuck at the minimum or maximum
//!   programmable value.
//! * **Retention drift**: magnitudes decay by a factor `(t/t₀)^(-ν)`, the
//!   standard phase-change-memory drift law.
//! * **Structured topologies**: whole word/bit lines of a crossbar tile stuck
//!   ([`FaultModel::LineDefect`]) and per-tile drift-exponent variation
//!   ([`FaultModel::CorrelatedDrift`]), both mapped through the
//!   [`crate::crossbar::CrossbarConfig`] tile geometry instead of striking
//!   cells i.i.d.
//!
//! The Monte-Carlo engine draws one weight realization per simulated chip
//! instance, as in the paper; it holds for every forward pass of that
//! instance.

use crate::crossbar::{CrossbarConfig, TileShape};
use crate::Result;
use invnorm_nn::NnError;
use invnorm_quant::binary::BinaryTensor;
use invnorm_quant::uniform::QuantizedTensor;
use invnorm_tensor::{vecmath, Rng, Tensor};
use serde::{Deserialize, Serialize};

/// Which crossbar lines a [`FaultModel::LineDefect`] takes out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LineOrientation {
    /// Word lines: one defect sticks a whole weight-matrix row segment
    /// within a tile (`1 × tile.cols` cells).
    Row,
    /// Bit lines: one defect sticks a whole weight-matrix column segment
    /// within a tile (`tile.rows × 1` cells).
    Col,
}

/// A parameterized NVM non-ideality model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum FaultModel {
    /// Additive conductance variation: `w ← w + N(0, σ)`.
    AdditiveVariation {
        /// Standard deviation of the additive noise (relative to the weight
        /// scale of the layer; the paper sweeps 0–1).
        sigma: f32,
    },
    /// Multiplicative conductance variation: `w ← w · (1 + N(0, σ))`.
    MultiplicativeVariation {
        /// Standard deviation of the relative perturbation.
        sigma: f32,
    },
    /// Additive uniform noise: `w ← w + U(-strength, strength)`.
    UniformNoise {
        /// Half-width of the uniform perturbation.
        strength: f32,
    },
    /// Random bit flips in a `bits`-bit quantized representation. Each bit of
    /// each parameter flips independently with probability `rate`.
    BitFlip {
        /// Per-bit flip probability (the paper sweeps 0–30 %).
        rate: f32,
        /// Bit width of the quantized representation the flips act on.
        bits: u8,
    },
    /// Sign flips of binary (±α) weights, each with probability `rate`.
    BinaryBitFlip {
        /// Per-weight flip probability.
        rate: f32,
    },
    /// A fraction `rate` of cells become stuck at the layer's minimum or
    /// maximum weight value (chosen with equal probability).
    StuckAt {
        /// Fraction of affected cells.
        rate: f32,
    },
    /// Retention drift: `w ← w · (t/t₀)^(-ν)` — magnitudes shrink over time.
    Drift {
        /// Drift exponent ν (≈ 0.01–0.1 for PCM).
        nu: f32,
        /// Normalized elapsed time `t/t₀ ≥ 1`.
        time_ratio: f32,
    },
    /// Whole crossbar lines stuck: each word/bit-line segment of each tile
    /// fails independently with probability `rate`, sticking every cell on
    /// the line at the layer's minimum or maximum weight value (chosen with
    /// equal probability per line, matching [`FaultModel::StuckAt`]'s level
    /// convention). Tile geometry comes from
    /// [`crate::crossbar::CrossbarConfig`] via [`FaultModel::line_defect`].
    LineDefect {
        /// Which lines fail (word lines stick row segments, bit lines stick
        /// column segments).
        orientation: LineOrientation,
        /// Per-line failure probability.
        rate: f32,
        /// Physical tile extents the matrix is partitioned into.
        tile: TileShape,
    },
    /// Spatially correlated retention drift: every tile draws its own drift
    /// exponent `ν_t = ν · (1 + N(0, σ_ν))` (clamped at zero) and all cells
    /// of the tile decay by the shared factor `(t/t₀)^(-ν_t)` — tiles age
    /// coherently, unlike the i.i.d. [`FaultModel::Drift`] abstraction whose
    /// factor is global.
    CorrelatedDrift {
        /// Nominal drift exponent ν.
        nu: f32,
        /// Normalized elapsed time `t/t₀ ≥ 1`.
        time_ratio: f32,
        /// Relative per-tile variation of the drift exponent.
        sigma_nu: f32,
        /// Physical tile extents the matrix is partitioned into.
        tile: TileShape,
    },
    /// No fault (baseline). Useful to keep sweep code uniform.
    #[default]
    None,
}

impl FaultModel {
    /// A [`FaultModel::LineDefect`] whose tile geometry is taken from a
    /// crossbar configuration.
    pub fn line_defect(orientation: LineOrientation, rate: f32, config: &CrossbarConfig) -> Self {
        FaultModel::LineDefect {
            orientation,
            rate,
            tile: config.tile(),
        }
    }

    /// A [`FaultModel::CorrelatedDrift`] whose tile geometry is taken from a
    /// crossbar configuration.
    pub fn correlated_drift(
        nu: f32,
        time_ratio: f32,
        sigma_nu: f32,
        config: &CrossbarConfig,
    ) -> Self {
        FaultModel::CorrelatedDrift {
            nu,
            time_ratio,
            sigma_nu,
            tile: config.tile(),
        }
    }

    /// A short human-readable label used in experiment tables.
    pub fn label(&self) -> String {
        match self {
            FaultModel::AdditiveVariation { sigma } => format!("additive σ={sigma}"),
            FaultModel::MultiplicativeVariation { sigma } => format!("multiplicative σ={sigma}"),
            FaultModel::UniformNoise { strength } => format!("uniform ±{strength}"),
            FaultModel::BitFlip { rate, bits } => {
                format!("bit-flip {:.1}% ({bits}-bit)", rate * 100.0)
            }
            FaultModel::BinaryBitFlip { rate } => format!("sign-flip {:.1}%", rate * 100.0),
            FaultModel::StuckAt { rate } => format!("stuck-at {:.1}%", rate * 100.0),
            FaultModel::Drift { nu, time_ratio } => format!("drift ν={nu} t/t₀={time_ratio}"),
            FaultModel::LineDefect {
                orientation,
                rate,
                tile,
            } => {
                let lines = match orientation {
                    LineOrientation::Row => "rows",
                    LineOrientation::Col => "cols",
                };
                format!(
                    "line-defect {lines} {:.1}% ({}x{} tile)",
                    rate * 100.0,
                    tile.rows,
                    tile.cols
                )
            }
            FaultModel::CorrelatedDrift {
                nu,
                time_ratio,
                sigma_nu,
                tile,
            } => format!(
                "corr-drift ν={nu}±{sigma_nu} t/t₀={time_ratio} ({}x{} tile)",
                tile.rows, tile.cols
            ),
            FaultModel::None => "fault-free".to_string(),
        }
    }

    /// Whether this model perturbs anything at all.
    pub fn is_active(&self) -> bool {
        match *self {
            FaultModel::AdditiveVariation { sigma } => sigma > 0.0,
            FaultModel::MultiplicativeVariation { sigma } => sigma > 0.0,
            FaultModel::UniformNoise { strength } => strength > 0.0,
            FaultModel::BitFlip { rate, .. } => rate > 0.0,
            FaultModel::BinaryBitFlip { rate } => rate > 0.0,
            FaultModel::StuckAt { rate } => rate > 0.0,
            FaultModel::Drift { nu, time_ratio } => nu > 0.0 && time_ratio > 1.0,
            FaultModel::LineDefect { rate, .. } => rate > 0.0,
            FaultModel::CorrelatedDrift { nu, time_ratio, .. } => nu > 0.0 && time_ratio > 1.0,
            FaultModel::None => false,
        }
    }

    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns an error for non-finite or negative magnitudes, probabilities
    /// outside `[0, 1]`, invalid bit widths, a drift time ratio below one or
    /// degenerate (zero-extent) tile geometry.
    pub fn validate(&self) -> Result<()> {
        let fail = |msg: String| Err(NnError::Config(msg));
        let tile_ok = |tile: TileShape| -> Result<()> {
            if tile.rows == 0 || tile.cols == 0 {
                return Err(NnError::Config(format!(
                    "degenerate fault tile geometry {}x{}: a tile needs at least one word line and one bit line",
                    tile.rows, tile.cols
                )));
            }
            Ok(())
        };
        match *self {
            FaultModel::AdditiveVariation { sigma }
            | FaultModel::MultiplicativeVariation { sigma } => {
                if !sigma.is_finite() || sigma < 0.0 {
                    return fail(format!(
                        "variation sigma must be finite and >= 0, got {sigma}"
                    ));
                }
            }
            FaultModel::UniformNoise { strength } => {
                if !strength.is_finite() || strength < 0.0 {
                    return fail(format!(
                        "uniform noise strength must be finite and >= 0, got {strength}"
                    ));
                }
            }
            FaultModel::BitFlip { rate, bits } => {
                if !(0.0..=1.0).contains(&rate) {
                    return fail(format!("bit-flip rate must be in [0, 1], got {rate}"));
                }
                if !(2..=16).contains(&bits) {
                    return fail(format!("bit-flip bit width must be in [2, 16], got {bits}"));
                }
            }
            FaultModel::BinaryBitFlip { rate } | FaultModel::StuckAt { rate } => {
                if !(0.0..=1.0).contains(&rate) {
                    return fail(format!("fault rate must be in [0, 1], got {rate}"));
                }
            }
            FaultModel::Drift { nu, time_ratio } => {
                if !nu.is_finite() || nu < 0.0 {
                    return fail(format!("drift exponent must be finite and >= 0, got {nu}"));
                }
                if !time_ratio.is_finite() || time_ratio < 1.0 {
                    return fail(format!(
                        "drift time ratio must be finite and >= 1, got {time_ratio}"
                    ));
                }
            }
            FaultModel::LineDefect { rate, tile, .. } => {
                if !(0.0..=1.0).contains(&rate) {
                    return fail(format!("line-defect rate must be in [0, 1], got {rate}"));
                }
                tile_ok(tile)?;
            }
            FaultModel::CorrelatedDrift {
                nu,
                time_ratio,
                sigma_nu,
                tile,
            } => {
                if !nu.is_finite() || nu < 0.0 {
                    return fail(format!("drift exponent must be finite and >= 0, got {nu}"));
                }
                if !time_ratio.is_finite() || time_ratio < 1.0 {
                    return fail(format!(
                        "drift time ratio must be finite and >= 1, got {time_ratio}"
                    ));
                }
                if !sigma_nu.is_finite() || sigma_nu < 0.0 {
                    return fail(format!(
                        "drift exponent variation must be finite and >= 0, got {sigma_nu}"
                    ));
                }
                tile_ok(tile)?;
            }
            FaultModel::None => {}
        }
        Ok(())
    }

    /// When the model maps **every** weight to `w · factor` for one constant
    /// factor — retention drift, whose realization draws no randomness —
    /// returns that factor.
    ///
    /// Compiled plans exploit this to apply the realization directly to the
    /// cached packed-weight panels (packing is a permutation with zero
    /// padding, and `0 · factor == 0`, so scaling the packed clean operand is
    /// bit-identical to packing the scaled weights) instead of re-packing.
    pub fn uniform_scale(&self) -> Option<f32> {
        match *self {
            FaultModel::Drift { nu, time_ratio } if self.is_active() => Some(time_ratio.powf(-nu)),
            _ => None,
        }
    }

    /// Applies the fault model to a weight tensor, returning the perturbed
    /// tensor. The original is left untouched.
    ///
    /// Noise magnitudes for the variation models are interpreted relative to
    /// the tensor's own scale (its maximum absolute value), matching how the
    /// paper sweeps a dimensionless σ from 0 to 1 across models with very
    /// different weight magnitudes. This is [`FaultModel::perturb_into`]
    /// over the tensor's crossbar shape into a fresh tensor (every arm
    /// writes every element), so the two realization paths cannot diverge,
    /// and it advances `rng` exactly as that function does.
    ///
    /// # Errors
    ///
    /// Returns an error when the model parameters are invalid.
    pub fn perturb(&self, weights: &Tensor, rng: &mut Rng) -> Result<Tensor> {
        let mut out = Tensor::zeros(weights.dims());
        self.perturb_into(weights.data(), matrix_dims(weights), out.data_mut(), rng)?;
        Ok(out)
    }

    /// Applies the fault model to a clean weight slice with crossbar shape
    /// `(rows, cols)` (see [`FaultModel::perturb`]), writing into `dst` — the
    /// realization step of the planned engine, where B perturbed copies of
    /// each parameter land in a stacked buffer. Only the structured models
    /// use the shape; the bit-flip models quantize a copy of the slice.
    ///
    /// The two Gaussian variation arms draw **keyed**: they take exactly one
    /// `u64` from `rng` as a key, and weight `i` gets output `i mod 2` of
    /// [`vecmath::normal_pair`]`(key, i/2)` through the dispatched
    /// [`vecmath::add_normal`] / [`vecmath::scale_normal`] kernels (see
    /// [`FaultModel::keyed_variation`]), so the realization is bit-identical
    /// on every kernel tier. A draw is a pure function of the key and the
    /// element index, so the planned engine draws the same values straight
    /// into a packed weight panel, in the order its microkernel reads them
    /// ([`invnorm_nn::plan::PlanView::draw_packed`]). Every other arm draws
    /// from `rng` itself, in element, line or tile order (drift draws
    /// nothing).
    ///
    /// # Errors
    ///
    /// Returns an error when the model parameters are invalid, `dst` does
    /// not match `src`, or `rows · cols` does not cover `src`.
    pub fn perturb_into(
        &self,
        src: &[f32],
        (rows, cols): (usize, usize),
        dst: &mut [f32],
        rng: &mut Rng,
    ) -> Result<()> {
        self.validate()?;
        if dst.len() != src.len() || rows * cols != src.len() {
            return Err(NnError::Config(format!(
                "perturb_into destination holds {} elements, a [{rows}, {cols}] parameter has {}",
                dst.len(),
                src.len()
            )));
        }
        if !self.is_active() {
            dst.copy_from_slice(src);
            return Ok(());
        }
        if let Some(variation) = self.keyed_variation(src) {
            variation.apply(src, dst, rng.next_u64(), 0);
            return Ok(());
        }
        match *self {
            FaultModel::UniformNoise { strength } => {
                let span = strength * magnitude(src);
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = s + rng.uniform_range(-span, span);
                }
            }
            FaultModel::StuckAt { rate } => {
                let (lo, hi) = stuck_levels(src);
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = if rng.bernoulli(rate) {
                        if rng.bernoulli(0.5) {
                            lo
                        } else {
                            hi
                        }
                    } else {
                        s
                    };
                }
            }
            FaultModel::Drift { nu, time_ratio } => {
                let factor = time_ratio.powf(-nu);
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = s * factor;
                }
            }
            FaultModel::LineDefect {
                orientation,
                rate,
                tile,
            } => {
                let (lo, hi) = stuck_levels(src);
                dst.copy_from_slice(src);
                for_each_fired_line(
                    rows,
                    cols,
                    orientation,
                    rate,
                    tile,
                    rng,
                    |rr, cc, pick_lo| {
                        let level = if pick_lo { lo } else { hi };
                        for r in rr {
                            for c in cc.clone() {
                                dst[r * cols + c] = level;
                            }
                        }
                    },
                );
            }
            FaultModel::CorrelatedDrift {
                nu,
                time_ratio,
                sigma_nu,
                tile,
            } => {
                dst.copy_from_slice(src);
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
                                dst[r * cols + c] *= factor;
                            }
                        }
                    },
                );
            }
            // Both quantize per tensor (`abs`, `mean`, `max` are flat
            // folds), so a flat copy of the slice stands in for the tensor.
            FaultModel::BitFlip { rate, bits } => {
                let mut q = QuantizedTensor::quantize(&Tensor::from_slice(src), bits)?;
                flip_bits(&mut q, rate, rng);
                dst.copy_from_slice(q.dequantize().data());
            }
            FaultModel::BinaryBitFlip { rate } => {
                let mut b = BinaryTensor::binarize(&Tensor::from_slice(src));
                for s in b.signs_mut() {
                    if rng.bernoulli(rate) {
                        *s = !*s;
                    }
                }
                dst.copy_from_slice(b.dequantize().data());
            }
            FaultModel::None
            | FaultModel::AdditiveVariation { .. }
            | FaultModel::MultiplicativeVariation { .. } => {
                unreachable!("inactive and keyed models handled above")
            }
        }
        Ok(())
    }

    /// The keyed Gaussian variation an active variation model applies to
    /// the clean slice `clean` — additive at `σ · max|w|`, the slice's own
    /// scale, or multiplicative at `σ` — and `None` for every other or
    /// inactive model. The additive arm folds `max|w|` over `clean`, so a
    /// caller realizing one slice many times derives this once.
    pub fn keyed_variation(&self, clean: &[f32]) -> Option<vecmath::NormalVariation> {
        match *self {
            FaultModel::AdditiveVariation { sigma } if sigma > 0.0 => {
                Some(vecmath::NormalVariation::Additive {
                    std: sigma * magnitude(clean),
                })
            }
            FaultModel::MultiplicativeVariation { sigma } if sigma > 0.0 => {
                Some(vecmath::NormalVariation::Multiplicative { sigma })
            }
            _ => None,
        }
    }
}

/// A weight slice's scale for the noise models: its largest magnitude,
/// floored at `1e-12` so an all-zero slice still gets a finite magnitude.
fn magnitude(src: &[f32]) -> f32 {
    src.iter()
        .fold(f32::NEG_INFINITY, |m, &x| m.max(x.abs()))
        .max(1e-12)
}

/// The two stuck-cell levels of a weight slice (its minimum and maximum
/// value) — shared by [`FaultModel::perturb_into`] and the sparse
/// packed-domain stuck-at path in [`crate::injector`] so the two realization
/// paths cannot diverge. `(+inf, -inf)` for an empty slice, which no caller
/// ever writes anywhere (there are no cells to stick).
pub(crate) fn stuck_levels(src: &[f32]) -> (f32, f32) {
    let lo = src.iter().copied().fold(f32::INFINITY, f32::min);
    let hi = src.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    (lo, hi)
}

/// The crossbar-matrix interpretation of a parameter tensor: rank ≥ 2
/// tensors map their leading dimension to word lines and everything else to
/// bit lines (`[out, in·kh·kw]` for conv weights, exactly the row-major
/// layout the packed operands use); rank-0/1 tensors are a single column.
/// Shared by every structured-fault realization path so dense, sparse and
/// code-domain realizations partition the same geometry.
pub(crate) fn matrix_dims(t: &Tensor) -> (usize, usize) {
    if t.rank() >= 2 {
        let rows = t.dims()[0];
        let cols = t.numel().checked_div(rows).unwrap_or(0);
        (rows, cols)
    } else {
        (t.numel(), 1)
    }
}

/// The canonical line-defect iteration: partitions a `[rows, cols]` matrix
/// into `tile`-sized crossbar tiles and fires each word/bit-line segment
/// independently with probability `rate`, invoking `fired(row_range,
/// col_range, pick_lo)` for every failed line. **Every** realization path —
/// dense [`FaultModel::perturb`]/[`FaultModel::perturb_into`], the sparse
/// packed-domain injector and the code-domain injector — routes through this
/// function, so the draw order (and therefore the realization) cannot
/// diverge between paths: per line, one Bernoulli(rate) for failure, then
/// one Bernoulli(0.5) for the stuck level (low on success), matching
/// [`FaultModel::StuckAt`]'s convention.
pub(crate) fn for_each_fired_line(
    rows: usize,
    cols: usize,
    orientation: LineOrientation,
    rate: f32,
    tile: TileShape,
    rng: &mut Rng,
    mut fired: impl FnMut(std::ops::Range<usize>, std::ops::Range<usize>, bool),
) {
    if rows == 0 || cols == 0 {
        return;
    }
    match orientation {
        LineOrientation::Row => {
            for r in 0..rows {
                for c0 in (0..cols).step_by(tile.cols) {
                    if rng.bernoulli(rate) {
                        let pick_lo = rng.bernoulli(0.5);
                        fired(r..r + 1, c0..(c0 + tile.cols).min(cols), pick_lo);
                    }
                }
            }
        }
        LineOrientation::Col => {
            for r0 in (0..rows).step_by(tile.rows) {
                for c in 0..cols {
                    if rng.bernoulli(rate) {
                        let pick_lo = rng.bernoulli(0.5);
                        fired(r0..(r0 + tile.rows).min(rows), c..c + 1, pick_lo);
                    }
                }
            }
        }
    }
}

/// The canonical correlated-drift iteration: walks the `tile` partition of a
/// `[rows, cols]` matrix in row-major tile order, draws each tile's drift
/// exponent `ν_t = ν · (1 + N(0, σ_ν))` (clamped at zero — a cell cannot
/// un-age), and invokes `apply(row_range, col_range, (t/t₀)^(-ν_t))`. Shared
/// by every realization path for the same reason as
/// [`for_each_fired_line`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn for_each_drift_tile(
    rows: usize,
    cols: usize,
    nu: f32,
    time_ratio: f32,
    sigma_nu: f32,
    tile: TileShape,
    rng: &mut Rng,
    mut apply: impl FnMut(std::ops::Range<usize>, std::ops::Range<usize>, f32),
) {
    if rows == 0 || cols == 0 {
        return;
    }
    for r0 in (0..rows).step_by(tile.rows) {
        for c0 in (0..cols).step_by(tile.cols) {
            let nu_t = (nu * (1.0 + rng.normal(0.0, sigma_nu))).max(0.0);
            let factor = time_ratio.powf(-nu_t);
            apply(
                r0..(r0 + tile.rows).min(rows),
                c0..(c0 + tile.cols).min(cols),
                factor,
            );
        }
    }
}

/// Flips each bit of each quantized code independently with probability
/// `rate`, then clamps the codes back into the representable range (a flip of
/// the sign bit can otherwise escape it).
pub fn flip_bits(q: &mut QuantizedTensor, rate: f32, rng: &mut Rng) {
    let bits = q.bits();
    q.map_codes(|code| flip_code_bits(code, bits, rate, rng));
    q.clamp_codes();
}

/// Flips each of the low `bits` bits of one two's-complement code
/// independently with probability `rate`, sign-extending the result. The
/// scalar core of [`flip_bits`], shared with the code-domain injector in
/// [`crate::injector`].
pub fn flip_code_bits(code: i32, bits: u8, rate: f32, rng: &mut Rng) -> i32 {
    // Represent the signed code in two's complement over `bits` bits.
    let mask = (1i32 << bits) - 1;
    let mut raw = code & mask;
    for b in 0..bits {
        if rng.bernoulli(rate) {
            raw ^= 1 << b;
        }
    }
    // Sign-extend back.
    let sign_bit = 1i32 << (bits - 1);
    if raw & sign_bit != 0 {
        raw - (1 << bits)
    } else {
        raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invnorm_tensor::Rng;
    use proptest::prelude::*;

    fn sample_weights(seed: u64) -> (Tensor, Rng) {
        let mut rng = Rng::seed_from(seed);
        let w = Tensor::randn(&[256], 0.0, 0.5, &mut rng);
        (w, rng)
    }

    #[test]
    fn labels_and_activity() {
        assert!(FaultModel::None.label().contains("fault-free"));
        assert!(FaultModel::BitFlip { rate: 0.1, bits: 8 }
            .label()
            .contains("10.0%"));
        assert!(!FaultModel::None.is_active());
        assert!(!FaultModel::AdditiveVariation { sigma: 0.0 }.is_active());
        assert!(FaultModel::AdditiveVariation { sigma: 0.1 }.is_active());
        assert!(FaultModel::default() == FaultModel::None);
        let tile = TileShape { rows: 8, cols: 16 };
        let line = FaultModel::LineDefect {
            orientation: LineOrientation::Row,
            rate: 0.05,
            tile,
        };
        assert!(line.label().contains("line-defect rows"));
        assert!(line.label().contains("8x16"));
        assert!(line.is_active());
        assert!(!FaultModel::LineDefect {
            orientation: LineOrientation::Col,
            rate: 0.0,
            tile,
        }
        .is_active());
        let cd = FaultModel::CorrelatedDrift {
            nu: 0.05,
            time_ratio: 100.0,
            sigma_nu: 0.3,
            tile,
        };
        assert!(cd.label().contains("corr-drift"));
        assert!(cd.is_active());
        assert!(
            cd.uniform_scale().is_none(),
            "per-tile drift is not uniform"
        );
        assert!(!FaultModel::CorrelatedDrift {
            nu: 0.0,
            time_ratio: 100.0,
            sigma_nu: 0.3,
            tile,
        }
        .is_active());
        // Constructors pick the tile geometry up from the crossbar config.
        let config = CrossbarConfig {
            tile_rows: 4,
            tile_cols: 2,
            ..Default::default()
        };
        match FaultModel::line_defect(LineOrientation::Col, 0.1, &config) {
            FaultModel::LineDefect { tile, .. } => {
                assert_eq!(tile, TileShape { rows: 4, cols: 2 });
            }
            other => panic!("unexpected model {other:?}"),
        }
        match FaultModel::correlated_drift(0.05, 10.0, 0.2, &config) {
            FaultModel::CorrelatedDrift { tile, .. } => {
                assert_eq!(tile, config.tile());
            }
            other => panic!("unexpected model {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(FaultModel::AdditiveVariation { sigma: -0.1 }
            .validate()
            .is_err());
        assert!(FaultModel::BitFlip { rate: 1.5, bits: 8 }
            .validate()
            .is_err());
        assert!(FaultModel::BitFlip { rate: 0.1, bits: 1 }
            .validate()
            .is_err());
        assert!(FaultModel::StuckAt { rate: -0.1 }.validate().is_err());
        assert!(FaultModel::Drift {
            nu: 0.05,
            time_ratio: 0.5
        }
        .validate()
        .is_err());
        assert!(FaultModel::Drift {
            nu: -0.05,
            time_ratio: 2.0
        }
        .validate()
        .is_err());
        assert!(FaultModel::UniformNoise { strength: -1.0 }
            .validate()
            .is_err());
        assert!(FaultModel::None.validate().is_ok());
    }

    #[test]
    fn validation_rejects_non_finite_parameters() {
        // NaN slips past a plain `< 0.0` comparison; every magnitude
        // parameter must be checked for finiteness explicitly.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert!(
                FaultModel::AdditiveVariation { sigma: bad }
                    .validate()
                    .is_err(),
                "additive sigma {bad} accepted"
            );
            assert!(FaultModel::MultiplicativeVariation { sigma: bad }
                .validate()
                .is_err());
            assert!(FaultModel::UniformNoise { strength: bad }
                .validate()
                .is_err());
            assert!(FaultModel::BitFlip { rate: bad, bits: 8 }
                .validate()
                .is_err());
            assert!(FaultModel::StuckAt { rate: bad }.validate().is_err());
            assert!(FaultModel::Drift {
                nu: bad,
                time_ratio: 2.0
            }
            .validate()
            .is_err());
            assert!(FaultModel::Drift {
                nu: 0.05,
                time_ratio: bad
            }
            .validate()
            .is_err());
        }
    }

    #[test]
    fn validation_rejects_bad_structured_parameters() {
        let tile = TileShape { rows: 4, cols: 4 };
        let line = |rate, tile| FaultModel::LineDefect {
            orientation: LineOrientation::Row,
            rate,
            tile,
        };
        assert!(line(0.1, tile).validate().is_ok());
        assert!(line(-0.1, tile).validate().is_err());
        assert!(line(1.5, tile).validate().is_err());
        assert!(line(f32::NAN, tile).validate().is_err());
        assert!(line(0.1, TileShape { rows: 0, cols: 4 })
            .validate()
            .is_err());
        assert!(line(0.1, TileShape { rows: 4, cols: 0 })
            .validate()
            .is_err());
        let cd = |nu, time_ratio, sigma_nu, tile| FaultModel::CorrelatedDrift {
            nu,
            time_ratio,
            sigma_nu,
            tile,
        };
        assert!(cd(0.05, 10.0, 0.2, tile).validate().is_ok());
        assert!(cd(-0.05, 10.0, 0.2, tile).validate().is_err());
        assert!(cd(f32::NAN, 10.0, 0.2, tile).validate().is_err());
        assert!(cd(0.05, 0.5, 0.2, tile).validate().is_err());
        assert!(cd(0.05, f32::INFINITY, 0.2, tile).validate().is_err());
        assert!(cd(0.05, 10.0, -0.2, tile).validate().is_err());
        assert!(cd(0.05, 10.0, f32::NAN, tile).validate().is_err());
        assert!(cd(0.05, 10.0, 0.2, TileShape { rows: 0, cols: 0 })
            .validate()
            .is_err());
    }

    #[test]
    fn additive_variation_magnitude_scales_with_sigma() {
        let (w, mut rng) = sample_weights(1);
        let small = FaultModel::AdditiveVariation { sigma: 0.05 }
            .perturb(&w, &mut rng)
            .unwrap();
        let large = FaultModel::AdditiveVariation { sigma: 0.5 }
            .perturb(&w, &mut rng)
            .unwrap();
        let err_small = small.sub(&w).unwrap().abs().mean();
        let err_large = large.sub(&w).unwrap().abs().mean();
        assert!(err_large > err_small * 3.0);
    }

    #[test]
    fn multiplicative_variation_preserves_zeros() {
        let mut rng = Rng::seed_from(2);
        let w = Tensor::from_vec(vec![0.0, 1.0, -2.0, 0.0], &[4]).unwrap();
        let p = FaultModel::MultiplicativeVariation { sigma: 0.3 }
            .perturb(&w, &mut rng)
            .unwrap();
        assert_eq!(p.data()[0], 0.0);
        assert_eq!(p.data()[3], 0.0);
        assert_ne!(p.data()[1], 1.0);
    }

    #[test]
    fn uniform_noise_is_bounded() {
        let (w, mut rng) = sample_weights(3);
        let strength = 0.2f32;
        let scale = w.abs().max();
        let p = FaultModel::UniformNoise { strength }
            .perturb(&w, &mut rng)
            .unwrap();
        let max_dev = p.sub(&w).unwrap().abs().max();
        assert!(max_dev <= strength * scale + 1e-6);
    }

    #[test]
    fn bitflip_rate_zero_is_quantization_only() {
        let (w, mut rng) = sample_weights(4);
        let p = FaultModel::BitFlip { rate: 0.0, bits: 8 }
            .perturb(&w, &mut rng)
            .unwrap();
        // rate 0 is inactive → returns the original weights unchanged.
        assert!(p.approx_eq(&w, 1e-6));
    }

    #[test]
    fn bitflip_corrupts_more_with_higher_rate() {
        let (w, mut rng) = sample_weights(5);
        let p_low = FaultModel::BitFlip {
            rate: 0.01,
            bits: 8,
        }
        .perturb(&w, &mut rng)
        .unwrap();
        let p_high = FaultModel::BitFlip { rate: 0.3, bits: 8 }
            .perturb(&w, &mut rng)
            .unwrap();
        let err_low = p_low.sub(&w).unwrap().abs().mean();
        let err_high = p_high.sub(&w).unwrap().abs().mean();
        assert!(err_high > err_low);
    }

    #[test]
    fn binary_bitflip_flips_expected_fraction() {
        let mut rng = Rng::seed_from(6);
        let w = Tensor::rand_uniform(&[10_000], -1.0, 1.0, &mut rng);
        let binarized = BinaryTensor::binarize(&w).dequantize();
        let flipped = FaultModel::BinaryBitFlip { rate: 0.2 }
            .perturb(&w, &mut rng)
            .unwrap();
        let changed = binarized
            .data()
            .iter()
            .zip(flipped.data().iter())
            .filter(|(a, b)| (*a - *b).abs() > 1e-9)
            .count();
        let rate = changed as f32 / w.numel() as f32;
        assert!((rate - 0.2).abs() < 0.02, "flip rate {rate}");
    }

    #[test]
    fn stuck_at_pins_to_extremes() {
        let mut rng = Rng::seed_from(7);
        let w = Tensor::linspace(-1.0, 1.0, 1000);
        let p = FaultModel::StuckAt { rate: 0.3 }
            .perturb(&w, &mut rng)
            .unwrap();
        let changed: Vec<(f32, f32)> = w
            .data()
            .iter()
            .zip(p.data().iter())
            .filter(|(a, b)| a != b)
            .map(|(a, b)| (*a, *b))
            .collect();
        assert!(!changed.is_empty());
        for (_, new) in changed {
            assert!(new == -1.0 || new == 1.0);
        }
    }

    #[test]
    fn drift_shrinks_magnitudes() {
        let mut rng = Rng::seed_from(8);
        let w = Tensor::from_vec(vec![1.0, -2.0, 0.5], &[3]).unwrap();
        let p = FaultModel::Drift {
            nu: 0.1,
            time_ratio: 100.0,
        }
        .perturb(&w, &mut rng)
        .unwrap();
        for (orig, drifted) in w.data().iter().zip(p.data().iter()) {
            assert!(drifted.abs() < orig.abs());
            assert_eq!(orig.signum(), drifted.signum());
        }
    }

    #[test]
    fn line_defects_stick_whole_tile_lines() {
        // Re-walk the canonical line iteration with a cloned RNG: the dense
        // realization must equal exactly the expected matrix (fired segments
        // at their stuck level, everything else untouched), and every fired
        // segment must span a full tile line clipped to the matrix.
        let mut rng = Rng::seed_from(40);
        let (rows, cols) = (10usize, 13usize);
        let tile = TileShape { rows: 4, cols: 5 };
        let w = Tensor::randn(&[rows, cols], 0.0, 1.0, &mut rng);
        for orientation in [LineOrientation::Row, LineOrientation::Col] {
            let model = FaultModel::LineDefect {
                orientation,
                rate: 0.3,
                tile,
            };
            let mut rng_a = Rng::seed_from(41);
            let mut rng_b = Rng::seed_from(41);
            let p = model.perturb(&w, &mut rng_a).unwrap();
            let (lo, hi) = stuck_levels(w.data());
            let mut expected = w.clone();
            for_each_fired_line(
                rows,
                cols,
                orientation,
                0.3,
                tile,
                &mut rng_b,
                |rr, cc, pick_lo| {
                    // A fired segment is one full tile line clipped to the
                    // matrix: unit extent across the line, tile extent along
                    // it, starting on a tile boundary.
                    match orientation {
                        LineOrientation::Row => {
                            assert_eq!(rr.len(), 1);
                            assert_eq!(cc.start % tile.cols, 0);
                            assert!(cc.len() == tile.cols || cc.end == cols);
                        }
                        LineOrientation::Col => {
                            assert_eq!(cc.len(), 1);
                            assert_eq!(rr.start % tile.rows, 0);
                            assert!(rr.len() == tile.rows || rr.end == rows);
                        }
                    }
                    let level = if pick_lo { lo } else { hi };
                    for r in rr {
                        for c in cc.clone() {
                            expected.data_mut()[r * cols + c] = level;
                        }
                    }
                },
            );
            let identical = p
                .data()
                .iter()
                .zip(expected.data().iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                identical,
                "{orientation:?} defects diverged from the canonical lines"
            );
            assert!(!p.approx_eq(&w, 1e-9), "rate 0.3 should fire some line");
        }
    }

    #[test]
    fn correlated_drift_is_coherent_within_tiles() {
        // On an all-ones matrix the output *is* the per-tile factor: cells
        // of one tile must share it exactly, and with a generous σ_ν tiles
        // must disagree.
        let rows = 8usize;
        let cols = 8usize;
        let tile = TileShape { rows: 4, cols: 4 };
        let w = Tensor::from_vec(vec![1.0; rows * cols], &[rows, cols]).unwrap();
        let mut rng = Rng::seed_from(42);
        let p = FaultModel::CorrelatedDrift {
            nu: 0.1,
            time_ratio: 100.0,
            sigma_nu: 0.5,
            tile,
        }
        .perturb(&w, &mut rng)
        .unwrap();
        let mut factors = Vec::new();
        for r0 in (0..rows).step_by(tile.rows) {
            for c0 in (0..cols).step_by(tile.cols) {
                let f = p.data()[r0 * cols + c0];
                for r in r0..r0 + tile.rows {
                    for c in c0..c0 + tile.cols {
                        assert_eq!(
                            p.data()[r * cols + c].to_bits(),
                            f.to_bits(),
                            "tile ({r0},{c0}) is not coherent at ({r},{c})"
                        );
                    }
                }
                assert!(f > 0.0 && f <= 1.0, "factor {f} cannot grow magnitudes");
                factors.push(f.to_bits());
            }
        }
        factors.sort_unstable();
        factors.dedup();
        assert!(factors.len() > 1, "tiles drew identical factors");
    }

    #[test]
    fn perturb_into_is_bit_identical_to_perturb() {
        let (w, _) = sample_weights(20);
        let models = [
            FaultModel::None,
            FaultModel::AdditiveVariation { sigma: 0.4 },
            FaultModel::MultiplicativeVariation { sigma: 0.3 },
            FaultModel::UniformNoise { strength: 0.2 },
            FaultModel::BitFlip {
                rate: 0.05,
                bits: 8,
            },
            FaultModel::BinaryBitFlip { rate: 0.2 },
            FaultModel::StuckAt { rate: 0.3 },
            FaultModel::Drift {
                nu: 0.05,
                time_ratio: 50.0,
            },
            FaultModel::LineDefect {
                orientation: LineOrientation::Row,
                rate: 0.1,
                tile: TileShape { rows: 8, cols: 8 },
            },
            FaultModel::LineDefect {
                orientation: LineOrientation::Col,
                rate: 0.1,
                tile: TileShape { rows: 8, cols: 8 },
            },
            FaultModel::CorrelatedDrift {
                nu: 0.05,
                time_ratio: 50.0,
                sigma_nu: 0.5,
                tile: TileShape { rows: 8, cols: 8 },
            },
        ];
        for model in models {
            let mut rng_a = Rng::seed_from(777);
            let mut rng_b = Rng::seed_from(777);
            let allocated = model.perturb(&w, &mut rng_a).unwrap();
            let mut dst = vec![0.0f32; w.numel()];
            model
                .perturb_into(w.data(), matrix_dims(&w), &mut dst, &mut rng_b)
                .unwrap();
            let identical = allocated
                .data()
                .iter()
                .zip(dst.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(identical, "{model:?} perturb_into diverged from perturb");
            // The two paths must also leave the RNG in the same state, so a
            // subsequent parameter draws the same stream either way.
            assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "{model:?} rng state");
        }
        // Length mismatch is rejected.
        let mut short = vec![0.0f32; 3];
        assert!(FaultModel::None
            .perturb_into(
                w.data(),
                matrix_dims(&w),
                &mut short,
                &mut Rng::seed_from(1)
            )
            .is_err());
    }

    #[test]
    fn edge_rates_are_consistent_across_realization_paths() {
        // rate = 0.0 (inactive) and rate = 1.0 (every cell fires) must be
        // handled identically by the allocating and the zero-alloc paths —
        // including the RNG stream they leave behind.
        let (w, _) = sample_weights(21);
        let models = [
            FaultModel::StuckAt { rate: 0.0 },
            FaultModel::StuckAt { rate: 1.0 },
            FaultModel::BitFlip { rate: 1.0, bits: 8 },
            FaultModel::BinaryBitFlip { rate: 1.0 },
            FaultModel::AdditiveVariation { sigma: 0.0 },
            FaultModel::UniformNoise { strength: 0.0 },
            FaultModel::Drift {
                nu: 0.0,
                time_ratio: 100.0,
            },
            FaultModel::Drift {
                nu: 0.1,
                time_ratio: 1.0,
            },
        ];
        for model in models {
            model.validate().unwrap();
            let mut rng_a = Rng::seed_from(99);
            let mut rng_b = Rng::seed_from(99);
            let allocated = model.perturb(&w, &mut rng_a).unwrap();
            let mut dst = vec![0.0f32; w.numel()];
            model
                .perturb_into(w.data(), matrix_dims(&w), &mut dst, &mut rng_b)
                .unwrap();
            let identical = allocated
                .data()
                .iter()
                .zip(dst.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(identical, "{model:?} paths diverged at an edge rate");
            assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "{model:?} rng state");
        }
        // rate = 1.0 stuck-at pins every cell to an extreme.
        let mut rng = Rng::seed_from(100);
        let p = FaultModel::StuckAt { rate: 1.0 }
            .perturb(&w, &mut rng)
            .unwrap();
        let (lo, hi) = (w.min(), w.max());
        assert!(p.data().iter().all(|&v| v == lo || v == hi));
        // Drift with time_ratio = 1 or nu = 0 is exactly the identity.
        let d = FaultModel::Drift {
            nu: 0.1,
            time_ratio: 1.0,
        };
        assert!(!d.is_active() && d.uniform_scale().is_none());
    }

    #[test]
    fn zero_length_parameters_are_harmless() {
        // A degenerate rank-1/rank-2 parameter with zero elements must not
        // panic or draw from the stream differently across paths.
        let w = Tensor::zeros(&[0]);
        for model in [
            FaultModel::AdditiveVariation { sigma: 0.5 },
            FaultModel::MultiplicativeVariation { sigma: 0.5 },
            FaultModel::UniformNoise { strength: 0.5 },
            FaultModel::StuckAt { rate: 0.7 },
            FaultModel::Drift {
                nu: 0.05,
                time_ratio: 10.0,
            },
            FaultModel::LineDefect {
                orientation: LineOrientation::Row,
                rate: 0.5,
                tile: TileShape { rows: 4, cols: 4 },
            },
            FaultModel::CorrelatedDrift {
                nu: 0.05,
                time_ratio: 10.0,
                sigma_nu: 0.5,
                tile: TileShape { rows: 4, cols: 4 },
            },
            FaultModel::None,
        ] {
            let mut rng_a = Rng::seed_from(7);
            let mut rng_b = Rng::seed_from(7);
            let p = model.perturb(&w, &mut rng_a).unwrap();
            assert_eq!(p.numel(), 0, "{model:?}");
            let mut dst: Vec<f32> = Vec::new();
            model
                .perturb_into(w.data(), matrix_dims(&w), &mut dst, &mut rng_b)
                .unwrap();
            assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "{model:?} rng state");
        }
        let (lo, hi) = stuck_levels(&[]);
        assert!(lo.is_infinite() && hi.is_infinite());
    }

    #[test]
    fn flip_bits_keeps_codes_in_range() {
        let mut rng = Rng::seed_from(9);
        let w = Tensor::randn(&[512], 0.0, 1.0, &mut rng);
        let mut q = QuantizedTensor::quantize(&w, 4).unwrap();
        flip_bits(&mut q, 0.5, &mut rng);
        let qmax = QuantizedTensor::qmax_for(4);
        assert!(q.iter_codes().all(|c| c.abs() <= qmax));
    }

    proptest! {
        #[test]
        fn prop_inactive_models_are_identity(values in proptest::collection::vec(-2.0f32..2.0, 1..64)) {
            let w = Tensor::from_slice(&values);
            let mut rng = Rng::seed_from(10);
            for model in [
                FaultModel::None,
                FaultModel::AdditiveVariation { sigma: 0.0 },
                FaultModel::MultiplicativeVariation { sigma: 0.0 },
                FaultModel::UniformNoise { strength: 0.0 },
                FaultModel::BinaryBitFlip { rate: 0.0 },
                FaultModel::StuckAt { rate: 0.0 },
                FaultModel::LineDefect {
                    orientation: LineOrientation::Row,
                    rate: 0.0,
                    tile: TileShape { rows: 4, cols: 4 },
                },
                FaultModel::CorrelatedDrift {
                    nu: 0.0,
                    time_ratio: 100.0,
                    sigma_nu: 0.5,
                    tile: TileShape { rows: 4, cols: 4 },
                },
            ] {
                let p = model.perturb(&w, &mut rng).unwrap();
                prop_assert!(p.approx_eq(&w, 0.0));
            }
        }

        #[test]
        fn prop_line_defect_cells_cover_exactly_whole_lines(
            rows in 1usize..12,
            cols in 1usize..12,
            tr in 1usize..6,
            tc in 1usize..6,
            rate in 0.0f32..1.0,
            row_lines in 0u32..2,
            seed in 0u32..1_000,
        ) {
            // The set of cells the dense realization may touch is exactly
            // the union of whole (clipped) tile lines the canonical
            // iteration fires — no partial lines, no stray cells.
            let seed = u64::from(seed);
            let tile = TileShape { rows: tr, cols: tc };
            let orientation = if row_lines == 1 { LineOrientation::Row } else { LineOrientation::Col };
            let mut init = Rng::seed_from(seed ^ 0xABCD);
            let w = Tensor::randn(&[rows, cols], 0.0, 1.0, &mut init);
            let model = FaultModel::LineDefect { orientation, rate, tile };
            let mut rng_a = Rng::seed_from(seed);
            let mut rng_b = Rng::seed_from(seed);
            let p = model.perturb(&w, &mut rng_a).unwrap();
            let (lo, hi) = stuck_levels(w.data());
            let mut fired = vec![false; rows * cols];
            let mut expected = w.data().to_vec();
            let mut segments = Vec::new();
            for_each_fired_line(rows, cols, orientation, rate, tile, &mut rng_b, |rr, cc, pick_lo| {
                segments.push((rr, cc, pick_lo));
            });
            for (rr, cc, pick_lo) in segments {
                prop_assert!(match orientation {
                    LineOrientation::Row => rr.len() == 1 && cc.start % tile.cols == 0
                        && (cc.len() == tile.cols || cc.end == cols),
                    LineOrientation::Col => cc.len() == 1 && rr.start % tile.rows == 0
                        && (rr.len() == tile.rows || rr.end == rows),
                });
                for r in rr {
                    for c in cc.clone() {
                        fired[r * cols + c] = true;
                        expected[r * cols + c] = if pick_lo { lo } else { hi };
                    }
                }
            }
            for (i, (&got, &want)) in p.data().iter().zip(expected.iter()).enumerate() {
                prop_assert_eq!(got.to_bits(), want.to_bits());
                if !fired[i] {
                    prop_assert_eq!(got.to_bits(), w.data()[i].to_bits());
                }
            }
        }

        #[test]
        fn prop_perturbed_shape_matches(values in proptest::collection::vec(-2.0f32..2.0, 1..64), sigma in 0.0f32..1.0) {
            let w = Tensor::from_slice(&values);
            let mut rng = Rng::seed_from(11);
            for model in [
                FaultModel::AdditiveVariation { sigma },
                FaultModel::MultiplicativeVariation { sigma },
                FaultModel::BitFlip { rate: sigma.min(0.9), bits: 8 },
                FaultModel::StuckAt { rate: sigma.min(1.0) },
            ] {
                let p = model.perturb(&w, &mut rng).unwrap();
                prop_assert_eq!(p.dims(), w.dims());
                prop_assert!(!p.has_non_finite());
            }
        }
    }
}
