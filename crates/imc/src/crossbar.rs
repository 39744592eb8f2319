//! Differential-pair crossbar model.
//!
//! This module models the analog matrix-vector-multiplication path the paper
//! targets: weights are programmed as conductance pairs `(G⁺, G⁻)` in a
//! crossbar of NVM cells, inputs are applied as DAC-quantized voltages, the
//! bit-line currents implement the weighted sum, and ADCs digitize the
//! result. Conductance variation is applied at programming time, which is the
//! physical origin of the additive/multiplicative weight noise abstraction
//! used by [`crate::fault`].
//!
//! The crossbar is not needed to reproduce the paper's robustness curves
//! (the paper itself evaluates with the algorithmic abstraction), but it
//! closes the loop from "weights in a file" to "currents in an array". No
//! example uses it: it is exercised by `tests/fault_injection_pipeline.rs`
//! and the `crossbar_matvec` point of the `layer_throughput` bench.

use crate::Result;
use invnorm_nn::NnError;
use invnorm_quant::uniform::QuantizedTensor;
use invnorm_tensor::{ops, Rng, Tensor};
use serde::{Deserialize, Serialize};

/// Physical tile extents of a crossbar: the granularity at which line
/// defects and correlated drift act. A weight matrix larger than one tile is
/// partitioned into `⌈rows/tile.rows⌉ × ⌈cols/tile.cols⌉` tiles (the last
/// tile row/column may be ragged); a whole word line or bit line failing
/// takes out the corresponding weight-matrix segment within one tile, not
/// the full matrix extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileShape {
    /// Word lines per tile (weight-matrix rows).
    pub rows: usize,
    /// Bit lines per tile (weight-matrix columns).
    pub cols: usize,
}

/// Device and converter parameters of a crossbar tile.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CrossbarConfig {
    /// Number of distinct conductance levels a cell can be programmed to.
    pub conductance_levels: u32,
    /// Minimum programmable conductance (arbitrary units).
    pub g_min: f32,
    /// Maximum programmable conductance (arbitrary units).
    pub g_max: f32,
    /// Relative programming variation applied to every programmed cell
    /// (`G ← G · (1 + N(0, σ))`).
    pub programming_sigma: f32,
    /// DAC resolution in bits for the input voltages.
    pub dac_bits: u8,
    /// ADC resolution in bits for the output currents.
    pub adc_bits: u8,
    /// Word lines per physical tile (structured-fault granularity).
    pub tile_rows: usize,
    /// Bit lines per physical tile (structured-fault granularity).
    pub tile_cols: usize,
}

impl Default for CrossbarConfig {
    fn default() -> Self {
        Self {
            conductance_levels: 16,
            g_min: 0.1,
            g_max: 1.0,
            programming_sigma: 0.0,
            dac_bits: 8,
            adc_bits: 8,
            tile_rows: 64,
            tile_cols: 64,
        }
    }
}

impl CrossbarConfig {
    /// The physical tile extents (structured-fault granularity).
    pub fn tile(&self) -> TileShape {
        TileShape {
            rows: self.tile_rows,
            cols: self.tile_cols,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error for non-physical parameter values, including
    /// degenerate (zero-extent) tile geometry.
    pub fn validate(&self) -> Result<()> {
        if self.conductance_levels < 2 {
            return Err(NnError::Config(
                "a crossbar cell needs at least two conductance levels".into(),
            ));
        }
        if self.g_min < 0.0 || self.g_max <= self.g_min {
            return Err(NnError::Config(format!(
                "invalid conductance range [{}, {}]",
                self.g_min, self.g_max
            )));
        }
        if self.programming_sigma < 0.0 {
            return Err(NnError::Config("programming sigma must be >= 0".into()));
        }
        if !(2..=16).contains(&self.dac_bits) || !(2..=16).contains(&self.adc_bits) {
            return Err(NnError::Config(
                "DAC/ADC resolution must be between 2 and 16 bits".into(),
            ));
        }
        if self.tile_rows == 0 || self.tile_cols == 0 {
            return Err(NnError::Config(format!(
                "degenerate crossbar tile geometry {}x{}: a tile needs at least one word line and one bit line",
                self.tile_rows, self.tile_cols
            )));
        }
        Ok(())
    }
}

/// A programmed crossbar tile holding one weight matrix `[rows, cols]` as two
/// conductance matrices (positive and negative lines).
#[derive(Debug, Clone)]
pub struct CrossbarArray {
    config: CrossbarConfig,
    g_pos: Tensor,
    g_neg: Tensor,
    scale: f32,
    rows: usize,
    cols: usize,
}

impl CrossbarArray {
    /// Programs a weight matrix `[rows, cols]` into a crossbar tile.
    ///
    /// Weights are first quantized to the cell's level count, then the
    /// **integer codes** are programmed via
    /// [`CrossbarArray::program_codes`] — the same path a host would use to
    /// program real hardware, and the hook the code-domain fault injection
    /// uses (perturb the codes, then program).
    ///
    /// # Errors
    ///
    /// Returns an error when the weights are not rank-2 or the configuration
    /// is invalid.
    pub fn program(weights: &Tensor, config: CrossbarConfig, rng: &mut Rng) -> Result<Self> {
        config.validate()?;
        ops::as_matrix_dims(weights)?;
        // Quantize to the number of programmable levels (per differential
        // half, so effectively levels-1 magnitude steps).
        let bits = (32 - (config.conductance_levels - 1).leading_zeros()).clamp(2, 16) as u8;
        let q = QuantizedTensor::quantize(weights, bits)?;
        Self::program_codes(&q, config, rng)
    }

    /// Programs a tile **directly from quantized integer codes**: each code's
    /// effective value (`code - zero_point`) selects the on-conductance of
    /// its differential half, without ever reconstructing a f32 weight
    /// tensor. Fault realizations applied to the codes beforehand (bit
    /// flips, stuck-at cells) therefore land exactly where the hardware
    /// applies them.
    ///
    /// Symmetric codes (`zero_point == 0`) map magnitudes over
    /// `[0, qmax]`; asymmetric (affine) codes map over
    /// `[0, qmax + |zero_point|]`, so the full effective range still fits
    /// the conductance window.
    ///
    /// # Errors
    ///
    /// Returns an error when the codes are not rank-2, carry per-channel
    /// scales (a crossbar tile stores one weight scale), or the
    /// configuration is invalid.
    pub fn program_codes(
        q: &QuantizedTensor,
        config: CrossbarConfig,
        rng: &mut Rng,
    ) -> Result<Self> {
        config.validate()?;
        let dims = q.dims();
        if dims.len() != 2 {
            return Err(NnError::Config(format!(
                "crossbar programming expects a rank-2 code matrix, got {dims:?}"
            )));
        }
        if q.is_per_channel() {
            return Err(NnError::Config(
                "crossbar programming needs a per-tensor scale; fold per-channel scales first"
                    .into(),
            ));
        }
        let (rows, cols) = (dims[0], dims[1]);
        if config.tile_rows > rows || config.tile_cols > cols {
            return Err(NnError::Config(format!(
                "crossbar tile {}x{} exceeds the {rows}x{cols} weight matrix; shrink the tile to the matrix extents",
                config.tile_rows, config.tile_cols
            )));
        }
        let qmax = QuantizedTensor::qmax_for(q.bits());
        let zp = q.zero_point();
        // Largest effective |code - zp| the representable range can produce.
        let emax = (qmax + zp.abs()).max(1) as f32;
        let g_range = config.g_max - config.g_min;
        let mut g_pos = Tensor::zeros(&[rows, cols]);
        let mut g_neg = Tensor::zeros(&[rows, cols]);
        for i in 0..q.numel() {
            let effective = q.code(i) - zp;
            let magnitude = (effective.unsigned_abs() as f32 / emax).min(1.0); // in [0, 1]
            let g_on = config.g_min + magnitude * g_range;
            let g_off = config.g_min;
            let (p, n) = if effective >= 0 {
                (g_on, g_off)
            } else {
                (g_off, g_on)
            };
            let noise_p = 1.0 + rng.normal(0.0, config.programming_sigma);
            let noise_n = 1.0 + rng.normal(0.0, config.programming_sigma);
            g_pos.data_mut()[i] = (p * noise_p).clamp(0.0, config.g_max * 2.0);
            g_neg.data_mut()[i] = (n * noise_n).clamp(0.0, config.g_max * 2.0);
        }
        Ok(Self {
            config,
            g_pos,
            g_neg,
            scale: emax * q.scale() / g_range,
            rows,
            cols,
        })
    }

    /// Number of word lines (weight-matrix rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bit lines (weight-matrix columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The effective weight matrix currently stored in the array
    /// (`(G⁺ − G⁻) · scale`), i.e. what the analog MVM actually computes.
    pub fn effective_weights(&self) -> Tensor {
        self.g_pos
            .sub(&self.g_neg)
            .expect("conductance matrices share a shape")
            .scale(self.scale)
    }

    /// Performs the analog matrix-vector multiplication `x · Wᵀ` for a batch
    /// of input rows `[N, rows]`, including DAC quantization of the inputs and
    /// ADC quantization of the outputs.
    ///
    /// # Errors
    ///
    /// Returns an error when the input width does not match the array.
    pub fn matvec(&self, inputs: &Tensor) -> Result<Tensor> {
        let (_, in_features) = ops::as_matrix_dims(inputs)?;
        if in_features != self.rows {
            return Err(NnError::Config(format!(
                "crossbar has {} word lines but input provides {in_features} features",
                self.rows
            )));
        }
        // DAC: quantize input voltages.
        let x = QuantizedTensor::quantize(inputs, self.config.dac_bits)?.dequantize();
        // Analog MVM on the differential pair.
        let weights = self.effective_weights(); // [rows, cols]
        let currents = ops::matmul(&x, &weights)?; // [N, cols]
                                                   // ADC: quantize the output currents.
        Ok(QuantizedTensor::quantize(&currents, self.config.adc_bits)?.dequantize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(CrossbarConfig::default().validate().is_ok());
        assert!(CrossbarConfig {
            conductance_levels: 1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(CrossbarConfig {
            g_min: 1.0,
            g_max: 0.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(CrossbarConfig {
            dac_bits: 1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(CrossbarConfig {
            programming_sigma: -0.1,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn degenerate_tile_geometry_is_rejected() {
        // Zero-extent tiles are caught by validation with a typed error.
        for (tr, tc) in [(0usize, 64usize), (64, 0), (0, 0)] {
            let config = CrossbarConfig {
                tile_rows: tr,
                tile_cols: tc,
                ..Default::default()
            };
            let err = config.validate().unwrap_err();
            assert!(
                matches!(&err, NnError::Config(msg) if msg.contains("tile")),
                "unexpected error for tile {tr}x{tc}: {err}"
            );
        }
        // A tile larger than the programmed matrix is rejected at program
        // time (the matrix extents are only known there).
        let mut rng = Rng::seed_from(30);
        let w = Tensor::randn(&[4, 4], 0.0, 0.5, &mut rng);
        let config = CrossbarConfig {
            tile_rows: 8,
            tile_cols: 4,
            ..Default::default()
        };
        assert_eq!(config.tile(), TileShape { rows: 8, cols: 4 });
        let err = CrossbarArray::program(&w, config, &mut rng).unwrap_err();
        assert!(
            matches!(&err, NnError::Config(msg) if msg.contains("exceeds")),
            "unexpected error: {err}"
        );
        let config = CrossbarConfig {
            tile_rows: 4,
            tile_cols: 5,
            ..Default::default()
        };
        assert!(CrossbarArray::program(&w, config, &mut rng).is_err());
        // A tile matching the matrix exactly is fine.
        let config = CrossbarConfig {
            tile_rows: 4,
            tile_cols: 4,
            ..Default::default()
        };
        assert!(CrossbarArray::program(&w, config, &mut rng).is_ok());
    }

    #[test]
    fn ideal_crossbar_approximates_dense_matmul() {
        let mut rng = Rng::seed_from(1);
        let w = Tensor::randn(&[6, 4], 0.0, 0.5, &mut rng);
        let config = CrossbarConfig {
            conductance_levels: 256,
            dac_bits: 12,
            adc_bits: 12,
            programming_sigma: 0.0,
            tile_rows: 2,
            tile_cols: 2,
            ..Default::default()
        };
        let array = CrossbarArray::program(&w, config, &mut rng).unwrap();
        assert_eq!(array.rows(), 6);
        assert_eq!(array.cols(), 4);
        let x = Tensor::randn(&[3, 6], 0.0, 1.0, &mut rng);
        let analog = array.matvec(&x).unwrap();
        let digital = ops::matmul(&x, &w).unwrap();
        let err = analog.sub(&digital).unwrap().abs().max();
        let scale = digital.abs().max();
        assert!(err < 0.1 * scale, "analog error {err} vs scale {scale}");
    }

    #[test]
    fn programming_variation_degrades_fidelity() {
        let mut rng = Rng::seed_from(2);
        let w = Tensor::randn(&[8, 8], 0.0, 0.5, &mut rng);
        let x = Tensor::randn(&[4, 8], 0.0, 1.0, &mut rng);
        let digital = ops::matmul(&x, &w).unwrap();
        let error_with_sigma = |sigma: f32| {
            let config = CrossbarConfig {
                conductance_levels: 256,
                dac_bits: 12,
                adc_bits: 12,
                programming_sigma: sigma,
                tile_rows: 4,
                tile_cols: 4,
                ..Default::default()
            };
            let mut rng = Rng::seed_from(3);
            let array = CrossbarArray::program(&w, config, &mut rng).unwrap();
            array
                .matvec(&x)
                .unwrap()
                .sub(&digital)
                .unwrap()
                .abs()
                .mean()
        };
        assert!(error_with_sigma(0.3) > error_with_sigma(0.0));
    }

    #[test]
    fn input_width_mismatch_is_rejected() {
        let mut rng = Rng::seed_from(4);
        let w = Tensor::randn(&[5, 3], 0.0, 0.5, &mut rng);
        let config = CrossbarConfig {
            tile_rows: 5,
            tile_cols: 3,
            ..Default::default()
        };
        let array = CrossbarArray::program(&w, config, &mut rng).unwrap();
        assert!(array.matvec(&Tensor::zeros(&[2, 4])).is_err());
        assert!(CrossbarArray::program(&Tensor::zeros(&[5]), config, &mut rng).is_err());
    }

    #[test]
    fn program_codes_matches_program_for_clean_codes() {
        let mut rng = Rng::seed_from(6);
        let w = Tensor::randn(&[4, 5], 0.0, 0.5, &mut rng);
        let config = CrossbarConfig {
            conductance_levels: 256,
            programming_sigma: 0.0,
            tile_rows: 2,
            tile_cols: 2,
            ..Default::default()
        };
        let via_weights = CrossbarArray::program(&w, config, &mut Rng::seed_from(7)).unwrap();
        let q = QuantizedTensor::quantize(&w, 8).unwrap();
        let via_codes = CrossbarArray::program_codes(&q, config, &mut Rng::seed_from(7)).unwrap();
        assert!(via_codes
            .effective_weights()
            .approx_eq(&via_weights.effective_weights(), 1e-6));
    }

    #[test]
    fn affine_codes_program_with_zero_point_correction() {
        // A strictly positive tensor quantized affinely has codes spanning
        // the full signed range with a large zero point; programming must
        // honour `code - zp`, not the raw code sign.
        let mut rng = Rng::seed_from(20);
        let w = Tensor::from_vec(vec![0.5, 1.0, 1.5, 2.0, 2.5, 3.0], &[2, 3]).unwrap();
        let q = QuantizedTensor::quantize_affine(&w, 8).unwrap();
        assert_ne!(q.zero_point(), 0);
        let config = CrossbarConfig {
            conductance_levels: 256,
            programming_sigma: 0.0,
            tile_rows: 1,
            tile_cols: 1,
            ..Default::default()
        };
        let array = CrossbarArray::program_codes(&q, config, &mut rng).unwrap();
        let eff = array.effective_weights();
        // All weights are positive and approximately recovered.
        let dequant = q.dequantize();
        for (stored, want) in eff.data().iter().zip(dequant.data().iter()) {
            assert!(*stored > 0.0, "stored {stored} lost its sign");
            assert!(
                (stored - want).abs() <= 0.05 * want.abs() + 0.02,
                "stored {stored} vs dequantized {want}"
            );
        }
        // Per-channel code matrices are rejected (tiles hold one scale).
        let pc = QuantizedTensor::quantize_per_channel(&w, 8).unwrap();
        assert!(CrossbarArray::program_codes(&pc, config, &mut rng).is_err());
    }

    #[test]
    fn code_domain_faults_reach_the_programmed_array() {
        // Flip bits on the codes, then program: the array must store the
        // faulty weights — the full code-domain deployment path.
        let mut rng = Rng::seed_from(8);
        let w = Tensor::randn(&[6, 6], 0.0, 0.5, &mut rng);
        let config = CrossbarConfig {
            conductance_levels: 256,
            programming_sigma: 0.0,
            tile_rows: 3,
            tile_cols: 3,
            ..Default::default()
        };
        let mut q = QuantizedTensor::quantize(&w, 8).unwrap();
        let clean = CrossbarArray::program_codes(&q, config, &mut Rng::seed_from(9)).unwrap();
        crate::fault::flip_bits(&mut q, 0.3, &mut rng);
        let faulty = CrossbarArray::program_codes(&q, config, &mut Rng::seed_from(9)).unwrap();
        assert!(!faulty
            .effective_weights()
            .approx_eq(&clean.effective_weights(), 1e-6));
        // The faulty array still computes an MVM of the faulty weights.
        let x = Tensor::randn(&[2, 6], 0.0, 1.0, &mut rng);
        let analog = faulty.matvec(&x).unwrap();
        let digital = ops::matmul(&x, &faulty.effective_weights()).unwrap();
        let err = analog.sub(&digital).unwrap().abs().max();
        assert!(err < 0.1 * digital.abs().max().max(1e-6));
    }

    #[test]
    fn effective_weights_have_correct_signs() {
        let mut rng = Rng::seed_from(5);
        let w = Tensor::from_vec(vec![1.0, -1.0, 0.5, -0.5], &[2, 2]).unwrap();
        let config = CrossbarConfig {
            conductance_levels: 256,
            programming_sigma: 0.0,
            tile_rows: 2,
            tile_cols: 2,
            ..Default::default()
        };
        let array = CrossbarArray::program(&w, config, &mut rng).unwrap();
        let eff = array.effective_weights();
        for (orig, stored) in w.data().iter().zip(eff.data().iter()) {
            assert_eq!(orig.signum(), stored.signum());
        }
    }
}
