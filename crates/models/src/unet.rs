//! `MicroUNet`: a compact encoder–decoder segmentation network standing in
//! for the paper's U-Net on DRIVE (W/A = 1/4).
//!
//! Structure (per-sample, for a `[1, H, W]` input):
//!
//! ```text
//! enc1: Conv(1→C) + norm + act          ── skip ──┐
//!   pool ↓2                                        │
//! enc2: Conv(C→2C) + norm + act                    │
//!   up ↑2, reduce: Conv(2C→C) + norm + act         │
//!   add  ◄─────────────────────────────────────────┘
//! fuse: Conv(C→C) + norm + act, Conv(C→1)  → per-pixel logits
//! ```
//!
//! The skip connection is additive (rather than concatenating channels),
//! which preserves the encoder–decoder + skip structure the robustness
//! experiment needs while keeping the hand-written backward pass simple.
//! Activations are 4-bit PACT-style quantized in the paper's configuration;
//! the inverted/conventional normalization layers normalize over
//! channel groups of `C/8` channels (i.e. 8 groups, clamped to the channel
//! count for very narrow models), matching Sec. IV-A1.

use crate::variant::{BuiltModel, NormVariant};
use crate::Result;
use invnorm_imc::injector::{ActivationNoise, NoiseHandle};
use invnorm_nn::activation::Relu;
use invnorm_nn::conv::Conv2d;
use invnorm_nn::layer::{Layer, Mode, Param};
use invnorm_nn::plan::{PlanArenas, PlanCtx, PlanShape};
use invnorm_nn::pool::MaxPool2d;
use invnorm_nn::upsample::Upsample2d;
use invnorm_nn::NnError;
use invnorm_nn::Sequential;
use invnorm_quant::fake_quant::FakeQuantAct;
use invnorm_quant::QuantConfig;
use invnorm_tensor::{Rng, Tensor};
use serde::{Deserialize, Serialize};

/// Configuration of the segmentation network.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MicroUNetConfig {
    /// Encoder channel width (decoder mirrors it).
    pub base_channels: usize,
    /// Whether activations are quantized to 4 bits (the paper's setting).
    pub quantized_activations: bool,
    /// RNG seed for weight initialization.
    pub seed: u64,
}

impl Default for MicroUNetConfig {
    fn default() -> Self {
        Self {
            base_channels: 8,
            quantized_activations: true,
            seed: 300,
        }
    }
}

impl MicroUNetConfig {
    /// A small configuration for fast unit tests.
    pub fn tiny() -> Self {
        Self {
            base_channels: 4,
            ..Self::default()
        }
    }
}

/// The U-Net-style segmentation model (implements [`Layer`]; input
/// `[N, 1, H, W]` with even `H`, `W`; output per-pixel logits of the same
/// spatial shape).
pub struct MicroUNet {
    enc1: Sequential,
    pool: MaxPool2d,
    enc2: Sequential,
    up: Upsample2d,
    reduce: Sequential,
    fuse: Sequential,
    plan: Option<UNetPlan>,
}

/// Compiled-plan state: the output edge of every stage plus the additive
/// skip-fusion edge.
struct UNetPlan {
    e1: PlanShape,
    pooled: PlanShape,
    e2: PlanShape,
    upsampled: PlanShape,
    decoded: PlanShape,
    fused: PlanShape,
    out: PlanShape,
}

impl std::fmt::Debug for MicroUNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MicroUNet").finish_non_exhaustive()
    }
}

#[allow(clippy::too_many_arguments)]
fn conv_block(
    in_ch: usize,
    out_ch: usize,
    groups: usize,
    variant: NormVariant,
    quantized: bool,
    noise: &NoiseHandle,
    rng: &mut Rng,
    seed: u64,
) -> Result<Sequential> {
    let mut block = Sequential::new();
    block.push(Box::new(Conv2d::with_bias(
        in_ch, out_ch, 3, 1, 1, false, rng,
    )));
    block.push(variant.norm_layer(out_ch, groups.min(out_ch), seed, rng)?);
    // Fault-injection point: the paper injects conductance variation into the
    // normalized pre-activation values for binary-weight networks.
    block.push(Box::new(ActivationNoise::new(noise.clone(), seed ^ 0xA5)));
    block.push(Box::new(Relu::new()));
    if quantized {
        block.push(Box::new(FakeQuantAct::new(4, 4.0, false)?));
    }
    if let Some(dropout) = variant.dropout_layer(seed ^ 0xD0)? {
        block.push(dropout);
    }
    Ok(block)
}

/// Builds the model in the requested normalization variant.
///
/// # Errors
///
/// Returns an error when the variant configuration is invalid.
pub fn build(config: &MicroUNetConfig, variant: NormVariant) -> Result<BuiltModel> {
    let mut rng = Rng::seed_from(config.seed);
    let c = config.base_channels;
    // The paper normalizes over groups of C/8 channels, i.e. 8 groups.
    let groups = 8usize;
    let q = config.quantized_activations;
    let noise = NoiseHandle::new();

    let enc1 = conv_block(1, c, groups, variant, q, &noise, &mut rng, config.seed + 1)?;
    let enc2 = conv_block(
        c,
        2 * c,
        groups,
        variant,
        q,
        &noise,
        &mut rng,
        config.seed + 2,
    )?;
    let reduce = conv_block(
        2 * c,
        c,
        groups,
        variant,
        q,
        &noise,
        &mut rng,
        config.seed + 3,
    )?;
    let mut fuse = conv_block(c, c, groups, variant, q, &noise, &mut rng, config.seed + 4)?;
    // Final 1×1 convolution producing one logit per pixel (full precision).
    fuse.push(Box::new(Conv2d::new(c, 1, 1, 1, 0, &mut rng)));

    let unet = MicroUNet {
        enc1,
        pool: MaxPool2d::new(2),
        enc2,
        up: Upsample2d::new(2),
        reduce,
        fuse,
        plan: None,
    };

    Ok(BuiltModel {
        network: Box::new(unet),
        noise,
        quant: if q {
            QuantConfig::binary_weights_4bit_acts()
        } else {
            QuantConfig::float()
        },
        topology: "MicroUNet",
        variant,
    })
}

impl Layer for MicroUNet {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let d = input.dims();
        if d.len() != 4 || d[1] != 1 {
            return Err(NnError::Config(format!(
                "MicroUNet expects [N, 1, H, W], got {d:?}"
            )));
        }
        if !d[2].is_multiple_of(2) || !d[3].is_multiple_of(2) {
            return Err(NnError::Config(
                "MicroUNet needs even spatial dimensions".into(),
            ));
        }
        let e1 = self.enc1.forward(input, mode)?;
        let pooled = self.pool.forward(&e1, mode)?;
        let e2 = self.enc2.forward(&pooled, mode)?;
        let upsampled = self.up.forward(&e2, mode)?;
        let decoded = self.reduce.forward(&upsampled, mode)?;
        let fused = decoded.add(&e1)?;
        self.fuse.forward(&fused, mode)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let grad_fused = self.fuse.backward(grad_output)?;
        // The addition fans the gradient out to both the decoder path and the
        // skip connection.
        let grad_decoded = self.reduce.backward(&grad_fused)?;
        let grad_e2 = self.up.backward(&grad_decoded)?;
        let grad_pooled = self.enc2.backward(&grad_e2)?;
        let grad_e1_from_pool = self.pool.backward(&grad_pooled)?;
        let grad_e1 = grad_fused.add(&grad_e1_from_pool)?;
        self.enc1.backward(&grad_e1)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.enc1.visit_params(visitor);
        self.enc2.visit_params(visitor);
        self.reduce.visit_params(visitor);
        self.fuse.visit_params(visitor);
    }

    fn plan_compile(&mut self, input: &PlanShape, arenas: &mut PlanArenas) -> Result<PlanShape> {
        let d = &input.dims;
        if d.len() != 4 || d[1] != 1 {
            return Err(NnError::Config(format!(
                "MicroUNet expects [N, 1, H, W], got {d:?}"
            )));
        }
        if !d[2].is_multiple_of(2) || !d[3].is_multiple_of(2) {
            return Err(NnError::Config(
                "MicroUNet needs even spatial dimensions".into(),
            ));
        }
        let e1 = self.enc1.plan_compile(input, arenas)?;
        let pooled = self.pool.plan_compile(&e1, arenas)?;
        let e2 = self.enc2.plan_compile(&pooled, arenas)?;
        let upsampled = self.up.plan_compile(&e2, arenas)?;
        let decoded = self.reduce.plan_compile(&upsampled, arenas)?;
        if decoded.dims != e1.dims {
            return Err(NnError::Config(format!(
                "decoder output {:?} does not match skip {:?}",
                decoded.dims, e1.dims
            )));
        }
        let fused = arenas.reserve_like(&decoded);
        let out = self.fuse.plan_compile(&fused, arenas)?;
        let shape = out.clone();
        self.plan = Some(UNetPlan {
            e1,
            pooled,
            e2,
            upsampled,
            decoded,
            fused,
            out,
        });
        Ok(shape)
    }

    fn plan_forward(
        &mut self,
        input: &PlanShape,
        _output: &PlanShape,
        ctx: PlanCtx,
        arenas: &mut PlanArenas,
    ) -> Result<()> {
        let state = self.plan.take().ok_or_else(|| {
            NnError::Config("MicroUNet::plan_forward called without plan_compile".into())
        })?;
        let mut run = || -> Result<()> {
            self.enc1
                .plan_forward(input, &state.e1, ctx.child(true), arenas)?;
            self.pool
                .plan_forward(&state.e1, &state.pooled, ctx.child(false), arenas)?;
            self.enc2
                .plan_forward(&state.pooled, &state.e2, ctx.child(false), arenas)?;
            self.up
                .plan_forward(&state.e2, &state.upsampled, ctx.child(false), arenas)?;
            self.reduce
                .plan_forward(&state.upsampled, &state.decoded, ctx.child(false), arenas)?;
            // Additive skip fusion in `Tensor::add` order.
            let [a, b, s] =
                arenas
                    .f
                    .many_mut([state.decoded.slot, state.e1.slot, state.fused.slot]);
            for ((d, &x), &y) in s.iter_mut().zip(a.iter()).zip(b.iter()) {
                *d = x + y;
            }
            self.fuse
                .plan_forward(&state.fused, &state.out, ctx.child(false), arenas)
        };
        let result = run();
        self.plan = Some(state);
        result
    }

    fn plan_end(&mut self) {
        self.plan = None;
        self.enc1.plan_end();
        self.pool.plan_end();
        self.enc2.plan_end();
        self.up.plan_end();
        self.reduce.plan_end();
        self.fuse.plan_end();
    }

    fn name(&self) -> &'static str {
        "MicroUNet"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_build_and_run() {
        for variant in [
            NormVariant::Conventional,
            NormVariant::SpinDrop { p: 0.3 },
            NormVariant::SpatialSpinDrop { p: 0.3 },
            NormVariant::proposed(),
        ] {
            let mut model = build(&MicroUNetConfig::tiny(), variant).unwrap();
            let mut rng = Rng::seed_from(5);
            let x = Tensor::randn(&[2, 1, 16, 16], 0.0, 1.0, &mut rng);
            let y = model.forward(&x, Mode::Train).unwrap();
            assert_eq!(y.dims(), &[2, 1, 16, 16]);
            let g = model.backward(&Tensor::ones(y.dims())).unwrap();
            assert_eq!(g.dims(), x.dims());
            assert!(!y.has_non_finite());
        }
    }

    #[test]
    fn metadata_matches_paper_row() {
        let model = build(&MicroUNetConfig::default(), NormVariant::proposed()).unwrap();
        assert_eq!(model.topology, "MicroUNet");
        assert_eq!(model.quant.describe(), "1/4");
        let fp = MicroUNetConfig {
            quantized_activations: false,
            ..MicroUNetConfig::default()
        };
        let model = build(&fp, NormVariant::Conventional).unwrap();
        assert_eq!(model.quant.describe(), "32/32");
    }

    #[test]
    fn rejects_bad_input_shapes() {
        let mut model = build(&MicroUNetConfig::tiny(), NormVariant::Conventional).unwrap();
        assert!(model
            .forward(&Tensor::zeros(&[1, 3, 16, 16]), Mode::Eval)
            .is_err());
        assert!(model
            .forward(&Tensor::zeros(&[1, 1, 15, 16]), Mode::Eval)
            .is_err());
    }

    #[test]
    fn skip_connection_carries_gradient() {
        // Gradient at the input must include contributions through both the
        // pooled path and the skip path; a crude check is that training-mode
        // gradients are non-zero for a non-trivial loss.
        let mut model = build(&MicroUNetConfig::tiny(), NormVariant::Conventional).unwrap();
        let mut rng = Rng::seed_from(6);
        let x = Tensor::randn(&[1, 1, 16, 16], 0.0, 1.0, &mut rng);
        let y = model.forward(&x, Mode::Train).unwrap();
        let g = model.backward(&Tensor::ones(y.dims())).unwrap();
        assert!(g.abs().sum() > 0.0);
        let mut total_param_grad = 0.0;
        model.visit_params(&mut |p| total_param_grad += p.grad.abs().sum());
        assert!(total_param_grad > 0.0);
    }

    #[test]
    fn quantized_activations_lie_on_grid() {
        // With 4-bit unsigned activations the internal feature maps snap to a
        // 7-level grid in [0, 4]; at least verify the model still runs and the
        // outputs differ from the unquantized model.
        let mut quantized = build(&MicroUNetConfig::tiny(), NormVariant::Conventional).unwrap();
        let mut full = build(
            &MicroUNetConfig {
                quantized_activations: false,
                ..MicroUNetConfig::tiny()
            },
            NormVariant::Conventional,
        )
        .unwrap();
        let mut rng = Rng::seed_from(7);
        let x = Tensor::randn(&[1, 1, 16, 16], 0.0, 1.0, &mut rng);
        let yq = quantized.forward(&x, Mode::Eval).unwrap();
        let yf = full.forward(&x, Mode::Eval).unwrap();
        assert!(!yq.approx_eq(&yf, 1e-6));
    }
}
