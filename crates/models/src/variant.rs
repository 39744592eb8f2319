//! Normalization/Bayesian variants shared by every topology, plus the
//! [`BuiltModel`] bundle the builders return.

use crate::Result;
use invnorm_core::inverted_norm::{InvNormConfig, InvertedNorm};
use invnorm_imc::injector::{ActivationNoise, NoiseHandle};
use invnorm_nn::activation::{Relu, SignSte};
use invnorm_nn::dropout::{Dropout, SpatialDropout};
use invnorm_nn::layer::{BoxedLayer, CodeView, Layer, Mode, Param};
use invnorm_nn::norm::BatchNorm;
use invnorm_nn::plan::{PlanArenas, PlanCtx, PlanShape};
use invnorm_quant::QuantConfig;
use invnorm_tensor::{Rng, Tensor};
use serde::{Deserialize, Serialize};

/// Which normalization / Bayesian-approximation scheme a model is built with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NormVariant {
    /// Conventional batch normalization, deterministic inference (the plain
    /// "NN" baseline of Table I).
    Conventional,
    /// Conventional normalization plus element-wise MC-Dropout with
    /// probability `p` (the SpinDrop baseline).
    SpinDrop {
        /// Dropout probability.
        p: f32,
    },
    /// Conventional normalization plus spatial (channel-wise) MC-Dropout
    /// with probability `p` (the SpatialSpinDrop baseline).
    SpatialSpinDrop {
        /// Dropout probability.
        p: f32,
    },
    /// The paper's inverted normalization with stochastic affine
    /// transformations (affine-dropout probability `p`).
    Inverted {
        /// Affine-dropout probability (0.3 in the paper).
        p: f32,
    },
}

impl NormVariant {
    /// The paper's proposed configuration (affine dropout with p = 0.3).
    pub fn proposed() -> Self {
        NormVariant::Inverted { p: 0.3 }
    }

    /// Short label used in result tables.
    pub fn label(&self) -> &'static str {
        match self {
            NormVariant::Conventional => "NN",
            NormVariant::SpinDrop { .. } => "SpinDrop",
            NormVariant::SpatialSpinDrop { .. } => "SpatialSpinDrop",
            NormVariant::Inverted { .. } => "Proposed",
        }
    }

    /// Whether inference is stochastic (requires Monte-Carlo averaging).
    pub fn is_bayesian(&self) -> bool {
        !matches!(self, NormVariant::Conventional)
    }

    /// Builds the normalization layer this variant uses after a convolution
    /// with `channels` output feature maps, normalizing over `groups` channel
    /// groups in the inverted case.
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is invalid (e.g. `groups` does
    /// not divide `channels`).
    pub fn norm_layer(
        &self,
        channels: usize,
        groups: usize,
        seed: u64,
        rng: &mut Rng,
    ) -> Result<BoxedLayer> {
        match self {
            NormVariant::Conventional
            | NormVariant::SpinDrop { .. }
            | NormVariant::SpatialSpinDrop { .. } => Ok(Box::new(BatchNorm::new(channels))),
            NormVariant::Inverted { p } => {
                let config = InvNormConfig {
                    drop_probability: *p,
                    groups,
                    seed,
                    ..InvNormConfig::default()
                };
                Ok(Box::new(InvertedNorm::new(channels, &config, rng)?))
            }
        }
    }

    /// Builds the explicit dropout layer this variant inserts after an
    /// activation (only the SpinDrop-style baselines use one; masks stay
    /// active at evaluation time for Monte-Carlo inference).
    ///
    /// # Errors
    ///
    /// Returns an error when the dropout probability is invalid.
    pub fn dropout_layer(&self, seed: u64) -> Result<Option<BoxedLayer>> {
        match self {
            NormVariant::SpinDrop { p } => Ok(Some(Box::new(Dropout::new(*p, true, seed)?))),
            NormVariant::SpatialSpinDrop { p } => {
                Ok(Some(Box::new(SpatialDropout::new(*p, true, seed)?)))
            }
            NormVariant::Conventional | NormVariant::Inverted { .. } => Ok(None),
        }
    }
}

/// Activation style of a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActivationKind {
    /// Full-precision ReLU.
    Relu,
    /// Binary sign activation with straight-through gradient (used by the
    /// 1-bit models); a fault-injection point is inserted immediately before
    /// it, matching the paper's protocol of injecting variation into the
    /// normalized pre-activation values of binary networks.
    BinarySign,
}

impl ActivationKind {
    /// Appends this activation (and, for binary models, its fault-injection
    /// hook) to a layer list.
    pub fn push_onto(&self, layers: &mut Vec<BoxedLayer>, noise: &NoiseHandle, seed: u64) {
        match self {
            ActivationKind::Relu => layers.push(Box::new(Relu::new())),
            ActivationKind::BinarySign => {
                layers.push(Box::new(ActivationNoise::new(noise.clone(), seed)));
                layers.push(Box::new(SignSte::new()));
            }
        }
    }
}

/// A constructed model: the network, the handle controlling pre-activation
/// fault injection, the quantization configuration, and bookkeeping labels.
pub struct BuiltModel {
    /// The trainable network.
    pub network: Box<dyn Layer + Send>,
    /// Shared handle for pre-activation fault injection (active only for
    /// models with binary activations; harmless otherwise).
    pub noise: NoiseHandle,
    /// Weight/activation precision of the deployed model.
    pub quant: QuantConfig,
    /// Topology name (e.g. "MicroResNet").
    pub topology: &'static str,
    /// The normalization variant the model was built with.
    pub variant: NormVariant,
}

impl std::fmt::Debug for BuiltModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltModel")
            .field("topology", &self.topology)
            .field("variant", &self.variant.label())
            .field("quant", &self.quant.describe())
            .finish()
    }
}

impl Layer for BuiltModel {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        self.network.forward(input, mode)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        self.network.backward(grad_output)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.network.visit_params(visitor);
    }

    fn visit_codes(&mut self, visitor: &mut dyn FnMut(CodeView<'_>)) {
        self.network.visit_codes(visitor);
    }

    fn plan_compile(&mut self, input: &PlanShape, arenas: &mut PlanArenas) -> Result<PlanShape> {
        self.network.plan_compile(input, arenas)
    }

    fn plan_forward(
        &mut self,
        input: &PlanShape,
        output: &PlanShape,
        ctx: PlanCtx,
        arenas: &mut PlanArenas,
    ) -> Result<()> {
        self.network.plan_forward(input, output, ctx, arenas)
    }

    fn plan_end(&mut self) {
        self.network.plan_end();
    }

    fn name(&self) -> &'static str {
        self.topology
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_bayesian_flags() {
        assert_eq!(NormVariant::Conventional.label(), "NN");
        assert_eq!(NormVariant::SpinDrop { p: 0.3 }.label(), "SpinDrop");
        assert_eq!(
            NormVariant::SpatialSpinDrop { p: 0.3 }.label(),
            "SpatialSpinDrop"
        );
        assert_eq!(NormVariant::proposed().label(), "Proposed");
        assert!(!NormVariant::Conventional.is_bayesian());
        assert!(NormVariant::proposed().is_bayesian());
    }

    #[test]
    fn norm_layer_construction() {
        let mut rng = Rng::seed_from(1);
        let conventional = NormVariant::Conventional
            .norm_layer(8, 1, 0, &mut rng)
            .unwrap();
        assert_eq!(conventional.name(), "BatchNorm");
        let inverted = NormVariant::proposed()
            .norm_layer(8, 4, 0, &mut rng)
            .unwrap();
        assert_eq!(inverted.name(), "InvertedNorm");
        assert!(NormVariant::proposed()
            .norm_layer(8, 3, 0, &mut rng)
            .is_err());
    }

    #[test]
    fn dropout_layer_construction() {
        assert!(NormVariant::Conventional
            .dropout_layer(0)
            .unwrap()
            .is_none());
        assert!(NormVariant::proposed().dropout_layer(0).unwrap().is_none());
        assert_eq!(
            NormVariant::SpinDrop { p: 0.3 }
                .dropout_layer(0)
                .unwrap()
                .unwrap()
                .name(),
            "Dropout"
        );
        assert_eq!(
            NormVariant::SpatialSpinDrop { p: 0.3 }
                .dropout_layer(0)
                .unwrap()
                .unwrap()
                .name(),
            "SpatialDropout"
        );
        assert!(NormVariant::SpinDrop { p: 1.5 }.dropout_layer(0).is_err());
    }

    #[test]
    fn activation_kind_pushes_expected_layers() {
        let noise = NoiseHandle::new();
        let mut layers = Vec::new();
        ActivationKind::Relu.push_onto(&mut layers, &noise, 0);
        assert_eq!(layers.len(), 1);
        assert_eq!(layers[0].name(), "Relu");
        let mut layers = Vec::new();
        ActivationKind::BinarySign.push_onto(&mut layers, &noise, 0);
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].name(), "ActivationNoise");
        assert_eq!(layers[1].name(), "SignSte");
    }
}
