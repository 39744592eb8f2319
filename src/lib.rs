//! # invnorm
//!
//! Umbrella crate of the **invnorm** workspace — a from-scratch Rust
//! reproduction of *"Enhancing Reliability of Neural Networks at the Edge:
//! Inverted Normalization with Stochastic Affine Transformations"*
//! (DATE 2024).
//!
//! The workspace is organized as one crate per subsystem; this crate
//! re-exports them under a single dependency and provides a small
//! [`prelude`] so the examples and downstream users can get started with one
//! `use` line:
//!
//! * [`tensor`] ([`invnorm_tensor`]) — N-d `f32` tensors, convolution and
//!   pooling kernels, RNG, statistics, and the zero-alloc telemetry layer
//!   (phase spans, engine counters, chrome-trace export).
//! * [`nn`] ([`invnorm_nn`]) — layers, losses, optimizers, training loops.
//! * [`quant`] ([`invnorm_quant`]) — uniform quantization, binarization,
//!   activation fake-quantization.
//! * [`imc`] ([`invnorm_imc`]) — crossbar model, NVM fault models, fault
//!   injection, Monte-Carlo fault simulation.
//! * [`core`] ([`invnorm_core`]) — the paper's contribution: inverted
//!   normalization, affine dropout, Bayesian inference, OOD detection.
//! * [`datasets`] ([`invnorm_datasets`]) — synthetic stand-ins for CIFAR-10,
//!   Speech Commands, DRIVE and the Mauna Loa CO₂ record.
//! * [`models`] ([`invnorm_models`]) — the four evaluated topologies in
//!   conventional / Dropout-Bayesian / inverted-normalization variants.
//!
//! # Quick start
//!
//! ```
//! use invnorm::prelude::*;
//!
//! # fn main() -> Result<(), invnorm_nn::NnError> {
//! let mut rng = Rng::seed_from(0);
//! // A tiny Bayesian classifier with the paper's inverted normalization.
//! let mut net = Sequential::new();
//! net.push(Box::new(InvertedNorm::new(4, &InvNormConfig::default(), &mut rng)?));
//! net.push(Box::new(Linear::new(4, 2, &mut rng)));
//!
//! // Monte-Carlo Bayesian prediction with uncertainty.
//! let x = Tensor::randn(&[8, 4], 0.0, 1.0, &mut rng);
//! let prediction = BayesianPredictor::new(16).predict_classification(&mut net, &x)?;
//! assert_eq!(prediction.mean_probs.dims(), &[8, 2]);
//!
//! // Inject NVM faults and measure the damage.
//! let summary = MonteCarloEngine::new(10, 1).run(
//!     &mut net,
//!     FaultModel::AdditiveVariation { sigma: 0.2 },
//!     |net| Ok(net.forward(&x, Mode::Eval)?.mean()),
//! )?;
//! assert_eq!(summary.runs(), 10);
//! # Ok(())
//! # }
//! ```

// This crate must stay free of `unsafe`; all unsafe code in the
// workspace is confined to `crates/tensor` (lint rule R2).
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use invnorm_core as core;
pub use invnorm_datasets as datasets;
pub use invnorm_imc as imc;
pub use invnorm_models as models;
pub use invnorm_nn as nn;
pub use invnorm_quant as quant;
pub use invnorm_tensor as tensor;

/// The most commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use invnorm_core::bayesian::{
        BayesianPredictor, ClassificationPrediction, RegressionPrediction,
    };
    pub use invnorm_core::{
        AffineDropout, AffineInit, DropGranularity, InvNormConfig, InvertedNorm, OodDetector,
    };
    pub use invnorm_imc::{
        CancelToken, CodeFaultInjector, DegradationPolicy, EngineKind, FaultModel, LadderOutcome,
        MonteCarloEngine, MonteCarloSummary, NoiseHandle, RunBudget, Sweep, SweepCheckpoint,
        SweepControl, SweepDomain, SweepOutcome, WeightFaultInjector,
    };
    pub use invnorm_models::{BuiltModel, NormVariant};
    pub use invnorm_nn::layer::{Layer, Mode, Param};
    pub use invnorm_nn::linear::Linear;
    pub use invnorm_nn::optim::{Adam, Optimizer, Sgd};
    pub use invnorm_nn::quantized::{QuantizedConv2d, QuantizedLinear};
    pub use invnorm_nn::{NnError, Plan, Residual, Sequential};
    pub use invnorm_quant::{QuantConfig, QuantizedTensor};
    pub use invnorm_tensor::telemetry::{Counter, Phase, RunTelemetry, Telemetry};
    pub use invnorm_tensor::{Rng, Shape, Tensor};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_core_workflow() {
        let mut rng = Rng::seed_from(3);
        let mut net = Sequential::new();
        net.push(Box::new(
            InvertedNorm::new(6, &InvNormConfig::default(), &mut rng).unwrap(),
        ));
        net.push(Box::new(Linear::new(6, 3, &mut rng)));
        let x = Tensor::randn(&[4, 6], 0.0, 1.0, &mut rng);
        let prediction = BayesianPredictor::new(4)
            .predict_classification(&mut net, &x)
            .unwrap();
        assert_eq!(prediction.mean_probs.dims(), &[4, 3]);
        let summary = MonteCarloEngine::new(3, 0)
            .run(
                &mut net,
                FaultModel::BitFlip {
                    rate: 0.05,
                    bits: 8,
                },
                |n| Ok(n.forward(&x, Mode::Eval)?.mean()),
            )
            .unwrap();
        assert_eq!(summary.runs(), 3);
    }
}
