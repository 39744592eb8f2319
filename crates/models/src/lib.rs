//! # invnorm-models
//!
//! The four model topologies the paper evaluates (Table I), each buildable in
//! three normalization variants so the robustness comparisons can be
//! reproduced like-for-like:
//!
//! | Topology | Paper dataset | Stand-in dataset | W/A bits | Module |
//! |---|---|---|---|---|
//! | ResNet-18 → [`MicroResNet`](resnet::MicroResNetConfig) | CIFAR-10 | synthetic images | 1/1 | [`resnet`] |
//! | M5 → [`M5Net`](m5::M5NetConfig) | Speech Commands | synthetic audio | 8/8 | [`m5`] |
//! | U-Net → [`unet::MicroUNet`] | DRIVE | synthetic vessels | 1/4 | [`unet`] |
//! | 2×LSTM → [`LstmForecaster`](lstm::LstmForecasterConfig) | Mauna Loa CO₂ | synthetic CO₂ | 8/8 | [`lstm`] |
//!
//! The [`variant::NormVariant`] enum selects between:
//!
//! * `Conventional` — batch normalization, deterministic inference (the
//!   "NN" column of Table I),
//! * `SpinDrop` — conventional normalization + MC-Dropout (the SpinDrop
//!   baseline),
//! * `SpatialSpinDrop` — conventional normalization + spatial MC-Dropout,
//! * `Inverted` — the paper's inverted normalization with stochastic affine
//!   transformations.
//!
//! Every builder returns a [`variant::BuiltModel`], which bundles the network
//! with the [`invnorm_imc::NoiseHandle`] controlling pre-activation fault
//! injection (used for the binarized models) and the quantization
//! configuration for post-training weight quantization.

// This crate must stay free of `unsafe`; all unsafe code in the
// workspace is confined to `crates/tensor` (lint rule R2).
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod lstm;
pub mod m5;
pub mod resnet;
pub mod unet;
pub mod variant;

pub use variant::{BuiltModel, NormVariant};

/// Convenience result alias re-using the NN error type.
pub type Result<T> = std::result::Result<T, invnorm_nn::NnError>;
