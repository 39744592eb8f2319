//! # invnorm-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation section on the synthetic stand-in tasks:
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Fig. 1 (activation shift under bit flips) | [`experiments::fig1`] | `fig1_activation_shift` |
//! | Table I (baseline accuracy, 4 tasks × 4 methods) | [`experiments::table1`] | `table1_baseline` |
//! | Fig. 5 (ResNet / U-Net robustness curves) | [`experiments::fig5`] | `fig5_resnet_drive` |
//! | Fig. 6 (M5 / LSTM robustness curves) | [`experiments::fig6`] | `fig6_m5_lstm` |
//! | Fig. 7 (OOD behaviour) | [`experiments::fig7`] | `fig7_ood` |
//! | Sec. IV-F (initialization ablation) | [`experiments::ablation`] | `ablation_init` |
//! | Sec. III-B (dropout granularity/rate, extra ablation) | [`experiments::ablation`] | `ablation_dropout` |
//!
//! Each binary prints the regenerated rows/series in plain text and also
//! writes a CSV next to it under `results/` (see [`report`]). Absolute
//! numbers differ from the paper (synthetic data, scaled-down models); the
//! reproduction target is the *shape* of each result — see the README's
//! "Experiments" section.
//!
//! The same experiment entry points are reused by the Criterion benches in
//! `benches/` (at reduced scale) so `cargo bench` exercises every pipeline.

// This crate must stay free of `unsafe`; all unsafe code in the
// workspace is confined to `crates/tensor` (lint rule R2).
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod experiments;
pub mod faults;
pub mod regression;
pub mod report;
pub mod scale;
pub mod tasks;

pub use report::Table;
pub use scale::ExperimentScale;

/// Convenience result alias re-using the NN error type.
pub type Result<T> = std::result::Result<T, invnorm_nn::NnError>;
