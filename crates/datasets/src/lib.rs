//! # invnorm-datasets
//!
//! Synthetic dataset generators standing in for the benchmarks the paper
//! evaluates on (CIFAR-10, Google Speech Commands, DRIVE and the Mauna Loa
//! atmospheric-CO₂ record), plus the distribution-shift corruptions used for
//! the out-of-distribution experiments (Fig. 7).
//!
//! None of the original datasets are redistributable or downloadable in this
//! offline environment, so each generator produces data with the same
//! *structure* as its counterpart — learnable class signatures with
//! within-class variation — at a scale where every experiment in
//! `invnorm-bench` trains and evaluates in seconds. The robustness
//! comparisons of the paper are relative (inverted-norm vs conventional vs
//! Dropout BayNN on the *same* data), so they survive this substitution; see
//! the README's "Experiments" section for the substitution rationale.
//!
//! * [`images`] — multi-class image classification (CIFAR-10 stand-in).
//! * [`audio`] — keyword-like 1-D audio classification (Speech-Commands
//!   stand-in).
//! * [`segmentation`] — vessel-like binary segmentation (DRIVE stand-in).
//! * [`timeseries`] — Keeling-curve CO₂ forecasting (Mauna Loa stand-in).
//! * [`ood`] — rotation and uniform-noise corruptions for OOD evaluation.

// This crate must stay free of `unsafe`; all unsafe code in the
// workspace is confined to `crates/tensor` (lint rule R2).
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod audio;
pub mod images;
pub mod ood;
pub mod segmentation;
pub mod timeseries;

use invnorm_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A classification dataset split into train and test portions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassificationSplit {
    /// Training inputs, batched along the first dimension.
    pub train_inputs: Tensor,
    /// Training class indices.
    pub train_labels: Vec<usize>,
    /// Test inputs.
    pub test_inputs: Tensor,
    /// Test class indices.
    pub test_labels: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
}

impl ClassificationSplit {
    /// Number of training samples.
    pub fn train_len(&self) -> usize {
        self.train_labels.len()
    }

    /// Number of test samples.
    pub fn test_len(&self) -> usize {
        self.test_labels.len()
    }
}

/// A dense-target dataset (segmentation masks or regression targets) split
/// into train and test portions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DenseSplit {
    /// Training inputs.
    pub train_inputs: Tensor,
    /// Training targets (same leading dimension as the inputs).
    pub train_targets: Tensor,
    /// Test inputs.
    pub test_inputs: Tensor,
    /// Test targets.
    pub test_targets: Tensor,
}

impl DenseSplit {
    /// Number of training samples.
    pub fn train_len(&self) -> usize {
        self.train_inputs.dims()[0]
    }

    /// Number of test samples.
    pub fn test_len(&self) -> usize {
        self.test_inputs.dims()[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_accessors() {
        let split = ClassificationSplit {
            train_inputs: Tensor::zeros(&[4, 2]),
            train_labels: vec![0, 1, 0, 1],
            test_inputs: Tensor::zeros(&[2, 2]),
            test_labels: vec![0, 1],
            classes: 2,
        };
        assert_eq!(split.train_len(), 4);
        assert_eq!(split.test_len(), 2);

        let dense = DenseSplit {
            train_inputs: Tensor::zeros(&[3, 2]),
            train_targets: Tensor::zeros(&[3, 1]),
            test_inputs: Tensor::zeros(&[1, 2]),
            test_targets: Tensor::zeros(&[1, 1]),
        };
        assert_eq!(dense.train_len(), 3);
        assert_eq!(dense.test_len(), 1);
    }
}
