//! Cross-crate integration tests: datasets → models → training → evaluation.
//!
//! These tests verify that the full pipeline (synthetic data generation,
//! model construction in each normalization variant, training, post-training
//! quantization and Bayesian evaluation) learns something meaningful on each
//! of the paper's four task families.

use invnorm::prelude::*;
use invnorm_datasets::audio::{self, AudioDatasetConfig};
use invnorm_datasets::images::{self, ImageDatasetConfig};
use invnorm_datasets::segmentation::{self, SegmentationDatasetConfig};
use invnorm_datasets::timeseries::{self, Co2DatasetConfig};
use invnorm_models::lstm::{self, LstmForecasterConfig};
use invnorm_models::m5::{self, M5NetConfig};
use invnorm_models::resnet::{self, MicroResNetConfig};
use invnorm_models::unet::{self, MicroUNetConfig};
use invnorm_nn::metrics;
use invnorm_nn::train::{fit_classifier, fit_regressor, fit_segmenter, TrainConfig};

fn config(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 16,
        shuffle: true,
        seed: 1,
    }
}

#[test]
fn image_classifier_learns_above_chance() {
    let split = images::generate(&ImageDatasetConfig {
        classes: 4,
        size: 16,
        train_per_class: 20,
        test_per_class: 8,
        ..ImageDatasetConfig::default()
    });
    // Full-precision activations keep this test fast and stable.
    let mut model = resnet::build(
        &MicroResNetConfig {
            in_channels: 3,
            classes: 4,
            base_channels: 8,
            binary_activations: false,
            seed: 1,
        },
        NormVariant::proposed(),
    )
    .unwrap();
    let mut optimizer = Adam::new(0.01);
    fit_classifier(
        &mut model,
        &mut optimizer,
        &split.train_inputs,
        &split.train_labels,
        &config(8),
    )
    .unwrap();
    let accuracy = BayesianPredictor::new(8)
        .predict_classification(&mut model, &split.test_inputs)
        .unwrap()
        .accuracy(&split.test_labels)
        .unwrap();
    assert!(
        accuracy > 0.5,
        "proposed image classifier should beat 25% chance clearly, got {accuracy}"
    );
}

#[test]
fn audio_classifier_learns_above_chance() {
    let split = audio::generate(&AudioDatasetConfig {
        classes: 4,
        length: 128,
        train_per_class: 20,
        test_per_class: 8,
        ..AudioDatasetConfig::default()
    });
    let mut model = m5::build(
        &M5NetConfig {
            classes: 4,
            base_channels: 8,
            seed: 2,
        },
        NormVariant::proposed(),
    )
    .unwrap();
    let mut optimizer = Adam::new(0.01);
    fit_classifier(
        &mut model,
        &mut optimizer,
        &split.train_inputs,
        &split.train_labels,
        &config(8),
    )
    .unwrap();
    let accuracy = BayesianPredictor::new(8)
        .predict_classification(&mut model, &split.test_inputs)
        .unwrap()
        .accuracy(&split.test_labels)
        .unwrap();
    assert!(
        accuracy > 0.5,
        "proposed audio classifier should beat 25% chance clearly, got {accuracy}"
    );
}

#[test]
fn segmentation_model_beats_trivial_predictor() {
    let split = segmentation::generate(&SegmentationDatasetConfig {
        size: 16,
        vessels_per_image: 2,
        train_images: 32,
        test_images: 8,
        ..SegmentationDatasetConfig::default()
    });
    let mut model = unet::build(
        &MicroUNetConfig {
            base_channels: 8,
            quantized_activations: true,
            seed: 3,
        },
        NormVariant::proposed(),
    )
    .unwrap();
    let mut optimizer = Adam::new(0.01);
    fit_segmenter(
        &mut model,
        &mut optimizer,
        &split.train_inputs,
        &split.train_targets,
        &config(10),
    )
    .unwrap();
    // Mean probability over a few stochastic passes.
    let mut mean_probs = Tensor::zeros(split.test_targets.dims());
    let passes = 6;
    for _ in 0..passes {
        let logits = model.forward(&split.test_inputs, Mode::Eval).unwrap();
        mean_probs
            .add_assign(&logits.map(|z| 1.0 / (1.0 + (-z).exp())))
            .unwrap();
    }
    let mean_probs = mean_probs.scale(1.0 / passes as f32);
    let miou = metrics::mean_iou(&mean_probs, &split.test_targets, 0.5).unwrap();
    // An all-background predictor scores the background IoU only (≈ 0.5 mean
    // IoU minus the foreground fraction); the trained model must do better.
    let all_background = Tensor::zeros(split.test_targets.dims());
    let trivial = metrics::mean_iou(&all_background, &split.test_targets, 0.5).unwrap();
    assert!(
        miou > trivial,
        "trained U-Net mIoU {miou} should beat the all-background baseline {trivial}"
    );
}

#[test]
fn lstm_forecaster_beats_predicting_the_mean() {
    let (split, _series) = timeseries::generate(&Co2DatasetConfig {
        months: 240,
        window: 12,
        ..Co2DatasetConfig::default()
    });
    let mut model = lstm::build(
        &LstmForecasterConfig {
            input_features: 1,
            hidden: 16,
            seed: 4,
        },
        NormVariant::proposed(),
    )
    .unwrap();
    let mut optimizer = Adam::new(0.01);
    fit_regressor(
        &mut model,
        &mut optimizer,
        &split.train_inputs,
        &split.train_targets,
        &config(12),
    )
    .unwrap();
    let prediction = BayesianPredictor::new(8)
        .predict_regression(&mut model, &split.test_inputs)
        .unwrap();
    let rmse = prediction.rmse(&split.test_targets).unwrap();
    // Trivial baseline: predict the training-target mean everywhere.
    let mean_value = split.train_targets.mean();
    let trivial = metrics::rmse(
        &Tensor::full(split.test_targets.dims(), mean_value),
        &split.test_targets,
    )
    .unwrap();
    assert!(
        rmse < trivial,
        "LSTM RMSE {rmse} should beat the constant-mean baseline {trivial}"
    );
}

#[test]
fn conventional_and_proposed_variants_reach_similar_clean_accuracy() {
    // Table I claim: the proposed method does not sacrifice clean accuracy.
    let split = images::generate(&ImageDatasetConfig {
        classes: 4,
        size: 16,
        train_per_class: 20,
        test_per_class: 8,
        ..ImageDatasetConfig::default()
    });
    let mut accuracies = Vec::new();
    for variant in [NormVariant::Conventional, NormVariant::proposed()] {
        let mut model = resnet::build(
            &MicroResNetConfig {
                in_channels: 3,
                classes: 4,
                base_channels: 8,
                binary_activations: false,
                seed: 5,
            },
            variant,
        )
        .unwrap();
        let mut optimizer = Adam::new(0.01);
        fit_classifier(
            &mut model,
            &mut optimizer,
            &split.train_inputs,
            &split.train_labels,
            &config(8),
        )
        .unwrap();
        let passes = if variant.is_bayesian() { 8 } else { 1 };
        accuracies.push(
            BayesianPredictor::new(passes)
                .predict_classification(&mut model, &split.test_inputs)
                .unwrap()
                .accuracy(&split.test_labels)
                .unwrap(),
        );
    }
    let (conventional, proposed) = (accuracies[0], accuracies[1]);
    // "Comparable" at this tiny training budget: clearly above chance (0.25)
    // and within a broad band of the conventional baseline. The quantitative
    // comparison at realistic training budgets lives in the Table I
    // experiment (crates/bench, README "Experiments").
    assert!(
        proposed > 0.4,
        "proposed variant should clearly beat chance, got {proposed}"
    );
    assert!(
        proposed >= conventional - 0.35,
        "proposed ({proposed}) should be comparable to conventional ({conventional})"
    );
}
