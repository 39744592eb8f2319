//! Image classification with the binarized residual CNN (the paper's
//! CIFAR-10 / ResNet-18 scenario) and a robustness comparison between the
//! conventional network and the proposed inverted-normalization BayNN under
//! bit-flip faults.
//!
//! Run with `cargo run --release --example image_classification`.

use invnorm::prelude::*;
use invnorm_datasets::images::{self, ImageDatasetConfig};
use invnorm_models::resnet::{self, MicroResNetConfig};
use invnorm_nn::train::{fit_classifier, TrainConfig};
use invnorm_quant::fake_quant::quantize_layer_weights;

fn train_variant(
    variant: NormVariant,
    split: &invnorm_datasets::ClassificationSplit,
) -> Result<BuiltModel, NnError> {
    let mut model = resnet::build(
        &MicroResNetConfig {
            in_channels: 3,
            classes: split.classes,
            base_channels: 8,
            binary_activations: true,
            seed: 11,
        },
        variant,
    )?;
    let mut optimizer = Adam::new(0.01);
    fit_classifier(
        &mut model,
        &mut optimizer,
        &split.train_inputs,
        &split.train_labels,
        &TrainConfig {
            epochs: 10,
            batch_size: 16,
            ..TrainConfig::default()
        },
    )?;
    // Deploy: binarize the weights (W/A = 1/1, Table I of the paper).
    let quant = model.quant;
    quantize_layer_weights(&mut model, &quant)?;
    Ok(model)
}

fn mc_accuracy(
    model: &mut BuiltModel,
    split: &invnorm_datasets::ClassificationSplit,
) -> Result<f32, NnError> {
    let passes = if model.variant.is_bayesian() { 10 } else { 1 };
    BayesianPredictor::new(passes)
        .predict_classification(model, &split.test_inputs)?
        .accuracy(&split.test_labels)
}

fn main() -> Result<(), NnError> {
    // Synthetic CIFAR-like dataset (see README "Experiments" for the
    // substitution).
    let split = images::generate(&ImageDatasetConfig {
        classes: 6,
        size: 16,
        train_per_class: 24,
        test_per_class: 8,
        ..ImageDatasetConfig::default()
    });
    println!(
        "dataset: {} training / {} test images, {} classes",
        split.train_len(),
        split.test_len(),
        split.classes
    );

    for variant in [NormVariant::Conventional, NormVariant::proposed()] {
        let mut model = train_variant(variant, &split)?;
        let clean = mc_accuracy(&mut model, &split)?;
        println!(
            "\n[{}] clean accuracy: {:.2}%",
            variant.label(),
            100.0 * clean
        );

        // Bit-flip robustness: flip each binary weight's sign with rate r.
        for rate in [0.05f32, 0.15, 0.30] {
            let mut injector = WeightFaultInjector::new(FaultModel::BinaryBitFlip { rate })?;
            let mut accuracies = Vec::new();
            for run in 0..10u64 {
                let mut rng = Rng::seed_from(1000 + run);
                injector.inject(&mut model, &mut rng)?;
                let accuracy = mc_accuracy(&mut model, &split);
                injector.restore(&mut model)?;
                accuracies.push(accuracy?);
            }
            let mean = accuracies.iter().sum::<f32>() / accuracies.len() as f32;
            println!(
                "[{}] accuracy at {:>4.0}% bit flips: {:.2}%",
                variant.label(),
                rate * 100.0,
                100.0 * mean
            );
        }
    }
    println!("\nExpected shape: the Proposed variant degrades much more gracefully.");
    Ok(())
}
