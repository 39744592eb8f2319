//! Ablations over the design choices the README's "Experiments" section
//! lists:
//!
//! * **Initialization spread** (paper Sec. IV-F): larger σγ/σβ trades a
//!   little clean accuracy for robustness.
//! * **Affine-dropout rate and granularity** (paper Sec. III-B): vector-wise
//!   vs element-wise dropping and the effect of the drop probability.
//!
//! Both ablations use a compact purpose-built CNN (conv → inverted-norm →
//! sign → conv → inverted-norm → sign → GAP → linear) on the synthetic image
//! task, so the effect of the inverted-normalization hyper-parameters is not
//! confounded by the rest of the MicroResNet architecture.

use crate::faults::evaluate_under_fault;
use crate::report::Table;
use crate::scale::ExperimentScale;
use crate::tasks::ImageTask;
use crate::Result;
use invnorm_core::affine_dropout::DropGranularity;
use invnorm_core::bayesian::BayesianPredictor;
use invnorm_core::init::AffineInit;
use invnorm_core::inverted_norm::{InvNormConfig, InvertedNorm};
use invnorm_imc::fault::FaultModel;
use invnorm_imc::injector::NoiseHandle;
use invnorm_models::variant::BuiltModel;
use invnorm_models::NormVariant;
use invnorm_nn::activation::SignSte;
use invnorm_nn::conv::Conv2d;
use invnorm_nn::linear::Linear;
use invnorm_nn::optim::Adam;
use invnorm_nn::pool::GlobalAvgPool2d;
use invnorm_nn::reshape::Flatten;
use invnorm_nn::train::{self, TrainConfig};
use invnorm_nn::Sequential;
use invnorm_quant::QuantConfig;
use invnorm_tensor::Rng;

/// Builds the compact ablation CNN with a custom inverted-norm configuration.
fn build_ablation_cnn(classes: usize, config: &InvNormConfig) -> Result<BuiltModel> {
    let mut rng = Rng::seed_from(4242);
    let mut net = Sequential::new();
    net.push(Box::new(Conv2d::with_bias(3, 8, 3, 1, 1, false, &mut rng)));
    net.push(Box::new(InvertedNorm::new(8, config, &mut rng)?));
    net.push(Box::new(SignSte::new()));
    net.push(Box::new(Conv2d::with_bias(8, 16, 3, 2, 1, false, &mut rng)));
    net.push(Box::new(InvertedNorm::new(
        16,
        &config.clone().with_seed(config.seed ^ 0xBEEF),
        &mut rng,
    )?));
    net.push(Box::new(SignSte::new()));
    net.push(Box::new(GlobalAvgPool2d::new()));
    net.push(Box::new(Flatten::new()));
    net.push(Box::new(Linear::new(16, classes, &mut rng)));
    Ok(BuiltModel {
        network: Box::new(net),
        noise: NoiseHandle::new(),
        quant: QuantConfig::binary(),
        topology: "AblationCnn",
        variant: NormVariant::proposed(),
    })
}

fn train_ablation_cnn(
    task: &ImageTask,
    config: &InvNormConfig,
    scale: &ExperimentScale,
) -> Result<BuiltModel> {
    let mut model = build_ablation_cnn(task.split.classes, config)?;
    let mut optimizer = Adam::new(0.01);
    train::fit_classifier(
        &mut model,
        &mut optimizer,
        &task.split.train_inputs,
        &task.split.train_labels,
        &TrainConfig {
            epochs: scale.train_epochs,
            batch_size: 16,
            shuffle: true,
            seed: 5,
        },
    )?;
    Ok(model)
}

fn mc_accuracy(task: &ImageTask, model: &mut BuiltModel, passes: usize) -> Result<f32> {
    BayesianPredictor::new(passes)
        .predict_classification(model, &task.split.test_inputs)?
        .accuracy(&task.split.test_labels)
}

/// Initialization-spread ablation (Sec. IV-F): clean accuracy and accuracy
/// under 10 % bit flips for σ ∈ {0 (conventional), 0.1, 0.3, 0.5, 0.8}.
///
/// # Errors
///
/// Returns an error when a model fails to build, train or evaluate.
pub fn run_init(scale: &ExperimentScale) -> Result<Vec<Table>> {
    let task = ImageTask::prepare(scale);
    let mut table = Table::new(
        "Sec. IV-F — effect of affine-parameter initialization spread",
        &[
            "Init",
            "Clean accuracy",
            "Accuracy @ 10% bit flips (mean ± std)",
        ],
    );
    let settings: Vec<(String, AffineInit)> = vec![
        ("conventional (γ=1, β=0)".into(), AffineInit::Conventional),
        ("normal σ=0.1".into(), AffineInit::normal_with_sigma(0.1)),
        (
            "normal σ=0.3 (paper)".into(),
            AffineInit::normal_with_sigma(0.3),
        ),
        ("normal σ=0.5".into(), AffineInit::normal_with_sigma(0.5)),
        ("normal σ=0.8".into(), AffineInit::normal_with_sigma(0.8)),
    ];
    for (label, init) in settings {
        let config = InvNormConfig::default().with_init(init);
        let mut model = train_ablation_cnn(&task, &config, scale)?;
        let clean = mc_accuracy(&task, &mut model, scale.mc_passes)?;
        let summary = evaluate_under_fault(
            &mut model,
            FaultModel::BinaryBitFlip { rate: 0.10 },
            scale.mc_runs,
            11,
            |m| mc_accuracy(&task, m, scale.mc_passes),
        )?;
        table.push_row(vec![
            label,
            format!("{clean:.4}"),
            Table::mean_std_cell(summary.mean, summary.std),
        ]);
    }
    Ok(vec![table])
}

/// Dropout-rate and granularity ablation (Sec. III-B): clean accuracy and
/// accuracy under 10 % bit flips for p ∈ {0.1, 0.2, 0.3, 0.5} in both
/// element-wise and vector-wise granularity.
///
/// # Errors
///
/// Returns an error when a model fails to build, train or evaluate.
pub fn run_dropout(scale: &ExperimentScale) -> Result<Vec<Table>> {
    let task = ImageTask::prepare(scale);
    let mut table = Table::new(
        "Sec. III-B — affine-dropout rate and granularity",
        &[
            "Granularity",
            "p",
            "Clean accuracy",
            "Accuracy @ 10% bit flips (mean ± std)",
        ],
    );
    for granularity in [DropGranularity::VectorWise, DropGranularity::ElementWise] {
        for p in [0.1f32, 0.2, 0.3, 0.5] {
            let config = InvNormConfig {
                drop_probability: p,
                granularity,
                ..InvNormConfig::default()
            };
            let mut model = train_ablation_cnn(&task, &config, scale)?;
            let clean = mc_accuracy(&task, &mut model, scale.mc_passes)?;
            let summary = evaluate_under_fault(
                &mut model,
                FaultModel::BinaryBitFlip { rate: 0.10 },
                scale.mc_runs,
                13,
                |m| mc_accuracy(&task, m, scale.mc_passes),
            )?;
            table.push_row(vec![
                format!("{granularity:?}"),
                format!("{p:.1}"),
                format!("{clean:.4}"),
                Table::mean_std_cell(summary.mean, summary.std),
            ]);
        }
    }
    Ok(vec![table])
}

/// Monte-Carlo pass-count ablation: how the number of stochastic forward
/// passes `T` affects the Bayesian prediction quality, clean and under 10 %
/// bit flips. (A design choice the README's "Experiments" section lists:
/// more passes stabilize the averaged prediction at linearly higher
/// inference cost.)
///
/// # Errors
///
/// Returns an error when a model fails to build, train or evaluate.
pub fn run_mc_passes(scale: &ExperimentScale) -> Result<Vec<Table>> {
    let task = ImageTask::prepare(scale);
    let config = InvNormConfig::default();
    let mut model = train_ablation_cnn(&task, &config, scale)?;
    let mut table = Table::new(
        "Ablation — number of Monte-Carlo forward passes T",
        &[
            "T",
            "Clean accuracy",
            "Accuracy @ 10% bit flips (mean ± std)",
        ],
    );
    for passes in [1usize, 2, 4, 8, 16] {
        let clean = mc_accuracy(&task, &mut model, passes)?;
        let summary = evaluate_under_fault(
            &mut model,
            FaultModel::BinaryBitFlip { rate: 0.10 },
            scale.mc_runs,
            17,
            |m| mc_accuracy(&task, m, passes),
        )?;
        table.push_row(vec![
            passes.to_string(),
            format!("{clean:.4}"),
            Table::mean_std_cell(summary.mean, summary.std),
        ]);
    }
    Ok(vec![table])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mc_pass_ablation_covers_all_settings() {
        let tables = run_mc_passes(&ExperimentScale::quick()).unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 5);
        assert!(tables[0].to_text().contains("16"));
    }

    #[test]
    fn quick_init_ablation_covers_all_settings() {
        let tables = run_init(&ExperimentScale::quick()).unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 5);
        assert!(tables[0].to_text().contains("paper"));
    }

    #[test]
    fn quick_dropout_ablation_covers_both_granularities() {
        let tables = run_dropout(&ExperimentScale::quick()).unwrap();
        assert_eq!(tables[0].len(), 8);
        let text = tables[0].to_text();
        assert!(text.contains("VectorWise"));
        assert!(text.contains("ElementWise"));
    }
}
