//! Fault-evaluation helpers shared by the robustness experiments.
//!
//! The paper injects conductance variation into the **weights** of 8-bit
//! models but into the **normalized pre-activation values** of binary-weight
//! models (Sec. IV-A2). [`evaluate_under_fault`] routes each fault model to
//! the right injection point for a given model and wraps the Monte-Carlo
//! protocol (mean ± std over chip instances).

use crate::Result;
use invnorm_imc::fault::FaultModel;
use invnorm_imc::montecarlo::{MonteCarloEngine, MonteCarloSummary};
use invnorm_models::BuiltModel;
use invnorm_quant::config::Precision;

/// Where a fault is injected for a particular (model, fault) combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// Perturb the programmed weights (8-bit models, and bit-flips for every
    /// model).
    Weights,
    /// Perturb the normalized pre-activation values through the model's
    /// [`invnorm_imc::NoiseHandle`] (analog variation on binary-weight
    /// models, which have no analog weight magnitude to perturb).
    PreActivation,
}

/// Chooses the injection point following the paper's protocol.
pub fn fault_target(model: &BuiltModel, fault: &FaultModel) -> FaultTarget {
    let binary_weights = matches!(model.quant.weights, Precision::Binary);
    match fault {
        FaultModel::AdditiveVariation { .. }
        | FaultModel::MultiplicativeVariation { .. }
        | FaultModel::UniformNoise { .. }
            if binary_weights =>
        {
            FaultTarget::PreActivation
        }
        _ => FaultTarget::Weights,
    }
}

/// Translates a generic bit-flip request into the representation-appropriate
/// fault model for the given network (sign flips for binary weights, `bits`
/// chosen from the quantization config otherwise).
pub fn bitflip_for(model: &BuiltModel, rate: f32) -> FaultModel {
    match model.quant.weights {
        Precision::Binary => FaultModel::BinaryBitFlip { rate },
        Precision::Bits(bits) => FaultModel::BitFlip { rate, bits },
        Precision::Float => FaultModel::BitFlip { rate, bits: 8 },
    }
}

/// Evaluates `metric` under `runs` independent realizations of `fault`,
/// routed to the correct injection point, and returns the Monte-Carlo
/// summary (mean ± std over chip instances). Weight faults run through
/// [`MonteCarloEngine::run`] on the model itself.
///
/// # Errors
///
/// Returns an error when injection or evaluation fails, and — on the
/// weight route — when a metric is non-finite or the evaluation panics.
pub fn evaluate_under_fault<F>(
    model: &mut BuiltModel,
    fault: FaultModel,
    runs: usize,
    seed: u64,
    mut metric: F,
) -> Result<MonteCarloSummary>
where
    F: FnMut(&mut BuiltModel) -> Result<f32>,
{
    match fault_target(model, &fault) {
        FaultTarget::Weights => MonteCarloEngine::new(runs, seed).run(model, fault, metric),
        FaultTarget::PreActivation => {
            let mut per_run = Vec::with_capacity(runs.max(1));
            for _run in 0..runs.max(1) {
                model.noise.set(fault);
                let value = metric(model);
                model.noise.clear();
                per_run.push(value?);
            }
            Ok(MonteCarloSummary::from_runs(
                format!("{} (pre-activation)", fault.label()),
                per_run,
            ))
        }
    }
}

/// Builds the additive-variation sweep used by Figs. 5 and 6 (σ from 0 to
/// `max_sigma` in `points` steps, fault-free point included).
pub fn variation_sweep(max_sigma: f32, points: usize) -> Vec<FaultModel> {
    let mut sweep = vec![FaultModel::None];
    for i in 1..=points.max(1) {
        sweep.push(FaultModel::AdditiveVariation {
            sigma: max_sigma * i as f32 / points.max(1) as f32,
        });
    }
    sweep
}

/// Builds the multiplicative-variation sweep used by Fig. 6b.
pub fn multiplicative_sweep(max_sigma: f32, points: usize) -> Vec<FaultModel> {
    let mut sweep = vec![FaultModel::None];
    for i in 1..=points.max(1) {
        sweep.push(FaultModel::MultiplicativeVariation {
            sigma: max_sigma * i as f32 / points.max(1) as f32,
        });
    }
    sweep
}

/// Builds the uniform-noise sweep used in the paper's extra LSTM experiment.
pub fn uniform_noise_sweep(max_strength: f32, points: usize) -> Vec<FaultModel> {
    let mut sweep = vec![FaultModel::None];
    for i in 1..=points.max(1) {
        sweep.push(FaultModel::UniformNoise {
            strength: max_strength * i as f32 / points.max(1) as f32,
        });
    }
    sweep
}

/// Bit-flip rate sweep (0 to `max_rate`), as raw rates; convert with
/// [`bitflip_for`] once the model (and hence the weight representation) is
/// known.
pub fn bitflip_rates(max_rate: f32, points: usize) -> Vec<f32> {
    let mut sweep = vec![0.0];
    for i in 1..=points.max(1) {
        sweep.push(max_rate * i as f32 / points.max(1) as f32);
    }
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;
    use crate::tasks::ImageTask;
    use invnorm_models::NormVariant;

    #[test]
    fn sweeps_start_fault_free_and_grow() {
        let sweep = variation_sweep(1.0, 4);
        assert_eq!(sweep.len(), 5);
        assert_eq!(sweep[0], FaultModel::None);
        assert!(
            matches!(sweep[4], FaultModel::AdditiveVariation { sigma } if (sigma - 1.0).abs() < 1e-6)
        );
        assert_eq!(multiplicative_sweep(0.5, 2).len(), 3);
        assert_eq!(uniform_noise_sweep(0.5, 2).len(), 3);
        let rates = bitflip_rates(0.3, 3);
        assert_eq!(rates, vec![0.0, 0.1, 0.2, 0.3]);
    }

    #[test]
    fn bitflip_translation_follows_weight_precision() {
        let scale = ExperimentScale::quick();
        let task = ImageTask::prepare(&scale);
        let binary_model = task.build(NormVariant::Conventional).unwrap();
        assert!(matches!(
            bitflip_for(&binary_model, 0.1),
            FaultModel::BinaryBitFlip { .. }
        ));
        let fp_model = ImageTask::prepare(&scale)
            .full_precision()
            .build(NormVariant::Conventional)
            .unwrap();
        assert!(matches!(
            bitflip_for(&fp_model, 0.1),
            FaultModel::BitFlip { bits: 8, .. }
        ));
    }

    #[test]
    fn fault_target_routing() {
        let scale = ExperimentScale::quick();
        let task = ImageTask::prepare(&scale);
        let binary_model = task.build(NormVariant::Conventional).unwrap();
        assert_eq!(
            fault_target(&binary_model, &FaultModel::AdditiveVariation { sigma: 0.3 }),
            FaultTarget::PreActivation
        );
        assert_eq!(
            fault_target(&binary_model, &FaultModel::BinaryBitFlip { rate: 0.1 }),
            FaultTarget::Weights
        );
        let fp_model = ImageTask::prepare(&scale)
            .full_precision()
            .build(NormVariant::Conventional)
            .unwrap();
        assert_eq!(
            fault_target(&fp_model, &FaultModel::AdditiveVariation { sigma: 0.3 }),
            FaultTarget::Weights
        );
    }

    #[test]
    fn evaluate_under_fault_restores_model() {
        let scale = ExperimentScale::quick();
        let task = ImageTask::prepare(&scale).full_precision();
        let mut model = task.build(NormVariant::Conventional).unwrap();
        let clean = task.accuracy(&mut model).unwrap();
        let summary = evaluate_under_fault(
            &mut model,
            FaultModel::AdditiveVariation { sigma: 0.4 },
            3,
            7,
            |m| task.accuracy(m),
        )
        .unwrap();
        assert_eq!(summary.runs(), 3);
        let after = task.accuracy(&mut model).unwrap();
        assert!((clean - after).abs() < 1e-6, "weights must be restored");
    }

    #[test]
    fn preactivation_route_uses_noise_handle() {
        let scale = ExperimentScale::quick();
        let task = ImageTask::prepare(&scale); // binary activations
        let mut model = task.build(NormVariant::Conventional).unwrap();
        let summary = evaluate_under_fault(
            &mut model,
            FaultModel::AdditiveVariation { sigma: 0.5 },
            2,
            3,
            |m| task.accuracy(m),
        )
        .unwrap();
        assert!(summary.fault_label.contains("pre-activation"));
        // Handle cleared after the evaluation.
        assert!(!model.noise.current().is_active());
    }
}
