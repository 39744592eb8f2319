//! Structured fault topologies on the planned engine.
//!
//! Demonstrates the structured additions to the fault catalogue — whole
//! stuck crossbar lines ([`FaultModel::LineDefect`], both orientations) and
//! per-tile correlated retention drift ([`FaultModel::CorrelatedDrift`]) —
//! and runs them through `MonteCarloEngine::run_auto`, the planned engine,
//! checking each against the sequential oracle `MonteCarloEngine::run`. A
//! recurrent `Lstm` network runs planned too. Every claim printed below is
//! asserted.
//!
//! Run with `cargo run --release --example structured_faults`.

use invnorm_imc::montecarlo::MonteCarloEngine;
use invnorm_imc::{DegradationPolicy, EngineKind, FaultModel, LineOrientation, TileShape};
use invnorm_nn::activation::Relu;
use invnorm_nn::layer::{Layer, Mode};
use invnorm_nn::linear::Linear;
use invnorm_nn::lstm::Lstm;
use invnorm_nn::norm::GroupNorm;
use invnorm_nn::{NnError, Sequential};
use invnorm_tensor::{Rng, Tensor};

fn build_mlp(seed: u64) -> Sequential {
    let mut rng = Rng::seed_from(seed);
    Sequential::new()
        .with(Box::new(Linear::new(16, 32, &mut rng)))
        .with(Box::new(GroupNorm::layer_norm(32)))
        .with(Box::new(Relu::new()))
        .with(Box::new(Linear::new(32, 4, &mut rng)))
}

fn main() -> Result<(), NnError> {
    let x = Tensor::randn(&[8, 16], 0.0, 1.0, &mut Rng::seed_from(5));
    let engine = MonteCarloEngine::new(24, 0xBEEF);
    let tile = TileShape { rows: 8, cols: 8 };

    // The structured catalogue: whole crossbar-tile lines stuck at an
    // extreme conductance, and drift whose exponent is drawn once per tile
    // (spatially correlated) instead of once per cell.
    let structured = [
        FaultModel::LineDefect {
            orientation: LineOrientation::Row,
            rate: 0.05,
            tile,
        },
        FaultModel::LineDefect {
            orientation: LineOrientation::Col,
            rate: 0.05,
            tile,
        },
        FaultModel::CorrelatedDrift {
            nu: 0.05,
            time_ratio: 1000.0,
            sigma_nu: 0.3,
            tile,
        },
    ];

    println!(
        "structured fault sweep, {} chip instances per point",
        engine.runs()
    );
    println!("{:<26} {:>16} {:>10}", "fault", "mean ± std", "engine");
    for fault in structured {
        let outcome = engine.run_auto(
            || build_mlp(7),
            fault,
            &x,
            |out| Ok(out.abs().mean()),
            8,
            4,
            DegradationPolicy::Graceful,
        )?;
        assert_eq!(outcome.engine, EngineKind::Planned);
        assert!(outcome.fallbacks.is_empty());

        // Bit-identity: the sequential oracle reproduces the planned
        // engine's metrics exactly.
        let mut net = build_mlp(7);
        let xs = x.clone();
        let sequential = engine.run(&mut net, fault, |n| {
            Ok(n.forward(&xs, Mode::Eval)?.abs().mean())
        })?;
        assert_eq!(
            sequential.per_run, outcome.summary.per_run,
            "{fault:?} diverged from the sequential engine"
        );
        println!(
            "{:<26} {:>8.4} ± {:>5.4} {:>10}",
            fault.label(),
            outcome.summary.mean,
            outcome.summary.std,
            outcome.engine.name(),
        );
    }

    // The paper's recurrent forecaster stack — a sequence-returning Lstm
    // feeding one that is not, under a dense head — plans like every other
    // weighted layer: both recurrent weight matrices are plan operands, and
    // the planned sweep is bit-identical to the oracle.
    let build_lstm = || -> Sequential {
        let mut rng = Rng::seed_from(21);
        Sequential::new()
            .with(Box::new(Lstm::new(6, 8, true, &mut rng)))
            .with(Box::new(Lstm::new(8, 8, false, &mut rng)))
            .with(Box::new(Linear::new(8, 1, &mut rng)))
    };
    let xs = Tensor::randn(&[2, 5, 6], 0.0, 1.0, &mut Rng::seed_from(22));
    let fault = FaultModel::AdditiveVariation { sigma: 0.05 };
    let outcome = engine.run_auto(
        build_lstm,
        fault,
        &xs,
        |out| Ok(out.abs().mean()),
        8,
        2,
        DegradationPolicy::Graceful,
    )?;
    assert_eq!(outcome.engine, EngineKind::Planned);
    assert!(outcome.fallbacks.is_empty());
    let mut net = build_lstm();
    let sequential = engine.run(&mut net, fault, |n| {
        Ok(n.forward(&xs, Mode::Eval)?.abs().mean())
    })?;
    assert_eq!(
        sequential.per_run, outcome.summary.per_run,
        "the Lstm stack diverged from the sequential engine"
    );
    println!(
        "\nLstm stack on {}: mean {:.4} (bit-identical to the sequential engine)",
        outcome.engine.name(),
        outcome.summary.mean
    );

    println!("\nall structured-fault and Lstm claims verified");
    Ok(())
}
