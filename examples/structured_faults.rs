//! Structured fault topologies and the graceful-degradation engine ladder.
//!
//! Demonstrates the three structured additions to the fault catalogue —
//! whole stuck crossbar lines ([`FaultModel::LineDefect`]), per-tile
//! correlated retention drift ([`FaultModel::CorrelatedDrift`]) and
//! transient read noise (any model carried with a per-inference
//! [`FaultLifetime`]) — and runs them through
//! `MonteCarloEngine::run_auto`, which picks the fastest engine that
//! supports each configuration and degrades down the ladder
//! planned → parallel with a typed reason per skipped rung.
//! Every claim printed below is asserted.
//!
//! Run with `cargo run --release --example structured_faults`.

use invnorm_imc::montecarlo::{MonteCarloEngine, Sweep};
use invnorm_imc::{
    DegradationPolicy, EngineKind, FallbackReason, FaultLifetime, FaultModel, FaultSpec,
    LineOrientation, SweepControl, TileShape,
};
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
        // The ladder picks the fastest engine; a fully plan-capable MLP
        // never needs to degrade.
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

        // Bit-identity down the ladder: the sequential reference engine
        // reproduces the auto-selected engine's metrics exactly.
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

    // Transient read noise: the same Gaussian model, but re-drawn on every
    // inference. Only the planned engine models fault lifetime, so the
    // direct engine rejects the spec loudly...
    let read_noise = FaultSpec::new(
        FaultModel::AdditiveVariation { sigma: 0.1 },
        FaultLifetime::PerInference,
    );
    let direct = Sweep {
        threads: 4,
        ..Sweep::new(
            || build_mlp(7),
            read_noise,
            &x,
            |out: &Tensor| Ok(out.abs().mean()),
        )
    };
    let err = engine
        .execute_on(EngineKind::Parallel, &direct, &SweepControl::new())
        .unwrap_err();
    assert!(matches!(err, NnError::FaultUnsupported { .. }));
    println!("\ndirect engine on per-inference read noise: {err}");

    // ...while the ladder keeps the run on the planned rung, and — because
    // each chip instance runs exactly one forward — the per-run metrics
    // stay bit-identical to the static lifetime (the documented
    // reproducibility boundary).
    let outcome = engine.run_auto(
        || build_mlp(7),
        read_noise,
        &x,
        |out| Ok(out.abs().mean()),
        8,
        4,
        DegradationPolicy::Graceful,
    )?;
    assert_eq!(outcome.engine, EngineKind::Planned);
    let static_ref = engine.run_auto(
        || build_mlp(7),
        read_noise.model,
        &x,
        |out| Ok(out.abs().mean()),
        8,
        4,
        DegradationPolicy::Graceful,
    )?;
    assert_eq!(outcome.summary.per_run, static_ref.summary.per_run);
    println!(
        "per-inference read noise on {}: mean {:.4} (bit-identical to static for single-forward metrics)",
        outcome.engine.name(),
        outcome.summary.mean
    );

    // An Lstm does not support compiled plans: the ladder records one typed
    // reason for the skipped planned rung and lands on the parallel engine,
    // which supports every layer.
    let build_lstm = || -> Sequential {
        let mut rng = Rng::seed_from(21);
        Sequential::new().with(Box::new(Lstm::new(6, 8, false, &mut rng)))
    };
    let xs = Tensor::randn(&[2, 5, 6], 0.0, 1.0, &mut Rng::seed_from(22));
    let outcome = engine.run_auto(
        build_lstm,
        FaultModel::AdditiveVariation { sigma: 0.05 },
        &xs,
        |out| Ok(out.abs().mean()),
        8,
        2,
        DegradationPolicy::Graceful,
    )?;
    assert_eq!(outcome.engine, EngineKind::Parallel);
    assert_eq!(outcome.fallbacks.len(), 1);
    println!("\nLstm network degraded to {}:", outcome.engine.name());
    for step in &outcome.fallbacks {
        assert!(matches!(
            step.reason,
            FallbackReason::Unsupported { layer: "Lstm", .. }
        ));
        println!("  skipped {:<10} ({})", step.engine.name(), step.reason);
    }

    // Strict mode keeps the pre-ladder behavior: the planned engine's
    // rejection propagates loudly instead of degrading.
    let strict = engine.run_auto(
        build_lstm,
        FaultModel::AdditiveVariation { sigma: 0.05 },
        &xs,
        |out| Ok(out.abs().mean()),
        8,
        2,
        DegradationPolicy::Strict,
    );
    let err = strict.expect_err("strict mode must not degrade");
    println!("\nstrict policy on the same network: {err}");

    println!("\nall structured-fault and ladder claims verified");
    Ok(())
}
