//! End-to-end observability: run the same Monte-Carlo fault sweep with
//! telemetry off and on, verify the per-run metrics are bit-identical (the
//! instrumentation is observation-only), then print the run report — the
//! engine outcome, per-phase wall-time table, engine counters and the
//! Welford convergence stream — and export a chrome://tracing trace.
//!
//! Run with `cargo run --release --example telemetry_report`, then load the
//! printed trace path at chrome://tracing or <https://ui.perfetto.dev>.

use invnorm::prelude::*;
use invnorm_nn::activation::Relu;
use invnorm_nn::conv::Conv2d;
use invnorm_nn::pool::MaxPool2d;
use invnorm_nn::reshape::Flatten;

fn cnn(seed: u64) -> Sequential {
    let mut rng = Rng::seed_from(seed);
    Sequential::new()
        .with(Box::new(Conv2d::new(3, 8, 3, 1, 1, &mut rng)))
        .with(Box::new(Relu::new()))
        .with(Box::new(MaxPool2d::new(2)))
        .with(Box::new(Flatten::new()))
        .with(Box::new(Linear::new(8 * 8 * 8, 10, &mut rng)))
}

fn main() -> Result<(), NnError> {
    let x = Tensor::randn(&[4, 3, 16, 16], 0.0, 1.0, &mut Rng::seed_from(1));
    let engine = MonteCarloEngine::new(40, 0xDA7E);
    let fault = FaultModel::StuckAt { rate: 0.05 };
    let metric = |out: &Tensor| Ok(out.abs().mean());

    // Baseline: telemetry disabled (the default) — no report is attached.
    let baseline = engine.run_auto(
        || cnn(5),
        fault,
        &x,
        metric,
        8,
        2,
        DegradationPolicy::Graceful,
    )?;
    assert!(
        baseline.summary.telemetry.is_none(),
        "disabled telemetry must not attach a report"
    );

    // Instrumented: identical simulation with the spans and counters live.
    Telemetry::reset();
    Telemetry::enable();
    let instrumented = engine.run_auto(
        || cnn(5),
        fault,
        &x,
        metric,
        8,
        2,
        DegradationPolicy::Graceful,
    )?;
    Telemetry::disable();

    // Observation-only: not a single output bit may move.
    assert_eq!(baseline.engine, instrumented.engine);
    let identical = baseline
        .summary
        .per_run
        .iter()
        .zip(instrumented.summary.per_run.iter())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(identical, "telemetry changed the per-run metrics");

    println!("{instrumented}");

    let report = instrumented
        .summary
        .telemetry
        .as_ref()
        .expect("enabled telemetry must attach a report");
    println!("\n{report}");

    let tail = report
        .convergence
        .last()
        .expect("convergence stream is never empty");
    println!(
        "convergence after {} runs: mean {:.6}, 95% half-width {:.6}",
        tail.runs, tail.mean, tail.half_width95
    );

    let trace_path = std::env::temp_dir().join("invnorm_telemetry_trace.json");
    Telemetry::write_chrome_trace(&trace_path)
        .map_err(|e| NnError::Config(format!("writing {}: {e}", trace_path.display())))?;
    println!("\nchrome trace written to {}", trace_path.display());
    println!("load it at chrome://tracing or https://ui.perfetto.dev");
    Ok(())
}
