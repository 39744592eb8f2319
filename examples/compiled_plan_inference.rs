//! Compiled inference plans for Monte-Carlo fault simulation: the network is
//! compiled **once** per worker (one-shot shape inference, arena-backed
//! buffers, cached packed-weight panels), fault realizations land in
//! plan-owned faulty buffers, and only panels covering dirty weight rows are
//! re-packed between chip instances. The example verifies the planned
//! engine is **bit-identical** to the sequential engine with the stack
//! capped at 1 and at 16 realizations per forward (the engine stacks what
//! fills one microkernel tile on the frozen first layer, at most the cap),
//! then prints the wall-clock advantage on the paper's two evaluation
//! shapes.
//!
//! Run with `cargo run --release --example compiled_plan_inference`.

use invnorm_imc::fault::FaultModel;
use invnorm_imc::montecarlo::{MonteCarloEngine, Sweep};
use invnorm_imc::{SweepControl, SweepOutcome};
use invnorm_nn::activation::Relu;
use invnorm_nn::conv::Conv2d;
use invnorm_nn::layer::{Layer, Mode};
use invnorm_nn::linear::Linear;
use invnorm_nn::pool::MaxPool2d;
use invnorm_nn::reshape::Flatten;
use invnorm_nn::{NnError, Sequential};
use invnorm_tensor::{Rng, Tensor};
use std::time::Instant;

/// The paper's linear probe: one 512→256 dense layer.
fn build_probe(seed: u64) -> Sequential {
    let mut rng = Rng::seed_from(seed);
    Sequential::new().with(Box::new(Linear::new(512, 256, &mut rng)))
}

/// A small CIFAR-shaped CNN built from plan-capable layers.
fn build_cnn(seed: u64) -> Sequential {
    let mut rng = Rng::seed_from(seed);
    Sequential::new()
        .with(Box::new(Conv2d::new(3, 8, 5, 1, 2, &mut rng)))
        .with(Box::new(Relu::new()))
        .with(Box::new(MaxPool2d::new(2)))
        .with(Box::new(Flatten::new()))
        .with(Box::new(Linear::new(8 * 16 * 16, 10, &mut rng)))
}

fn sweep<F>(
    label: &str,
    factory: F,
    input: &Tensor,
    engine: &MonteCarloEngine,
    faults: &[FaultModel],
) -> Result<(), NnError>
where
    F: Fn() -> Sequential + Sync + Copy,
{
    println!("\n{label}");
    println!(
        "{:<22} {:>14} {:>12} {:>12} {:>12}",
        "fault", "mean ± std", "seq (ms)", "B=1 (ms)", "B<=16 (ms)"
    );
    for &fault in faults {
        // Sequential reference: shapes re-derived, scratch re-allocated and
        // every weight panel re-packed on every run.
        let mut net = factory();
        let xs = input.clone();
        let t0 = Instant::now();
        let sequential = engine.run(&mut net, fault, |n| {
            Ok(n.forward(&xs, Mode::Eval)?.abs().mean())
        })?;
        let t_seq = t0.elapsed().as_secs_f64() * 1e3;

        // Planned engine: compile once per worker, re-pack only dirty rows,
        // with one realization per forward, or up to sixteen fused.
        let mut t_planned = [0.0f64; 2];
        for (slot, batch) in [1usize, 16].into_iter().enumerate() {
            let sweep = Sweep {
                batch,
                threads: 4,
                ..Sweep::new(factory, fault, input, |out: &Tensor| Ok(out.abs().mean()))
            };
            let t0 = Instant::now();
            let planned = engine
                .execute(&sweep, &SweepControl::new())
                .and_then(SweepOutcome::into_summary)?;
            t_planned[slot] = t0.elapsed().as_secs_f64() * 1e3;

            // Bit-identity is the whole point: assert it, loudly.
            let identical = sequential
                .per_run
                .iter()
                .zip(planned.per_run.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                identical,
                "planned B={batch} metrics diverged for {fault:?}"
            );
        }

        println!(
            "{:<22} {:>8.4} ± {:<5.4} {:>10.1} {:>12.1} {:>12.1}",
            fault.label(),
            sequential.mean,
            sequential.std,
            t_seq,
            t_planned[0],
            t_planned[1],
        );
    }
    Ok(())
}

fn main() -> Result<(), NnError> {
    let engine = MonteCarloEngine::new(32, 0xC0FFEE);
    let faults = [
        FaultModel::AdditiveVariation { sigma: 0.1 },
        FaultModel::StuckAt { rate: 0.05 },
        FaultModel::Drift {
            nu: 0.05,
            time_ratio: 100.0,
        },
    ];

    println!(
        "Compiled-plan Monte-Carlo fault sweep, {} chip instances per point \
         (per-run metrics bit-identical to the sequential engine)",
        engine.runs()
    );

    let x_probe = Tensor::randn(&[64, 512], 0.0, 1.0, &mut Rng::seed_from(7));
    sweep(
        "linear probe (512 -> 256, batch 64)",
        || build_probe(1),
        &x_probe,
        &engine,
        &faults,
    )?;

    let x_cnn = Tensor::randn(&[8, 3, 32, 32], 0.0, 1.0, &mut Rng::seed_from(8));
    sweep(
        "CIFAR-shaped CNN (batch 8)",
        || build_cnn(2),
        &x_cnn,
        &engine,
        &faults,
    )?;

    println!("\nAll planned sweeps reproduced the sequential engine bit-for-bit.");
    Ok(())
}
