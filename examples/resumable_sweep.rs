//! Hardened Monte-Carlo sweeps: deadlines, cancellation and bit-identical
//! checkpoint/resume.
//!
//! A production fault-robustness sweep can run for hours, so every engine
//! entry point accepts a [`SweepControl`] carrying a [`RunBudget`]
//! (wall-clock deadline and/or cooperative [`CancelToken`]). When the budget
//! expires the sweep stops at the next chip-instance boundary and returns a
//! serializable [`SweepCheckpoint`]; resuming from it replays only the
//! missing instances, and — because every instance derives its randomness
//! from `(seed, run)` alone — the final summary is **bit-identical** to an
//! uninterrupted sweep. Every claim printed below is asserted.
//!
//! Run with `cargo run --release --example resumable_sweep`.

use std::sync::atomic::{AtomicUsize, Ordering};

use invnorm_imc::montecarlo::{MonteCarloEngine, Sweep};
use invnorm_imc::{
    CancelToken, FaultModel, InterruptCause, LineOrientation, RunBudget, SweepCheckpoint,
    SweepControl, SweepOutcome, TileShape,
};
use invnorm_nn::activation::Relu;
use invnorm_nn::linear::Linear;
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
    let runs = 48;
    let engine = MonteCarloEngine::new(runs, 0xBEEF);
    let x = Tensor::randn(&[8, 16], 0.0, 1.0, &mut Rng::seed_from(5));
    let fault = FaultModel::LineDefect {
        orientation: LineOrientation::Row,
        rate: 0.05,
        tile: TileShape { rows: 8, cols: 8 },
    };
    let metric = |out: &Tensor| Ok(out.abs().mean());
    let sweep = Sweep {
        batch: 8,
        threads: 4,
        ..Sweep::new(|| build_mlp(7), fault, &x, metric)
    };

    // Ground truth: one uninterrupted sweep on the planned engine.
    let outcome = engine.execute(&sweep, &SweepControl::new())?;
    assert!(outcome.is_complete());
    let baseline = outcome.summary().clone();
    println!(
        "uninterrupted sweep: {} instances, mean {:.4} ± {:.4}",
        runs, baseline.mean, baseline.std
    );

    // Interrupt: the metric closure cancels the token after a handful of
    // evaluations — standing in for an operator's Ctrl-C or an orchestrator
    // revoking the job's budget.
    let token = CancelToken::new();
    let control = SweepControl::new().with_budget(RunBudget::unbounded().with_token(&token));
    let calls = AtomicUsize::new(0);
    let cancelling = Sweep {
        batch: 8,
        threads: 4,
        ..Sweep::new(
            || build_mlp(7),
            fault,
            &x,
            |out: &Tensor| {
                if calls.fetch_add(1, Ordering::Relaxed) + 1 >= 6 {
                    token.cancel();
                }
                metric(out)
            },
        )
    };
    let outcome = engine.execute(&cancelling, &control)?;
    let SweepOutcome::Interrupted {
        partial,
        cause,
        checkpoint,
        ..
    } = outcome
    else {
        panic!("the cancelled sweep must be interrupted");
    };
    assert_eq!(cause, InterruptCause::Cancelled);
    assert!(
        checkpoint.accounted_runs() > 0,
        "in-flight instances finish"
    );
    assert!(checkpoint.remaining_runs() > 0, "cancellation left work");
    println!(
        "cancelled sweep: {} of {} instances done ({}), partial mean {:.4}",
        checkpoint.accounted_runs(),
        runs,
        cause,
        partial.mean
    );

    // Persist the checkpoint exactly as a job runner would (here through a
    // byte buffer; a file works the same). The framing is versioned and
    // checksummed, so corruption is caught before any field is trusted.
    let bytes = checkpoint.to_bytes();
    let mut corrupted = bytes.clone();
    let last = corrupted.len() - 1;
    corrupted[last] ^= 0x01;
    assert!(SweepCheckpoint::from_bytes(&corrupted).is_err());
    let restored = SweepCheckpoint::from_bytes(&bytes)?;
    assert_eq!(restored, checkpoint);
    println!(
        "checkpoint serialized to {} bytes (corruption detected, round-trip exact)",
        bytes.len()
    );

    // Resume: only the missing instances run, and the merged summary is
    // bit-identical to the uninterrupted sweep.
    let outcome = engine.execute(&sweep, &SweepControl::new().with_resume(restored))?;
    assert!(outcome.is_complete());
    let resumed = outcome.summary();
    assert_eq!(resumed.per_run.len(), runs);
    let identical = baseline
        .per_run
        .iter()
        .zip(resumed.per_run.iter())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(identical, "resume must be bit-identical");
    println!(
        "resumed sweep: mean {:.4} ± {:.4} — bit-identical to the uninterrupted run",
        resumed.mean, resumed.std
    );

    // Deadlines compose the same way: a budget that is already exhausted
    // checkpoints before the first instance, and resuming finishes the job.
    let control = SweepControl::new()
        .with_budget(RunBudget::unbounded().with_deadline(std::time::Duration::ZERO));
    let outcome = engine.execute(&sweep, &control)?;
    let checkpoint = outcome
        .checkpoint()
        .expect("an expired deadline yields a checkpoint")
        .clone();
    assert_eq!(checkpoint.remaining_runs(), runs);
    let outcome = engine.execute(&sweep, &SweepControl::new().with_resume(checkpoint))?;
    assert!(outcome.is_complete());
    assert_eq!(
        outcome.summary().per_run,
        baseline.per_run,
        "deadline + resume diverged"
    );
    println!("expired-deadline sweep resumed to the same bit-identical summary");

    println!("\nall hardened-sweep claims verified");
    Ok(())
}
