//! Cross-crate integration tests of the hardened-sweep supervision layer:
//! cancellation and deadlines interrupt sweeps into resumable checkpoints,
//! resume replays only the missing chip instances and finishes bit-identical
//! to an uninterrupted sweep on every engine, panicking runs are quarantined
//! without killing the worker pool, and non-finite metrics are excluded from
//! the aggregate with typed diagnostics.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use invnorm::prelude::*;
use invnorm_imc::{InterruptCause, LineOrientation, QuarantineCause, TileShape};
use invnorm_nn::activation::Relu;
use invnorm_nn::norm::GroupNorm;

/// Chip instances per sweep — enough that four workers cannot drain the whole
/// sweep between a mid-metric cancellation and their next budget check.
const RUNS: usize = 24;
/// The counting metrics cancel the sweep's token on this call.
const CANCEL_AFTER: usize = 4;

/// An f32 network supported by every engine rung (dense, norm, activation).
fn mlp(seed: u64) -> Sequential {
    let mut rng = Rng::seed_from(seed);
    Sequential::new()
        .with(Box::new(Linear::new(8, 16, &mut rng)))
        .with(Box::new(GroupNorm::layer_norm(16)))
        .with(Box::new(Relu::new()))
        .with(Box::new(Linear::new(16, 4, &mut rng)))
}

/// An integer-inference network for the code-domain engines.
fn quantized_net(seed: u64) -> Sequential {
    let mut rng = Rng::seed_from(seed);
    let l1 = Linear::new(12, 10, &mut rng);
    let l2 = Linear::new(10, 4, &mut rng);
    Sequential::new()
        .with(Box::new(QuantizedLinear::from_linear(&l1, 8).unwrap()))
        .with(Box::new(Relu::new()))
        .with(Box::new(QuantizedLinear::from_linear(&l2, 6).unwrap()))
}

/// A structured fault topology (whole stuck word lines) for the f32 sweeps.
fn structured_fault() -> FaultModel {
    FaultModel::LineDefect {
        orientation: LineOrientation::Row,
        rate: 0.3,
        tile: TileShape { rows: 4, cols: 4 },
    }
}

/// A code-domain fault for the quantized sweeps.
fn code_fault() -> FaultModel {
    FaultModel::BitFlip {
        rate: 0.08,
        bits: 8,
    }
}

fn assert_bits_equal(baseline: &[f32], resumed: &[f32], what: &str) {
    assert_eq!(baseline.len(), resumed.len(), "{what}: run count");
    let identical = baseline
        .iter()
        .zip(resumed.iter())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(identical, "{what}: {baseline:?} vs {resumed:?}");
}

/// Drives one engine through the interrupt → persist → resume cycle:
/// `sweep(control, token, k)` must run the supervised engine with a metric
/// that cancels `token` on its `k`-th call. Asserts the interrupted leg
/// produced a genuine partial checkpoint, round-trips it through bytes, and
/// that the resumed leg finishes bit-identical to `baseline`.
fn interrupt_resume_bit_identity<F>(label: &str, baseline: &[f32], sweep: F)
where
    F: Fn(&SweepControl, &CancelToken, usize) -> SweepOutcome,
{
    let token = CancelToken::new();
    let control = SweepControl::new().with_budget(RunBudget::unbounded().with_token(&token));
    let outcome = sweep(&control, &token, CANCEL_AFTER);
    let SweepOutcome::Interrupted {
        cause,
        checkpoint,
        quarantined,
        partial,
    } = outcome
    else {
        panic!("{label}: expected the cancelled sweep to be interrupted");
    };
    assert_eq!(cause, InterruptCause::Cancelled, "{label}");
    assert!(quarantined.is_empty(), "{label}: nothing should quarantine");
    assert!(
        checkpoint.remaining_runs() > 0,
        "{label}: cancellation left nothing to resume"
    );
    assert!(
        checkpoint.accounted_runs() > 0,
        "{label}: in-flight instances must finish before the interrupt"
    );
    assert_eq!(
        partial.per_run.len(),
        checkpoint.completed.len(),
        "{label}: partial summary covers exactly the completed runs"
    );

    // Persist and reload: resume must work from the serialized form.
    let restored = SweepCheckpoint::from_bytes(&checkpoint.to_bytes()).unwrap();
    assert_eq!(restored, checkpoint, "{label}: checkpoint round-trip");

    let fresh = CancelToken::new();
    let control = SweepControl::new().with_resume(restored);
    let outcome = sweep(&control, &fresh, usize::MAX);
    let SweepOutcome::Complete {
        summary,
        quarantined,
    } = outcome
    else {
        panic!("{label}: the resumed sweep must complete");
    };
    assert!(quarantined.is_empty(), "{label}");
    assert_bits_equal(baseline, &summary.per_run, label);
}

#[test]
fn resume_is_bit_identical_on_every_weight_domain_engine() {
    let engine = MonteCarloEngine::new(RUNS, 0xBEEF);
    let x = Tensor::randn(&[6, 8], 0.0, 1.0, &mut Rng::seed_from(40));
    let fault = structured_fault();
    // Ground truth: the legacy sequential engine, uninterrupted.
    let mut net = mlp(7);
    let xc = x.clone();
    let baseline = engine
        .run(&mut net, fault, |n| Ok(n.forward(&xc, Mode::Eval)?.sum()))
        .unwrap()
        .per_run;

    interrupt_resume_bit_identity("run_supervised", &baseline, |control, token, k| {
        let calls = AtomicUsize::new(0);
        let mut net = mlp(7);
        let xc = x.clone();
        engine
            .run_supervised(
                &mut net,
                fault,
                |n: &mut dyn Layer| {
                    let out = n.forward(&xc, Mode::Eval)?;
                    if calls.fetch_add(1, Ordering::Relaxed) + 1 >= k {
                        token.cancel();
                    }
                    Ok(out.sum())
                },
                control,
            )
            .unwrap()
    });

    for threads in [1usize, 4] {
        interrupt_resume_bit_identity(
            &format!("run_parallel_supervised threads={threads}"),
            &baseline,
            |control, token, k| {
                let calls = AtomicUsize::new(0);
                engine
                    .run_parallel_supervised(
                        || mlp(7),
                        fault,
                        |m: &mut Sequential| {
                            let out = m.forward(&x, Mode::Eval)?;
                            if calls.fetch_add(1, Ordering::Relaxed) + 1 >= k {
                                token.cancel();
                            }
                            Ok(out.sum())
                        },
                        threads,
                        control,
                    )
                    .unwrap()
            },
        );
        for batch in [1usize, 5] {
            interrupt_resume_bit_identity(
                &format!("run_planned_supervised batch={batch} threads={threads}"),
                &baseline,
                |control, token, k| {
                    let calls = AtomicUsize::new(0);
                    engine
                        .run_planned_supervised(
                            || mlp(7),
                            fault,
                            &x,
                            |out: &Tensor| {
                                let v = out.sum();
                                if calls.fetch_add(1, Ordering::Relaxed) + 1 >= k {
                                    token.cancel();
                                }
                                Ok(v)
                            },
                            batch,
                            threads,
                            control,
                        )
                        .unwrap()
                },
            );
        }
    }
}

#[test]
fn resume_is_bit_identical_on_every_code_domain_engine() {
    let engine = MonteCarloEngine::new(RUNS, 0xC0DE);
    let x = Tensor::randn(&[5, 12], 0.0, 1.0, &mut Rng::seed_from(41));
    let fault = code_fault();
    let mut net = quantized_net(9);
    let xc = x.clone();
    let baseline = engine
        .run_quantized(&mut net, fault, |n| Ok(n.forward(&xc, Mode::Eval)?.sum()))
        .unwrap()
        .per_run;

    interrupt_resume_bit_identity(
        "run_quantized_supervised",
        &baseline,
        |control, token, k| {
            let calls = AtomicUsize::new(0);
            let mut net = quantized_net(9);
            let xc = x.clone();
            engine
                .run_quantized_supervised(
                    &mut net,
                    fault,
                    |n: &mut dyn Layer| {
                        let out = n.forward(&xc, Mode::Eval)?;
                        if calls.fetch_add(1, Ordering::Relaxed) + 1 >= k {
                            token.cancel();
                        }
                        Ok(out.sum())
                    },
                    control,
                )
                .unwrap()
        },
    );

    for threads in [1usize, 4] {
        for batch in [1usize, 5] {
            interrupt_resume_bit_identity(
                &format!("run_planned_quantized_supervised batch={batch} threads={threads}"),
                &baseline,
                |control, token, k| {
                    let calls = AtomicUsize::new(0);
                    engine
                        .run_planned_quantized_supervised(
                            || quantized_net(9),
                            fault,
                            &x,
                            |out: &Tensor| {
                                let v = out.sum();
                                if calls.fetch_add(1, Ordering::Relaxed) + 1 >= k {
                                    token.cancel();
                                }
                                Ok(v)
                            },
                            batch,
                            threads,
                            control,
                        )
                        .unwrap()
                },
            );
        }
    }
}

#[test]
fn expired_deadline_interrupts_before_any_run_and_resume_completes() {
    let engine = MonteCarloEngine::new(RUNS, 0x0DD1);
    let x = Tensor::randn(&[6, 8], 0.0, 1.0, &mut Rng::seed_from(42));
    let fault = FaultModel::AdditiveVariation { sigma: 0.25 };
    let metric = |out: &Tensor| Ok(out.sum());
    let baseline = engine
        .run_planned(|| mlp(11), fault, &x, metric, 5, 4)
        .unwrap()
        .per_run;

    let control =
        SweepControl::new().with_budget(RunBudget::unbounded().with_deadline(Duration::ZERO));
    let outcome = engine
        .run_planned_supervised(|| mlp(11), fault, &x, metric, 5, 4, &control)
        .unwrap();
    let SweepOutcome::Interrupted {
        cause,
        checkpoint,
        partial,
        ..
    } = outcome
    else {
        panic!("a deadline in the past must interrupt the sweep");
    };
    assert_eq!(cause, InterruptCause::DeadlineExpired);
    assert!(partial.per_run.is_empty(), "no run should finish");
    assert_eq!(checkpoint.remaining_runs(), RUNS);

    let restored = SweepCheckpoint::from_bytes(&checkpoint.to_bytes()).unwrap();
    let control = SweepControl::new().with_resume(restored);
    let outcome = engine
        .run_planned_supervised(|| mlp(11), fault, &x, metric, 5, 4, &control)
        .unwrap();
    assert!(outcome.is_complete());
    assert_bits_equal(
        &baseline,
        &outcome.summary().per_run,
        "deadline-zero resume",
    );
}

#[test]
fn run_auto_supervised_resumes_on_the_checkpointed_engine() {
    let engine = MonteCarloEngine::new(RUNS, 0xA070);
    let x = Tensor::randn(&[6, 8], 0.0, 1.0, &mut Rng::seed_from(43));
    let fault = structured_fault();
    let metric = |out: &Tensor| Ok(out.sum());
    let baseline = engine
        .run_auto(
            || mlp(13),
            fault,
            &x,
            metric,
            5,
            4,
            DegradationPolicy::Graceful,
        )
        .unwrap();
    assert_eq!(baseline.engine, EngineKind::Planned);

    // Uninterrupted supervised ladder matches the legacy ladder bit for bit.
    let complete = engine
        .run_auto_supervised(
            || mlp(13),
            fault,
            &x,
            metric,
            5,
            4,
            DegradationPolicy::Graceful,
            &SweepControl::new(),
        )
        .unwrap();
    assert_eq!(complete.engine, EngineKind::Planned);
    assert!(complete.fallbacks.is_empty());
    assert_bits_equal(
        &baseline.summary.per_run,
        &complete.outcome.summary().per_run,
        "run_auto_supervised uninterrupted",
    );

    // Cancel mid-sweep, then resume through the ladder entry point: the
    // checkpoint pins the engine and the final summary is bit-identical.
    let token = CancelToken::new();
    let calls = AtomicUsize::new(0);
    let control = SweepControl::new().with_budget(RunBudget::unbounded().with_token(&token));
    let interrupted = engine
        .run_auto_supervised(
            || mlp(13),
            fault,
            &x,
            |out: &Tensor| {
                let v = out.sum();
                if calls.fetch_add(1, Ordering::Relaxed) + 1 >= CANCEL_AFTER {
                    token.cancel();
                }
                Ok(v)
            },
            5,
            4,
            DegradationPolicy::Graceful,
            &control,
        )
        .unwrap();
    let checkpoint = interrupted
        .outcome
        .checkpoint()
        .expect("cancelled ladder sweep must be resumable")
        .clone();
    assert_eq!(checkpoint.engine, EngineKind::Planned);

    let restored = SweepCheckpoint::from_bytes(&checkpoint.to_bytes()).unwrap();
    let resumed = engine
        .run_auto_supervised(
            || mlp(13),
            fault,
            &x,
            metric,
            5,
            4,
            DegradationPolicy::Graceful,
            &SweepControl::new().with_resume(restored),
        )
        .unwrap();
    assert_eq!(resumed.engine, EngineKind::Planned);
    assert!(resumed.fallbacks.is_empty(), "resume pins the engine");
    assert!(resumed.outcome.is_complete());
    assert_bits_equal(
        &baseline.summary.per_run,
        &resumed.outcome.summary().per_run,
        "run_auto_supervised resume",
    );

    // A checkpoint from a sequential entry point is a caller bug: the ladder
    // never produces one, so it is rejected with a typed mismatch.
    let mut sequential_cp = checkpoint;
    sequential_cp.engine = EngineKind::Sequential;
    let err = engine
        .run_auto_supervised(
            || mlp(13),
            fault,
            &x,
            metric,
            5,
            4,
            DegradationPolicy::Graceful,
            &SweepControl::new().with_resume(sequential_cp),
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            NnError::Checkpoint(invnorm_nn::CheckpointFault::Mismatch {
                field: "engine",
                ..
            })
        ),
        "{err}"
    );
}

#[test]
fn mismatched_checkpoints_are_rejected_with_typed_faults() {
    let engine = MonteCarloEngine::new(RUNS, 0x5EED);
    let x = Tensor::randn(&[6, 8], 0.0, 1.0, &mut Rng::seed_from(44));
    let fault = FaultModel::AdditiveVariation { sigma: 0.25 };
    let metric = |out: &Tensor| Ok(out.sum());
    let control =
        SweepControl::new().with_budget(RunBudget::unbounded().with_deadline(Duration::ZERO));
    let outcome = engine
        .run_planned_supervised(|| mlp(17), fault, &x, metric, 1, 2, &control)
        .unwrap();
    let checkpoint = outcome.checkpoint().unwrap().clone();

    // Wrong fault model → fault-label mismatch.
    let err = engine
        .run_planned_supervised(
            || mlp(17),
            FaultModel::StuckAt { rate: 0.1 },
            &x,
            metric,
            1,
            2,
            &SweepControl::new().with_resume(checkpoint.clone()),
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            NnError::Checkpoint(invnorm_nn::CheckpointFault::Mismatch {
                field: "fault label",
                ..
            })
        ),
        "{err}"
    );

    // Wrong engine → engine mismatch.
    let err = engine
        .run_parallel_supervised(
            || mlp(17),
            fault,
            |m: &mut Sequential| Ok(m.forward(&x, Mode::Eval)?.sum()),
            2,
            &SweepControl::new().with_resume(checkpoint.clone()),
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            NnError::Checkpoint(invnorm_nn::CheckpointFault::Mismatch {
                field: "engine",
                ..
            })
        ),
        "{err}"
    );

    // Wrong seed → seed mismatch.
    let err = MonteCarloEngine::new(RUNS, 0xBAD)
        .run_planned_supervised(
            || mlp(17),
            fault,
            &x,
            metric,
            1,
            2,
            &SweepControl::new().with_resume(checkpoint.clone()),
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            NnError::Checkpoint(invnorm_nn::CheckpointFault::Mismatch { field: "seed", .. })
        ),
        "{err}"
    );

    // Corrupted serialized checkpoint → checksum mismatch before any field
    // is trusted.
    let mut bytes = checkpoint.to_bytes();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    assert!(matches!(
        SweepCheckpoint::from_bytes(&bytes),
        Err(NnError::Checkpoint(
            invnorm_nn::CheckpointFault::ChecksumMismatch { .. }
        ))
    ));
}

/// A single-weight layer that panics when a fault realization pushes its
/// weight past a threshold — deterministic per `(seed, run)`, so the same
/// chip instances trip on every sweep, engine and thread count.
struct Tripwire {
    weight: Param,
}

impl Tripwire {
    const TRIP: f32 = 2.0;

    fn new() -> Self {
        Tripwire {
            weight: Param::new(Tensor::from_vec(vec![1.0], &[1, 1]).unwrap()),
        }
    }
}

impl Layer for Tripwire {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> invnorm_nn::Result<Tensor> {
        let w = self.weight.value.data()[0];
        assert!(
            w.abs() <= Self::TRIP,
            "tripwire crossed: |{w}| > {}",
            Self::TRIP
        );
        Ok(input.scale(w))
    }

    fn backward(&mut self, grad_output: &Tensor) -> invnorm_nn::Result<Tensor> {
        Ok(grad_output.clone())
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.weight);
    }

    fn name(&self) -> &'static str {
        "Tripwire"
    }
}

#[test]
fn panicking_runs_are_quarantined_and_the_pool_survives() {
    let engine = MonteCarloEngine::new(32, 0x7219);
    let x = Tensor::randn(&[2, 2], 0.0, 1.0, &mut Rng::seed_from(45));
    // σ = 1 around w₀ = 1 pushes some (but not all) realizations past the
    // |w| > 2 tripwire.
    let fault = FaultModel::AdditiveVariation { sigma: 1.0 };
    let evaluate = |m: &mut Tripwire| {
        let out = m.forward(&x, Mode::Eval)?;
        Ok(out.sum())
    };

    let sweep = |threads: usize| {
        let outcome = engine
            .run_parallel_supervised(
                Tripwire::new,
                fault,
                evaluate,
                threads,
                &SweepControl::new(),
            )
            .unwrap();
        let SweepOutcome::Complete {
            summary,
            quarantined,
        } = outcome
        else {
            panic!("quarantine must not interrupt the sweep");
        };
        (summary, quarantined)
    };

    let (summary, quarantined) = sweep(4);
    assert!(
        !quarantined.is_empty(),
        "σ=1 must push some realizations past the tripwire"
    );
    assert_eq!(summary.per_run.len() + quarantined.len(), 32);
    for q in &quarantined {
        assert_eq!(q.engine, EngineKind::Parallel);
        assert!(
            matches!(&q.cause, QuarantineCause::Panic { message } if message.contains("tripwire")),
            "{q}"
        );
        // Diagnostics render the run, engine and fault label.
        let line = q.to_string();
        assert!(
            line.contains("run_parallel") && line.contains("additive"),
            "{line}"
        );
    }

    // Quarantine is deterministic: same runs trip on one worker thread, and
    // the surviving metrics are bit-identical.
    let (summary_1t, quarantined_1t) = sweep(1);
    assert_eq!(
        quarantined.iter().map(|q| q.run).collect::<Vec<_>>(),
        quarantined_1t.iter().map(|q| q.run).collect::<Vec<_>>(),
    );
    assert_bits_equal(
        &summary.per_run,
        &summary_1t.per_run,
        "quarantine thread invariance",
    );

    // The pool survived the panics: legacy sweeps on the same process keep
    // working, and a panic on the legacy path still propagates (its
    // pre-supervision contract).
    let healthy = engine
        .run_parallel(
            || mlp(19),
            FaultModel::AdditiveVariation { sigma: 0.1 },
            |m: &mut Sequential| Ok(m.forward(&Tensor::ones(&[2, 8]), Mode::Eval)?.sum()),
            4,
        )
        .unwrap();
    assert_eq!(healthy.per_run.len(), 32);
}

#[test]
fn sequential_supervised_quarantines_panics_too() {
    let engine = MonteCarloEngine::new(16, 0x7219);
    let x = Tensor::randn(&[2, 2], 0.0, 1.0, &mut Rng::seed_from(46));
    let fault = FaultModel::AdditiveVariation { sigma: 1.0 };
    let mut net = Tripwire::new();
    let outcome = engine
        .run_supervised(
            &mut net,
            fault,
            |n: &mut dyn Layer| Ok(n.forward(&x, Mode::Eval)?.sum()),
            &SweepControl::new(),
        )
        .unwrap();
    let SweepOutcome::Complete {
        summary,
        quarantined,
    } = outcome
    else {
        panic!("quarantine must not interrupt the sweep");
    };
    assert!(!quarantined.is_empty());
    assert_eq!(summary.per_run.len() + quarantined.len(), 16);
    // The panic unwound through the injector bracket, but the engine still
    // restored the clean weight before the next instance: the surviving
    // runs match the parallel engine bit for bit.
    let parallel = engine
        .run_parallel_supervised(
            Tripwire::new,
            fault,
            |m: &mut Tripwire| {
                let out = m.forward(&x, Mode::Eval)?;
                Ok(out.sum())
            },
            2,
            &SweepControl::new(),
        )
        .unwrap();
    assert_bits_equal(
        &summary.per_run,
        &parallel.summary().per_run,
        "sequential vs parallel quarantine",
    );
}

/// A layer whose output blows up to +∞ once retention drift shrinks its
/// weight below a threshold — the regression case for non-finite metrics
/// being detected at record time instead of poisoning the aggregate.
struct InfUnderDrift {
    weight: Param,
}

impl InfUnderDrift {
    fn new() -> Self {
        InfUnderDrift {
            weight: Param::new(Tensor::from_vec(vec![1.0], &[1, 1]).unwrap()),
        }
    }
}

impl Layer for InfUnderDrift {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> invnorm_nn::Result<Tensor> {
        let w = self.weight.value.data()[0];
        if w < 0.85 {
            // Drifted too far: the (synthetic) analog readout saturates.
            return Ok(input.scale(f32::INFINITY));
        }
        Ok(input.scale(w))
    }

    fn backward(&mut self, grad_output: &Tensor) -> invnorm_nn::Result<Tensor> {
        Ok(grad_output.clone())
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.weight);
    }

    fn name(&self) -> &'static str {
        "InfUnderDrift"
    }
}

#[test]
fn non_finite_metrics_under_drift_are_quarantined_at_record_time() {
    let engine = MonteCarloEngine::new(24, 0x1F);
    let x = Tensor::ones(&[2, 2]);
    // Correlated drift draws a per-run drift exponent, so some chip
    // instances shrink the weight past the saturation threshold and some do
    // not.
    let fault = FaultModel::CorrelatedDrift {
        nu: 0.05,
        time_ratio: 10.0,
        sigma_nu: 1.0,
        tile: TileShape { rows: 4, cols: 4 },
    };
    let outcome = engine
        .run_parallel_supervised(
            InfUnderDrift::new,
            fault,
            |m: &mut InfUnderDrift| {
                let out = m.forward(&x, Mode::Eval)?;
                Ok(out.sum())
            },
            4,
            &SweepControl::new(),
        )
        .unwrap();
    let SweepOutcome::Complete {
        summary,
        quarantined,
    } = outcome
    else {
        panic!("non-finite metrics must not interrupt the sweep");
    };
    assert!(
        !quarantined.is_empty(),
        "σ_ν=1 drift must saturate some instances"
    );
    assert!(
        !summary.per_run.is_empty(),
        "σ_ν=1 drift must leave some instances finite"
    );
    assert_eq!(summary.per_run.len() + quarantined.len(), 24);
    for q in &quarantined {
        assert!(
            matches!(q.cause, QuarantineCause::NonFinite { value } if value == f32::INFINITY),
            "{q}"
        );
    }
    // Every surviving metric is finite — the aggregate cannot be poisoned.
    assert!(summary.per_run.iter().all(|m| m.is_finite()));
    assert!(summary.mean.is_finite());

    // The legacy entry point keeps its historical contract: the lowest
    // saturated run aborts the sweep with the pre-supervision message.
    let lowest = quarantined[0].run;
    let err = engine
        .run_parallel(
            InfUnderDrift::new,
            fault,
            |m: &mut InfUnderDrift| {
                let out = m.forward(&x, Mode::Eval)?;
                Ok(out.sum())
            },
            4,
        )
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("non-finite metric") && err.contains(&format!("on run {lowest}")),
        "unexpected legacy error: {err}"
    );
}

#[test]
fn telemetry_counts_cancelled_quarantined_and_resumed_runs() {
    // Telemetry state is process-global and other tests in this binary run
    // concurrently, so only >= assertions are sound here.
    Telemetry::reset();
    Telemetry::enable();
    let engine = MonteCarloEngine::new(RUNS, 0x7E1E);
    let x = Tensor::randn(&[6, 8], 0.0, 1.0, &mut Rng::seed_from(47));
    let fault = FaultModel::AdditiveVariation { sigma: 0.25 };
    let metric = |out: &Tensor| Ok(out.sum());

    let control =
        SweepControl::new().with_budget(RunBudget::unbounded().with_deadline(Duration::ZERO));
    let outcome = engine
        .run_planned_supervised(|| mlp(23), fault, &x, metric, 5, 2, &control)
        .unwrap();
    let checkpoint = outcome.checkpoint().unwrap().clone();
    assert!(Telemetry::counter(Counter::CancelledRuns) >= RUNS as u64);

    let control = SweepControl::new().with_resume(checkpoint);
    let resumed = engine
        .run_planned_supervised(|| mlp(23), fault, &x, metric, 5, 2, &control)
        .unwrap();
    assert!(resumed.is_complete());
    // Nothing was accounted before the zero deadline, so resume skips are
    // whatever other concurrent tests contributed — only quarantine needs a
    // dedicated probe.
    let quarantine_before = Telemetry::counter(Counter::QuarantinedRuns);
    let outcome = engine
        .run_parallel_supervised(
            InfUnderDrift::new,
            FaultModel::CorrelatedDrift {
                nu: 0.05,
                time_ratio: 10.0,
                sigma_nu: 1.0,
                tile: TileShape { rows: 4, cols: 4 },
            },
            |m: &mut InfUnderDrift| {
                let out = m.forward(&Tensor::ones(&[2, 2]), Mode::Eval)?;
                Ok(out.sum())
            },
            2,
            &SweepControl::new(),
        )
        .unwrap();
    let expected = outcome.quarantined().len() as u64;
    assert!(expected > 0);
    assert!(Telemetry::counter(Counter::QuarantinedRuns) >= quarantine_before + expected);

    // Resume skips fire when a checkpoint actually carries completed runs.
    let token = CancelToken::new();
    let calls = AtomicUsize::new(0);
    let control = SweepControl::new().with_budget(RunBudget::unbounded().with_token(&token));
    let outcome = engine
        .run_planned_supervised(
            || mlp(23),
            fault,
            &x,
            |out: &Tensor| {
                let v = out.sum();
                if calls.fetch_add(1, Ordering::Relaxed) + 1 >= CANCEL_AFTER {
                    token.cancel();
                }
                Ok(v)
            },
            5,
            2,
            &control,
        )
        .unwrap();
    let checkpoint = outcome.checkpoint().unwrap().clone();
    let accounted = checkpoint.accounted_runs() as u64;
    assert!(accounted > 0);
    let skips_before = Telemetry::counter(Counter::ResumeSkips);
    let resumed = engine
        .run_planned_supervised(
            || mlp(23),
            fault,
            &x,
            metric,
            5,
            2,
            &SweepControl::new().with_resume(checkpoint),
        )
        .unwrap();
    assert!(resumed.is_complete());
    assert!(Telemetry::counter(Counter::ResumeSkips) >= skips_before + accounted);
    Telemetry::disable();
}
