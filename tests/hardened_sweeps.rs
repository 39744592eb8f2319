//! Cross-crate integration tests of the hardened-sweep supervision layer:
//! cancellation and deadlines interrupt sweeps into resumable checkpoints,
//! resume replays only the missing chip instances and finishes bit-identical
//! to an uninterrupted sweep on both engines, panicking runs are quarantined
//! (per run or per fused batch) without killing the worker pool, and
//! non-finite metrics are excluded from the aggregate with typed
//! diagnostics.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use invnorm::prelude::*;
use invnorm_imc::{InterruptCause, LineOrientation, QuarantineCause, QuarantinedRun, TileShape};
use invnorm_nn::activation::Relu;
use invnorm_nn::norm::GroupNorm;

/// Chip instances per sweep — enough that four workers cannot drain the whole
/// sweep between a mid-metric cancellation and their next budget check.
const RUNS: usize = 24;
/// The counting metrics cancel the sweep's token on this call.
const CANCEL_AFTER: usize = 4;

/// An f32 network supported by both engines (dense, norm, activation). Its
/// plan-input layer is 2 wide, so the planned engine's stack rule
/// (`ceil(NR / 2)`, NR ≥ 8) stacks at least 4 realizations on every tier.
fn mlp(seed: u64) -> Sequential {
    let mut rng = Rng::seed_from(seed);
    Sequential::new()
        .with(Box::new(Linear::new(8, 2, &mut rng)))
        .with(Box::new(Linear::new(2, 16, &mut rng)))
        .with(Box::new(GroupNorm::layer_norm(16)))
        .with(Box::new(Relu::new()))
        .with(Box::new(Linear::new(16, 4, &mut rng)))
}

/// An integer-inference network for the code-domain engines, with a 2-wide
/// plan-input layer like [`mlp`].
fn quantized_net(seed: u64) -> Sequential {
    let mut rng = Rng::seed_from(seed);
    let l1 = Linear::new(12, 2, &mut rng);
    let l2 = Linear::new(2, 10, &mut rng);
    let l3 = Linear::new(10, 4, &mut rng);
    Sequential::new()
        .with(Box::new(QuantizedLinear::from_linear(&l1, 8).unwrap()))
        .with(Box::new(QuantizedLinear::from_linear(&l2, 8).unwrap()))
        .with(Box::new(Relu::new()))
        .with(Box::new(QuantizedLinear::from_linear(&l3, 6).unwrap()))
}

/// Serializes the tests that enable telemetry: the switch is process-global
/// and one test's `disable` must not land inside another's sweep.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn telemetry_lock() -> MutexGuard<'static, ()> {
    TELEMETRY_LOCK.lock().unwrap_or_else(|p| p.into_inner())
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

/// A sum metric that cancels `token` on its `k`-th call.
fn cancelling_sum<'a>(
    calls: &'a AtomicUsize,
    token: &'a CancelToken,
    k: usize,
) -> impl Fn(&Tensor) -> invnorm_nn::Result<f32> + Sync + 'a {
    move |out| {
        let v = out.sum();
        if calls.fetch_add(1, Ordering::Relaxed) + 1 >= k {
            token.cancel();
        }
        Ok(v)
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
    // Ground truth: the sequential oracle, uninterrupted.
    let mut net = mlp(7);
    let xc = x.clone();
    let baseline = engine
        .run(&mut net, fault, |n| Ok(n.forward(&xc, Mode::Eval)?.sum()))
        .unwrap()
        .per_run;

    interrupt_resume_bit_identity("run_supervised", &baseline, |control, token, k| {
        let calls = AtomicUsize::new(0);
        let metric = cancelling_sum(&calls, token, k);
        let mut net = mlp(7);
        engine
            .run_supervised(
                SweepDomain::Weights,
                &mut net,
                fault,
                |n| metric(&n.forward(&x, Mode::Eval)?),
                control,
            )
            .unwrap()
    });

    for threads in [1usize, 4] {
        for batch in [1usize, 5] {
            interrupt_resume_bit_identity(
                &format!("planned batch={batch} threads={threads}"),
                &baseline,
                |control, token, k| {
                    let calls = AtomicUsize::new(0);
                    let sweep = Sweep {
                        batch,
                        threads,
                        ..Sweep::new(|| mlp(7), fault, &x, cancelling_sum(&calls, token, k))
                    };
                    engine.execute(&sweep, control).unwrap()
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
    // Ground truth: the code-domain sequential engine, uninterrupted.
    let baseline = engine
        .run_supervised(
            SweepDomain::Codes,
            &mut net,
            fault,
            |n| Ok(n.forward(&x, Mode::Eval)?.sum()),
            &SweepControl::new(),
        )
        .and_then(SweepOutcome::into_summary)
        .unwrap()
        .per_run;

    interrupt_resume_bit_identity("codes run_supervised", &baseline, |control, token, k| {
        let calls = AtomicUsize::new(0);
        let metric = cancelling_sum(&calls, token, k);
        let mut net = quantized_net(9);
        engine
            .run_supervised(
                SweepDomain::Codes,
                &mut net,
                fault,
                |n| metric(&n.forward(&x, Mode::Eval)?),
                control,
            )
            .unwrap()
    });

    for threads in [1usize, 4] {
        for batch in [1usize, 5] {
            interrupt_resume_bit_identity(
                &format!("codes planned batch={batch} threads={threads}"),
                &baseline,
                |control, token, k| {
                    let calls = AtomicUsize::new(0);
                    let sweep = Sweep {
                        domain: SweepDomain::Codes,
                        batch,
                        threads,
                        ..Sweep::new(
                            || quantized_net(9),
                            fault,
                            &x,
                            cancelling_sum(&calls, token, k),
                        )
                    };
                    engine.execute(&sweep, control).unwrap()
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
    let sweep = Sweep {
        batch: 5,
        threads: 4,
        ..Sweep::new(|| mlp(11), fault, &x, |out: &Tensor| Ok(out.sum()))
    };
    let baseline = engine
        .execute(&sweep, &SweepControl::new())
        .and_then(SweepOutcome::into_summary)
        .unwrap()
        .per_run;

    let control =
        SweepControl::new().with_budget(RunBudget::unbounded().with_deadline(Duration::ZERO));
    let outcome = engine.execute(&sweep, &control).unwrap();
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
    let outcome = engine.execute(&sweep, &control).unwrap();
    assert!(outcome.is_complete());
    assert_bits_equal(
        &baseline,
        &outcome.summary().per_run,
        "deadline-zero resume",
    );
}

#[test]
fn execute_resumes_on_the_checkpointed_engine() {
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

    // `execute` under a default control matches run_auto bit for bit.
    let sweep = Sweep {
        batch: 5,
        threads: 4,
        ..Sweep::new(|| mlp(13), fault, &x, metric)
    };
    let complete = engine.execute(&sweep, &SweepControl::new()).unwrap();
    assert_bits_equal(
        &baseline.summary.per_run,
        &complete.summary().per_run,
        "execute uninterrupted",
    );

    // Cancel mid-sweep, then resume: the checkpoint records the planned
    // engine and the final summary is bit-identical.
    let token = CancelToken::new();
    let calls = AtomicUsize::new(0);
    let control = SweepControl::new().with_budget(RunBudget::unbounded().with_token(&token));
    let cancelling = Sweep {
        batch: 5,
        threads: 4,
        ..Sweep::new(
            || mlp(13),
            fault,
            &x,
            cancelling_sum(&calls, &token, CANCEL_AFTER),
        )
    };
    let interrupted = engine.execute(&cancelling, &control).unwrap();
    let checkpoint = interrupted
        .checkpoint()
        .expect("cancelled sweep must be resumable")
        .clone();
    assert_eq!(checkpoint.engine, EngineKind::Planned);

    let restored = SweepCheckpoint::from_bytes(&checkpoint.to_bytes()).unwrap();
    let resumed = engine
        .execute(&sweep, &SweepControl::new().with_resume(restored))
        .unwrap();
    assert!(resumed.is_complete());
    assert_bits_equal(
        &baseline.summary.per_run,
        &resumed.summary().per_run,
        "execute resume",
    );

    // A checkpoint from the sequential engine quarantined single runs, not
    // batches, so the planned engine rejects it with a typed mismatch.
    let mut sequential_cp = checkpoint;
    sequential_cp.engine = EngineKind::Sequential;
    let err = engine
        .execute(&sweep, &SweepControl::new().with_resume(sequential_cp))
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
    let sweep = Sweep {
        threads: 2,
        ..Sweep::new(|| mlp(17), fault, &x, metric)
    };
    let control =
        SweepControl::new().with_budget(RunBudget::unbounded().with_deadline(Duration::ZERO));
    let outcome = engine.execute(&sweep, &control).unwrap();
    let checkpoint = outcome.checkpoint().unwrap().clone();

    // Wrong fault model → fault-label mismatch.
    let stuck = Sweep {
        threads: 2,
        ..Sweep::new(|| mlp(17), FaultModel::StuckAt { rate: 0.1 }, &x, metric)
    };
    let err = engine
        .execute(&stuck, &SweepControl::new().with_resume(checkpoint.clone()))
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

    // Wrong engine → engine mismatch: a planned checkpoint cannot resume on
    // the sequential engine.
    let mut net = mlp(17);
    let err = engine
        .run_supervised(
            SweepDomain::Weights,
            &mut net,
            fault,
            |n| metric(&n.forward(&x, Mode::Eval)?),
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
        .execute(&sweep, &SweepControl::new().with_resume(checkpoint.clone()))
        .unwrap_err();
    assert!(
        matches!(
            err,
            NnError::Checkpoint(invnorm_nn::CheckpointFault::Mismatch { field: "seed", .. })
        ),
        "{err}"
    );

    // A code-domain checkpoint resumed on an f32 sweep →
    // fault-domain mismatch: the sweep's domain is authoritative, so the
    // resume cannot silently adopt the checkpoint's.
    let xq = Tensor::randn(&[5, 12], 0.0, 1.0, &mut Rng::seed_from(48));
    let codes = Sweep {
        domain: SweepDomain::Codes,
        threads: 2,
        ..Sweep::new(|| quantized_net(17), fault, &xq, metric)
    };
    let codes_cp = engine
        .execute(&codes, &control)
        .unwrap()
        .checkpoint()
        .unwrap()
        .clone();
    assert_eq!(codes_cp.domain, SweepDomain::Codes);
    assert_eq!(codes_cp.remaining_runs(), RUNS);
    let weights = Sweep {
        domain: SweepDomain::Weights,
        ..codes
    };
    let err = engine
        .execute(&weights, &SweepControl::new().with_resume(codes_cp))
        .unwrap_err();
    assert!(
        matches!(
            err,
            NnError::Checkpoint(invnorm_nn::CheckpointFault::Mismatch {
                field: "fault domain",
                ..
            })
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

/// `Linear(1→1)` without bias and with weight 1, followed by the weightless
/// `check`: the fault draw is the single rank-2 weight at fork index 0, and
/// on a ones input every output row equals the realized weight, so `check`
/// fires on the same chip instances on every sweep, engine, batch size and
/// thread count.
fn unit_probe(check: impl Layer + Send + 'static) -> Sequential {
    let mut linear = Linear::with_bias(1, 1, false, &mut Rng::seed_from(0));
    linear.visit_params(&mut |p| p.value.data_mut()[0] = 1.0);
    Sequential::new()
        .with(Box::new(linear))
        .with(Box::new(check))
}

/// The probe input: two rows of one feature, all ones, so every output row
/// is the realized weight.
fn probe_input() -> Tensor {
    Tensor::ones(&[2, 1])
}

/// A weightless check that panics once a fault realization pushes the
/// probe's output past a threshold.
struct Tripwire;

impl Tripwire {
    const TRIP: f32 = 2.0;

    fn net() -> Sequential {
        unit_probe(Tripwire)
    }
}

impl Layer for Tripwire {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> invnorm_nn::Result<Tensor> {
        for &y in input.data() {
            assert!(
                y.abs() <= Self::TRIP,
                "tripwire crossed: |{y}| > {}",
                Self::TRIP
            );
        }
        Ok(input.clone())
    }

    fn backward(&mut self, grad_output: &Tensor) -> invnorm_nn::Result<Tensor> {
        Ok(grad_output.clone())
    }

    fn name(&self) -> &'static str {
        "Tripwire"
    }
}

#[test]
fn panicking_runs_are_quarantined_and_the_pool_survives() {
    let engine = MonteCarloEngine::new(32, 0x7219);
    let x = probe_input();
    // σ = 1 around w₀ = 1 pushes some (but not all) realizations past the
    // |y| > 2 tripwire.
    let fault = FaultModel::AdditiveVariation { sigma: 1.0 };

    let sweep = |batch: usize, threads: usize| {
        let sweep = Sweep {
            batch,
            threads,
            ..Sweep::new(Tripwire::net, fault, &x, |out: &Tensor| Ok(out.sum()))
        };
        let outcome = engine.execute(&sweep, &SweepControl::new()).unwrap();
        let SweepOutcome::Complete {
            summary,
            quarantined,
        } = outcome
        else {
            panic!("quarantine must not interrupt the sweep");
        };
        (summary, quarantined)
    };
    let runs_of = |q: &[QuarantinedRun]| q.iter().map(|q| q.run).collect::<Vec<_>>();

    let (summary, quarantined) = sweep(1, 4);
    assert!(
        !quarantined.is_empty(),
        "σ=1 must push some realizations past the tripwire"
    );
    assert_eq!(summary.per_run.len() + quarantined.len(), 32);
    for q in &quarantined {
        assert_eq!(q.engine, EngineKind::Planned);
        assert!(
            matches!(&q.cause, QuarantineCause::Panic { message } if message.contains("tripwire")),
            "{q}"
        );
        // Diagnostics render the run, engine and fault label.
        let line = q.to_string();
        assert!(
            line.starts_with(&format!("run {} quarantined on planned [additive", q.run)),
            "{line}"
        );
    }

    // Quarantine is deterministic: same runs trip on one worker thread, and
    // the surviving metrics are bit-identical.
    let (summary_1t, quarantined_1t) = sweep(1, 1);
    assert_eq!(runs_of(&quarantined), runs_of(&quarantined_1t));
    assert_bits_equal(
        &summary.per_run,
        &summary_1t.per_run,
        "quarantine thread invariance",
    );

    // One fused forward is one failure domain: at B = 3, every run of a
    // batch holding a tripped run is quarantined with that batch's one
    // message, and every other run keeps its B = 1 metric. The probe's
    // 1-wide plan-input layer makes the engine stack all 3 on every tier.
    let tripped = runs_of(&quarantined);
    let expected: Vec<usize> = (0..32)
        .filter(|r| tripped.iter().any(|t| t / 3 == r / 3))
        .collect();
    assert!(expected.len() > tripped.len(), "some batch must mix runs");
    let (summary_b3, quarantined_b3) = {
        let _lock = telemetry_lock();
        Telemetry::enable();
        let outcome = sweep(3, 4);
        Telemetry::disable();
        outcome
    };
    let plan = summary_b3.telemetry.as_ref().and_then(|t| t.plan);
    assert_eq!(plan.map(|p| p.stack), Some(3));
    assert_eq!(runs_of(&quarantined_b3), expected);
    for batch in quarantined_b3.chunk_by(|a, b| a.run / 3 == b.run / 3) {
        assert!(batch.iter().all(|q| q.cause == batch[0].cause), "{batch:?}");
    }
    let survivors: Vec<f32> = (0..32)
        .filter(|r| !tripped.contains(r))
        .zip(&summary.per_run)
        .filter(|(r, _)| !expected.contains(r))
        .map(|(_, m)| *m)
        .collect();
    assert_bits_equal(&survivors, &summary_b3.per_run, "batch quarantine");

    // The pool survived the panics: later sweeps on the same process keep
    // working.
    let ones = Tensor::ones(&[2, 8]);
    let healthy = Sweep {
        threads: 4,
        ..Sweep::new(
            || mlp(19),
            FaultModel::AdditiveVariation { sigma: 0.1 },
            &ones,
            |out: &Tensor| Ok(out.sum()),
        )
    };
    let healthy = engine
        .execute(&healthy, &SweepControl::new())
        .and_then(SweepOutcome::into_summary)
        .unwrap();
    assert_eq!(healthy.per_run.len(), 32);
}

/// `run` and `run_auto` keep no quarantine: the lowest panicking run fails
/// the sweep with an error instead of unwinding through the caller, and
/// `run` restores the clean weight first.
#[test]
fn run_and_run_auto_report_the_lowest_panicking_run() {
    let engine = MonteCarloEngine::new(32, 0x7219);
    let x = probe_input();
    let fault = FaultModel::AdditiveVariation { sigma: 1.0 };
    let metric = |out: &Tensor| Ok(out.sum());
    let sweep = Sweep {
        threads: 4,
        ..Sweep::new(Tripwire::net, fault, &x, metric)
    };
    let outcome = engine.execute(&sweep, &SweepControl::new()).unwrap();
    let lowest = outcome.quarantined()[0].run;
    let expected = |err: &str| {
        err.contains("evaluation panicked (tripwire crossed")
            && err.ends_with(&format!(") on run {lowest}"))
    };

    let mut net = Tripwire::net();
    let err = engine
        .run(&mut net, fault, |n| metric(&n.forward(&x, Mode::Eval)?))
        .unwrap_err()
        .to_string();
    assert!(expected(&err), "run: {err}");
    let mut weights = Vec::new();
    net.visit_params(&mut |p| weights.extend_from_slice(p.value.data()));
    assert_eq!(weights, [1.0], "run must restore the weight");

    let err = engine
        .run_auto(
            Tripwire::net,
            fault,
            &x,
            metric,
            1,
            4,
            DegradationPolicy::Graceful,
        )
        .unwrap_err()
        .to_string();
    assert!(expected(&err), "run_auto: {err}");
}

#[test]
fn sequential_supervised_quarantines_panics_too() {
    let engine = MonteCarloEngine::new(16, 0x7219);
    let x = probe_input();
    let fault = FaultModel::AdditiveVariation { sigma: 1.0 };
    let mut net = Tripwire::net();
    let outcome = engine
        .run_supervised(
            SweepDomain::Weights,
            &mut net,
            fault,
            |n| Ok(n.forward(&x, Mode::Eval)?.sum()),
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
    // runs match the planned engine bit for bit.
    let sweep = Sweep {
        threads: 2,
        ..Sweep::new(Tripwire::net, fault, &x, |out: &Tensor| Ok(out.sum()))
    };
    let planned = engine.execute(&sweep, &SweepControl::new()).unwrap();
    assert_bits_equal(
        &summary.per_run,
        &planned.summary().per_run,
        "sequential vs planned quarantine",
    );
}

/// A weightless analog readout that saturates to +∞ once retention drift
/// shrinks the probe's output below a threshold — the regression case for
/// non-finite metrics being detected at record time instead of poisoning
/// the aggregate.
struct InfUnderDrift;

impl InfUnderDrift {
    fn net() -> Sequential {
        unit_probe(InfUnderDrift)
    }
}

impl Layer for InfUnderDrift {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> invnorm_nn::Result<Tensor> {
        Ok(input.map(|y| if y < 0.85 { f32::INFINITY } else { y }))
    }

    fn backward(&mut self, grad_output: &Tensor) -> invnorm_nn::Result<Tensor> {
        Ok(grad_output.clone())
    }

    fn name(&self) -> &'static str {
        "InfUnderDrift"
    }
}

#[test]
fn non_finite_metrics_under_drift_are_quarantined_at_record_time() {
    let engine = MonteCarloEngine::new(24, 0x1F);
    let x = probe_input();
    // Correlated drift draws a per-run drift exponent, so some chip
    // instances shrink the weight past the saturation threshold and some do
    // not.
    let fault = FaultModel::CorrelatedDrift {
        nu: 0.05,
        time_ratio: 10.0,
        sigma_nu: 1.0,
        tile: TileShape { rows: 4, cols: 4 },
    };
    let metric = |out: &Tensor| Ok(out.sum());
    let sweep = Sweep {
        threads: 4,
        ..Sweep::new(InfUnderDrift::net, fault, &x, metric)
    };
    let outcome = engine.execute(&sweep, &SweepControl::new()).unwrap();
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

    // `run_auto` keeps the plain-summary contract: the lowest saturated run
    // aborts the sweep with the historical message.
    let lowest = quarantined[0].run;
    let err = engine
        .run_auto(
            InfUnderDrift::net,
            fault,
            &x,
            metric,
            1,
            4,
            DegradationPolicy::Graceful,
        )
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("non-finite metric") && err.contains(&format!("on run {lowest}")),
        "unexpected run_auto error: {err}"
    );
}

#[test]
fn telemetry_counts_cancelled_quarantined_and_resumed_runs() {
    // Telemetry state is process-global and other tests in this binary run
    // concurrently, so only >= assertions are sound here.
    let _lock = telemetry_lock();
    Telemetry::reset();
    Telemetry::enable();
    let engine = MonteCarloEngine::new(RUNS, 0x7E1E);
    let x = Tensor::randn(&[6, 8], 0.0, 1.0, &mut Rng::seed_from(47));
    let fault = FaultModel::AdditiveVariation { sigma: 0.25 };
    let metric = |out: &Tensor| Ok(out.sum());
    let sweep = Sweep {
        batch: 5,
        threads: 2,
        ..Sweep::new(|| mlp(23), fault, &x, metric)
    };

    let control =
        SweepControl::new().with_budget(RunBudget::unbounded().with_deadline(Duration::ZERO));
    let outcome = engine.execute(&sweep, &control).unwrap();
    let checkpoint = outcome.checkpoint().unwrap().clone();
    assert!(Telemetry::counter(Counter::CancelledRuns) >= RUNS as u64);

    let control = SweepControl::new().with_resume(checkpoint);
    let resumed = engine.execute(&sweep, &control).unwrap();
    assert!(resumed.is_complete());
    // Nothing was accounted before the zero deadline, so resume skips are
    // whatever other concurrent tests contributed — only quarantine needs a
    // dedicated probe.
    let quarantine_before = Telemetry::counter(Counter::QuarantinedRuns);
    let ones = probe_input();
    let drifting = Sweep {
        threads: 2,
        ..Sweep::new(
            InfUnderDrift::net,
            FaultModel::CorrelatedDrift {
                nu: 0.05,
                time_ratio: 10.0,
                sigma_nu: 1.0,
                tile: TileShape { rows: 4, cols: 4 },
            },
            &ones,
            metric,
        )
    };
    let outcome = engine.execute(&drifting, &SweepControl::new()).unwrap();
    let expected = outcome.quarantined().len() as u64;
    assert!(expected > 0);
    assert!(Telemetry::counter(Counter::QuarantinedRuns) >= quarantine_before + expected);

    // Resume skips fire when a checkpoint actually carries completed runs.
    let token = CancelToken::new();
    let calls = AtomicUsize::new(0);
    let control = SweepControl::new().with_budget(RunBudget::unbounded().with_token(&token));
    let cancelling = Sweep {
        batch: 5,
        threads: 2,
        ..Sweep::new(
            || mlp(23),
            fault,
            &x,
            cancelling_sum(&calls, &token, CANCEL_AFTER),
        )
    };
    let outcome = engine.execute(&cancelling, &control).unwrap();
    let checkpoint = outcome.checkpoint().unwrap().clone();
    let accounted = checkpoint.accounted_runs() as u64;
    assert!(accounted > 0);
    let skips_before = Telemetry::counter(Counter::ResumeSkips);
    let resumed = engine
        .execute(&sweep, &SweepControl::new().with_resume(checkpoint))
        .unwrap();
    assert!(resumed.is_complete());
    assert!(Telemetry::counter(Counter::ResumeSkips) >= skips_before + accounted);
    Telemetry::disable();
}
