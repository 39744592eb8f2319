//! Cross-crate integration tests of the telemetry layer: enabling
//! instrumentation must not change a single output bit on any engine, must
//! not allocate in the steady state (verified with a counting global
//! allocator), and the chrome-trace export must be well-formed with balanced
//! begin/end events.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use invnorm::prelude::*;
use invnorm_imc::{LineOrientation, TileShape};
use invnorm_nn::activation::Relu;
use invnorm_nn::conv::Conv2d;
use invnorm_nn::pool::MaxPool2d;
use invnorm_nn::reshape::Flatten;

/// A pass-through allocator counting this thread's allocations, so the
/// "telemetry is allocation-free in the steady state" claim is enforced by
/// the test harness rather than asserted by inspection.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn thread_allocations() -> usize {
    ALLOCATIONS.with(|c| c.get())
}

// SAFETY: pure pass-through to `System` plus a thread-local counter bump;
// every allocator contract (layout fidelity, no unwinding, pointer validity)
// is inherited unchanged from `System`.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller's layout obligations forwarded verbatim to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the outer call, delegated to `System`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller's layout obligations forwarded verbatim to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the outer call, delegated to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller's layout obligations forwarded verbatim to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the outer call, delegated to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: caller's layout obligations forwarded verbatim to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the outer call, delegated to `System`.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The telemetry enable flag, accumulators and rings are process-global, and
/// the test harness runs `#[test]`s concurrently — every test that toggles
/// or reads telemetry state holds this lock for its whole body.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn telemetry_lock() -> std::sync::MutexGuard<'static, ()> {
    TELEMETRY_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Restores the disabled default even when a test panics, so one failure
/// does not cascade into bit-identity failures elsewhere.
struct DisableOnDrop;

impl Drop for DisableOnDrop {
    fn drop(&mut self) {
        Telemetry::disable();
        Telemetry::reset();
    }
}

/// All eight fault models applicable to f32 weights (BinaryBitFlip needs a
/// binarized network and is covered by the imc crate's own tests).
fn all_faults() -> [FaultModel; 8] {
    let tile = TileShape { rows: 4, cols: 4 };
    [
        FaultModel::AdditiveVariation { sigma: 0.2 },
        FaultModel::MultiplicativeVariation { sigma: 0.15 },
        FaultModel::UniformNoise { strength: 0.1 },
        FaultModel::BitFlip {
            rate: 0.05,
            bits: 8,
        },
        FaultModel::StuckAt { rate: 0.1 },
        FaultModel::Drift {
            nu: 0.05,
            time_ratio: 10.0,
        },
        FaultModel::LineDefect {
            orientation: LineOrientation::Row,
            rate: 0.2,
            tile,
        },
        FaultModel::CorrelatedDrift {
            nu: 0.05,
            time_ratio: 10.0,
            sigma_nu: 0.3,
            tile,
        },
    ]
}

/// A small CNN exercising conv (im2col + pack), pooling and a dense head.
fn cnn(seed: u64) -> Sequential {
    let mut rng = Rng::seed_from(seed);
    Sequential::new()
        .with(Box::new(Conv2d::new(2, 2, 3, 1, 1, &mut rng)))
        .with(Box::new(Relu::new()))
        .with(Box::new(MaxPool2d::new(2)))
        .with(Box::new(Flatten::new()))
        .with(Box::new(Linear::new(2 * 4 * 4, 3, &mut rng)))
}

/// The code-domain twin of [`cnn`]: the same topology on i8 codes.
fn quantized_cnn(seed: u64) -> Sequential {
    let mut rng = Rng::seed_from(seed);
    let conv = Conv2d::new(2, 2, 3, 1, 1, &mut rng);
    let head = Linear::new(2 * 4 * 4, 3, &mut rng);
    Sequential::new()
        .with(Box::new(QuantizedConv2d::from_conv2d(&conv, 8).unwrap()))
        .with(Box::new(Relu::new()))
        .with(Box::new(MaxPool2d::new(2)))
        .with(Box::new(Flatten::new()))
        .with(Box::new(QuantizedLinear::from_linear(&head, 8).unwrap()))
}

/// The stack the planned engine reported running `summary` at (`None` for
/// the sequential engine, or with telemetry off).
fn stack_of(summary: &MonteCarloSummary) -> Option<usize> {
    summary.telemetry.as_ref()?.plan.map(|p| p.stack)
}

fn assert_bits_equal(baseline: &[f32], instrumented: &[f32], what: &str) {
    assert_eq!(baseline.len(), instrumented.len(), "{what}: run count");
    let identical = baseline
        .iter()
        .zip(instrumented.iter())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(identical, "{what}: {baseline:?} vs {instrumented:?}");
}

#[test]
fn telemetry_is_bit_invisible_on_every_engine() {
    let _guard = telemetry_lock();
    let _restore = DisableOnDrop;
    let x = Tensor::randn(&[2, 2, 8, 8], 0.0, 1.0, &mut Rng::seed_from(11));
    let engine = MonteCarloEngine::new(6, 0xD1CE);
    let metric = |out: &Tensor| Ok(out.abs().mean());
    for fault in all_faults() {
        // One pass per engine with telemetry disabled, then the exact same
        // simulation instrumented; per-run metrics must match bit for bit.
        let mut results: [Option<[Vec<f32>; 3]>; 2] = [None, None];
        for (slot, enabled) in [(0usize, false), (1usize, true)] {
            if enabled {
                Telemetry::reset();
                Telemetry::enable();
            } else {
                Telemetry::disable();
            }
            let xc = x.clone();
            let mut net = cnn(23);
            let sequential = engine
                .run(&mut net, fault, |n| {
                    Ok(n.forward(&xc, Mode::Eval)?.abs().mean())
                })
                .unwrap();
            let on = |batch| {
                let sweep = Sweep {
                    batch,
                    threads: 2,
                    ..Sweep::new(|| cnn(23), fault, &x, metric)
                };
                engine
                    .execute(&sweep, &SweepControl::new())
                    .and_then(SweepOutcome::into_summary)
                    .unwrap()
            };
            let planned = on(1);
            let fused = on(4);
            assert_eq!(sequential.telemetry.is_some(), enabled);
            assert_eq!(fused.telemetry.is_some(), enabled);
            if enabled {
                // Six runs on two workers cap the stack at 3.
                assert_eq!(stack_of(&sequential), None);
                assert_eq!(stack_of(&planned), Some(1));
                assert_eq!(stack_of(&fused), Some(3));
            }
            results[slot] = Some([sequential.per_run, planned.per_run, fused.per_run]);
            if enabled {
                Telemetry::disable();
            }
        }
        let [baseline, instrumented] = results;
        let (baseline, instrumented) = (baseline.unwrap(), instrumented.unwrap());
        for (i, name) in ["run", "planned batch=1", "planned batch=4"]
            .iter()
            .enumerate()
        {
            assert_bits_equal(&baseline[i], &instrumented[i], &format!("{name} {fault:?}"));
        }
    }
}

#[test]
fn enabled_telemetry_is_allocation_free_in_steady_state() {
    let _guard = telemetry_lock();
    let _restore = DisableOnDrop;
    let mut net = cnn(17);
    let x = Tensor::randn(&[2, 2, 8, 8], 0.0, 1.0, &mut Rng::seed_from(18));
    let batch = 4usize;
    let mut plan = Plan::compile_batched(&mut net, &x, batch).unwrap();
    let mut rngs: Vec<Rng> = (0..batch).map(|b| Rng::seed_from(b as u64)).collect();
    let injector = WeightFaultInjector::new(FaultModel::StuckAt { rate: 0.1 }).unwrap();

    Telemetry::reset();
    Telemetry::enable();
    // Warm up with instrumentation live: the calling thread's span ring is
    // materialized (its one-time allocation happens here) and the plan's
    // caches reach steady state.
    for round in 0..3u64 {
        for (b, slot) in rngs.iter_mut().enumerate() {
            *slot = Rng::seed_from(100 * round + b as u64);
        }
        injector.realize_plan_batch(&mut plan, &mut rngs).unwrap();
        plan.forward(&mut net).unwrap();
    }

    // Steady state: spans (Repack/Gemm/Im2col inside the planned forward,
    // Inject inside the injector) and counters keep firing on every round,
    // and none of it may touch the heap.
    let before = thread_allocations();
    for round in 3..6u64 {
        for (b, slot) in rngs.iter_mut().enumerate() {
            *slot = Rng::seed_from(100 * round + b as u64);
        }
        injector.realize_plan_batch(&mut plan, &mut rngs).unwrap();
        plan.forward(&mut net).unwrap();
    }
    let allocations = thread_allocations() - before;
    Telemetry::disable();
    assert_eq!(
        allocations, 0,
        "steady-state planned-batched forwards with telemetry enabled must \
         perform zero heap allocations"
    );
    // The instrumentation did observe the loop (spans recorded, cells
    // scattered by the sparse stuck-at realizations).
    assert!(Telemetry::phase_ns(Phase::Inject) > 0);
    assert!(Telemetry::counter(Counter::CellScatters) > 0);
    net.plan_end();
}

#[test]
fn planned_drift_scales_panels_and_never_repacks_in_either_domain() {
    // Retention drift is one factor per realization: the planned engine
    // scales the cached panels of f32 weights and i8 codes alike (the frozen
    // first layer's wide operand at batch 3) and re-packs no row.
    let _guard = telemetry_lock();
    let _restore = DisableOnDrop;
    let x = Tensor::randn(&[2, 2, 8, 8], 0.0, 1.0, &mut Rng::seed_from(41));
    let drift = FaultModel::Drift {
        nu: 0.05,
        time_ratio: 100.0,
    };
    for (domain, batch) in [(SweepDomain::Weights, 1), (SweepDomain::Weights, 3)]
        .into_iter()
        .chain([(SweepDomain::Codes, 1), (SweepDomain::Codes, 3)])
    {
        let factory = || match domain {
            SweepDomain::Weights => cnn(43),
            SweepDomain::Codes => quantized_cnn(43),
        };
        let sweep = Sweep {
            domain,
            batch,
            threads: 1,
            ..Sweep::new(factory, drift, &x, |out: &Tensor| Ok(out.sum()))
        };
        Telemetry::reset();
        Telemetry::enable();
        let summary = MonteCarloEngine::new(6, 0xD81F)
            .execute(&sweep, &SweepControl::new())
            .and_then(SweepOutcome::into_summary)
            .unwrap();
        Telemetry::disable();
        assert_eq!(stack_of(&summary), Some(batch), "{domain:?}");
        let (scales, repacked) = (
            Telemetry::counter(Counter::UniformScales),
            Telemetry::counter(Counter::RowsRepacked),
        );
        assert!(
            scales > 0 && repacked == 0,
            "{domain:?} batch={batch}: {scales} scales, {repacked} rows re-packed"
        );
    }
}

/// One of the four GEMM layers, with an input it accepts: `Linear`,
/// `Conv2d`, and their 8-bit quantized twins.
fn gemm_layer(kind: usize) -> (Box<dyn Layer + Send>, Tensor) {
    let mut rng = Rng::seed_from(61);
    let linear = Linear::new(6, 4, &mut rng);
    let conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
    let rows = Tensor::randn(&[2, 6], 0.0, 1.0, &mut rng);
    let images = Tensor::randn(&[2, 2, 5, 5], 0.0, 1.0, &mut rng);
    match kind {
        0 => (Box::new(linear), rows),
        1 => (Box::new(conv), images),
        2 => (
            Box::new(QuantizedLinear::from_linear(&linear, 8).unwrap()),
            rows,
        ),
        _ => (
            Box::new(QuantizedConv2d::from_conv2d(&conv, 8).unwrap()),
            images,
        ),
    }
}

/// The frozen-path counters sweepbench reads (`nn.frozen_input_hit_ratio`,
/// `tensor.wide_gemms`), pinned per GEMM layer: a layer reading the plan
/// input misses its cache once per `load_input` and hits it on every later
/// forward, and runs one wide GEMM per forward when it stacks more than one
/// realization; behind a `Relu` the same layer takes the per-realization
/// path and counts none of the three.
#[test]
fn frozen_path_counters_count_one_miss_per_input_and_one_wide_gemm_per_forward() {
    let _guard = telemetry_lock();
    let _restore = DisableOnDrop;
    for kind in 0..4 {
        for frozen in [true, false] {
            for batch in [1, 3] {
                let (layer, x) = gemm_layer(kind);
                let name = layer.name();
                let mut net = if frozen {
                    Sequential::new().with(layer)
                } else {
                    Sequential::new().with(Box::new(Relu::new())).with(layer)
                };
                let mut plan = Plan::compile_batched(&mut net, &x, batch).unwrap();
                Telemetry::reset();
                Telemetry::enable();
                let mut forwards = 0;
                for load in 1..=2u64 {
                    if load > 1 {
                        plan.load_input(&x).unwrap();
                    }
                    for _ in 0..3 {
                        plan.forward(&mut net).unwrap();
                        forwards += 1;
                        let counts = [
                            Counter::FrozenInputMisses,
                            Counter::FrozenInputHits,
                            Counter::WideGemms,
                        ]
                        .map(Telemetry::counter);
                        let expected = if frozen {
                            let wide = if batch > 1 { forwards } else { 0 };
                            [load, forwards - load, wide]
                        } else {
                            [0; 3]
                        };
                        assert_eq!(
                            counts, expected,
                            "{name} frozen={frozen} B={batch}: [misses, hits, wide GEMMs] \
                             after {forwards} forwards"
                        );
                    }
                }
                Telemetry::disable();
                net.plan_end();
            }
        }
    }
}

#[test]
fn chrome_trace_export_is_well_formed_and_balanced() {
    let _guard = telemetry_lock();
    let _restore = DisableOnDrop;
    Telemetry::reset();
    Telemetry::enable();
    let x = Tensor::randn(&[2, 2, 8, 8], 0.0, 1.0, &mut Rng::seed_from(31));
    let sweep = Sweep {
        batch: 4,
        ..Sweep::new(
            || cnn(29),
            FaultModel::AdditiveVariation { sigma: 0.2 },
            &x,
            |out: &Tensor| Ok(out.abs().mean()),
        )
    };
    let summary = MonteCarloEngine::new(6, 0xACE)
        .execute(&sweep, &SweepControl::new())
        .and_then(SweepOutcome::into_summary)
        .unwrap();
    Telemetry::disable();
    let trace = Telemetry::chrome_trace();

    assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(trace.ends_with("]}"));
    let begins = trace.matches("\"ph\":\"B\"").count();
    let ends = trace.matches("\"ph\":\"E\"").count();
    assert!(begins > 0, "trace recorded no spans");
    assert_eq!(begins, ends, "unbalanced B/E events");
    for name in ["compile", "inject", "forward", "gemm", "metric"] {
        assert!(
            trace.contains(&format!("\"name\":\"{name}\"")),
            "trace missing phase {name}"
        );
    }

    // The engine attached a run report: the wall clock covers the phases it
    // brackets, the convergence stream has one point per chip instance, and
    // the rendered table/JSON mention every phase.
    let report = summary
        .telemetry
        .expect("enabled run must attach telemetry");
    assert!(report.wall_ns > 0);
    assert!(report.phase_ns(Phase::Forward) > 0);
    assert!(report.phase_count(Phase::Forward) > 0);
    assert_eq!(report.convergence.len(), summary.per_run.len());
    let last = report.convergence.last().unwrap();
    assert_eq!(last.runs, summary.per_run.len() as u64);
    assert!((last.mean - summary.mean).abs() <= 1e-6 * summary.mean.abs().max(1.0));
    let table = report.to_string();
    let json = report.to_json();
    for phase in invnorm_tensor::telemetry::PHASES {
        assert!(table.contains(phase.name()), "table missing {phase}");
        assert!(json.contains(phase.name()), "json missing {phase}");
    }
    // The stack the engine ran and the plan's arena bytes, in both.
    let plan = report.plan.expect("planned run must report its plan");
    assert_eq!(plan.stack, 4);
    assert!(plan.f32_bytes > 0 && plan.i8_bytes == 0 && plan.i32_bytes == 0);
    assert!(table.contains(&format!(
        "plan: stack 4, arena bytes f32 {}",
        plan.f32_bytes
    )));
    assert!(json.contains(&format!(
        "\"plan\": {{\"stack\": 4, \"arena_bytes\": {{\"f32\": {}, \"i8\": 0, \"i32\": 0}}}}",
        plan.f32_bytes
    )));
}

#[test]
fn ladder_outcome_display_reports_engine_and_fallbacks() {
    let _guard = telemetry_lock();
    let _restore = DisableOnDrop;
    Telemetry::reset();
    Telemetry::enable();
    let x = Tensor::randn(&[2, 2, 8, 8], 0.0, 1.0, &mut Rng::seed_from(41));
    // `run_auto` reports the planned engine and no fallbacks.
    let outcome = MonteCarloEngine::new(4, 7)
        .run_auto(
            || cnn(37),
            FaultModel::AdditiveVariation { sigma: 0.1 },
            &x,
            |out| Ok(out.abs().mean()),
            2,
            1,
            DegradationPolicy::Graceful,
        )
        .unwrap();
    Telemetry::disable();
    assert_eq!(outcome.engine, EngineKind::Planned);
    assert!(outcome.fallbacks.is_empty());
    assert_eq!(stack_of(&outcome.summary), Some(2));
    // One line: the engine and the statistics, with no fallback to list.
    let rendered = outcome.to_string();
    assert!(rendered.contains(" [planned]: 4 runs"), "{rendered}");
    assert!(!rendered.contains('\n'), "{rendered}");
}
