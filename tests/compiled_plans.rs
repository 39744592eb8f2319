//! Cross-crate integration tests of the compiled inference-plan subsystem:
//! plan-vs-direct bit-identity for every model topology (f32 and quantized),
//! loud rejection of unsupported layers, and the zero-allocation guarantee
//! of steady-state planned forwards (verified with a counting global
//! allocator).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use invnorm::prelude::*;
use invnorm_models::lstm::LstmForecasterConfig;
use invnorm_models::m5::M5NetConfig;
use invnorm_models::resnet::MicroResNetConfig;
use invnorm_models::unet::MicroUNetConfig;
use invnorm_models::{lstm, m5, resnet, unet};
use invnorm_nn::activation::Relu;
use invnorm_nn::conv::Conv2d;
use invnorm_nn::pool::MaxPool2d;
use invnorm_nn::reshape::Flatten;

/// A pass-through allocator counting this thread's allocations, so the
/// steady-state zero-allocation claim of planned forwards is enforced by the
/// test harness rather than asserted by inspection.
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

/// The fault models exercised at the model level (the exhaustive
/// eight-model matrix runs in `invnorm-imc`'s engine tests).
fn model_faults() -> [FaultModel; 4] {
    [
        FaultModel::None,
        FaultModel::AdditiveVariation { sigma: 0.2 },
        FaultModel::StuckAt { rate: 0.1 },
        FaultModel::BitFlip {
            rate: 0.05,
            bits: 8,
        },
    ]
}

/// Asserts the planned engine reproduces the sequential engine bit-for-bit on a
/// deterministic model factory, across fault models, batch sizes and thread
/// counts.
fn assert_planned_matches_run<F>(factory: F, x: &Tensor)
where
    F: Fn() -> BuiltModel + Sync,
{
    let engine = MonteCarloEngine::new(8, 0xBEEF);
    for fault in model_faults() {
        let mut net = factory();
        let xc = x.clone();
        let sequential = engine
            .run(&mut net, fault, |n| {
                Ok(n.forward(&xc, Mode::Eval)?.abs().mean())
            })
            .unwrap();
        // Batch 1 is one realization per forward; batch 3 leaves a tail
        // batch of 2 (per-worker recompilation); batch 8 is one full stack.
        for (batch, threads) in [(1usize, 1usize), (1, 4), (3, 2), (8, 1)] {
            let sweep = Sweep {
                batch,
                threads,
                ..Sweep::new(&factory, fault, x, |out: &Tensor| Ok(out.abs().mean()))
            };
            let planned = engine
                .execute_on(EngineKind::Planned, &sweep, &SweepControl::new())
                .and_then(SweepOutcome::into_summary)
                .unwrap();
            assert_eq!(planned.runs(), sequential.runs());
            let identical = sequential
                .per_run
                .iter()
                .zip(planned.per_run.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                identical,
                "{} {fault:?} batch={batch} threads={threads}: {:?} vs {:?}",
                factory().name(),
                sequential.per_run,
                planned.per_run
            );
        }
    }
}

#[test]
fn resnet_planned_is_bit_identical_to_run() {
    let factory = || {
        resnet::build(&MicroResNetConfig::tiny(4), NormVariant::Conventional).expect("build resnet")
    };
    let x = Tensor::randn(&[2, 3, 16, 16], 0.0, 1.0, &mut Rng::seed_from(1));
    assert_planned_matches_run(factory, &x);
}

#[test]
fn unet_planned_is_bit_identical_to_run() {
    let factory =
        || unet::build(&MicroUNetConfig::tiny(), NormVariant::Conventional).expect("build unet");
    let x = Tensor::randn(&[1, 1, 16, 16], 0.0, 1.0, &mut Rng::seed_from(2));
    assert_planned_matches_run(factory, &x);
}

#[test]
fn m5_planned_is_bit_identical_to_run() {
    let factory = || m5::build(&M5NetConfig::tiny(4), NormVariant::Conventional).expect("build m5");
    let x = Tensor::randn(&[2, 1, 128], 0.0, 1.0, &mut Rng::seed_from(3));
    assert_planned_matches_run(factory, &x);
}

#[test]
fn lstm_model_is_rejected_as_unsupported() {
    // The recurrent forecaster has no planned execution path; the plan
    // compiler must reject it loudly instead of evaluating clean weights.
    let factory = || {
        lstm::build(&LstmForecasterConfig::tiny(), NormVariant::Conventional).expect("build lstm")
    };
    let x = Tensor::randn(&[2, 6, 1], 0.0, 1.0, &mut Rng::seed_from(4));
    let sweep = Sweep {
        batch: 2,
        threads: 2,
        ..Sweep::new(
            factory,
            FaultModel::AdditiveVariation { sigma: 0.1 },
            &x,
            |out: &Tensor| Ok(out.sum()),
        )
    };
    let err = MonteCarloEngine::new(4, 1)
        .execute_on(EngineKind::Planned, &sweep, &SweepControl::new())
        .unwrap_err();
    assert!(
        matches!(
            err,
            NnError::Unsupported {
                op: "compiled plans",
                ..
            }
        ),
        "unexpected error: {err}"
    );
}

/// A quantized CNN mixing both integer layer types with planned stateless
/// layers.
fn quantized_cnn(seed: u64) -> Sequential {
    let mut rng = Rng::seed_from(seed);
    let conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
    let head = Linear::new(4 * 4 * 4, 3, &mut rng);
    Sequential::new()
        .with(Box::new(QuantizedConv2d::from_conv2d(&conv, 8).unwrap()))
        .with(Box::new(Relu::new()))
        .with(Box::new(MaxPool2d::new(2)))
        .with(Box::new(Flatten::new()))
        .with(Box::new(QuantizedLinear::from_linear(&head, 6).unwrap()))
}

#[test]
fn quantized_cnn_planned_is_bit_identical_to_sequential_codes() {
    let x = Tensor::randn(&[3, 2, 8, 8], 0.0, 1.0, &mut Rng::seed_from(5));
    let engine = MonteCarloEngine::new(8, 0xFEED);
    for fault in model_faults() {
        let mut net = quantized_cnn(6);
        let sequential = engine
            .run_supervised(
                SweepDomain::Codes,
                &mut net,
                fault,
                |n| Ok(n.forward(&x, Mode::Eval)?.sum()),
                &SweepControl::new(),
            )
            .and_then(SweepOutcome::into_summary)
            .unwrap();
        for (batch, threads) in [(1usize, 1usize), (1, 4), (3, 2), (8, 1)] {
            let sweep = Sweep {
                domain: SweepDomain::Codes,
                batch,
                threads,
                ..Sweep::new(|| quantized_cnn(6), fault, &x, |out: &Tensor| Ok(out.sum()))
            };
            let planned = engine
                .execute_on(EngineKind::Planned, &sweep, &SweepControl::new())
                .and_then(SweepOutcome::into_summary)
                .unwrap();
            let identical = sequential
                .per_run
                .iter()
                .zip(planned.per_run.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(identical, "{fault:?} batch={batch} threads={threads}");
        }
    }
}

#[test]
fn steady_state_planned_batched_forward_allocates_nothing() {
    // The batched-plan acceptance criterion: realizing B stacked fault
    // realizations into the plan-owned buffers and running the fused
    // forward must not touch the heap once warm — stacked faulty buffers,
    // per-realization packed panels, sparse cell lists and dirty sets are
    // all reserved at compile time.
    let mut rng = Rng::seed_from(17);
    let mut net = Sequential::new()
        .with(Box::new(Conv2d::new(2, 4, 3, 1, 1, &mut rng)))
        .with(Box::new(Relu::new()))
        .with(Box::new(MaxPool2d::new(2)))
        .with(Box::new(Flatten::new()))
        .with(Box::new(Linear::new(4 * 4 * 4, 3, &mut rng)));
    let x = Tensor::randn(&[2, 2, 8, 8], 0.0, 1.0, &mut rng);
    let direct = net.forward(&x, Mode::Eval).unwrap();
    let batch = 4usize;
    let mut plan = Plan::compile_batched(&mut net, &x, batch).unwrap();
    assert_eq!(plan.batch(), batch);

    // Pre-seeded per-realization RNG streams, refilled in place so the
    // steady-state loop below draws fresh realizations without allocating.
    let mut rngs: Vec<Rng> = (0..batch).map(|b| Rng::seed_from(b as u64)).collect();

    // Warm up: sparse stuck-at injection, dirty re-packing, frozen-input
    // caches and the packed-domain cell lists all reach steady state.
    let injector = WeightFaultInjector::new(FaultModel::StuckAt { rate: 0.1 }).unwrap();
    for round in 0..3u64 {
        for (b, slot) in rngs.iter_mut().enumerate() {
            *slot = Rng::seed_from(100 * round + b as u64);
        }
        injector.realize_plan_batch(&mut net, &mut rngs).unwrap();
        plan.forward(&mut net).unwrap();
    }

    // Steady state: batched injection + fused forward, zero heap traffic.
    let before = thread_allocations();
    for round in 3..6u64 {
        for (b, slot) in rngs.iter_mut().enumerate() {
            *slot = Rng::seed_from(100 * round + b as u64);
        }
        injector.realize_plan_batch(&mut net, &mut rngs).unwrap();
        plan.forward(&mut net).unwrap();
    }
    let allocations = thread_allocations() - before;
    assert_eq!(
        allocations, 0,
        "steady-state planned-batched forwards must perform zero heap allocations"
    );

    // Reverting every realization to clean restores the direct output in
    // every stacked slot.
    net.visit_plan_params(&mut |view| {
        let numel = view.clean.numel();
        for b in 0..batch {
            view.faulty[b * numel..][..numel].copy_from_slice(view.clean.data());
        }
        view.dirty.mark_all();
    });
    let out = plan.forward(&mut net).unwrap();
    let per = direct.numel();
    for b in 0..batch {
        let rows = &out.data()[b * per..][..per];
        let identical = rows
            .iter()
            .zip(direct.data().iter())
            .all(|(a, c)| a.to_bits() == c.to_bits());
        assert!(identical, "clean stacked realization {b} diverged");
    }
    net.plan_end();
}

#[test]
fn steady_state_planned_forward_allocates_nothing() {
    let mut rng = Rng::seed_from(7);
    let mut net = Sequential::new()
        .with(Box::new(Conv2d::new(2, 4, 3, 1, 1, &mut rng)))
        .with(Box::new(Relu::new()))
        .with(Box::new(MaxPool2d::new(2)))
        .with(Box::new(Flatten::new()))
        .with(Box::new(Linear::new(4 * 4 * 4, 3, &mut rng)));
    let x = Tensor::randn(&[2, 2, 8, 8], 0.0, 1.0, &mut rng);
    let direct = net.forward(&x, Mode::Eval).unwrap();
    let mut plan = Plan::compile(&mut net, &x).unwrap();

    // Warm up: a couple of realizations exercise injection, dirty re-packing
    // and the frozen-input caches.
    let injector = WeightFaultInjector::new(FaultModel::StuckAt { rate: 0.1 }).unwrap();
    let mut rng = [Rng::seed_from(0)];
    for seed in 0..3u64 {
        rng[0] = Rng::seed_from(seed);
        injector.realize_plan_batch(&mut net, &mut rng).unwrap();
        plan.forward(&mut net).unwrap();
    }

    // Steady state: injection + forward must not touch the heap at all
    // (the acceptance criterion of the compiled-plan subsystem).
    let before = thread_allocations();
    for seed in 3..6u64 {
        rng[0] = Rng::seed_from(seed);
        injector.realize_plan_batch(&mut net, &mut rng).unwrap();
        plan.forward(&mut net).unwrap();
    }
    let allocations = thread_allocations() - before;
    assert_eq!(
        allocations, 0,
        "steady-state planned forwards must perform zero heap allocations"
    );

    // And the outputs still track the direct path for the clean realization.
    rng[0] = Rng::seed_from(999);
    injector.realize_plan_batch(&mut net, &mut rng).unwrap();
    net.visit_plan_params(&mut |view| {
        view.faulty.copy_from_slice(view.clean.data());
        view.dirty.mark_all();
    });
    let out = plan.forward(&mut net).unwrap();
    let identical = out
        .data()
        .iter()
        .zip(direct.data().iter())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(identical, "clean planned forward diverged from direct eval");
    net.plan_end();
}
