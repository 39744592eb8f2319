//! Cross-crate integration tests of the compiled inference-plan subsystem:
//! plan-vs-direct bit-identity for every model topology (f32 and quantized,
//! the recurrent forecaster included), and the zero-allocation guarantee of
//! steady-state planned forwards (verified with a counting global
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
use invnorm_nn::lstm::Lstm;
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

/// Asserts the planned engine reproduces the sequential engine bit for bit
/// on a deterministic model factory in `domain`, for every fault, at batch 1
/// (one realization per forward), batch 3 (a tail batch of 2: per-worker
/// recompilation) and batch 8 (one full stack), on one to four threads.
fn assert_planned_matches_run<M, F>(
    domain: SweepDomain,
    factory: F,
    faults: impl IntoIterator<Item = FaultModel>,
    x: &Tensor,
) where
    M: Layer + Send,
    F: Fn() -> M + Sync,
{
    let engine = MonteCarloEngine::new(8, 0xBEEF);
    let metric = |out: &Tensor| Ok(out.abs().mean());
    for fault in faults {
        let sequential = engine
            .run_supervised(
                domain,
                &mut factory(),
                fault,
                |n| metric(&n.forward(x, Mode::Eval)?),
                &SweepControl::new(),
            )
            .and_then(SweepOutcome::into_summary)
            .unwrap();
        for (batch, threads) in [(1usize, 1usize), (1, 4), (3, 2), (8, 1)] {
            let sweep = Sweep {
                domain,
                batch,
                threads,
                ..Sweep::new(&factory, fault, x, metric)
            };
            let planned = engine
                .execute(&sweep, &SweepControl::new())
                .and_then(SweepOutcome::into_summary)
                .unwrap();
            let identical = planned.runs() == sequential.runs()
                && (sequential.per_run.iter().zip(&planned.per_run))
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
    assert_planned_matches_run(SweepDomain::Weights, factory, model_faults(), &x);
}

#[test]
fn unet_planned_is_bit_identical_to_run() {
    let factory =
        || unet::build(&MicroUNetConfig::tiny(), NormVariant::Conventional).expect("build unet");
    let x = Tensor::randn(&[1, 1, 16, 16], 0.0, 1.0, &mut Rng::seed_from(2));
    assert_planned_matches_run(SweepDomain::Weights, factory, model_faults(), &x);
}

#[test]
fn m5_planned_is_bit_identical_to_run() {
    let factory = || m5::build(&M5NetConfig::tiny(4), NormVariant::Conventional).expect("build m5");
    let x = Tensor::randn(&[2, 1, 128], 0.0, 1.0, &mut Rng::seed_from(3));
    assert_planned_matches_run(SweepDomain::Weights, factory, model_faults(), &x);
}

#[test]
fn lstm_planned_is_bit_identical_to_run() {
    // The recurrent forecaster: a sequence-returning Lstm feeding one that
    // is not, then the norm and the dense head.
    let factory = || {
        lstm::build(&LstmForecasterConfig::tiny(), NormVariant::Conventional).expect("build lstm")
    };
    let x = Tensor::randn(&[2, 6, 1], 0.0, 1.0, &mut Rng::seed_from(4));
    assert_planned_matches_run(SweepDomain::Weights, factory, model_faults(), &x);
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
    // Drift takes the code-domain uniform-scale regime, through the frozen
    // wide path of the first layer at batch 3 and 8.
    let drift = FaultModel::Drift {
        nu: 0.1,
        time_ratio: 1000.0,
    };
    let faults = model_faults().into_iter().chain([drift]);
    assert_planned_matches_run(SweepDomain::Codes, || quantized_cnn(6), faults, &x);
}

/// The two networks of the steady-state allocation checks: a small CNN, and
/// a sequence-returning `Lstm` feeding one that is not, under a dense head.
fn steady_state_cases() -> [(&'static str, Sequential, Tensor); 2] {
    let mut rng = Rng::seed_from(17);
    let cnn = Sequential::new()
        .with(Box::new(Conv2d::new(2, 4, 3, 1, 1, &mut rng)))
        .with(Box::new(Relu::new()))
        .with(Box::new(MaxPool2d::new(2)))
        .with(Box::new(Flatten::new()))
        .with(Box::new(Linear::new(4 * 4 * 4, 3, &mut rng)));
    let x_cnn = Tensor::randn(&[2, 2, 8, 8], 0.0, 1.0, &mut rng);
    let lstm = Sequential::new()
        .with(Box::new(Lstm::new(3, 6, true, &mut rng)))
        .with(Box::new(Lstm::new(6, 6, false, &mut rng)))
        .with(Box::new(Linear::new(6, 1, &mut rng)));
    let x_lstm = Tensor::randn(&[2, 5, 3], 0.0, 1.0, &mut rng);
    [("cnn", cnn, x_cnn), ("lstm", lstm, x_lstm)]
}

#[test]
fn steady_state_planned_batched_forward_allocates_nothing() {
    for (label, net, x) in steady_state_cases() {
        assert_batched_steady_state_allocates_nothing(label, net, &x);
    }
}

/// The batched-plan acceptance criterion: realizing B stacked fault
/// realizations into the plan-owned buffers and running the fused forward
/// must not touch the heap once warm — stacked faulty buffers,
/// per-realization packed panels, sparse cell lists and dirty sets are all
/// reserved at compile time.
fn assert_batched_steady_state_allocates_nothing(label: &str, mut net: Sequential, x: &Tensor) {
    let direct = net.forward(x, Mode::Eval).unwrap();
    let batch = 4usize;
    let mut plan = Plan::compile_batched(&mut net, x, batch).unwrap();
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
        injector.realize_plan_batch(&mut plan, &mut rngs).unwrap();
        plan.forward(&mut net).unwrap();
    }

    // Steady state: batched injection + fused forward, zero heap traffic.
    let before = thread_allocations();
    for round in 3..6u64 {
        for (b, slot) in rngs.iter_mut().enumerate() {
            *slot = Rng::seed_from(100 * round + b as u64);
        }
        injector.realize_plan_batch(&mut plan, &mut rngs).unwrap();
        plan.forward(&mut net).unwrap();
    }
    let allocations = thread_allocations() - before;
    assert_eq!(
        allocations, 0,
        "{label}: steady-state planned-batched forwards must perform zero heap allocations"
    );

    // Reverting every realization to clean restores the direct output in
    // every stacked slot.
    for operand in plan.weights_mut() {
        let view = operand.view();
        for faulty in view.faulty.chunks_exact_mut(view.clean.len()) {
            faulty.copy_from_slice(view.clean);
        }
        view.dirty.mark_all();
    }
    let out = plan.forward(&mut net).unwrap();
    let per = direct.numel();
    for b in 0..batch {
        let rows = &out.data()[b * per..][..per];
        let identical = rows
            .iter()
            .zip(direct.data().iter())
            .all(|(a, c)| a.to_bits() == c.to_bits());
        assert!(identical, "{label}: clean stacked realization {b} diverged");
    }
    net.plan_end();
}

#[test]
fn steady_state_planned_forward_allocates_nothing() {
    for (label, net, x) in steady_state_cases() {
        assert_steady_state_allocates_nothing(label, net, &x);
    }
}

/// Steady-state injection + forward on a single-realization plan must not
/// touch the heap at all (the acceptance criterion of the compiled-plan
/// subsystem), and the clean realization still tracks the direct path.
fn assert_steady_state_allocates_nothing(label: &str, mut net: Sequential, x: &Tensor) {
    let direct = net.forward(x, Mode::Eval).unwrap();
    let mut plan = Plan::compile(&mut net, x).unwrap();

    // Warm up: a couple of realizations exercise injection, dirty re-packing
    // and the frozen-input caches.
    let injector = WeightFaultInjector::new(FaultModel::StuckAt { rate: 0.1 }).unwrap();
    let mut rng = [Rng::seed_from(0)];
    for seed in 0..3u64 {
        rng[0] = Rng::seed_from(seed);
        injector.realize_plan_batch(&mut plan, &mut rng).unwrap();
        plan.forward(&mut net).unwrap();
    }

    let before = thread_allocations();
    for seed in 3..6u64 {
        rng[0] = Rng::seed_from(seed);
        injector.realize_plan_batch(&mut plan, &mut rng).unwrap();
        plan.forward(&mut net).unwrap();
    }
    let allocations = thread_allocations() - before;
    assert_eq!(
        allocations, 0,
        "{label}: steady-state planned forwards must perform zero heap allocations"
    );

    rng[0] = Rng::seed_from(999);
    injector.realize_plan_batch(&mut plan, &mut rng).unwrap();
    for operand in plan.weights_mut() {
        let view = operand.view();
        view.faulty.copy_from_slice(view.clean);
        view.dirty.mark_all();
    }
    let out = plan.forward(&mut net).unwrap();
    let identical = out
        .data()
        .iter()
        .zip(direct.data().iter())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        identical,
        "{label}: clean planned forward diverged from direct eval"
    );
    net.plan_end();
}
