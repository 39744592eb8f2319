//! Plan compile cost: `Plan::compile_batched` on the bench CNN (conv 3→8
//! 5×5, ReLU, 2×2 max-pool, flatten, linear 2048→10 on `[8, 3, 32, 32]`)
//! and on the 512→256 linear probe (`[64, 512]` input), at B ∈ {1, 4, 16}
//! stacked fault realizations.
//!
//! The planned Monte-Carlo engine compiles one plan per worker and sweep (at
//! B = 1 to read the stack rule's frozen width, then once more at the rule's
//! stack), so compile time is part of every sweep. A conv stages one tile
//! of im2col patches whatever the stack, so compile cost grows with the
//! per-realization edges and operands only. Each iteration compiles, loads
//! the input and drops the plan; results are written to
//! `BENCH_plan_compile.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use invnorm_nn::activation::Relu;
use invnorm_nn::conv::Conv2d;
use invnorm_nn::layer::Layer;
use invnorm_nn::linear::Linear;
use invnorm_nn::plan::Plan;
use invnorm_nn::pool::MaxPool2d;
use invnorm_nn::reshape::Flatten;
use invnorm_nn::Sequential;
use invnorm_tensor::{Rng, Tensor};

/// The stacks timed for each model.
const BATCHES: [usize; 3] = [1, 4, 16];

fn cnn_model() -> Sequential {
    let mut rng = Rng::seed_from(2);
    Sequential::new()
        .with(Box::new(Conv2d::new(3, 8, 5, 1, 2, &mut rng)))
        .with(Box::new(Relu::new()))
        .with(Box::new(MaxPool2d::new(2)))
        .with(Box::new(Flatten::new()))
        .with(Box::new(Linear::new(8 * 16 * 16, 10, &mut rng)))
}

fn linear_model() -> Sequential {
    let mut rng = Rng::seed_from(1);
    Sequential::new().with(Box::new(Linear::new(512, 256, &mut rng)))
}

fn bench_plan_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_compile");
    group.sample_size(20);
    let cases = [
        (
            "cnn",
            cnn_model(),
            Tensor::randn(&[8, 3, 32, 32], 0.0, 1.0, &mut Rng::seed_from(8)),
        ),
        (
            "linear",
            linear_model(),
            Tensor::randn(&[64, 512], 0.0, 1.0, &mut Rng::seed_from(7)),
        ),
    ];
    for (name, mut model, input) in cases {
        for batch in BATCHES {
            group.bench_function(format!("{name}_b{batch}"), |b| {
                b.iter(|| {
                    let plan = Plan::compile_batched(&mut model, &input, batch).unwrap();
                    plan.batch()
                })
            });
        }
        model.plan_end();
    }
    group.finish();
}

criterion_group!(benches, bench_plan_compile);
criterion_main!(benches);
