//! Micro-benchmarks of the building blocks: the blocked GEMM compute core
//! against the retained naive reference, the quantized i8 GEMM and layer
//! paths against their f32 counterparts, the zero-alloc conv path, inverted
//! normalization vs batch normalization forward passes, Monte-Carlo Bayesian
//! inference, and the crossbar analog matrix-vector product.
//!
//! Results are written to `BENCH_layer_throughput.json` at the workspace
//! root (see the README's "Benchmarks" section); the `gemm_*` /
//! `naive_gemm_*` pairs track the blocked kernel's speedup and the
//! `qgemm_*` / `gemm_*` and `q*_forward_*` / `*_forward_*` pairs track the
//! integer path across PRs. The `gemm_dispatched_*` / `gemm_pinned_*` pairs
//! check that runtime kernel dispatch costs nothing over pinning a tier, the
//! `elementwise` group tracks the vectorized `vecmath` kernels against the
//! scalar loops they replaced, and the `inject` group does the same for the
//! keyed Gaussian fault draws (`BENCH_inject.json`).
use criterion::{criterion_group, criterion_main, Criterion};
use invnorm_core::bayesian::BayesianPredictor;
use invnorm_core::{InvNormConfig, InvertedNorm};
use invnorm_imc::crossbar::{CrossbarArray, CrossbarConfig};
use invnorm_imc::FaultModel;
use invnorm_nn::conv::Conv2d;
use invnorm_nn::layer::{Layer, Mode};
use invnorm_nn::linear::Linear;
use invnorm_nn::norm::BatchNorm;
use invnorm_nn::quantized::{QuantizedConv2d, QuantizedLinear};
use invnorm_nn::Sequential;
use invnorm_tensor::dispatch::{self, KernelTier};
use invnorm_tensor::gemm::PackedB;
use invnorm_tensor::{ops, vecmath, Rng, Tensor};

/// Square-GEMM sizes the blocked kernel is tracked on. 256 is the
/// acceptance-criterion size; 64/512 bracket it to expose cache-regime
/// behavior.
const GEMM_SIZES: [usize; 3] = [64, 256, 512];

fn bench_gemm(c: &mut Criterion) {
    let mut rng = Rng::seed_from(42);
    let mut group = c.benchmark_group("layer_throughput");
    group.sample_size(10);

    for &size in &GEMM_SIZES {
        let a = Tensor::randn(&[size, size], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[size, size], 0.0, 1.0, &mut rng);
        group.bench_function(format!("gemm_{size}x{size}x{size}"), |bch| {
            bch.iter(|| ops::matmul(&a, &b).unwrap().sum())
        });
        group.bench_function(format!("naive_gemm_{size}x{size}x{size}"), |bch| {
            bch.iter(|| ops::reference::matmul(&a, &b).unwrap().sum())
        });
    }

    // Quantized i8 GEMM vs the f32 blocked kernel at the same sizes: the
    // qgemm_*/gemm_* pairs track the integer path's speedup (4× smaller
    // working set) across PRs.
    for &size in &GEMM_SIZES {
        let qa: Vec<i8> = (0..size * size).map(|i| ((i * 37) % 255) as i8).collect();
        let qb: Vec<i8> = (0..size * size).map(|i| ((i * 61) % 255) as i8).collect();
        // Keep codes in [-127, 127] (the microkernel's contract).
        let qa: Vec<i8> = qa
            .iter()
            .map(|&c| if c == i8::MIN { 0 } else { c })
            .collect();
        let qb: Vec<i8> = qb
            .iter()
            .map(|&c| if c == i8::MIN { 0 } else { c })
            .collect();
        let mut qc = vec![0i32; size * size];
        group.bench_function(format!("qgemm_{size}x{size}x{size}"), |bch| {
            bch.iter(|| {
                ops::gemm(false, false, size, size, size, &qa, &qb, false, &mut qc);
                qc[0]
            })
        });
    }

    // Runtime dispatch vs pinned kernel tiers at the acceptance-criterion
    // size. `gemm_dispatched_*` must match `gemm_pinned_avx2_*` (same kernel,
    // one cached atomic load of overhead); the portable pin quantifies what
    // the SIMD tiers buy. Tiers the host lacks are skipped.
    {
        let size = 256;
        let a = Tensor::randn(&[size, size], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[size, size], 0.0, 1.0, &mut rng);
        group.bench_function(format!("gemm_dispatched_{size}"), |bch| {
            bch.iter(|| ops::matmul(&a, &b).unwrap().sum())
        });
        let detected = dispatch::detected();
        for tier in [KernelTier::Portable, KernelTier::Avx2, KernelTier::Avx512] {
            if tier > detected {
                continue;
            }
            dispatch::force(tier);
            group.bench_function(format!("gemm_pinned_{}_{size}", tier.name()), |bch| {
                bch.iter(|| ops::matmul(&a, &b).unwrap().sum())
            });
        }
        dispatch::reset();
    }

    // The transposed-product form used by Linear forward and the backward
    // passes, at a typical layer shape.
    let x = Tensor::randn(&[64, 512], 0.0, 1.0, &mut rng);
    let w = Tensor::randn(&[256, 512], 0.0, 1.0, &mut rng);
    group.bench_function("gemm_a_bt_64x512_512x256", |bch| {
        bch.iter(|| ops::matmul_a_bt(&x, &w).unwrap().sum())
    });
    group.bench_function("naive_gemm_a_bt_64x512_512x256", |bch| {
        bch.iter(|| ops::reference::matmul_a_bt(&x, &w).unwrap().sum())
    });

    // Conv forward: the zero-alloc Eval path (a per-image unfold and one
    // blocked GEMM straight into NCHW) against an im2col + naive-matmul
    // composition, then at MicroResNet's block conv on its 24-image test
    // batch (8→8 channels, 3×3, 16×16, no bias).
    let conv_input = Tensor::randn(&[4, 16, 32, 32], 0.0, 1.0, &mut rng);
    let mut conv = Conv2d::new(16, 32, 3, 1, 1, &mut rng);
    group.bench_function("conv2d_forward_eval_16to32_32x32", |bch| {
        bch.iter(|| conv.forward(&conv_input, Mode::Eval).unwrap().sum())
    });
    let conv_weight = conv.weight().value.clone();
    let weight_mat = conv_weight.reshape(&[32, 16 * 3 * 3]).unwrap();
    let spec = *conv.spec();
    group.bench_function("naive_conv2d_forward_16to32_32x32", |bch| {
        bch.iter(|| {
            let cols = invnorm_tensor::conv::im2col(&conv_input, &spec).unwrap();
            ops::reference::matmul_a_bt(&cols, &weight_mat)
                .unwrap()
                .sum()
        })
    });
    let block_input = Tensor::randn(&[24, 8, 16, 16], 0.0, 1.0, &mut rng);
    let mut block_conv = Conv2d::with_bias(8, 8, 3, 1, 1, false, &mut rng);
    group.bench_function("conv2d_forward_eval_8to8_16x16_n24", |bch| {
        bch.iter(|| block_conv.forward(&block_input, Mode::Eval).unwrap().sum())
    });

    // Quantized conv forward: i8 im2col + i8 GEMM + one dequantization,
    // paired with the f32 eval path above.
    let mut qconv = QuantizedConv2d::from_conv2d(&conv, 8).unwrap();
    group.bench_function("qconv2d_forward_eval_16to32_32x32", |bch| {
        bch.iter(|| qconv.forward(&conv_input, Mode::Eval).unwrap().sum())
    });

    // Quantized linear forward vs the float layer at an MLP-ish shape.
    let mut linear = Linear::new(512, 256, &mut rng);
    let lx = Tensor::randn(&[64, 512], 0.0, 1.0, &mut rng);
    group.bench_function("linear_forward_eval_64x512to256", |bch| {
        bch.iter(|| linear.forward(&lx, Mode::Eval).unwrap().sum())
    });
    let mut qlinear = QuantizedLinear::from_linear(&linear, 8).unwrap();
    group.bench_function("qlinear_forward_eval_64x512to256", |bch| {
        bch.iter(|| qlinear.forward(&lx, Mode::Eval).unwrap().sum())
    });

    group.finish();
}

/// Elementwise kernels through the runtime dispatcher vs the scalar
/// libm-based loops they replaced. The `*_vecmath_*` / `*_scalar_*` pairs
/// track what SIMD dispatch buys on memory-bound (relu, normalize) and
/// transcendental-bound (sigmoid, tanh, softmax) elementwise work.
fn bench_elementwise(c: &mut Criterion) {
    let mut rng = Rng::seed_from(7);
    let mut group = c.benchmark_group("elementwise");
    group.sample_size(20);

    const N: usize = 1 << 14;
    let src: Vec<f32> = (0..N).map(|_| rng.normal(0.0, 2.0)).collect();
    let mut dst = vec![0.0f32; N];

    group.bench_function("relu_vecmath_16k", |b| {
        b.iter(|| {
            vecmath::relu(&src, &mut dst);
            dst[0]
        })
    });
    group.bench_function("relu_scalar_16k", |b| {
        b.iter(|| {
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d = s.max(0.0);
            }
            dst[0]
        })
    });

    group.bench_function("sigmoid_vecmath_16k", |b| {
        b.iter(|| {
            vecmath::sigmoid(&src, &mut dst);
            dst[0]
        })
    });
    group.bench_function("sigmoid_scalar_16k", |b| {
        b.iter(|| {
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d = 1.0 / (1.0 + (-s).exp());
            }
            dst[0]
        })
    });

    group.bench_function("tanh_vecmath_16k", |b| {
        b.iter(|| {
            vecmath::tanh(&src, &mut dst);
            dst[0]
        })
    });
    group.bench_function("tanh_scalar_16k", |b| {
        b.iter(|| {
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d = s.tanh();
            }
            dst[0]
        })
    });

    group.bench_function("normalize_affine_vecmath_16k", |b| {
        b.iter(|| {
            vecmath::normalize_affine(&src, &mut dst, 0.1, 0.9, 1.2, -0.3);
            dst[0]
        })
    });
    group.bench_function("normalize_affine_scalar_16k", |b| {
        b.iter(|| {
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d = (s - 0.1) * 0.9 * 1.2 + -0.3;
            }
            dst[0]
        })
    });

    // Full softmax over a classifier-sized logit matrix: the vectorized
    // exp/divide passes vs the all-scalar row loop it replaced.
    let logits = Tensor::randn(&[64, 256], 0.0, 3.0, &mut rng);
    group.bench_function("softmax_rows_vecmath_64x256", |b| {
        b.iter(|| ops::softmax_rows(&logits).unwrap().sum())
    });
    group.bench_function("softmax_rows_scalar_64x256", |b| {
        b.iter(|| {
            let ld = logits.data();
            let mut out = vec![0.0f32; 64 * 256];
            for (row, orow) in ld.chunks_exact(256).zip(out.chunks_exact_mut(256)) {
                let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
                let mut denom = 0.0f32;
                for (o, &v) in orow.iter_mut().zip(row.iter()) {
                    *o = (v - max).exp();
                    denom += *o;
                }
                for o in orow.iter_mut() {
                    *o /= denom;
                }
            }
            out[0]
        })
    });

    group.finish();
}

fn bench_layers(c: &mut Criterion) {
    let mut rng = Rng::seed_from(0);
    let x = Tensor::randn(&[8, 32, 16, 16], 0.0, 1.0, &mut rng);

    let mut group = c.benchmark_group("layer_forward");
    group.sample_size(20);

    let mut inverted = InvertedNorm::new(32, &InvNormConfig::default(), &mut rng).unwrap();
    group.bench_function("inverted_norm_forward", |b| {
        b.iter(|| inverted.forward(&x, Mode::Eval).unwrap().sum())
    });

    let mut batchnorm = BatchNorm::new(32);
    group.bench_function("batch_norm_forward", |b| {
        b.iter(|| batchnorm.forward(&x, Mode::Train).unwrap().sum())
    });

    // Monte-Carlo inference over a small stochastic MLP.
    let mut net = Sequential::new();
    net.push(Box::new(
        InvertedNorm::new(64, &InvNormConfig::default(), &mut rng).unwrap(),
    ));
    net.push(Box::new(Linear::new(64, 10, &mut rng)));
    let inputs = Tensor::randn(&[32, 64], 0.0, 1.0, &mut rng);
    group.bench_function("bayesian_mc_inference_20_passes", |b| {
        b.iter(|| {
            BayesianPredictor::new(20)
                .predict_classification(&mut net, &inputs)
                .unwrap()
                .entropy
                .len()
        })
    });

    // Crossbar analog MVM vs the dense path.
    let weights = Tensor::randn(&[64, 64], 0.0, 0.5, &mut rng);
    let array = CrossbarArray::program(&weights, CrossbarConfig::default(), &mut rng).unwrap();
    let batch = Tensor::randn(&[16, 64], 0.0, 1.0, &mut rng);
    group.bench_function("crossbar_matvec", |b| {
        b.iter(|| array.matvec(&batch).unwrap().sum())
    });
    group.bench_function("dense_matmul_reference", |b| {
        b.iter(|| ops::matmul(&batch, &weights).unwrap().sum())
    });

    group.finish();
}

/// Fault-draw throughput on the linear probe's 512×256 weight: one
/// additive-variation realization through `FaultModel::perturb_into` (keyed
/// draws, pinned to each tier the host has, like `gemm_pinned_*`), the same
/// realization drawn straight into the probe's packed operand
/// (`PackedB::draw_rows`, k = 512 inputs by n = 256 outputs, its scale
/// folded once outside the loop as the planned engine folds it once per
/// operand), and the scalar loop both replaced, one sequential libm
/// Box–Muller per weight. Each point also prints draws/s off its median.
fn bench_inject(c: &mut Criterion) {
    const ROWS: usize = 512;
    const COLS: usize = 256;
    let mut rng = Rng::seed_from(21);
    let src: Vec<f32> = (0..ROWS * COLS).map(|_| rng.normal(0.0, 0.05)).collect();
    let mut dst = vec![0.0f32; src.len()];
    let model = FaultModel::AdditiveVariation { sigma: 0.1 };
    let mut group = c.benchmark_group("inject");
    group.sample_size(20);
    let report = |group: &criterion::BenchmarkGroup<'_>| {
        let stats = group.results().last().expect("a point was just run");
        let per_s = (ROWS * COLS) as f64 / (stats.median_ns * 1e-9);
        println!("{:<40} {:>10.1} Mdraws/s", stats.name, per_s * 1e-6);
    };

    let detected = dispatch::detected();
    for tier in [KernelTier::Portable, KernelTier::Avx2, KernelTier::Avx512] {
        if tier > detected {
            continue;
        }
        dispatch::force(tier);
        group.bench_function(
            format!("inject_additive_{ROWS}x{COLS}_{}", tier.name()),
            |b| {
                b.iter(|| {
                    model
                        .perturb_into(&src, (ROWS, COLS), &mut dst, &mut rng)
                        .unwrap();
                    dst[0]
                })
            },
        );
        report(&group);

        let mut clean = PackedB::new();
        clean.pack(true, &src, ROWS, COLS);
        let mut live = clean.clone();
        let variation = model.keyed_variation(&src).expect("an active keyed model");
        group.bench_function(
            format!("inject_additive_packed_{ROWS}x{COLS}_{}", tier.name()),
            |b| {
                b.iter(|| {
                    live.draw_rows(&clean, 0..COLS, variation, rng.next_u64());
                    live.as_slice()[0]
                })
            },
        );
        report(&group);
    }
    dispatch::reset();

    group.bench_function(format!("inject_additive_scalar_{ROWS}x{COLS}"), |b| {
        b.iter(|| {
            let scale = src.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x.abs()));
            let std = 0.1 * scale.max(1e-12);
            for (d, &s) in dst.iter_mut().zip(&src) {
                *d = s + rng.normal(0.0, std);
            }
            dst[0]
        })
    });
    report(&group);

    group.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_elementwise,
    bench_layers,
    bench_inject
);
criterion_main!(benches);
