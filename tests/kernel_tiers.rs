//! Bit-identity test matrix across forced SIMD kernel tiers.
//!
//! The runtime dispatcher (`invnorm_tensor::dispatch`) makes the kernel tier
//! the *only* reproducibility boundary of the stack. These tests pin each
//! tier with `dispatch::force` and verify the contract end to end:
//!
//! * f32 GEMM matches a naive oracle on every tier, and the AVX2 and AVX-512
//!   kernels (which share the same per-element FMA accumulation order) are
//!   **bit-identical to each other** — portable is the one divergent tier.
//! * Quantized GEMM is exact integer arithmetic and therefore bit-identical
//!   across **all** tiers.
//! * The `vecmath` elementwise kernels are per-lane and bit-identical across
//!   all tiers.
//! * A Monte-Carlo sweep under `force(Portable)` and `force(Avx2)` is
//!   internally bit-identical across both engines, batch sizes and thread
//!   counts, and each summary records the tier it executed under.
//!
//! The AVX-512 column of the matrix runs when the host supports it and is
//! skipped **loudly** (a stderr note) otherwise.
//!
//! `dispatch::force` is process-global, so every test here serializes on one
//! mutex and restores detection-based dispatch before releasing it.

use std::sync::{Mutex, MutexGuard};

use invnorm::prelude::*;
use invnorm_nn::activation::{Relu, Sigmoid};
use invnorm_nn::conv::Conv2d;
use invnorm_nn::norm::GroupNorm;
use invnorm_nn::pool::MaxPool2d;
use invnorm_nn::reshape::Flatten;
use invnorm_tensor::dispatch::{self, KernelTier};
use invnorm_tensor::{gemm, vecmath};

/// Serializes all tests in this binary: the forced tier is process-global.
static TIER_LOCK: Mutex<()> = Mutex::new(());

fn tier_lock() -> MutexGuard<'static, ()> {
    TIER_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Restores detection/env-based dispatch when a test exits (also on panic).
struct ResetOnDrop;

impl Drop for ResetOnDrop {
    fn drop(&mut self) {
        dispatch::reset();
    }
}

/// The tiers this host can execute, loudly noting a skipped AVX-512 column.
fn testable_tiers() -> Vec<KernelTier> {
    let mut tiers = vec![KernelTier::Portable];
    let detected = dispatch::detected();
    for tier in [KernelTier::Avx2, KernelTier::Avx512] {
        if tier <= detected {
            tiers.push(tier);
        } else {
            eprintln!(
                "kernel_tiers: SKIPPING {} tests — host only supports {}",
                tier.name(),
                detected.name()
            );
        }
    }
    tiers
}

/// Naive f64-accumulated matmul oracle (independent of every kernel).
fn matmul_oracle(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for p in 0..k {
                acc += f64::from(a[i * k + p]) * f64::from(b[p * n + j]);
            }
            out[i * n + j] = acc as f32;
        }
    }
    out
}

/// Naive integer GEMM oracle.
fn qmatmul_oracle(m: usize, n: usize, k: usize, a: &[i8], b: &[i8]) -> Vec<i32> {
    let mut out = vec![0i32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i32;
            for p in 0..k {
                acc += i32::from(a[i * k + p]) * i32::from(b[p * n + j]);
            }
            out[i * n + j] = acc;
        }
    }
    out
}

#[test]
fn f32_gemm_matches_oracle_on_every_tier_and_fma_tiers_agree_bitwise() {
    let _guard = tier_lock();
    let _restore = ResetOnDrop;
    let mut rng = Rng::seed_from(0xF32);
    let shapes = [
        (1usize, 1usize, 1usize),
        (7, 13, 5),
        (33, 65, 17),
        (130, 47, 300),
    ];
    for &(m, n, k) in &shapes {
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal(0.0, 1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal(0.0, 1.0)).collect();
        let oracle = matmul_oracle(m, n, k, &a, &b);
        let mut per_tier: Vec<(KernelTier, Vec<f32>)> = Vec::new();
        for tier in testable_tiers() {
            dispatch::force(tier);
            let mut c = vec![0.0f32; m * n];
            gemm::gemm(false, false, m, n, k, &a, &b, false, &mut c);
            for (i, (&got, &want)) in c.iter().zip(oracle.iter()).enumerate() {
                assert!(
                    (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                    "{} gemm {m}x{n}x{k} [{i}]: {got} vs oracle {want}",
                    tier.name()
                );
            }
            per_tier.push((tier, c));
        }
        // AVX2 and AVX-512 share the accumulation order: bit-identical.
        let find = |t: KernelTier| per_tier.iter().find(|(tt, _)| *tt == t).map(|(_, c)| c);
        if let (Some(c2), Some(c512)) = (find(KernelTier::Avx2), find(KernelTier::Avx512)) {
            let same = c2
                .iter()
                .zip(c512.iter())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(
                same,
                "avx2 and avx512 f32 gemm must agree bitwise ({m}x{n}x{k})"
            );
        }
    }
}

#[test]
fn qgemm_is_bit_exact_across_all_tiers() {
    let _guard = tier_lock();
    let _restore = ResetOnDrop;
    let mut rng = Rng::seed_from(0x18);
    let shapes = [
        (1usize, 1usize, 1usize),
        (5, 33, 130),
        (13, 29, 31),
        (130, 9, 270),
    ];
    for &(m, n, k) in &shapes {
        let a: Vec<i8> = (0..m * k)
            .map(|_| (rng.normal(0.0, 48.0).round().clamp(-127.0, 127.0)) as i8)
            .collect();
        let b: Vec<i8> = (0..k * n)
            .map(|_| (rng.normal(0.0, 48.0).round().clamp(-127.0, 127.0)) as i8)
            .collect();
        let oracle = qmatmul_oracle(m, n, k, &a, &b);
        for tier in testable_tiers() {
            dispatch::force(tier);
            let mut c = vec![0i32; m * n];
            gemm::gemm(false, false, m, n, k, &a, &b, false, &mut c);
            assert_eq!(c, oracle, "{} i8 gemm {m}x{n}x{k}", tier.name());
        }
    }
}

#[test]
fn vecmath_is_bit_identical_across_all_tiers() {
    let _guard = tier_lock();
    let _restore = ResetOnDrop;
    let mut rng = Rng::seed_from(0x7EC);
    let src: Vec<f32> = (0..1031).map(|_| rng.normal(0.0, 3.0)).collect();
    let run_all = || {
        let n = src.len();
        let mut out = Vec::new();
        let mut buf = vec![0.0f32; n];
        vecmath::relu(&src, &mut buf);
        out.push(buf.clone());
        vecmath::leaky_relu(&src, &mut buf, 0.01);
        out.push(buf.clone());
        vecmath::hardtanh(&src, &mut buf);
        out.push(buf.clone());
        vecmath::sign_ste(&src, &mut buf);
        out.push(buf.clone());
        vecmath::sigmoid(&src, &mut buf);
        out.push(buf.clone());
        vecmath::tanh(&src, &mut buf);
        out.push(buf.clone());
        vecmath::exp_sub(&src, &mut buf, 1.5);
        let denom = buf.iter().sum::<f32>();
        vecmath::div_scalar_mut(&mut buf, denom);
        out.push(buf.clone());
        vecmath::normalize_affine(&src, &mut buf, 0.2, 1.3, 0.9, -0.1);
        out.push(buf.clone());
        vecmath::add_normal(&src, &mut buf, 0.3, 0x5EED, 3);
        out.push(buf.clone());
        vecmath::scale_normal(&src, &mut buf, 0.3, 0x5EED, 3);
        out.push(buf.clone());
        // Packed-strip draws: 40 lanes (a partial lane group at the end),
        // 134 k-steps (past one 64-pair staging block), full and partial
        // lane ranges.
        let strip: Vec<f32> = src.iter().cycle().take(40 * 134).copied().collect();
        for (variation, lanes) in [
            (vecmath::NormalVariation::Additive { std: 0.3 }, 0..40),
            (
                vecmath::NormalVariation::Multiplicative { sigma: 0.3 },
                3..29,
            ),
        ] {
            let mut live = vec![0.0f32; strip.len()];
            vecmath::normal_strip(variation, &strip, &mut live, 40, lanes, 0x5EED, 5, 17);
            out.push(live);
        }
        out
    };
    let mut baseline: Option<(KernelTier, Vec<Vec<f32>>)> = None;
    for tier in testable_tiers() {
        dispatch::force(tier);
        let got = run_all();
        match &baseline {
            None => baseline = Some((tier, got)),
            Some((base_tier, base)) => {
                for (op, (b, g)) in base.iter().zip(got.iter()).enumerate() {
                    let same = b
                        .iter()
                        .zip(g.iter())
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(
                        same,
                        "vecmath op #{op}: {} and {} disagree bitwise",
                        base_tier.name(),
                        tier.name()
                    );
                }
            }
        }
    }
}

/// A small plannable CNN exercising GEMM (conv im2col + linear), the
/// vectorized ReLU/sigmoid activations and the GroupNorm normalize pass.
fn cnn(seed: u64) -> Sequential {
    let mut rng = Rng::seed_from(seed);
    Sequential::new()
        .with(Box::new(Conv2d::new(2, 4, 3, 1, 1, &mut rng)))
        .with(Box::new(GroupNorm::new(4, 2).unwrap()))
        .with(Box::new(Relu::new()))
        .with(Box::new(MaxPool2d::new(2)))
        .with(Box::new(Flatten::new()))
        .with(Box::new(Linear::new(4 * 4 * 4, 3, &mut rng)))
        .with(Box::new(Sigmoid::new()))
}

/// Under each forced tier, the sequential oracle and the planned engine at
/// several batch sizes and thread counts agree bit for bit, and every
/// summary records the tier. The stacked sweeps stack what the rule picks
/// from that tier's microkernel width (the first conv is 4 wide).
#[test]
fn engine_ladder_is_internally_bit_identical_under_each_forced_tier() {
    let _guard = tier_lock();
    let _restore = ResetOnDrop;
    Telemetry::enable();
    let x = Tensor::randn(&[2, 2, 8, 8], 0.0, 1.0, &mut Rng::seed_from(11));
    let engine = MonteCarloEngine::new(4, 0x5EED);
    let fault = FaultModel::AdditiveVariation { sigma: 0.3 };
    let metric = |out: &Tensor| Ok(out.abs().mean());
    for tier in testable_tiers() {
        dispatch::force(tier);
        let xc = x.clone();
        let mut net = cnn(23);
        let sequential = engine
            .run(&mut net, fault, |n| {
                Ok(n.forward(&xc, Mode::Eval)?.abs().mean())
            })
            .unwrap();
        let on = |batch, threads| {
            let sweep = Sweep {
                batch,
                threads,
                ..Sweep::new(|| cnn(23), fault, &x, metric)
            };
            engine
                .execute(&sweep, &SweepControl::new())
                .and_then(SweepOutcome::into_summary)
                .unwrap()
        };
        let planned_t3 = on(1, 3);
        let planned = on(1, 2);
        let fused = on(2, 2);
        let wide = on(4, 1);
        // `min(batch, ceil(runs / threads), ceil(NR / 4))`: 2, then 4, 4
        // and 2 on AVX-512, AVX2 and portable.
        for (s, expected) in [
            (&fused, 2),
            (&wide, gemm::nr::<f32>(tier).div_ceil(4).min(4)),
        ] {
            let stack = s.telemetry.as_ref().and_then(|t| t.plan).map(|p| p.stack);
            assert_eq!(stack, Some(expected), "{} tier", tier.name());
        }
        // Every summary records the forced tier as its provenance.
        for (name, s) in [
            ("run", &sequential),
            ("planned batch=1 threads=3", &planned_t3),
            ("planned batch=1", &planned),
            ("planned batch=2", &fused),
            ("planned batch=4", &wide),
        ] {
            assert_eq!(
                s.kernel_tier,
                tier.name(),
                "{name} summary must record the forced tier"
            );
            assert_eq!(s.per_run.len(), 4, "{name} run count");
        }
        // Within the tier, both engines (different batch sizes and thread
        // counts included) produce bit-identical per-run metrics.
        for (name, s) in [
            ("planned batch=1 threads=3", &planned_t3),
            ("planned batch=1", &planned),
            ("planned batch=2", &fused),
            ("planned batch=4", &wide),
        ] {
            let same = sequential
                .per_run
                .iter()
                .zip(s.per_run.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                same,
                "{} tier: {name} diverges from sequential: {:?} vs {:?}",
                tier.name(),
                sequential.per_run,
                s.per_run
            );
        }
    }
}

#[test]
fn forced_tier_survives_reset_and_redetection() {
    let _guard = tier_lock();
    let _restore = ResetOnDrop;
    dispatch::force(KernelTier::Portable);
    assert_eq!(dispatch::active(), KernelTier::Portable);
    dispatch::reset();
    // After reset, detection (possibly clamped by the environment) wins
    // again; whatever it picks must be within the host's capability.
    assert!(dispatch::active() <= dispatch::detected());
}
