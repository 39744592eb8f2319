//! Distributional conformance of the Gaussian fault draws.
//!
//! The engine tests prove that every realization path makes the *same*
//! draws; these tests prove the draws have the distribution the fault
//! model names. Every check reads a realized standard normal `z` back out
//! of a perturbed tensor and holds it to a bound derived from the sample
//! size alone: five standard errors for moments and tail rates, and
//! `4 / √n` for correlations between streams. The seeds are fixed, so a
//! pass is reproducible, and no bound depends on which generator made the
//! draws.

use invnorm_imc::{CodeFaultInjector, FaultModel, MonteCarloEngine, WeightFaultInjector};
use invnorm_nn::layer::Layer;
use invnorm_nn::linear::Linear;
use invnorm_nn::quantized::QuantizedLinear;
use invnorm_nn::Sequential;
use invnorm_tensor::{Rng, Tensor};

/// Elements per drawn parameter (one 512 → 256 weight matrix).
const N: usize = 1 << 17;

/// Width of every moment and rate bound, in standard errors.
const SE: f64 = 5.0;

/// `P(|z| > 2)` and `P(|z| > 3)` for a standard normal.
const TAILS: [(f64, f64); 2] = [
    (2.0, 0.045_500_263_896_358_4),
    (3.0, 0.002_699_796_063_260_2),
];

fn mean(x: &[f64]) -> f64 {
    x.iter().sum::<f64>() / x.len() as f64
}

fn variance(x: &[f64]) -> f64 {
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (x.len() - 1) as f64
}

/// Pearson correlation of two equally long samples.
fn correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let (ma, mb) = (mean(a), mean(b));
    let (mut ab, mut aa, mut bb) = (0.0, 0.0, 0.0);
    for (x, y) in a.iter().zip(b) {
        ab += (x - ma) * (y - mb);
        aa += (x - ma) * (x - ma);
        bb += (y - mb) * (y - mb);
    }
    ab / (aa * bb).sqrt()
}

/// Under independence a sample correlation has standard error `1 / √n`.
fn assert_uncorrelated(a: &[f64], b: &[f64], what: &str) {
    let rho = correlation(a, b);
    let bound = 4.0 / (a.len() as f64).sqrt();
    assert!(rho.abs() < bound, "{what}: |ρ| = {rho:.5} ≥ {bound:.5}");
}

/// Mean, standard deviation and two-sided tail rates of `z` against a
/// standard normal, each within [`SE`] standard errors for `n = z.len()`.
/// Neighbouring draws must also be uncorrelated.
fn assert_standard_normal(z: &[f64], what: &str) {
    let n = z.len() as f64;
    let m = mean(z);
    assert!(m.abs() < SE / n.sqrt(), "{what}: mean {m:.5}");
    // The sample standard deviation of normal data has standard error
    // 1 / √(2n).
    let sd = variance(z).sqrt();
    assert!(
        (sd - 1.0).abs() < SE / (2.0 * n).sqrt(),
        "{what}: standard deviation {sd:.5}"
    );
    for (t, p) in TAILS {
        let rate = z.iter().filter(|v| v.abs() > t).count() as f64 / n;
        let bound = SE * (p * (1.0 - p) / n).sqrt();
        assert!(
            (rate - p).abs() < bound,
            "{what}: P(|z| > {t}) = {rate:.5}, expected {p:.5} ± {bound:.5}"
        );
    }
    assert_uncorrelated(&z[..z.len() - 1], &z[1..], &format!("{what}, lag 1"));
}

/// `n` weights with magnitudes in [0.5, 1.5] and random signs: no zero
/// weight hides a multiplicative draw, and `w' / w − 1` stays well
/// conditioned.
fn signed_magnitudes(n: usize, rng: &mut Rng) -> Vec<f32> {
    (0..n)
        .map(|_| {
            let m = rng.uniform_range(0.5, 1.5);
            if rng.bernoulli(0.5) {
                -m
            } else {
                m
            }
        })
        .collect()
}

/// The standard normals a realization of `model` drew, read back per
/// weight: `(w' − w) / (σ·max|w|)` for additive variation and
/// `(w' / w − 1) / σ` for multiplicative variation.
fn drawn_z(model: FaultModel, clean: &Tensor, faulty: &Tensor) -> Vec<f64> {
    let pairs = clean.data().iter().zip(faulty.data());
    match model {
        FaultModel::AdditiveVariation { sigma } => {
            let scale = clean.data().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let std = f64::from(sigma * scale);
            pairs
                .map(|(&w, &p)| (f64::from(p) - f64::from(w)) / std)
                .collect()
        }
        FaultModel::MultiplicativeVariation { sigma } => pairs
            .map(|(&w, &p)| (f64::from(p) / f64::from(w) - 1.0) / f64::from(sigma))
            .collect(),
        other => panic!("{other:?} draws no Gaussian"),
    }
}

#[test]
fn variation_models_draw_standard_normals() {
    let mut rng = Rng::seed_from(0xA1);
    let w = Tensor::from_vec(signed_magnitudes(N, &mut rng), &[512, 256]).unwrap();
    for (model, seed) in [
        (FaultModel::AdditiveVariation { sigma: 0.25 }, 0xA2),
        (FaultModel::MultiplicativeVariation { sigma: 0.2 }, 0xA3),
    ] {
        let p = model.perturb(&w, &mut Rng::seed_from(seed)).unwrap();
        assert_standard_normal(&drawn_z(model, &w, &p), &model.label());
    }
}

/// A quantized 512 → 256 layer whose 2¹⁷ codes are overwritten with
/// `code(i)`, so the test controls how far every code sits from ±qmax.
fn quantized_layer(code: impl Fn(usize) -> i8) -> Sequential {
    let linear = Linear::new(512, 256, &mut Rng::seed_from(0xC0));
    let mut net = Sequential::new();
    net.push(Box::new(QuantizedLinear::from_linear(&linear, 8).unwrap()));
    net.visit_codes(&mut |view| {
        for (i, c) in view.codes.iter_mut().enumerate() {
            *c = code(i);
        }
    });
    net
}

fn codes_of(net: &mut Sequential) -> Vec<i8> {
    let mut codes = Vec::new();
    net.visit_codes(&mut |view| codes.extend_from_slice(view.codes));
    codes
}

/// Injects `model` into the codes and returns every code's change.
fn code_deltas(net: &mut Sequential, model: FaultModel, seed: u64) -> Vec<f64> {
    let clean = codes_of(net);
    let mut injector = CodeFaultInjector::new(model).unwrap();
    injector.inject(net, &mut Rng::seed_from(seed)).unwrap();
    let faulty = codes_of(net);
    injector.restore(net).unwrap();
    clean
        .iter()
        .zip(&faulty)
        .map(|(&c, &f)| f64::from(f) - f64::from(c))
        .collect()
}

/// Rounding a continuous `N(0, s²)` change to whole codes adds Sheppard's
/// `1/12`: the variance of the code change is `s² + 1/12`, whose sample
/// estimate has standard error `√2 · (s² + 1/12) / √n` for near-normal data.
fn assert_code_variance(delta: &[f64], s: f64, what: &str) {
    assert_eq!(delta.len(), N);
    let expected = s * s + 1.0 / 12.0;
    let got = variance(delta);
    let bound = SE * expected * (2.0 / N as f64).sqrt();
    assert!(
        (got - expected).abs() < bound,
        "{what}: Var(Δc) = {got:.4}, expected {expected:.4} ± {bound:.4}"
    );
    let m = mean(delta);
    assert!(
        m.abs() < SE * expected.sqrt() / (N as f64).sqrt(),
        "{what}: mean Δc {m:.4}"
    );
}

#[test]
fn code_domain_variation_matches_its_nominal_variance() {
    // At 8 bits qmax = 127. Additive σ = 0.01 gives s = 1.27 code units,
    // where the 1/12 rounding term is resolvable; clean codes in [-40, 40]
    // plus at most 5.8·s + ½ stay far from ±127, so the clamp never binds.
    let qmax = 127.0;
    let sigma = 0.01;
    let mut net = quantized_layer(|i| (i % 81) as i8 - 40);
    let delta = code_deltas(&mut net, FaultModel::AdditiveVariation { sigma }, 0xC1);
    assert_code_variance(&delta, f64::from(sigma) * qmax, "code additive");

    // Multiplicative: every code is ±16, so the change is 16·σ·z rounded;
    // σ = 0.1 gives s = 1.6 and |c'| ≤ 16 + 10 < 127.
    let sigma = 0.1;
    let mut net = quantized_layer(|i| if i % 2 == 0 { 16 } else { -16 });
    let delta = code_deltas(
        &mut net,
        FaultModel::MultiplicativeVariation { sigma },
        0xC2,
    );
    assert_code_variance(&delta, f64::from(sigma) * 16.0, "code multiplicative");
}

/// Two float layers with 2¹⁷ weights each (rank 2, so both are targeted),
/// refilled by [`signed_magnitudes`].
fn two_layer_network() -> Sequential {
    let mut rng = Rng::seed_from(0xD0);
    let mut net = Sequential::new();
    net.push(Box::new(Linear::new(512, 256, &mut rng)));
    net.push(Box::new(Linear::new(256, 512, &mut rng)));
    net.visit_params(&mut |p| {
        if p.value.rank() >= 2 {
            let values = signed_magnitudes(p.value.numel(), &mut rng);
            p.value.data_mut().copy_from_slice(&values);
        }
    });
    net
}

fn weight_matrices(net: &mut Sequential) -> Vec<Tensor> {
    let mut out = Vec::new();
    net.visit_params(&mut |p| {
        if p.value.rank() >= 2 {
            out.push(p.value.clone());
        }
    });
    out
}

#[test]
fn two_parameters_draw_independent_streams() {
    for model in [
        FaultModel::AdditiveVariation { sigma: 0.25 },
        FaultModel::MultiplicativeVariation { sigma: 0.25 },
    ] {
        let mut net = two_layer_network();
        let clean = weight_matrices(&mut net);
        let mut injector = WeightFaultInjector::new(model).unwrap();
        injector
            .inject(&mut net, &mut Rng::seed_from(0xD1))
            .unwrap();
        let faulty = weight_matrices(&mut net);
        injector.restore(&mut net).unwrap();
        assert_eq!((clean.len(), clean[0].numel(), clean[1].numel()), (2, N, N));
        let z0 = drawn_z(model, &clean[0], &faulty[0]);
        let z1 = drawn_z(model, &clean[1], &faulty[1]);
        assert_uncorrelated(&z0, &z1, &format!("{}: parameters 0 and 1", model.label()));
    }
}

#[test]
fn two_runs_draw_independent_streams() {
    for model in [
        FaultModel::AdditiveVariation { sigma: 0.25 },
        FaultModel::MultiplicativeVariation { sigma: 0.25 },
    ] {
        let mut net = two_layer_network();
        let clean = weight_matrices(&mut net).swap_remove(0);
        let mut realized = Vec::new();
        MonteCarloEngine::new(2, 0xE1)
            .run(&mut net, model, |faulty| {
                realized.push(weight_matrices(faulty).swap_remove(0));
                Ok(0.0)
            })
            .unwrap();
        assert_eq!(realized.len(), 2);
        let z0 = drawn_z(model, &clean, &realized[0]);
        let z1 = drawn_z(model, &clean, &realized[1]);
        assert_standard_normal(&z1, &format!("{}: run 1", model.label()));
        assert_uncorrelated(&z0, &z1, &format!("{}: runs 0 and 1", model.label()));
    }
}
