//! Integer inference end-to-end: train a float classifier, quantize it to
//! i8 codes, run the forward pass through the integer GEMM, and compare
//! fault robustness between the f32 fault protocol (quantize → perturb →
//! dequantize) and the code-domain protocol (bit flips injected directly
//! into the i8 codes the hardware would program).
//!
//! Run with `cargo run --release --example quantized_inference`.

use invnorm::prelude::*;
use invnorm_nn::activation::Relu;
use invnorm_nn::train::{fit_classifier, TrainConfig};
use invnorm_tensor::ops;

fn accuracy(net: &mut dyn Layer, inputs: &Tensor, labels: &[usize]) -> Result<f32, NnError> {
    let logits = net.forward(inputs, Mode::Eval)?;
    let predicted = ops::argmax_rows(&logits)?;
    let correct = predicted.iter().zip(labels).filter(|(p, l)| p == l).count();
    Ok(correct as f32 / labels.len() as f32)
}

fn main() -> Result<(), NnError> {
    let mut rng = Rng::seed_from(42);

    // ---------------------------------------------------------------- data
    // Two Gaussian blobs in 16 dimensions.
    let samples_per_class = 96usize;
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for class in 0..2usize {
        let center = if class == 0 { -0.35 } else { 0.35 };
        for _ in 0..samples_per_class {
            rows.push(Tensor::randn(&[16], center, 1.0, &mut rng));
            labels.push(class);
        }
    }
    let inputs = Tensor::stack(&rows)?;

    // ------------------------------------------------- train a float model
    let l1 = Linear::new(16, 24, &mut rng);
    let l2 = Linear::new(24, 2, &mut rng);
    // Quantization happens post-training; keep handles by rebuilding below.
    let mut net = Sequential::new();
    net.push(Box::new(l1));
    net.push(Box::new(Relu::new()));
    net.push(Box::new(l2));
    let mut optimizer = Adam::new(0.01);
    fit_classifier(
        &mut net,
        &mut optimizer,
        &inputs,
        &labels,
        &TrainConfig {
            epochs: 25,
            batch_size: 16,
            ..TrainConfig::default()
        },
    )?;
    let float_acc = accuracy(&mut net, &inputs, &labels)?;
    println!("float model accuracy:      {:.2}%", 100.0 * float_acc);

    // -------------------------------------- quantize to integer inference
    // Rebuild the quantized twin from the trained layers: weights become
    // packed i8 codes (per-output-channel scales); the forward pass runs
    // i8 activations × i8 weights → i32 through the blocked integer GEMM
    // and dequantizes once per layer.
    let mut qnet = Sequential::new();
    {
        // Walk the trained parameters back out of the container.
        let mut trained: Vec<Tensor> = Vec::new();
        net.visit_params(&mut |p| trained.push(p.value.clone()));
        let mut rebuild = Rng::seed_from(0);
        let mut fl1 = Linear::new(16, 24, &mut rebuild);
        let mut fl2 = Linear::new(24, 2, &mut rebuild);
        let mut it = trained.into_iter();
        fl1.visit_params(&mut |p| p.value = it.next().expect("l1 params"));
        fl2.visit_params(&mut |p| p.value = it.next().expect("l2 params"));
        qnet.push(Box::new(QuantizedLinear::from_linear(&fl1, 8)?));
        qnet.push(Box::new(Relu::new()));
        qnet.push(Box::new(QuantizedLinear::from_linear(&fl2, 8)?));
    }
    let quant_acc = accuracy(&mut qnet, &inputs, &labels)?;
    println!("8-bit integer accuracy:    {:.2}%", 100.0 * quant_acc);
    // Self-verification: the separable blobs must be learned nearly
    // perfectly, and 8-bit quantization must not cost more than 5 points.
    assert!(float_acc > 0.9, "float accuracy {float_acc:.3} too low");
    assert!(
        quant_acc >= float_acc - 0.05,
        "quantization lost too much accuracy ({float_acc:.3} -> {quant_acc:.3})"
    );

    // ------------------------- fault robustness: f32 vs code-domain path
    let engine = MonteCarloEngine::new(25, 7);
    println!("bit-flip robustness, {} chip instances:", engine.runs());
    let mut prev_float = 1.0f32;
    let mut prev_quant = 1.0f32;
    for rate in [0.05f32, 0.15, 0.30] {
        let fault = FaultModel::BitFlip { rate, bits: 8 };
        let (inputs_ref, labels_ref) = (&inputs, &labels);
        let float_summary = engine.run(&mut net, fault, |network| {
            accuracy(network, inputs_ref, labels_ref)
        })?;
        let quant_summary = engine
            .run_supervised(
                SweepDomain::Codes,
                &mut qnet,
                fault,
                |network| accuracy(network, inputs_ref, labels_ref),
                &SweepControl::new(),
            )?
            .into_summary()?;
        println!(
            "  rate {:>4.1}%  f32-path {:.2}% ± {:.2}%   code-domain {:.2}% ± {:.2}%",
            100.0 * rate,
            100.0 * float_summary.mean,
            100.0 * float_summary.std,
            100.0 * quant_summary.mean,
            100.0 * quant_summary.std,
        );
        // Self-verification: raising the flip rate must keep degrading both
        // protocols (allowing a small Monte-Carlo wobble).
        assert!(
            float_summary.mean < prev_float + 0.02 && quant_summary.mean < prev_quant + 0.02,
            "bit-flip rate {rate} did not degrade accuracy"
        );
        prev_float = float_summary.mean;
        prev_quant = quant_summary.mean;
    }
    Ok(())
}
