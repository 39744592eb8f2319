//! Integer-domain inference layers: [`QuantizedLinear`] and
//! [`QuantizedConv2d`].
//!
//! These are the eval-path counterparts of [`crate::linear::Linear`] and
//! [`crate::conv::Conv2d`] for crossbar-mapped deployment: weights live as
//! packed i8 quantization codes with one symmetric scale per output channel,
//! activations are dynamically quantized to i8 at the layer boundary, and
//! the matrix product runs through the blocked GEMM over i8 codes into i32
//! accumulators ([`invnorm_tensor::gemm`], whose integer microkernels live
//! in [`invnorm_tensor::qgemm`]) — the forward pass stays in the integer
//! domain from the input codes to the i32 accumulators and only
//! requantizes/dequantizes once, at the layer output:
//!
//! ```text
//! x (f32) ──quantize──▶ i8 codes ──im2col──▶ i8 patches ──qgemm──▶ i32
//!                                                                   │
//! y (f32) ◀── +bias ◀── (acc · s_x) · s_w[channel] ◀──dequantize────┘
//! ```
//!
//! The last step, dequantize plus bias into the output layout, is the one
//! store every GEMM layer shares ([`invnorm_tensor::epilogue::store`]). In a
//! compiled plan both layers run as a [`crate::plan::GemmNode`] over i8
//! codes, like their f32 counterparts over weights: the node owns the
//! frozen-input cache, the GEMMs and the store, and each layer only builds
//! its A operand from one realization's input tile — the tile's codes, or
//! the patch matrix of those codes, quantized at the tile's own dynamic
//! scale or the calibrated one.
//!
//! The i8 weight codes are exposed through [`crate::layer::Layer::visit_codes`],
//! which is where the code-domain fault injection of `invnorm-imc` perturbs
//! them — bit flips land on exactly the integers the hardware programs,
//! instead of being emulated by a quantize → flip → dequantize round trip.
//!
//! Both layers are **inference-only**: `backward` returns an error.
//! Quantization-aware training is served by `invnorm-quant`'s fake
//! quantization instead.

use crate::error::NnError;
use crate::layer::{CodeView, Layer, Mode};
use crate::plan::{check_gemm_input, GemmNode, PlanArenas, PlanCtx, PlanShape};
use crate::Result;
use invnorm_tensor::conv::{conv_out_shape, im2col_slice_into, Conv2dSpec};
use invnorm_tensor::epilogue::{store, OutputMap};
use invnorm_tensor::gemm::gemm_with_scratch;
use invnorm_tensor::scratch::uninit_slice;
use invnorm_tensor::{Scratch, Tensor};

/// Largest i8 code magnitude; also the fixed bit-width ceiling of the packed
/// storage.
const QMAX8: i32 = 127;

/// Largest positive code for a bit width.
fn qmax_for(bits: u8) -> i32 {
    (1i32 << (bits - 1)) - 1
}

/// Per-output-channel symmetric quantization of a `[channels, cols]`-shaped
/// weight slice to `bits`-bit codes stored as packed i8.
fn quantize_rows(data: &[f32], channels: usize, bits: u8) -> (Vec<i8>, Vec<f32>) {
    let qmax = qmax_for(bits) as f32;
    let cols = data.len() / channels;
    let mut codes = vec![0i8; data.len()];
    let mut scales = vec![1.0f32; channels];
    for ch in 0..channels {
        let row = &data[ch * cols..(ch + 1) * cols];
        let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let scale = if max_abs > 0.0 { max_abs / qmax } else { 1.0 };
        scales[ch] = scale;
        for (dst, &x) in codes[ch * cols..(ch + 1) * cols].iter_mut().zip(row) {
            *dst = (x / scale).round().clamp(-qmax, qmax) as i8;
        }
    }
    (codes, scales)
}

/// Symmetric i8 activation scale for a maximum absolute value.
fn scale_for_max_abs(max_abs: f32) -> f32 {
    if max_abs > 0.0 {
        max_abs / QMAX8 as f32
    } else {
        1.0
    }
}

/// Maximum absolute value of an activation slice (the max-abs pass a
/// calibrated static scale skips).
fn max_abs(data: &[f32]) -> f32 {
    data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// Quantizes an activation slice to i8 codes with a fixed symmetric scale.
fn quantize_with_scale(data: &[f32], scale: f32, out: &mut [i8]) {
    for (dst, &x) in out.iter_mut().zip(data) {
        *dst = (x / scale).round().clamp(-(QMAX8 as f32), QMAX8 as f32) as i8;
    }
}

/// Dynamic symmetric per-tensor quantization of an activation slice into a
/// reusable i8 buffer; returns the scale. With `calibrated` set, the max-abs
/// pass is skipped and the static scale is used instead.
fn quantize_activations(data: &[f32], calibrated: Option<f32>, out: &mut [i8]) -> f32 {
    let scale = calibrated.unwrap_or_else(|| scale_for_max_abs(max_abs(data)));
    quantize_with_scale(data, scale, out);
    scale
}

fn check_bits(bits: u8) -> Result<()> {
    if !(2..=8).contains(&bits) {
        return Err(NnError::Config(format!(
            "quantized layers support 2-8 bit weights (packed i8 storage), got {bits}"
        )));
    }
    Ok(())
}

/// A fully connected layer computing `y = x Wᵀ + b` entirely in the integer
/// domain: `W` is stored as `bits`-bit codes (packed i8, one scale per
/// output channel), `x` is dynamically quantized to i8, and the product is
/// an exact i8×i8→i32 GEMM dequantized once at the output.
#[derive(Debug)]
pub struct QuantizedLinear {
    in_features: usize,
    out_features: usize,
    codes: Vec<i8>,
    scales: Vec<f32>,
    bias: Option<Tensor>,
    bits: u8,
    act_scale: Option<f32>,
    // Reusable buffers: input codes, i32 accumulators, GEMM packing.
    qin: Vec<i8>,
    acc: Vec<i32>,
    scratch: Scratch,
    plan: Option<GemmNode<i8>>,
}

impl QuantizedLinear {
    /// Quantizes a float [`crate::linear::Linear`] layer's weights to
    /// `bits`-bit codes (per-output-channel scales). The bias stays f32 — it
    /// is added after dequantization, matching crossbar deployments where
    /// biases are applied digitally.
    ///
    /// # Errors
    ///
    /// Returns an error when `bits` is outside `[2, 8]`.
    pub fn from_linear(linear: &crate::linear::Linear, bits: u8) -> Result<Self> {
        check_bits(bits)?;
        let (out_features, in_features) = (linear.out_features(), linear.in_features());
        let (codes, scales) = quantize_rows(linear.weight().value.data(), out_features, bits);
        Ok(Self {
            in_features,
            out_features,
            codes,
            scales,
            bias: linear.bias().map(|b| b.value.clone()),
            bits,
            act_scale: None,
            qin: Vec::new(),
            acc: Vec::new(),
            scratch: Scratch::new(),
            plan: None,
        })
    }

    /// Records a **static activation scale** from a calibration batch: the
    /// batch's maximum absolute value becomes the fixed symmetric scale, and
    /// every subsequent forward pass skips the per-batch max-abs pass.
    /// Returns the recorded scale.
    ///
    /// # Errors
    ///
    /// Returns an error when the sample is not `[N, in_features]`.
    pub fn calibrate(&mut self, sample: &Tensor) -> Result<f32> {
        let what = "QuantizedLinear calibration";
        check_gemm_input(what, sample.dims(), 2, self.in_features, 1)?;
        let scale = scale_for_max_abs(max_abs(sample.data()));
        self.act_scale = Some(scale);
        Ok(scale)
    }

    /// The calibrated static activation scale, if any.
    pub fn activation_scale(&self) -> Option<f32> {
        self.act_scale
    }

    /// Reverts to dynamic per-batch activation quantization.
    pub fn clear_calibration(&mut self) {
        self.act_scale = None;
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The weight bit width.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The per-output-channel weight scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The packed i8 weight codes (`[out, in]`, row-major).
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// The effective (dequantized) weight matrix, for inspection in tests.
    pub fn dequantized_weight(&self) -> Tensor {
        let data: Vec<f32> = self
            .codes
            .iter()
            .enumerate()
            .map(|(i, &c)| f32::from(c) * self.scales[i / self.in_features])
            .collect();
        Tensor::from_vec(data, &[self.out_features, self.in_features])
            .expect("codes match [out, in]")
    }
}

impl Layer for QuantizedLinear {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
        check_gemm_input("QuantizedLinear", input.dims(), 2, self.in_features, 1)?;
        let (n, fin, fout) = (input.dims()[0], self.in_features, self.out_features);
        let qin = uninit_slice(&mut self.qin, n * fin);
        let sx = quantize_activations(input.data(), self.act_scale, qin);
        let acc = uninit_slice(&mut self.acc, n * fout);
        let (codes, scratch) = (&self.codes, &mut self.scratch);
        gemm_with_scratch(false, true, n, fout, fin, qin, codes, false, acc, scratch);
        // Dequantize into the output; bias is digital f32.
        let mut out = vec![0.0f32; n * fout];
        let bias = self.bias.as_ref().map(Tensor::data);
        let map = OutputMap::dense(n, fout, 1);
        store(acc, map, Some((sx, &self.scales[..])), bias, &mut out)?;
        Ok(Tensor::from_vec(out, &[n, fout])?)
    }

    fn backward(&mut self, _grad_output: &Tensor) -> Result<Tensor> {
        Err(NnError::unsupported(
            "QuantizedLinear",
            "backward (inference-only; train the float model and re-quantize)",
        ))
    }

    fn visit_codes(&mut self, visitor: &mut dyn FnMut(CodeView<'_>)) {
        visitor(CodeView {
            codes: &mut self.codes,
            bits: self.bits,
            rows: self.out_features,
        });
    }

    fn plan_compile(&mut self, input: &PlanShape, arenas: &mut PlanArenas) -> Result<PlanShape> {
        let batch = arenas.batch();
        check_gemm_input("QuantizedLinear", &input.dims, 2, self.in_features, batch)?;
        // One realization's activation codes, reused across the stack.
        let stage = input.numel() / batch;
        let out_dims = vec![input.dims[0], self.out_features];
        let (bias, scales) = (self.bias.as_ref().map(Tensor::data), Some(&self.scales[..]));
        let (node, output) =
            GemmNode::compile(arenas, input, &self.codes, out_dims, stage, bias, scales)?;
        self.plan = Some(node);
        Ok(output)
    }

    // lint: no_alloc
    fn plan_forward(
        &mut self,
        input: &PlanShape,
        output: &PlanShape,
        ctx: PlanCtx,
        arenas: &mut PlanArenas,
    ) -> Result<()> {
        let node = self.plan.as_mut().ok_or_else(|| {
            NnError::Config("QuantizedLinear::plan_forward called without plan_compile".into())
        })?;
        // The A operand is the tile's rows quantized at its own dynamic
        // scale (or the calibrated one).
        let act_scale = self.act_scale;
        node.forward(input, output, ctx, arenas, |x, qin| {
            let sx = quantize_activations(x, act_scale, qin);
            Ok((qin, sx))
        })
    }

    fn plan_end(&mut self) {
        self.plan = None;
    }

    fn name(&self) -> &'static str {
        "QuantizedLinear"
    }
}

/// A 2-D convolution over `[N, C, H, W]` activations computed in the integer
/// domain: im2col unfolds the **i8 input codes** directly (zero padding is
/// exact — code 0), the patch matrix feeds the i8 GEMM against the packed
/// kernel codes, and the i32 result is dequantized once during the NCHW
/// re-layout.
#[derive(Debug)]
pub struct QuantizedConv2d {
    in_channels: usize,
    out_channels: usize,
    spec: Conv2dSpec,
    codes: Vec<i8>,
    scales: Vec<f32>,
    bias: Option<Tensor>,
    bits: u8,
    act_scale: Option<f32>,
    qin: Vec<i8>,
    cols: Vec<i8>,
    acc: Vec<i32>,
    scratch: Scratch,
    plan: Option<GemmNode<i8>>,
}

impl QuantizedConv2d {
    /// Quantizes a float [`crate::conv::Conv2d`] layer's kernel to
    /// `bits`-bit codes (per-output-channel scales).
    ///
    /// # Errors
    ///
    /// Returns an error when `bits` is outside `[2, 8]`.
    pub fn from_conv2d(conv: &crate::conv::Conv2d, bits: u8) -> Result<Self> {
        check_bits(bits)?;
        let (codes, scales) = quantize_rows(conv.weight().value.data(), conv.out_channels(), bits);
        Ok(Self {
            in_channels: conv.in_channels(),
            out_channels: conv.out_channels(),
            spec: *conv.spec(),
            codes,
            scales,
            bias: conv.bias().map(|b| b.value.clone()),
            bits,
            act_scale: None,
            qin: Vec::new(),
            cols: Vec::new(),
            acc: Vec::new(),
            scratch: Scratch::new(),
            plan: None,
        })
    }

    /// Records a **static activation scale** from a calibration batch (see
    /// [`QuantizedLinear::calibrate`]); subsequent forwards skip the
    /// per-batch max-abs pass. Returns the recorded scale.
    ///
    /// # Errors
    ///
    /// Returns an error when the sample is not `[N, in_channels, H, W]`.
    pub fn calibrate(&mut self, sample: &Tensor) -> Result<f32> {
        let what = "QuantizedConv2d calibration";
        check_gemm_input(what, sample.dims(), 4, self.in_channels, 1)?;
        let scale = scale_for_max_abs(max_abs(sample.data()));
        self.act_scale = Some(scale);
        Ok(scale)
    }

    /// The calibrated static activation scale, if any.
    pub fn activation_scale(&self) -> Option<f32> {
        self.act_scale
    }

    /// Reverts to dynamic per-batch activation quantization.
    pub fn clear_calibration(&mut self) {
        self.act_scale = None;
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }

    /// The weight bit width.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The packed i8 kernel codes (`[oc, ic·kh·kw]`, row-major).
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }
}

impl Layer for QuantizedConv2d {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
        check_gemm_input("QuantizedConv2d", input.dims(), 4, self.in_channels, 1)?;
        let shape = conv_out_shape(input.dims(), &self.spec)?;
        let (rows, patch, oc) = (shape.rows, shape.patch, self.out_channels);
        // Quantize the input once, then unfold the codes.
        let qin = uninit_slice(&mut self.qin, input.numel());
        let sx = quantize_activations(input.data(), self.act_scale, qin);
        let cols = uninit_slice(&mut self.cols, rows * patch);
        im2col_slice_into(qin, input.dims(), &self.spec, cols)?;
        // [rows, patch] @ [oc, patch]ᵀ → [rows, oc], exact i32.
        let acc = uninit_slice(&mut self.acc, rows * oc);
        let (codes, scratch) = (&self.codes, &mut self.scratch);
        gemm_with_scratch(
            false, true, rows, oc, patch, cols, codes, false, acc, scratch,
        );
        // Dequantize during the NCHW re-layout; bias is digital f32.
        let mut out = vec![0.0f32; rows * oc];
        let bias = self.bias.as_ref().map(Tensor::data);
        let map = OutputMap::dense(shape.n, oc, shape.oh * shape.ow);
        store(acc, map, Some((sx, &self.scales[..])), bias, &mut out)?;
        Ok(Tensor::from_vec(out, &shape.output_dims(oc))?)
    }

    fn backward(&mut self, _grad_output: &Tensor) -> Result<Tensor> {
        Err(NnError::unsupported(
            "QuantizedConv2d",
            "backward (inference-only; train the float model and re-quantize)",
        ))
    }

    fn visit_codes(&mut self, visitor: &mut dyn FnMut(CodeView<'_>)) {
        visitor(CodeView {
            codes: &mut self.codes,
            bits: self.bits,
            rows: self.out_channels,
        });
    }

    fn plan_compile(&mut self, input: &PlanShape, arenas: &mut PlanArenas) -> Result<PlanShape> {
        let batch = arenas.batch();
        check_gemm_input("QuantizedConv2d", &input.dims, 4, self.in_channels, batch)?;
        let shape = conv_out_shape(&input.dims, &self.spec)?;
        // One realization's codes, then its patches: both paths quantize
        // and unfold one tile at a time (each with its own dynamic scale).
        let stage = input.numel() / batch + shape.rows / batch * shape.patch;
        let out_dims = shape.output_dims(self.out_channels).to_vec();
        let (bias, scales) = (self.bias.as_ref().map(Tensor::data), Some(&self.scales[..]));
        let (node, output) =
            GemmNode::compile(arenas, input, &self.codes, out_dims, stage, bias, scales)?;
        self.plan = Some(node);
        Ok(output)
    }

    // lint: no_alloc
    fn plan_forward(
        &mut self,
        input: &PlanShape,
        output: &PlanShape,
        ctx: PlanCtx,
        arenas: &mut PlanArenas,
    ) -> Result<()> {
        let node = self.plan.as_mut().ok_or_else(|| {
            NnError::Config("QuantizedConv2d::plan_forward called without plan_compile".into())
        })?;
        let d = &input.dims;
        let tile = [d[0] / arenas.batch(), d[1], d[2], d[3]];
        let (spec, act_scale) = (&self.spec, self.act_scale);
        // The A operand is the patch matrix of the tile's codes, quantized
        // at the tile's own dynamic scale (the sequential per-instance
        // scale semantics) or the calibrated one.
        node.forward(input, output, ctx, arenas, |x, stage| {
            let (qin, cols) = stage.split_at_mut(x.len());
            let sx = quantize_activations(x, act_scale, qin);
            im2col_slice_into(qin, &tile, spec, cols)?;
            Ok((cols, sx))
        })
    }

    fn plan_end(&mut self) {
        self.plan = None;
    }

    fn name(&self) -> &'static str {
        "QuantizedConv2d"
    }
}

/// Blanket helper: quantizes every [`crate::linear::Linear`]-compatible
/// float layer of a [`crate::Sequential`]-built network is out of scope for
/// a generic container (layers are type-erased); model builders construct
/// quantized networks layer by layer instead. This free function covers the
/// common leaf case: quantize a `Linear` and box it.
///
/// # Errors
///
/// Returns an error when `bits` is outside `[2, 8]`.
pub fn quantize_linear_boxed(
    linear: &crate::linear::Linear,
    bits: u8,
) -> Result<crate::layer::BoxedLayer> {
    Ok(Box::new(QuantizedLinear::from_linear(linear, bits)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::Conv2d;
    use crate::linear::Linear;
    use crate::Sequential;
    use invnorm_tensor::Rng;

    /// Worst-case output error of the quantized path vs the float layer:
    /// per-element products lose at most `|x|·Δw + |w|·Δx + Δx·Δw` with
    /// `Δx ≤ s_x/2`, `Δw ≤ s_w/2`, summed over the reduction dimension.
    fn error_bound(x: &Tensor, w_scales: &[f32], w_max: f32, k: usize) -> f32 {
        let x_max = x.abs().max();
        let sx = x_max / 127.0;
        let sw = w_scales.iter().fold(0.0f32, |m, &s| m.max(s));
        k as f32 * (x_max * sw * 0.5 + w_max * sx * 0.5 + sx * sw * 0.25) + 1e-5
    }

    #[test]
    fn quantized_linear_matches_float_within_tolerance() {
        let mut rng = Rng::seed_from(1);
        let mut float = Linear::new(32, 12, &mut rng);
        let mut quant = QuantizedLinear::from_linear(&float, 8).unwrap();
        let x = Tensor::randn(&[5, 32], 0.0, 1.0, &mut rng);
        let yf = float.forward(&x, Mode::Eval).unwrap();
        let yq = quant.forward(&x, Mode::Eval).unwrap();
        assert_eq!(yq.dims(), yf.dims());
        let bound = error_bound(&x, quant.scales(), float.weight().value.abs().max(), 32);
        let max_err = yf.sub(&yq).unwrap().abs().max();
        assert!(max_err <= bound, "err {max_err} vs bound {bound}");
    }

    #[test]
    fn quantized_linear_matches_its_dequantized_weights_closely() {
        // Against the *dequantized* weights the only error left is the
        // activation quantization — a much tighter check of the integer GEMM
        // + rescaling chain.
        let mut rng = Rng::seed_from(2);
        let float = Linear::new(24, 8, &mut rng);
        let mut quant = QuantizedLinear::from_linear(&float, 8).unwrap();
        let x = Tensor::randn(&[4, 24], 0.0, 1.0, &mut rng);
        let wq = quant.dequantized_weight();
        let mut exact = invnorm_tensor::ops::matmul_a_bt(&x, &wq).unwrap();
        if let Some(b) = float.bias() {
            let od = exact.data_mut();
            for i in 0..4 {
                for j in 0..8 {
                    od[i * 8 + j] += b.value.data()[j];
                }
            }
        }
        let yq = quant.forward(&x, Mode::Eval).unwrap();
        let x_max = x.abs().max();
        let sx = x_max / 127.0;
        let w_row_sum = 24.0 * wq.abs().max();
        let bound = sx * 0.5 * w_row_sum + 1e-4;
        let max_err = exact.sub(&yq).unwrap().abs().max();
        assert!(max_err <= bound, "err {max_err} vs bound {bound}");
    }

    #[test]
    fn quantized_conv_matches_float_within_tolerance() {
        let mut rng = Rng::seed_from(3);
        let mut float = Conv2d::new(3, 6, 3, 1, 1, &mut rng);
        let mut quant = QuantizedConv2d::from_conv2d(&float, 8).unwrap();
        let x = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let yf = float.forward(&x, Mode::Eval).unwrap();
        let yq = quant.forward(&x, Mode::Eval).unwrap();
        assert_eq!(yq.dims(), yf.dims());
        let k = 3 * 3 * 3;
        let bound = error_bound(&x, &quant.scales, float.weight().value.abs().max(), k);
        let max_err = yf.sub(&yq).unwrap().abs().max();
        assert!(max_err <= bound, "err {max_err} vs bound {bound}");
    }

    #[test]
    fn forward_buffers_reach_steady_state() {
        let mut rng = Rng::seed_from(4);
        let float = Conv2d::new(4, 8, 3, 1, 1, &mut rng);
        let mut quant = QuantizedConv2d::from_conv2d(&float, 8).unwrap();
        let x = Tensor::randn(&[2, 4, 10, 10], 0.0, 1.0, &mut rng);
        quant.forward(&x, Mode::Eval).unwrap();
        let caps = (
            quant.qin.capacity(),
            quant.cols.capacity(),
            quant.acc.capacity(),
            quant.scratch.capacity(),
        );
        for _ in 0..3 {
            quant.forward(&x, Mode::Eval).unwrap();
        }
        assert_eq!(
            caps,
            (
                quant.qin.capacity(),
                quant.cols.capacity(),
                quant.acc.capacity(),
                quant.scratch.capacity(),
            ),
            "steady-state forwards must not reallocate"
        );
    }

    #[test]
    fn backward_is_rejected() {
        let mut rng = Rng::seed_from(5);
        let mut ql = QuantizedLinear::from_linear(&Linear::new(4, 2, &mut rng), 8).unwrap();
        assert!(ql.backward(&Tensor::zeros(&[1, 2])).is_err());
        let mut qc =
            QuantizedConv2d::from_conv2d(&Conv2d::new(2, 2, 3, 1, 1, &mut rng), 8).unwrap();
        assert!(qc.backward(&Tensor::zeros(&[1, 2, 4, 4])).is_err());
    }

    #[test]
    fn shape_validation() {
        let mut rng = Rng::seed_from(6);
        let mut ql = QuantizedLinear::from_linear(&Linear::new(4, 2, &mut rng), 8).unwrap();
        assert!(ql.forward(&Tensor::zeros(&[2, 5]), Mode::Eval).is_err());
        assert!(ql.forward(&Tensor::zeros(&[4]), Mode::Eval).is_err());
        let mut qc =
            QuantizedConv2d::from_conv2d(&Conv2d::new(3, 4, 3, 1, 1, &mut rng), 8).unwrap();
        assert!(qc
            .forward(&Tensor::zeros(&[1, 2, 8, 8]), Mode::Eval)
            .is_err());
        assert!(QuantizedLinear::from_linear(&Linear::new(4, 2, &mut rng), 9).is_err());
        assert!(QuantizedLinear::from_linear(&Linear::new(4, 2, &mut rng), 1).is_err());
    }

    #[test]
    fn visit_codes_reaches_every_quantized_layer() {
        let mut rng = Rng::seed_from(7);
        let mut net = Sequential::new();
        net.push(Box::new(
            QuantizedLinear::from_linear(&Linear::new(6, 8, &mut rng), 8).unwrap(),
        ));
        net.push(Box::new(crate::activation::Relu::new()));
        net.push(Box::new(
            QuantizedLinear::from_linear(&Linear::new(8, 3, &mut rng), 8).unwrap(),
        ));
        let mut visited = Vec::new();
        net.visit_codes(&mut |view| visited.push((view.codes.len(), view.bits)));
        assert_eq!(visited, vec![(6 * 8, 8), (8 * 3, 8)]);
        // Float layers expose no codes.
        let mut float = Linear::new(4, 4, &mut rng);
        let mut count = 0;
        float.visit_codes(&mut |_| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn perturbing_codes_changes_the_output() {
        let mut rng = Rng::seed_from(8);
        let mut ql = QuantizedLinear::from_linear(&Linear::new(8, 4, &mut rng), 8).unwrap();
        let x = Tensor::randn(&[2, 8], 0.0, 1.0, &mut rng);
        let clean = ql.forward(&x, Mode::Eval).unwrap();
        ql.visit_codes(&mut |view| {
            for c in view.codes.iter_mut() {
                *c = (*c).wrapping_add(1).clamp(-127, 127);
            }
        });
        let faulty = ql.forward(&x, Mode::Eval).unwrap();
        assert!(!clean.approx_eq(&faulty, 1e-6));
    }

    #[test]
    fn calibrated_scale_matches_dynamic_on_the_calibration_batch() {
        let mut rng = Rng::seed_from(20);
        let float = Linear::new(12, 5, &mut rng);
        let mut dynamic = QuantizedLinear::from_linear(&float, 8).unwrap();
        let mut calibrated = QuantizedLinear::from_linear(&float, 8).unwrap();
        let x = Tensor::randn(&[6, 12], 0.0, 1.0, &mut rng);
        let scale = calibrated.calibrate(&x).unwrap();
        assert!(scale > 0.0);
        assert_eq!(calibrated.activation_scale(), Some(scale));
        // On the calibration batch itself the static scale equals the
        // dynamic one, so the outputs are bit-identical.
        let yd = dynamic.forward(&x, Mode::Eval).unwrap();
        let yc = calibrated.forward(&x, Mode::Eval).unwrap();
        assert!(yd.approx_eq(&yc, 0.0));
        // On a *smaller-magnitude* batch the static scale differs from the
        // dynamic one but stays within quantization tolerance.
        let x2 = x.scale(0.5);
        let yd2 = dynamic.forward(&x2, Mode::Eval).unwrap();
        let yc2 = calibrated.forward(&x2, Mode::Eval).unwrap();
        let tol = error_bound(&x2, dynamic.scales(), float.weight().value.abs().max(), 12);
        assert!(yd2.sub(&yc2).unwrap().abs().max() <= tol);
        calibrated.clear_calibration();
        assert_eq!(calibrated.activation_scale(), None);
        let yd3 = calibrated.forward(&x2, Mode::Eval).unwrap();
        assert!(yd3.approx_eq(&yd2, 0.0));
        // Shape validation.
        assert!(calibrated.calibrate(&Tensor::zeros(&[3, 4])).is_err());
        let mut qc =
            QuantizedConv2d::from_conv2d(&Conv2d::new(3, 4, 3, 1, 1, &mut rng), 8).unwrap();
        assert!(qc.calibrate(&Tensor::zeros(&[1, 2, 6, 6])).is_err());
        let xc = Tensor::randn(&[2, 3, 6, 6], 0.0, 1.0, &mut rng);
        let sc = qc.calibrate(&xc).unwrap();
        assert!(sc > 0.0 && qc.activation_scale() == Some(sc));
    }

    #[test]
    fn low_bit_widths_degrade_gracefully() {
        let mut rng = Rng::seed_from(9);
        let mut float = Linear::new(16, 4, &mut rng);
        let x = Tensor::randn(&[3, 16], 0.0, 1.0, &mut rng);
        let yf = float.forward(&x, Mode::Eval).unwrap();
        let err_of = |bits: u8, float: &Linear| {
            let mut q = QuantizedLinear::from_linear(float, bits).unwrap();
            let yq = q.forward(&x, Mode::Eval).unwrap();
            yf.sub(&yq).unwrap().abs().max()
        };
        assert!(err_of(2, &float) > err_of(8, &float));
    }
}
