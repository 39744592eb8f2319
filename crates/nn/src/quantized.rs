//! Integer-domain inference layers: [`QuantizedLinear`] and
//! [`QuantizedConv2d`].
//!
//! These are the eval-path counterparts of [`crate::linear::Linear`] and
//! [`crate::conv::Conv2d`] for crossbar-mapped deployment: weights live as
//! packed i8 quantization codes with one symmetric scale per output channel,
//! activations are dynamically quantized to i8 at the layer boundary, and
//! the matrix product runs through the blocked i8×i8→i32 GEMM
//! ([`invnorm_tensor::qgemm`]) — the forward pass stays in the integer
//! domain from the input codes to the i32 accumulators and only
//! requantizes/dequantizes once, at the layer output:
//!
//! ```text
//! x (f32) ──quantize──▶ i8 codes ──im2col──▶ i8 patches ──qgemm──▶ i32
//!                                                                   │
//! y (f32) ◀── +bias ◀── × (s_x · s_w[channel]) ◀──────dequantize────┘
//! ```
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
use crate::plan::{OperandId, PlanArenas, PlanCtx, PlanShape};
use crate::Result;
use invnorm_tensor::conv::{conv_out_shape, im2col_codes_into, im2col_slice_into, Conv2dSpec};
use invnorm_tensor::qgemm::{qgemm_prepacked_ab, qgemm_prepacked_b, QPackedA};
use invnorm_tensor::scratch::uninit_slice_of;
use invnorm_tensor::telemetry;
use invnorm_tensor::{qgemm, ArenaSlot, Scratch, Tensor};

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
    plan: Option<QuantizedPlan>,
}

/// Compiled-plan state shared by both quantized layers: arena slots for one
/// realization's activation codes / patch matrix and the i32 accumulators,
/// the id of the plan-owned code operand (one packed panel per stacked
/// realization for batched plans), and the cached packed activation panel
/// (plus its quantization scale) for frozen inputs.
#[derive(Debug)]
struct QuantizedPlan {
    qin: ArenaSlot,
    /// One realization's patch matrix of unfolded codes (conv only; empty
    /// slot for linear).
    cols: ArenaSlot,
    acc: ArenaSlot,
    codes: OperandId,
    /// Whether the input edge is frozen ([`PlanArenas::is_frozen`]).
    frozen: bool,
    packed_a: QPackedA,
    a_gen: u64,
    a_scale: f32,
    plan_scratch: Scratch,
    /// Dims of one realization's tile of the stacked input edge (conv only).
    tile_dims: Vec<usize>,
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
        if sample.rank() != 2 || sample.dims()[1] != self.in_features {
            return Err(NnError::Config(format!(
                "QuantizedLinear calibration expects [N, {}], got {:?}",
                self.in_features,
                sample.dims()
            )));
        }
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
        if input.rank() != 2 || input.dims()[1] != self.in_features {
            return Err(NnError::Config(format!(
                "QuantizedLinear expects input [N, {}], got {:?}",
                self.in_features,
                input.dims()
            )));
        }
        let n = input.dims()[0];
        let qin = uninit_slice_of(&mut self.qin, n * self.in_features);
        let sx = quantize_activations(input.data(), self.act_scale, qin);
        let acc = uninit_slice_of(&mut self.acc, n * self.out_features);
        qgemm::qgemm_with_scratch(
            false,
            true,
            n,
            self.out_features,
            self.in_features,
            qin,
            &self.codes,
            false,
            acc,
            &mut self.scratch,
        );
        let mut out = vec![0.0f32; n * self.out_features];
        let bias = self.bias.as_ref().map(Tensor::data);
        for i in 0..n {
            for j in 0..self.out_features {
                let mut v = acc[i * self.out_features + j] as f32 * sx * self.scales[j];
                if let Some(b) = bias {
                    v += b[j];
                }
                out[i * self.out_features + j] = v;
            }
        }
        Ok(Tensor::from_vec(out, &[n, self.out_features])?)
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
        if input.dims.len() != 2
            || input.dims[1] != self.in_features
            || !input.dims[0].is_multiple_of(batch)
        {
            return Err(NnError::Config(format!(
                "QuantizedLinear expects input [N, {}] (N divisible by the plan batch {batch}), got {:?}",
                self.in_features, input.dims
            )));
        }
        let n = input.dims[0];
        let n_per = n / batch;
        let (fin, fout) = (self.in_features, self.out_features);
        let frozen = arenas.gemm_layer::<qgemm::QPackedB>(input, fout);
        let wide = if frozen { batch } else { 1 };
        self.plan = Some(QuantizedPlan {
            // One realization's activation codes, reused across the stack;
            // the accumulators hold the fused wide `[N, B·out]` product of a
            // frozen layer (the per-realization path reuses the `[N, out]`
            // prefix).
            qin: arenas.q.reserve(n_per * fin),
            cols: arenas.q.reserve(0),
            acc: arenas.acc.reserve(n_per * fout * wide),
            codes: arenas.codes.register(&self.codes, fin, fout)?,
            frozen,
            packed_a: QPackedA::new(),
            a_gen: 0,
            a_scale: 1.0,
            plan_scratch: Scratch::new(),
            tile_dims: Vec::new(),
        });
        Ok(PlanShape {
            slot: arenas.f.reserve(n * fout),
            dims: vec![n, fout],
        })
    }

    fn plan_forward(
        &mut self,
        input: &PlanShape,
        output: &PlanShape,
        ctx: PlanCtx,
        arenas: &mut PlanArenas,
    ) -> Result<()> {
        let state = self.plan.as_mut().ok_or_else(|| {
            NnError::Config("QuantizedLinear::plan_forward called without plan_compile".into())
        })?;
        let (fin, fout) = (self.in_features, self.out_features);
        let batch = arenas.batch();
        let n = input.dims[0] / batch;
        let frozen = state.frozen && ctx.static_faults;
        let [x, out] = arenas.f.many_mut([input.slot, output.slot]);
        let qin = arenas.q.slot_mut(state.qin);
        let acc = arenas.acc.slot_mut(state.acc);
        let codes = &mut arenas.codes[state.codes];
        let bias = self.bias.as_ref().map(Tensor::data);
        // Dequantizes realization b's `[n, fout]` block of accumulators
        // (leading dimension `ld`, first column `col0`); bias is digital f32.
        let dequantize = |acc: &[i32], ld: usize, col0: usize, sx: f32, out_b: &mut [f32]| {
            for i in 0..n {
                for j in 0..fout {
                    let mut v = acc[i * ld + col0 + j] as f32 * sx * self.scales[j];
                    if let Some(bd) = bias {
                        v += bd[j];
                    }
                    out_b[i * fout + j] = v;
                }
            }
        };
        if frozen {
            // Frozen plan input: quantize + pack the first tile's codes once
            // per `load_input` and reuse the panel.
            if state.a_gen != ctx.input_gen {
                telemetry::count(telemetry::Counter::FrozenInputMisses, 1);
                state.a_scale = quantize_activations(&x[..n * fin], self.act_scale, qin);
                state.packed_a.pack(false, qin, n, fin);
                state.a_gen = ctx.input_gen;
            } else {
                telemetry::count(telemetry::Counter::FrozenInputHits, 1);
            }
        }
        if frozen && batch > 1 {
            // Fused wide product: the cached activation panel meets the wide
            // stacked code operand in a single `[N, B·out]` integer GEMM;
            // realization b dequantizes its own column block.
            telemetry::count(telemetry::Counter::WideGemms, 1);
            qgemm_prepacked_ab(&state.packed_a, codes.refresh_wide(), false, acc);
            for b in 0..batch {
                let out_b = &mut out[b * n * fout..][..n * fout];
                dequantize(acc, batch * fout, b * fout, state.a_scale, out_b);
            }
            return Ok(());
        }
        // Bring the cached packed operands up to date with this realization
        // batch (cell scatter / dirty-row re-packing / uniform-scale).
        codes.refresh_all();
        for b in 0..batch {
            let out_b = &mut out[b * n * fout..][..n * fout];
            let acc = &mut acc[..n * fout];
            let sx = if frozen {
                qgemm_prepacked_ab(&state.packed_a, codes.panel(b), false, acc);
                state.a_scale
            } else {
                let sx = quantize_activations(&x[b * n * fin..][..n * fin], self.act_scale, qin);
                qgemm_prepacked_b(
                    false,
                    n,
                    qin,
                    codes.panel(b),
                    false,
                    acc,
                    &mut state.plan_scratch,
                );
                sx
            };
            dequantize(acc, fout, 0, sx, out_b);
        }
        Ok(())
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
    plan: Option<QuantizedPlan>,
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
        if sample.rank() != 4 || sample.dims()[1] != self.in_channels {
            return Err(NnError::Config(format!(
                "QuantizedConv2d calibration expects [N, {}, H, W], got {:?}",
                self.in_channels,
                sample.dims()
            )));
        }
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
        if input.rank() != 4 || input.dims()[1] != self.in_channels {
            return Err(NnError::Config(format!(
                "QuantizedConv2d expects [N, {}, H, W], got {:?}",
                self.in_channels,
                input.dims()
            )));
        }
        let d = input.dims().to_vec();
        let shape = conv_out_shape(&d, &self.spec)?;
        let (n, oh, ow, patch, rows) = (shape.n, shape.oh, shape.ow, shape.patch, shape.rows);
        let oc = self.out_channels;

        // Quantize the input once, then unfold the codes.
        let qin = uninit_slice_of(&mut self.qin, input.numel());
        let sx = quantize_activations(input.data(), self.act_scale, qin);
        let cols = uninit_slice_of(&mut self.cols, rows * patch);
        im2col_codes_into(qin, &d, &self.spec, cols)?;

        // [rows, patch] @ [oc, patch]ᵀ → [rows, oc], exact i32.
        let acc = uninit_slice_of(&mut self.acc, rows * oc);
        qgemm::qgemm_with_scratch(
            false,
            true,
            rows,
            oc,
            patch,
            cols,
            &self.codes,
            false,
            acc,
            &mut self.scratch,
        );

        // Dequantize during the NCHW re-layout; bias is digital f32.
        let mut out = vec![0.0f32; n * oc * oh * ow];
        let bias = self.bias.as_ref().map(Tensor::data);
        for ni in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = (ni * oh + oy) * ow + ox;
                    for co in 0..oc {
                        let mut v = acc[row * oc + co] as f32 * sx * self.scales[co];
                        if let Some(b) = bias {
                            v += b[co];
                        }
                        out[((ni * oc + co) * oh + oy) * ow + ox] = v;
                    }
                }
            }
        }
        Ok(Tensor::from_vec(out, &[n, oc, oh, ow])?)
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
        if input.dims.len() != 4
            || input.dims[1] != self.in_channels
            || !input.dims[0].is_multiple_of(batch)
        {
            return Err(NnError::Config(format!(
                "QuantizedConv2d expects [N, {}, H, W] (N divisible by the plan batch {batch}), got {:?}",
                self.in_channels, input.dims
            )));
        }
        let shape = conv_out_shape(&input.dims, &self.spec)?;
        let oc = self.out_channels;
        let rows_per = shape.rows / batch;
        let mut tile_dims = input.dims.clone();
        tile_dims[0] /= batch;
        let frozen = arenas.gemm_layer::<qgemm::QPackedB>(input, oc);
        let wide = if frozen { batch } else { 1 };
        self.plan = Some(QuantizedPlan {
            // One realization's codes and patches: every path quantizes and
            // unfolds one tile at a time (each with its own dynamic scale).
            // The i32 accumulators hold the fused wide `[rows/B, B·oc]`
            // product of a frozen layer (the per-realization path reuses
            // the `[rows/B, oc]` prefix).
            qin: arenas.q.reserve(input.numel() / batch),
            cols: arenas.q.reserve(rows_per * shape.patch),
            acc: arenas.acc.reserve(rows_per * oc * wide),
            codes: arenas.codes.register(&self.codes, shape.patch, oc)?,
            frozen,
            packed_a: QPackedA::new(),
            a_gen: 0,
            a_scale: 1.0,
            plan_scratch: Scratch::new(),
            tile_dims,
        });
        Ok(PlanShape {
            slot: arenas.f.reserve(shape.output_dims(oc).iter().product()),
            dims: shape.output_dims(oc).to_vec(),
        })
    }

    fn plan_forward(
        &mut self,
        input: &PlanShape,
        output: &PlanShape,
        ctx: PlanCtx,
        arenas: &mut PlanArenas,
    ) -> Result<()> {
        let state = self.plan.as_mut().ok_or_else(|| {
            NnError::Config("QuantizedConv2d::plan_forward called without plan_compile".into())
        })?;
        let shape = conv_out_shape(&input.dims, &self.spec)?;
        let oc = self.out_channels;
        let batch = arenas.batch();
        let n_per = shape.n / batch;
        let rows_per = shape.rows / batch;
        let per_in = input.numel() / batch;
        let per_out = n_per * oc * shape.oh * shape.ow;
        let frozen = state.frozen && ctx.static_faults;
        let [x, out] = arenas.f.many_mut([input.slot, output.slot]);
        let [qin, cols] = arenas.q.many_mut([state.qin, state.cols]);
        let acc = arenas.acc.slot_mut(state.acc);
        let codes = &mut arenas.codes[state.codes];
        let bias = self.bias.as_ref().map(Tensor::data);
        // Dequantizes realization b's accumulators (leading dimension `ld`,
        // first column `col0`) during the NCHW re-layout; bias is digital
        // f32 — the exact loop of the direct forward.
        let dequantize = |acc: &[i32], ld: usize, col0: usize, sx: f32, out_b: &mut [f32]| {
            for ni in 0..n_per {
                for oy in 0..shape.oh {
                    for ox in 0..shape.ow {
                        let row = (ni * shape.oh + oy) * shape.ow + ox;
                        for co in 0..oc {
                            let mut v = acc[row * ld + col0 + co] as f32 * sx * self.scales[co];
                            if let Some(bd) = bias {
                                v += bd[co];
                            }
                            out_b[((ni * oc + co) * shape.oh + oy) * shape.ow + ox] = v;
                        }
                    }
                }
            }
        };
        if frozen {
            // Frozen plan input: quantize + unfold + pack the first tile's
            // patch panel once per `load_input`.
            if state.a_gen != ctx.input_gen {
                telemetry::count(telemetry::Counter::FrozenInputMisses, 1);
                state.a_scale = quantize_activations(&x[..per_in], self.act_scale, qin);
                im2col_slice_into(qin, &state.tile_dims, &self.spec, cols)?;
                state.packed_a.pack(false, cols, rows_per, shape.patch);
                state.a_gen = ctx.input_gen;
            } else {
                telemetry::count(telemetry::Counter::FrozenInputHits, 1);
            }
        }
        if frozen && batch > 1 {
            // Fused wide product: the cached patch panel meets the wide
            // stacked kernel operand in a single `[rows, B·oc]` integer
            // GEMM; realization b dequantizes its strided column block
            // during the NCHW re-layout.
            telemetry::count(telemetry::Counter::WideGemms, 1);
            qgemm_prepacked_ab(&state.packed_a, codes.refresh_wide(), false, acc);
            for b in 0..batch {
                let out_b = &mut out[b * per_out..][..per_out];
                dequantize(acc, batch * oc, b * oc, state.a_scale, out_b);
            }
            return Ok(());
        }
        // Bring the cached packed operands up to date with this realization
        // batch (cell scatter / dirty-row re-packing / uniform-scale).
        codes.refresh_all();
        for b in 0..batch {
            let acc = &mut acc[..rows_per * oc];
            let sx = if frozen {
                qgemm_prepacked_ab(&state.packed_a, codes.panel(b), false, acc);
                state.a_scale
            } else {
                // Per-realization inputs: quantize realization b's tile with
                // its own dynamic scale (the sequential per-instance scale
                // semantics), unfold it into the one-tile patch slot, and
                // multiply it.
                let sx = quantize_activations(&x[b * per_in..][..per_in], self.act_scale, qin);
                im2col_slice_into(qin, &state.tile_dims, &self.spec, cols)?;
                qgemm_prepacked_b(
                    false,
                    rows_per,
                    cols,
                    codes.panel(b),
                    false,
                    acc,
                    &mut state.plan_scratch,
                );
                sx
            };
            dequantize(acc, oc, 0, sx, &mut out[b * per_out..][..per_out]);
        }
        Ok(())
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
