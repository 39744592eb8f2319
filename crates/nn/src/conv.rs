//! Convolution layers (2-D and 1-D) wrapping the kernels in
//! [`invnorm_tensor::conv`].

use crate::error::NnError;
use crate::layer::{Layer, Mode, Param};
use crate::plan::{check_gemm_input, GemmNode, PlanArenas, PlanCtx, PlanShape};
use crate::Result;
use invnorm_tensor::conv::{self, conv_out_shape, Conv2dSpec};
use invnorm_tensor::{Rng, Scratch, Tensor};

/// 2-D convolution layer over `[N, C, H, W]` activations.
///
/// Kaiming-uniform initialization, square kernels, symmetric padding.
///
/// Evaluation-mode forwards run through the zero-alloc scratch path
/// ([`conv::conv2d_forward_with_scratch`]): each image is unfolded into a
/// reused `[C·KH·KW, OH·OW]` buffer and multiplied as `W · cols` straight
/// into the NCHW output, which is what the Monte-Carlo fault-simulation hot
/// loop repeatedly exercises. Training-mode forwards build the whole
/// batch's `[N·OH·OW, C·KH·KW]` im2col matrix and retain it, because the
/// backward pass consumes it.
#[derive(Debug)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    spec: Conv2dSpec,
    weight: Param,
    bias: Option<Param>,
    cached_cols: Option<Tensor>,
    cached_input_dims: Option<Vec<usize>>,
    scratch: Scratch,
    plan: Option<GemmNode<f32>>,
}

impl Conv2d {
    /// Creates a 2-D convolution with bias.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut Rng,
    ) -> Self {
        Self::with_bias(in_channels, out_channels, kernel, stride, pad, true, rng)
    }

    /// Creates a 2-D convolution, optionally without bias (the usual choice
    /// when the convolution is followed by a normalization layer).
    pub fn with_bias(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        rng: &mut Rng,
    ) -> Self {
        let fan_in = (in_channels * kernel * kernel) as f32;
        let bound = 1.0 / fan_in.sqrt();
        let weight = Tensor::rand_uniform(
            &[out_channels, in_channels, kernel, kernel],
            -bound,
            bound,
            rng,
        );
        let bias = if bias {
            Some(Param::new(Tensor::rand_uniform(
                &[out_channels],
                -bound,
                bound,
                rng,
            )))
        } else {
            None
        };
        Self {
            in_channels,
            out_channels,
            spec: Conv2dSpec::new(kernel, stride, pad),
            weight: Param::new(weight),
            bias,
            cached_cols: None,
            cached_input_dims: None,
            scratch: Scratch::new(),
            plan: None,
        }
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

    /// Immutable access to the kernel parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable access to the kernel parameter (used by quantization wrappers
    /// and fault injection).
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    /// Immutable access to the bias parameter (used by the quantized-layer
    /// conversion path).
    pub fn bias(&self) -> Option<&Param> {
        self.bias.as_ref()
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if input.rank() != 4 || input.dims()[1] != self.in_channels {
            return Err(NnError::Config(format!(
                "Conv2d expects [N, {}, H, W], got {:?}",
                self.in_channels,
                input.dims()
            )));
        }
        if !mode.is_train() {
            // Inference: no backward pass will follow, so skip retaining the
            // patch matrix and reuse the scratch buffers (zero allocations
            // besides the output). Clear any stale training cache so a
            // backward call cannot silently use gradients of older inputs.
            self.cached_cols = None;
            self.cached_input_dims = None;
            return Ok(conv::conv2d_forward_with_scratch(
                input,
                &self.weight.value,
                self.bias.as_ref().map(|b| &b.value),
                &self.spec,
                &mut self.scratch,
            )?);
        }
        let fwd = conv::conv2d_forward(
            input,
            &self.weight.value,
            self.bias.as_ref().map(|b| &b.value),
            &self.spec,
        )?;
        self.cached_cols = Some(fwd.cols);
        self.cached_input_dims = Some(input.dims().to_vec());
        Ok(fwd.output)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cols = self
            .cached_cols
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward("Conv2d"))?;
        let input_dims = self
            .cached_input_dims
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward("Conv2d"))?;
        // Scratch-backed backward: gradient staging buffers are reused across
        // steps and the weight/bias gradients accumulate in place, so the
        // steady-state training loop allocates only the returned input
        // gradient.
        Ok(conv::conv2d_backward_into(
            grad_output,
            cols,
            &self.weight.value,
            input_dims,
            &self.spec,
            &mut self.weight.grad,
            self.bias.as_mut().map(|b| &mut b.grad),
            &mut self.scratch,
        )?)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.weight);
        if let Some(bias) = &mut self.bias {
            visitor(bias);
        }
    }

    fn plan_compile(&mut self, input: &PlanShape, arenas: &mut PlanArenas) -> Result<PlanShape> {
        let batch = arenas.batch();
        check_gemm_input("Conv2d", &input.dims, 4, self.in_channels, batch)?;
        let shape = conv_out_shape(&input.dims, &self.spec)?;
        // One realization's patches: both paths unfold one tile at a time,
        // so compile cost does not grow with the stack.
        let stage = shape.rows / batch * shape.patch;
        let out_dims = shape.output_dims(self.out_channels).to_vec();
        let bias = self.bias.as_ref().map(|b| b.value.data());
        let weight = self.weight.value.data();
        let (node, output) = GemmNode::compile(arenas, input, weight, out_dims, stage, bias, None)?;
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
            NnError::Config("Conv2d::plan_forward called without plan_compile".into())
        })?;
        let d = &input.dims;
        let (tile, spec) = ([d[0] / arenas.batch(), d[1], d[2], d[3]], &self.spec);
        // The A operand is the tile's im2col patch matrix (im2col is
        // per-sample, so it equals the tile's rows of a whole-stack unfold).
        node.forward(input, output, ctx, arenas, |x, cols| {
            conv::im2col_slice_into(x, &tile, spec, cols)?;
            Ok((cols, 1.0))
        })
    }

    fn plan_end(&mut self) {
        self.plan = None;
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }
}

/// 1-D convolution layer over `[N, C, L]` activations, implemented by lifting
/// to the 2-D kernels with height 1 (so it shares the tested code path).
#[derive(Debug)]
pub struct Conv1d {
    inner: Conv2d,
    pad_width: usize,
    plan: Option<Conv1dPlan>,
}

/// Compiled-plan state: the lifted, padded input edge feeding the inner 2-D
/// convolution, and the inner convolution's output edge.
#[derive(Debug)]
struct Conv1dPlan {
    padded: PlanShape,
    inner_out: PlanShape,
}

impl Conv1d {
    /// Creates a 1-D convolution with bias.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut Rng,
    ) -> Self {
        Self::with_bias(in_channels, out_channels, kernel, stride, pad, true, rng)
    }

    /// Creates a 1-D convolution, optionally without bias.
    pub fn with_bias(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        rng: &mut Rng,
    ) -> Self {
        // Build a height-1 2-D convolution: kernel [OC, IC, 1, K].
        let mut inner = Conv2d::with_bias(in_channels, out_channels, 1, stride, 0, bias, rng);
        let fan_in = (in_channels * kernel) as f32;
        let bound = 1.0 / fan_in.sqrt();
        inner.weight = Param::new(Tensor::rand_uniform(
            &[out_channels, in_channels, 1, kernel],
            -bound,
            bound,
            rng,
        ));
        inner.spec = Conv2dSpec {
            kh: 1,
            kw: kernel,
            stride,
            pad: 0, // padding handled manually on the length axis below
        };
        Self {
            inner,
            pad_width: pad,
            plan: None,
        }
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.inner.in_channels()
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.inner.out_channels()
    }
}

// `pad_width` lives outside `Conv2dSpec` because 1-D padding must only apply
// to the length axis, while `Conv2dSpec.pad` pads both spatial axes.
impl Conv1d {
    fn pad_input(&self, x: &Tensor) -> Result<Tensor> {
        if self.pad_width == 0 {
            return Ok(x.clone());
        }
        let d = x.dims();
        let (n, c, l) = (d[0], d[1], d[2]);
        let new_l = l + 2 * self.pad_width;
        let mut out = Tensor::zeros(&[n, c, new_l]);
        let od = out.data_mut();
        let xd = x.data();
        for ni in 0..n {
            for ci in 0..c {
                let src = (ni * c + ci) * l;
                let dst = (ni * c + ci) * new_l + self.pad_width;
                od[dst..dst + l].copy_from_slice(&xd[src..src + l]);
            }
        }
        Ok(out)
    }

    fn unpad_grad(&self, g: &Tensor) -> Result<Tensor> {
        if self.pad_width == 0 {
            return Ok(g.clone());
        }
        let d = g.dims();
        let (n, c, padded_l) = (d[0], d[1], d[2]);
        let l = padded_l - 2 * self.pad_width;
        let mut out = Tensor::zeros(&[n, c, l]);
        let od = out.data_mut();
        let gd = g.data();
        for ni in 0..n {
            for ci in 0..c {
                let src = (ni * c + ci) * padded_l + self.pad_width;
                let dst = (ni * c + ci) * l;
                od[dst..dst + l].copy_from_slice(&gd[src..src + l]);
            }
        }
        Ok(out)
    }
}

impl Layer for Conv1d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if input.rank() != 3 {
            return Err(NnError::Config(format!(
                "Conv1d expects [N, C, L], got {:?}",
                input.dims()
            )));
        }
        let padded = self.pad_input(input)?;
        let lifted = invnorm_tensor::conv::lift_1d(&padded)?;
        let out = self.inner.forward(&lifted, mode)?;
        Ok(invnorm_tensor::conv::squeeze_1d(&out)?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let lifted = invnorm_tensor::conv::lift_1d(grad_output)?;
        let grad_in = self.inner.backward(&lifted)?;
        let squeezed = invnorm_tensor::conv::squeeze_1d(&grad_in)?;
        self.unpad_grad(&squeezed)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(visitor);
    }

    fn plan_compile(&mut self, input: &PlanShape, arenas: &mut PlanArenas) -> Result<PlanShape> {
        if input.dims.len() != 3 {
            return Err(NnError::Config(format!(
                "Conv1d expects [N, C, L], got {:?}",
                input.dims
            )));
        }
        let (n, c, l) = (input.dims[0], input.dims[1], input.dims[2]);
        let padded_l = l + 2 * self.pad_width;
        // The padded, lifted `[N, C, 1, L']` edge feeding the inner conv.
        // Padding positions stay at the arena's zero initialization forever;
        // forwards only rewrite the interior.
        let padded = PlanShape {
            slot: arenas.f.reserve(n * c * padded_l),
            dims: vec![n, c, 1, padded_l],
        };
        arenas.copy_edge(input, &padded);
        let inner_out = self.inner.plan_compile(&padded, arenas)?;
        let d = inner_out.dims.clone();
        let squeezed = PlanShape {
            slot: inner_out.slot,
            dims: vec![d[0], d[1], d[3]],
        };
        self.plan = Some(Conv1dPlan { padded, inner_out });
        Ok(squeezed)
    }

    fn plan_forward(
        &mut self,
        input: &PlanShape,
        _output: &PlanShape,
        ctx: PlanCtx,
        arenas: &mut PlanArenas,
    ) -> Result<()> {
        let state = self.plan.as_ref().ok_or_else(|| {
            NnError::Config("Conv1d::plan_forward called without plan_compile".into())
        })?;
        let (n, c, l) = (input.dims[0], input.dims[1], input.dims[2]);
        let padded_l = l + 2 * self.pad_width;
        {
            let [x, padded_buf] = arenas.f.many_mut([input.slot, state.padded.slot]);
            for nc in 0..n * c {
                padded_buf[nc * padded_l + self.pad_width..][..l]
                    .copy_from_slice(&x[nc * l..(nc + 1) * l]);
            }
        }
        // The padded edge is a pure copy of the input (declared at compile),
        // so a frozen input keeps the inner convolution's caches valid.
        self.inner
            .plan_forward(&state.padded, &state.inner_out, ctx, arenas)
    }

    fn plan_end(&mut self) {
        self.plan = None;
        self.inner.plan_end();
    }

    fn name(&self) -> &'static str {
        "Conv1d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv2d_shapes() {
        let mut rng = Rng::seed_from(1);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 8, 8, 8]);

        let mut strided = Conv2d::new(3, 4, 3, 2, 1, &mut rng);
        let y = strided.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 4, 4, 4]);
    }

    #[test]
    fn conv2d_gradients_match_numerical() {
        let mut rng = Rng::seed_from(2);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 5, 5], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Train).unwrap();
        let grad_in = conv.backward(&Tensor::ones(y.dims())).unwrap();

        let eps = 1e-2f32;
        for idx in [0usize, 10, 30, 49] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = conv.forward(&xp, Mode::Train).unwrap().sum();
            let lm = conv.forward(&xm, Mode::Train).unwrap().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grad_in.data()[idx]).abs() < 2e-2,
                "input grad mismatch at {idx}"
            );
        }
    }

    #[test]
    fn conv2d_rejects_wrong_channels() {
        let mut rng = Rng::seed_from(3);
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, &mut rng);
        assert!(conv
            .forward(&Tensor::zeros(&[1, 2, 8, 8]), Mode::Eval)
            .is_err());
        assert!(matches!(
            conv.backward(&Tensor::zeros(&[1, 4, 8, 8])),
            Err(NnError::BackwardBeforeForward(_))
        ));
    }

    #[test]
    fn conv1d_shapes_and_padding() {
        let mut rng = Rng::seed_from(4);
        let mut conv = Conv1d::new(2, 4, 5, 1, 2, &mut rng);
        let x = Tensor::randn(&[3, 2, 16], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[3, 4, 16]);

        let mut strided = Conv1d::new(2, 4, 4, 4, 0, &mut rng);
        let y = strided.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[3, 4, 4]);
    }

    #[test]
    fn conv1d_backward_shape_matches_input() {
        let mut rng = Rng::seed_from(5);
        let mut conv = Conv1d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 2, 10], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Train).unwrap();
        let gx = conv.backward(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn conv1d_gradient_numerical_check() {
        let mut rng = Rng::seed_from(6);
        let mut conv = Conv1d::new(1, 2, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 1, 8], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Train).unwrap();
        let grad_in = conv.backward(&Tensor::ones(y.dims())).unwrap();
        let eps = 1e-2f32;
        for idx in [0usize, 3, 7] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = conv.forward(&xp, Mode::Train).unwrap().sum();
            let lm = conv.forward(&xm, Mode::Train).unwrap().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grad_in.data()[idx]).abs() < 2e-2,
                "conv1d input grad mismatch at {idx}"
            );
        }
    }

    /// A Conv1d's padded edge is a pure copy of its input, so the inner
    /// convolution of a plan-input Conv1d stays frozen.
    #[test]
    fn conv1d_plan_keeps_its_padded_input_frozen() {
        let mut rng = Rng::seed_from(8);
        let mut conv = Conv1d::new(2, 3, 5, 1, 2, &mut rng);
        let x = Tensor::randn(&[2, 2, 16], 0.0, 1.0, &mut rng);
        let plan = crate::plan::Plan::compile(&mut conv, &x).unwrap();
        let nr = invnorm_tensor::gemm::nr::<f32>(invnorm_tensor::dispatch::active());
        assert_eq!(plan.frozen_fill(), Some(nr.div_ceil(3)));
        conv.plan_end();
    }

    #[test]
    fn param_counts() {
        let mut rng = Rng::seed_from(7);
        let mut conv = Conv2d::with_bias(3, 8, 3, 1, 1, false, &mut rng);
        assert_eq!(conv.param_count(), 8 * 3 * 3 * 3);
        let mut conv1d = Conv1d::new(2, 4, 5, 1, 2, &mut rng);
        assert_eq!(conv1d.param_count(), 4 * 2 * 5 + 4);
    }
}
