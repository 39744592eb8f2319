//! Fully connected (dense) layer.

use crate::error::NnError;
use crate::layer::{Layer, Mode, Param};
use crate::plan::{check_gemm_input, GemmNode, PlanArenas, PlanCtx, PlanShape};
use crate::Result;
use invnorm_tensor::{ops, Rng, Tensor};

/// A fully connected layer computing `y = x Wᵀ + b` for `x: [N, in]`,
/// `W: [out, in]`, `b: [out]`.
///
/// Weights are initialized with Kaiming-uniform scaling
/// (`U(-1/√in, 1/√in)`), the PyTorch default, so conventional baselines train
/// comparably to the paper's.
///
/// # Example
///
/// ```
/// use invnorm_nn::layer::{Layer, Mode};
/// use invnorm_nn::linear::Linear;
/// use invnorm_tensor::{Rng, Tensor};
///
/// # fn main() -> Result<(), invnorm_nn::NnError> {
/// let mut rng = Rng::seed_from(1);
/// let mut fc = Linear::new(8, 3, &mut rng);
/// let x = Tensor::randn(&[4, 8], 0.0, 1.0, &mut rng);
/// assert_eq!(fc.forward(&x, Mode::Eval)?.dims(), &[4, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weight: Param,
    bias: Option<Param>,
    cached_input: Option<Tensor>,
    plan: Option<GemmNode<f32>>,
}

impl Linear {
    /// Creates a layer with bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng) -> Self {
        Self::with_bias(in_features, out_features, true, rng)
    }

    /// Creates a layer, optionally without a bias term.
    pub fn with_bias(in_features: usize, out_features: usize, bias: bool, rng: &mut Rng) -> Self {
        let bound = 1.0 / (in_features as f32).sqrt();
        let weight = Tensor::rand_uniform(&[out_features, in_features], -bound, bound, rng);
        let bias = if bias {
            Some(Param::new(Tensor::rand_uniform(
                &[out_features],
                -bound,
                bound,
                rng,
            )))
        } else {
            None
        };
        Self {
            in_features,
            out_features,
            weight: Param::new(weight),
            bias,
            cached_input: None,
            plan: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable access to the weight parameter (for inspection in tests and
    /// fault injection).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Immutable access to the bias parameter (used by the quantized-layer
    /// conversion path).
    pub fn bias(&self) -> Option<&Param> {
        self.bias.as_ref()
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if input.rank() != 2 || input.dims()[1] != self.in_features {
            return Err(NnError::Config(format!(
                "Linear expects input [N, {}], got {:?}",
                self.in_features,
                input.dims()
            )));
        }
        // The input is only needed by backward; skip the clone on the
        // inference hot path (and drop any stale training cache).
        self.cached_input = if mode.is_train() {
            Some(input.clone())
        } else {
            None
        };
        let mut out = ops::matmul_a_bt(input, &self.weight.value)?;
        if let Some(bias) = &self.bias {
            let n = out.dims()[0];
            let c = self.out_features;
            let od = out.data_mut();
            let bd = bias.value.data();
            for i in 0..n {
                for j in 0..c {
                    od[i * c + j] += bd[j];
                }
            }
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward("Linear"))?;
        // dW += gradᵀ @ x : [out, in] — accumulated into the gradient
        // tensor, avoiding the former temporary + add pass.
        ops::gemm_into(true, false, grad_output, input, true, &mut self.weight.grad)?;
        if let Some(bias) = &mut self.bias {
            let grad_b = ops::sum_axis(grad_output, 0)?;
            bias.grad.add_assign(&grad_b)?;
        }
        // dx = grad @ W : [N, in]
        Ok(ops::matmul(grad_output, &self.weight.value)?)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.weight);
        if let Some(bias) = &mut self.bias {
            visitor(bias);
        }
    }

    fn plan_compile(&mut self, input: &PlanShape, arenas: &mut PlanArenas) -> Result<PlanShape> {
        check_gemm_input("Linear", &input.dims, 2, self.in_features, arenas.batch())?;
        let out_dims = vec![input.dims[0], self.out_features];
        let bias = self.bias.as_ref().map(|b| b.value.data());
        let weight = self.weight.value.data();
        let (node, output) = GemmNode::compile(arenas, input, weight, out_dims, 0, bias, None)?;
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
            NnError::Config("Linear::plan_forward called without plan_compile".into())
        })?;
        // The A operand is the realization's input rows themselves.
        node.forward(input, output, ctx, arenas, |rows, _| Ok((rows, 1.0)))
    }

    fn plan_end(&mut self) {
        self.plan = None;
    }

    fn name(&self) -> &'static str {
        "Linear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numerical_check(bias: bool) {
        let mut rng = Rng::seed_from(10);
        let mut layer = Linear::with_bias(5, 3, bias, &mut rng);
        let x = Tensor::randn(&[2, 5], 0.0, 1.0, &mut rng);
        let y = layer.forward(&x, Mode::Train).unwrap();
        let grad_out = Tensor::ones(y.dims());
        let grad_in = layer.backward(&grad_out).unwrap();

        let eps = 1e-2f32;
        // Input gradient check.
        for idx in [0usize, 3, 7] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = layer.forward(&xp, Mode::Train).unwrap().sum();
            let lm = layer.forward(&xm, Mode::Train).unwrap().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grad_in.data()[idx]).abs() < 1e-2,
                "input grad mismatch at {idx}"
            );
        }
        // Weight gradient check.
        let analytic = layer.weight.grad.clone();
        for idx in [0usize, 6, 14] {
            let orig = layer.weight.value.data()[idx];
            layer.weight.value.data_mut()[idx] = orig + eps;
            let lp = layer.forward(&x, Mode::Train).unwrap().sum();
            layer.weight.value.data_mut()[idx] = orig - eps;
            let lm = layer.forward(&x, Mode::Train).unwrap().sum();
            layer.weight.value.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - analytic.data()[idx]).abs() < 1e-2,
                "weight grad mismatch at {idx}"
            );
        }
    }

    #[test]
    fn gradients_match_numerical_with_bias() {
        numerical_check(true);
    }

    #[test]
    fn gradients_match_numerical_without_bias() {
        numerical_check(false);
    }

    #[test]
    fn forward_shape_and_bias_effect() {
        let mut rng = Rng::seed_from(3);
        let mut with_bias = Linear::new(4, 2, &mut rng);
        let x = Tensor::zeros(&[1, 4]);
        let y = with_bias.forward(&x, Mode::Eval).unwrap();
        // Zero input → output equals bias.
        let b = with_bias.bias.as_ref().unwrap().value.clone();
        assert!(y.reshape(&[2]).unwrap().approx_eq(&b, 1e-6));
    }

    #[test]
    fn rejects_bad_input_shape() {
        let mut rng = Rng::seed_from(4);
        let mut layer = Linear::new(4, 2, &mut rng);
        assert!(layer.forward(&Tensor::zeros(&[2, 5]), Mode::Eval).is_err());
        assert!(layer.forward(&Tensor::zeros(&[4]), Mode::Eval).is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = Rng::seed_from(5);
        let mut layer = Linear::new(4, 2, &mut rng);
        assert!(matches!(
            layer.backward(&Tensor::zeros(&[1, 2])),
            Err(NnError::BackwardBeforeForward("Linear"))
        ));
    }

    #[test]
    fn param_count_and_zero_grad() {
        let mut rng = Rng::seed_from(6);
        let mut layer = Linear::new(4, 3, &mut rng);
        assert_eq!(layer.param_count(), 4 * 3 + 3);
        let x = Tensor::randn(&[2, 4], 0.0, 1.0, &mut rng);
        let y = layer.forward(&x, Mode::Train).unwrap();
        layer.backward(&Tensor::ones(y.dims())).unwrap();
        assert!(layer.weight.grad.sq_norm() > 0.0);
        layer.zero_grad();
        assert_eq!(layer.weight.grad.sq_norm(), 0.0);
    }

    #[test]
    fn gradients_accumulate_across_backward_calls() {
        let mut rng = Rng::seed_from(7);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = Tensor::randn(&[2, 3], 0.0, 1.0, &mut rng);
        let y = layer.forward(&x, Mode::Train).unwrap();
        let g = Tensor::ones(y.dims());
        layer.backward(&g).unwrap();
        let first = layer.weight.grad.clone();
        layer.forward(&x, Mode::Train).unwrap();
        layer.backward(&g).unwrap();
        assert!(layer.weight.grad.approx_eq(&first.scale(2.0), 1e-5));
    }
}
