//! The [`Layer`] trait, learnable [`Param`] storage and execution [`Mode`].

use crate::plan::{self, PlanArenas, PlanCtx, PlanShape};
use crate::Result;
use invnorm_tensor::Tensor;

/// Whether a forward pass is part of training (dropout active, batch
/// statistics updated) or evaluation.
///
/// Note that for the paper's Bayesian layers (affine dropout), stochasticity
/// is *also* applied at evaluation time — that behaviour is controlled by the
/// layer itself, not by `Mode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: stochastic regularizers active, normalization statistics
    /// computed from the current batch.
    Train,
    /// Inference: deterministic layers behave deterministically.
    Eval,
}

impl Mode {
    /// Returns `true` in training mode.
    pub fn is_train(self) -> bool {
        matches!(self, Mode::Train)
    }
}

/// A learnable parameter: its value, the gradient accumulated by the latest
/// backward pass, and optimizer scratch state (first/second moment estimates
/// for Adam, velocity for SGD momentum).
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient of the loss w.r.t. this parameter (same shape as `value`).
    pub grad: Tensor,
    /// First-moment / velocity buffer, lazily created by optimizers.
    pub opt_m: Option<Tensor>,
    /// Second-moment buffer, lazily created by Adam.
    pub opt_v: Option<Tensor>,
    /// When `false` the optimizer skips this parameter (frozen).
    pub trainable: bool,
}

impl Param {
    /// Wraps a tensor as a trainable parameter with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Self {
            value,
            grad,
            opt_m: None,
            opt_v: None,
            trainable: true,
        }
    }

    /// Wraps a tensor as a frozen (non-trainable) parameter.
    pub fn frozen(value: Tensor) -> Self {
        let mut p = Self::new(value);
        p.trainable = false;
        p
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar elements in the parameter.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }

    /// Whether the parameter is a default fault target: rank ≥ 2
    /// (convolution kernels, linear and recurrent weight matrices), the
    /// values programmed into crossbar cells. Biases and normalization
    /// affines are computed digitally outside the crossbar.
    pub fn is_fault_target(&self) -> bool {
        self.value.rank() >= 2
    }
}

/// A mutable view of one quantized parameter's integer codes, handed to
/// [`Layer::visit_codes`] visitors.
///
/// This is the code-domain analogue of [`Param`]: fault injectors perturb
/// `codes` directly (bit flips, stuck-at cells) instead of round-tripping
/// through f32, so the realization lands exactly on the representation the
/// hardware programs into the crossbar.
#[derive(Debug)]
pub struct CodeView<'a> {
    /// The packed i8 quantization codes, row-major.
    pub codes: &'a mut [i8],
    /// Bit width of the quantized representation (≤ 8).
    pub bits: u8,
    /// Leading (output) dimension of the code matrix — the row count
    /// structured tile topologies map crossbar lines onto.
    pub rows: usize,
}

/// An object-safe neural-network layer with explicit forward and backward
/// passes.
///
/// Implementations cache whatever activations they need during `forward` and
/// consume them in `backward`; calling `backward` without a preceding
/// `forward` returns [`crate::NnError::BackwardBeforeForward`].
pub trait Layer {
    /// Computes the layer output for `input`.
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible with the layer.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor>;

    /// Propagates `grad_output` (gradient of the loss w.r.t. this layer's
    /// output) back to the input, accumulating parameter gradients
    /// internally.
    ///
    /// # Errors
    ///
    /// Returns an error when called before `forward` or when the gradient
    /// shape does not match the cached forward activation.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// Visits every learnable parameter (used by optimizers and fault
    /// injectors).
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        let _ = visitor;
    }

    /// Visits every quantized weight's integer codes (used by code-domain
    /// fault injectors). Float layers have none; quantized layers and
    /// containers override this.
    fn visit_codes(&mut self, visitor: &mut dyn FnMut(CodeView<'_>)) {
        let _ = visitor;
    }

    /// Compiles this layer into an inference plan for a concrete input
    /// shape: records shapes and reserves arena buffers. Returns the output
    /// edge (see [`crate::plan`]).
    ///
    /// A layer with fault-targetable state overrides this and registers
    /// each such matrix, in visit order, as a plan-owned operand
    /// ([`crate::plan::Operands::register`] on `arenas.weights` or
    /// `arenas.codes`), reading it back by id in [`Layer::plan_forward`];
    /// `Plan::compile` fails with [`crate::NnError::Config`] if one is left
    /// unregistered. Containers compile children in `visit_params` order.
    /// A GEMM layer (one that multiplies its input rows or patches by its
    /// weight matrix) does not do this by hand: it keeps a
    /// [`crate::plan::GemmNode`], built by
    /// [`crate::plan::GemmNode::compile`] (which registers the operand,
    /// asks [`crate::plan::PlanArenas::gemm_layer`] whether the input edge
    /// is frozen and reserves the buffers), and its `plan_forward` calls
    /// [`crate::plan::GemmNode::forward`] with a closure that builds one
    /// realization's A operand; `Linear`, `Conv2d` and both quantized
    /// layers are written this way. A layer that copies its input unchanged
    /// into a new edge declares it with
    /// [`crate::plan::PlanArenas::copy_edge`].
    ///
    /// The default implementation is the *fallback* protocol for layers
    /// without fault-targetable state: it discovers the output shape by
    /// forwarding zeros once and reserves an output slot;
    /// [`Layer::plan_forward`]'s default then routes through `forward`. It
    /// rejects layers with rank ≥ 2 parameters or quantization codes with
    /// [`crate::NnError::Unsupported`]. Every weighted layer of this crate
    /// (the `Lstm` included) overrides it, so only a user layer can hit the
    /// rejection; the planned Monte-Carlo engine then fails with it, while
    /// the sequential engine still runs such a layer on its direct path.
    ///
    /// # Errors
    ///
    /// Returns an error when the layer cannot be planned, an operand does
    /// not match its parameter, or the input shape is incompatible.
    fn plan_compile(&mut self, input: &PlanShape, arenas: &mut PlanArenas) -> Result<PlanShape> {
        plan::fallback_compile(self, input, arenas)
    }

    /// Executes this layer's node of a compiled plan: reads the input slot,
    /// writes the output slot reserved by [`Layer::plan_compile`]. Planned
    /// layers run zero-alloc on arena buffers; the default fallback routes
    /// through `forward` (correct for weightless layers, at the cost of the
    /// allocations `forward` makes).
    ///
    /// # Errors
    ///
    /// Returns an error when called without a prior [`Layer::plan_compile`]
    /// or on a shape mismatch.
    fn plan_forward(
        &mut self,
        input: &PlanShape,
        output: &PlanShape,
        ctx: PlanCtx,
        arenas: &mut PlanArenas,
    ) -> Result<()> {
        let _ = ctx;
        plan::fallback_forward(self, input, output, arenas)
    }

    /// Releases any state installed by [`Layer::plan_compile`]. Containers
    /// recurse.
    fn plan_end(&mut self) {}

    /// Human-readable layer name for diagnostics.
    fn name(&self) -> &'static str;

    /// Total number of learnable scalars in the layer.
    fn param_count(&mut self) -> usize {
        let mut count = 0usize;
        self.visit_params(&mut |p| count += p.numel());
        count
    }

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }
}

/// A boxed layer, the unit networks are assembled from.
pub type BoxedLayer = Box<dyn Layer + Send>;

#[cfg(test)]
mod tests {
    use super::*;

    struct Doubler {
        calls: usize,
    }

    impl Layer for Doubler {
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
            self.calls += 1;
            Ok(input.scale(2.0))
        }
        fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
            Ok(grad_output.scale(2.0))
        }
        fn name(&self) -> &'static str {
            "Doubler"
        }
    }

    #[test]
    fn mode_flags() {
        assert!(Mode::Train.is_train());
        assert!(!Mode::Eval.is_train());
    }

    #[test]
    fn param_lifecycle() {
        let mut p = Param::new(Tensor::ones(&[2, 3]));
        assert!(p.trainable);
        assert_eq!(p.numel(), 6);
        p.grad.fill(5.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
        let f = Param::frozen(Tensor::ones(&[2]));
        assert!(!f.trainable);
    }

    #[test]
    fn default_trait_methods() {
        let mut d = Doubler { calls: 0 };
        assert_eq!(d.param_count(), 0);
        d.zero_grad(); // no-op, but must not panic
        let x = Tensor::ones(&[2]);
        let y = d.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.data(), &[2.0, 2.0]);
        assert_eq!(d.name(), "Doubler");
    }

    #[test]
    fn boxed_layer_is_usable() {
        let mut layers: Vec<BoxedLayer> = vec![Box::new(Doubler { calls: 0 })];
        let x = Tensor::ones(&[3]);
        let y = layers[0].forward(&x, Mode::Train).unwrap();
        assert_eq!(y.sum(), 6.0);
    }
}
