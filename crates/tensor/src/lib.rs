//! # invnorm-tensor
//!
//! Minimal, dependency-light N-dimensional `f32` tensor library used as the
//! numerical substrate of the `invnorm` workspace (a Rust reproduction of
//! *"Enhancing Reliability of Neural Networks at the Edge: Inverted
//! Normalization with Stochastic Affine Transformations"*, DATE 2024).
//!
//! The paper's method is a layer-level modification of deep neural networks;
//! reproducing it offline requires a trainable tensor/NN stack. This crate
//! provides the tensor part:
//!
//! * [`Tensor`] — a contiguous, row-major, owned `f32` tensor with shape
//!   metadata, element-wise arithmetic, broadcasting against per-channel
//!   vectors, and reductions.
//! * [`ops`] — matrix multiplication, transposition, softmax, argmax and
//!   axis reductions used by the layer implementations.
//! * [`gemm`] — the cache-blocked, register-tiled, parallel GEMM that all
//!   matrix products route through: one blocked driver and one pair of
//!   packed operands, generic over f32 weights and i8 quantization codes.
//! * [`qgemm`] — the i8×i8→i32 element of [`gemm`] for the quantized
//!   inference path: its k-quad layout and integer microkernels, bit-exact
//!   on every kernel tier.
//! * [`dispatch`] — runtime SIMD kernel-tier selection (portable / AVX2 /
//!   AVX-512) shared by both GEMM element types and [`vecmath`], with an
//!   env/programmatic override for pinning a tier.
//! * [`vecmath`] — tier-dispatched vectorized elementwise math (activations,
//!   exp/softmax passes, normalization) with bit-identical per-lane
//!   semantics across all tiers.
//! * [`scratch`] — reusable workspace buffers so hot-path kernels allocate
//!   nothing in steady state.
//! * [`epilogue`] — the one store that turns a GEMM product into
//!   channel-major f32 output, dequantizing integer products and adding a
//!   per-channel bias on the way.
//! * [`conv`] — 1-D and 2-D convolution kernels: image-at-a-time `W · cols`
//!   products for inference, im2col/col2im for training (forward and the
//!   gradient products needed for backward passes).
//! * [`pool`] — max/average pooling kernels with argmax bookkeeping.
//! * [`rng`] — seeded random number utilities (uniform, Gaussian via
//!   Box–Muller, Bernoulli masks) so every experiment is reproducible.
//! * [`telemetry`] — opt-in, zero-steady-state-allocation phase spans,
//!   engine counters and chrome-trace export shared by the whole workspace.
//!
//! # Example
//!
//! ```
//! use invnorm_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
//! let b = Tensor::ones(&[2, 2]);
//! let c = a.add(&b).unwrap();
//! assert_eq!(c.data(), &[2.0, 3.0, 4.0, 5.0]);
//! ```

// The one crate allowed to contain `unsafe` (lint rule R2). Every
// unsafe operation inside an `unsafe fn` must still be acknowledged
// with a scoped `unsafe {}` block and its own SAFETY comment.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(missing_docs)]

pub mod arena;
pub mod conv;
pub mod dispatch;
pub mod epilogue;
pub mod error;
pub mod gemm;
pub mod ops;
pub mod pool;
pub mod qgemm;
pub mod rng;
pub mod scratch;
pub mod shape;
pub mod stats;
pub mod telemetry;
pub mod tensor;
pub mod vecmath;

pub use arena::{Arena, ArenaSlot, DirtyRows};
pub use error::TensorError;
pub use rng::Rng;
pub use scratch::Scratch;
pub use shape::Shape;
pub use telemetry::{RunTelemetry, Telemetry};
pub use tensor::Tensor;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
