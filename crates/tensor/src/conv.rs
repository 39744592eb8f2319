//! Convolution kernels (1-D and 2-D) based on im2col/col2im.
//!
//! Layouts follow the deep-learning convention used throughout the paper:
//! 2-D activations are `[N, C, H, W]`, 1-D activations are `[N, C, L]`,
//! 2-D kernels are `[OutC, InC, KH, KW]` and 1-D kernels are `[OutC, InC, K]`.
//!
//! Both the forward products and the three gradient products needed for a
//! hand-written backward pass (`∂L/∂input`, `∂L/∂weight`, `∂L/∂bias`) are
//! provided; 1-D convolution is implemented by lifting to a 2-D convolution
//! with height 1 so there is a single, well-tested code path.

use crate::error::TensorError;
use crate::ops;
use crate::scratch::{uninit_slice, Scratch};
use crate::telemetry;
use crate::tensor::Tensor;
use crate::Result;

/// Spatial geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride applied to both spatial dimensions.
    pub stride: usize,
    /// Zero padding applied to both spatial dimensions.
    pub pad: usize,
}

impl Conv2dSpec {
    /// Creates a square-kernel spec.
    pub fn new(kernel: usize, stride: usize, pad: usize) -> Self {
        Self {
            kh: kernel,
            kw: kernel,
            stride,
            pad,
        }
    }

    /// Output spatial size for an `(h, w)` input.
    ///
    /// # Errors
    ///
    /// Returns an error when the kernel (with padding) does not fit in the
    /// input or the stride is zero.
    pub fn output_hw(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        if self.stride == 0 {
            return Err(TensorError::InvalidArgument("stride must be > 0".into()));
        }
        let h_eff = h + 2 * self.pad;
        let w_eff = w + 2 * self.pad;
        if h_eff < self.kh || w_eff < self.kw {
            return Err(TensorError::InvalidArgument(format!(
                "kernel {}x{} larger than padded input {}x{}",
                self.kh, self.kw, h_eff, w_eff
            )));
        }
        Ok((
            (h_eff - self.kh) / self.stride + 1,
            (w_eff - self.kw) / self.stride + 1,
        ))
    }
}

/// The derived geometry of one 2-D convolution applied to a concrete input
/// shape — the single source of truth for the im2col output-shape arithmetic
/// that used to be recomputed ad hoc at every call site (tensor kernels,
/// `invnorm_nn` layers, the plan compiler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Batch size.
    pub n: usize,
    /// Input channels.
    pub c: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Output height.
    pub oh: usize,
    /// Output width.
    pub ow: usize,
    /// im2col patch length `C·KH·KW` (the GEMM reduction dimension).
    pub patch: usize,
    /// im2col row count `N·OH·OW` (the GEMM m dimension).
    pub rows: usize,
}

impl ConvShape {
    /// Output dims `[N, OC, OH, OW]` for `oc` output channels.
    pub fn output_dims(&self, oc: usize) -> [usize; 4] {
        [self.n, oc, self.oh, self.ow]
    }
}

/// Computes the im2col/output geometry of `spec` applied to an
/// `[N, C, H, W]` input.
///
/// # Errors
///
/// Returns an error when `input_dims` is not rank-4 or the geometry is
/// invalid (kernel larger than the padded input, zero stride).
pub fn conv_out_shape(input_dims: &[usize], spec: &Conv2dSpec) -> Result<ConvShape> {
    if input_dims.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input_dims.len(),
        });
    }
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    let (oh, ow) = spec.output_hw(h, w)?;
    Ok(ConvShape {
        n,
        c,
        h,
        w,
        oh,
        ow,
        patch: c * spec.kh * spec.kw,
        rows: n * oh * ow,
    })
}

/// Unfolds an `[N, C, H, W]` input into a `[N*OH*OW, C*KH*KW]` matrix of
/// receptive-field patches (zero padded).
///
/// # Errors
///
/// Returns an error when the input is not rank-4 or the geometry is invalid.
pub fn im2col(input: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    let shape = conv_out_shape(input.dims(), spec)?;
    let mut cols = vec![0.0f32; shape.rows * shape.patch];
    im2col_into(input, spec, &mut cols)?;
    Tensor::from_vec(cols, &[shape.rows, shape.patch])
}

/// [`im2col`] into a caller-provided buffer of exactly
/// `N*OH*OW × C*KH*KW` elements (every element is overwritten), so repeated
/// forward passes can reuse one allocation — see [`conv2d_forward_with_scratch`].
///
/// # Errors
///
/// Returns an error when the input is not rank-4, the geometry is invalid or
/// the buffer length is wrong.
pub fn im2col_into(input: &Tensor, spec: &Conv2dSpec, cols: &mut [f32]) -> Result<()> {
    let (n, c, h, w) = as_nchw(input)?;
    im2col_generic(input.data(), n, c, h, w, spec, cols)
}

/// [`im2col_into`] over raw **i8 quantization codes** in NCHW layout, for the
/// quantized conv path: the patch matrix stays in the integer code domain so
/// it can feed the i8 GEMM directly. Zero padding inserts code `0`, which is
/// exact for the symmetric quantizers used throughout the workspace
/// (`0.0` maps to code `0`).
///
/// # Errors
///
/// Returns an error when `dims` is not rank-4, the geometry is invalid or a
/// buffer length is wrong.
pub fn im2col_codes_into(
    codes: &[i8],
    dims: &[usize],
    spec: &Conv2dSpec,
    cols: &mut [i8],
) -> Result<()> {
    if dims.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: dims.len(),
        });
    }
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    if codes.len() != n * c * h * w {
        return Err(TensorError::ShapeMismatch {
            lhs: dims.to_vec(),
            rhs: vec![codes.len()],
        });
    }
    im2col_generic(codes, n, c, h, w, spec, cols)
}

/// [`im2col_into`] over a raw element slice in NCHW layout — the entry point
/// compiled plans use to unfold activations living in arena buffers without
/// materializing a tensor. Element-type generic (f32 activations, i8 codes).
///
/// # Errors
///
/// Returns an error when `dims` is not rank-4, the geometry is invalid or a
/// buffer length is wrong.
pub fn im2col_slice_into<T: Copy + Default>(
    data: &[T],
    dims: &[usize],
    spec: &Conv2dSpec,
    cols: &mut [T],
) -> Result<()> {
    if dims.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: dims.len(),
        });
    }
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    if data.len() != n * c * h * w {
        return Err(TensorError::ShapeMismatch {
            lhs: dims.to_vec(),
            rhs: vec![data.len()],
        });
    }
    im2col_generic(data, n, c, h, w, spec, cols)
}

/// Element-type-generic patch unfolding shared by the f32 and i8 paths.
fn im2col_generic<T: Copy + Default>(
    data: &[T],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    cols: &mut [T],
) -> Result<()> {
    let _span = telemetry::span(telemetry::Phase::Im2col);
    let (oh, ow) = spec.output_hw(h, w)?;
    let patch = c * spec.kh * spec.kw;
    let rows = n * oh * ow;
    if cols.len() != rows * patch {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![rows, patch],
            rhs: vec![cols.len()],
        });
    }
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = (ni * oh + oy) * ow + ox;
                let row_base = row * patch;
                for ci in 0..c {
                    for ky in 0..spec.kh {
                        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                        let in_y = iy >= 0 && (iy as usize) < h;
                        for kx in 0..spec.kw {
                            let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                            let col_idx = (ci * spec.kh + ky) * spec.kw + kx;
                            let value = if in_y && ix >= 0 && (ix as usize) < w {
                                data[((ni * c + ci) * h + iy as usize) * w + ix as usize]
                            } else {
                                T::default()
                            };
                            cols[row_base + col_idx] = value;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Folds a `[N*OH*OW, C*KH*KW]` patch-gradient matrix back onto an
/// `[N, C, H, W]` input gradient (the adjoint of [`im2col`]). Overlapping
/// patches accumulate.
///
/// # Errors
///
/// Returns an error when shapes do not correspond to the given geometry.
pub fn col2im(cols: &Tensor, input_dims: &[usize], spec: &Conv2dSpec) -> Result<Tensor> {
    let (rc, cc) = ops::as_matrix_dims(cols)?;
    let mut out = vec![0.0f32; input_dims.iter().product()];
    col2im_into(cols.data(), rc, cc, input_dims, spec, &mut out)?;
    Tensor::from_vec(out, input_dims)
}

/// [`col2im`] into a caller-provided buffer of exactly `N*C*H*W` elements
/// (zeroed, then accumulated into), so the training backward pass can reuse
/// one allocation across steps — see [`conv2d_backward_into`].
///
/// # Errors
///
/// Returns an error when shapes do not correspond to the given geometry.
pub fn col2im_into(
    cols: &[f32],
    cols_rows: usize,
    cols_cols: usize,
    input_dims: &[usize],
    spec: &Conv2dSpec,
    out: &mut [f32],
) -> Result<()> {
    if input_dims.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input_dims.len(),
        });
    }
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    let (oh, ow) = spec.output_hw(h, w)?;
    let patch = c * spec.kh * spec.kw;
    let rows = n * oh * ow;
    if cols_rows != rows || cols_cols != patch || cols.len() != rows * patch {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![rows, patch],
            rhs: vec![cols_rows, cols_cols],
        });
    }
    if out.len() != n * c * h * w {
        return Err(TensorError::ShapeMismatch {
            lhs: input_dims.to_vec(),
            rhs: vec![out.len()],
        });
    }
    out.fill(0.0);
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = (ni * oh + oy) * ow + ox;
                let row_base = row * patch;
                for ci in 0..c {
                    for ky in 0..spec.kh {
                        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                        for kx in 0..spec.kw {
                            let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                            if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                                let col_idx = (ci * spec.kh + ky) * spec.kw + kx;
                                out[((ni * c + ci) * h + iy as usize) * w + ix as usize] +=
                                    cols[row_base + col_idx];
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Result of a 2-D convolution forward pass, retaining the unfolded patches
/// needed by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dForward {
    /// Convolution output, `[N, OutC, OH, OW]`.
    pub output: Tensor,
    /// The im2col patch matrix, cached for the backward pass.
    pub cols: Tensor,
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient w.r.t. the input, `[N, InC, H, W]`.
    pub grad_input: Tensor,
    /// Gradient w.r.t. the kernel, `[OutC, InC, KH, KW]`.
    pub grad_weight: Tensor,
    /// Gradient w.r.t. the bias, `[OutC]`.
    pub grad_bias: Tensor,
}

/// 2-D convolution forward pass.
///
/// `input` is `[N, InC, H, W]`, `weight` is `[OutC, InC, KH, KW]` and `bias`
/// (if given) is `[OutC]`.
///
/// # Errors
///
/// Returns an error when shapes are inconsistent with `spec`.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
) -> Result<Conv2dForward> {
    let (n, c, h, w) = as_nchw(input)?;
    let wd = weight.dims();
    if wd.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: wd.len(),
        });
    }
    let (oc, wc, wkh, wkw) = (wd[0], wd[1], wd[2], wd[3]);
    if wc != c || wkh != spec.kh || wkw != spec.kw {
        return Err(TensorError::InvalidArgument(format!(
            "weight shape {wd:?} inconsistent with input channels {c} and kernel {}x{}",
            spec.kh, spec.kw
        )));
    }
    let (oh, ow) = spec.output_hw(h, w)?;
    let cols = im2col(input, spec)?;
    let weight_mat = weight.reshape(&[oc, c * spec.kh * spec.kw])?;
    // [N*OH*OW, patch] @ [patch, OC] -> [N*OH*OW, OC]
    let out_mat = ops::matmul_a_bt(&cols, &weight_mat)?;
    let out = relayout_nchw(out_mat.data(), bias, n, oc, oh, ow);
    Ok(Conv2dForward {
        output: Tensor::from_vec(out, &[n, oc, oh, ow])?,
        cols,
    })
}

/// 2-D convolution forward pass for inference hot loops: identical math to
/// [`conv2d_forward`], but the im2col patch matrix and the GEMM staging
/// buffer live in the caller's [`Scratch`] (and the GEMM packing buffers in
/// a thread-local one), so steady-state calls only allocate the returned
/// output tensor. No patch matrix is retained — use [`conv2d_forward`] when
/// a backward pass will follow.
///
/// # Errors
///
/// Returns an error when shapes are inconsistent with `spec`.
pub fn conv2d_forward_with_scratch(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
    scratch: &mut Scratch,
) -> Result<Tensor> {
    let (n, c, _, _) = as_nchw(input)?;
    let wd = weight.dims();
    if wd.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: wd.len(),
        });
    }
    let (oc, wc, wkh, wkw) = (wd[0], wd[1], wd[2], wd[3]);
    if wc != c || wkh != spec.kh || wkw != spec.kw {
        return Err(TensorError::InvalidArgument(format!(
            "weight shape {wd:?} inconsistent with input channels {c} and kernel {}x{}",
            spec.kh, spec.kw
        )));
    }
    let ConvShape {
        oh,
        ow,
        patch,
        rows,
        ..
    } = conv_out_shape(input.dims(), spec)?;
    let cols = uninit_slice(&mut scratch.cols, rows * patch);
    im2col_into(input, spec, cols)?;
    // [rows, patch] @ [oc, patch]ᵀ -> [rows, oc]
    let out_mat = uninit_slice(&mut scratch.out_mat, rows * oc);
    ops::gemm(
        false,
        true,
        rows,
        oc,
        patch,
        1.0,
        cols,
        weight.data(),
        0.0,
        out_mat,
    );
    let out = relayout_nchw(out_mat, bias, n, oc, oh, ow);
    Tensor::from_vec(out, &[n, oc, oh, ow])
}

/// Re-layouts a `[N*OH*OW, OC]` GEMM result into `[N, OC, OH, OW]`, adding
/// the per-channel bias on the way.
fn relayout_nchw(
    om: &[f32],
    bias: Option<&Tensor>,
    n: usize,
    oc: usize,
    oh: usize,
    ow: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; n * oc * oh * ow];
    relayout_nchw_into(om, bias, n, oc, oh, ow, &mut out);
    out
}

/// `relayout_nchw` into a caller-provided slice of exactly `N*OC*OH*OW`
/// elements (every element is overwritten), adding the per-channel bias on
/// the way. Public so compiled plans can re-layout GEMM results straight
/// into arena buffers.
pub fn relayout_nchw_into(
    om: &[f32],
    bias: Option<&Tensor>,
    n: usize,
    oc: usize,
    oh: usize,
    ow: usize,
    out: &mut [f32],
) {
    relayout_nchw_strided(om, oc, 0, bias, n, oc, oh, ow, out);
}

/// [`relayout_nchw_into`] reading a `[N*OH*OW, ld]` GEMM result at column
/// offset `col0` — the extraction step of the batch-fused wide GEMM, where
/// realization `b` owns columns `[b·OC, (b+1)·OC)` of one `[rows, B·OC]`
/// product. Public so batched compiled plans can extract realizations
/// straight into arena buffers.
#[allow(clippy::too_many_arguments)]
pub fn relayout_nchw_strided(
    om: &[f32],
    ld: usize,
    col0: usize,
    bias: Option<&Tensor>,
    n: usize,
    oc: usize,
    oh: usize,
    ow: usize,
    out: &mut [f32],
) {
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = (ni * oh + oy) * ow + ox;
                for ci in 0..oc {
                    let mut v = om[row * ld + col0 + ci];
                    if let Some(b) = bias {
                        v += b.data()[ci];
                    }
                    out[((ni * oc + ci) * oh + oy) * ow + ox] = v;
                }
            }
        }
    }
}

/// 2-D convolution backward pass.
///
/// `grad_output` is `[N, OutC, OH, OW]`; `cols` is the patch matrix cached by
/// [`conv2d_forward`].
///
/// # Errors
///
/// Returns an error when shapes are inconsistent.
pub fn conv2d_backward(
    grad_output: &Tensor,
    cols: &Tensor,
    weight: &Tensor,
    input_dims: &[usize],
    spec: &Conv2dSpec,
) -> Result<Conv2dGrads> {
    let god = grad_output.dims();
    if god.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: god.len(),
        });
    }
    let (n, oc, oh, ow) = (god[0], god[1], god[2], god[3]);
    let wd = weight.dims();
    let patch = wd[1] * wd[2] * wd[3];
    // Re-layout grad_output [N, OC, OH, OW] into matrix [N*OH*OW, OC].
    let gd = grad_output.data();
    let mut go_mat = vec![0.0f32; n * oh * ow * oc];
    for ni in 0..n {
        for ci in 0..oc {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = (ni * oh + oy) * ow + ox;
                    go_mat[row * oc + ci] = gd[((ni * oc + ci) * oh + oy) * ow + ox];
                }
            }
        }
    }
    let go_mat = Tensor::from_vec(go_mat, &[n * oh * ow, oc])?;
    let weight_mat = weight.reshape(&[oc, patch])?;
    // grad_cols = go_mat @ weight_mat : [rows, patch]
    let grad_cols = ops::matmul(&go_mat, &weight_mat)?;
    let grad_input = col2im(&grad_cols, input_dims, spec)?;
    // grad_weight = go_matᵀ @ cols : [OC, patch]
    let grad_weight = ops::matmul_at_b(&go_mat, cols)?.reshape(wd)?;
    // grad_bias = column sums of go_mat
    let grad_bias = ops::sum_axis(&go_mat, 0)?;
    Ok(Conv2dGrads {
        grad_input,
        grad_weight,
        grad_bias,
    })
}

/// 2-D convolution backward pass for training hot loops: identical math to
/// [`conv2d_backward`], but the gradient staging buffers (the re-laid-out
/// `grad_output` matrix, the patch-gradient matrix and the per-channel bias
/// sums) live in the caller's [`Scratch`], and the weight/bias gradients are
/// **accumulated in place** (`+=`) instead of being returned as fresh
/// tensors. Steady-state backward steps therefore allocate only the returned
/// input-gradient tensor.
///
/// # Errors
///
/// Returns an error when shapes are inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_into(
    grad_output: &Tensor,
    cols: &Tensor,
    weight: &Tensor,
    input_dims: &[usize],
    spec: &Conv2dSpec,
    grad_weight: &mut Tensor,
    grad_bias: Option<&mut Tensor>,
    scratch: &mut Scratch,
) -> Result<Tensor> {
    let god = grad_output.dims();
    if god.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: god.len(),
        });
    }
    let (n, oc, oh, ow) = (god[0], god[1], god[2], god[3]);
    let wd = weight.dims().to_vec();
    let patch = wd[1] * wd[2] * wd[3];
    let rows = n * oh * ow;
    let (cr, cc) = ops::as_matrix_dims(cols)?;
    if cr != rows || cc != patch {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![rows, patch],
            rhs: vec![cr, cc],
        });
    }
    if grad_weight.dims() != wd {
        return Err(TensorError::ShapeMismatch {
            lhs: wd,
            rhs: grad_weight.dims().to_vec(),
        });
    }
    let Scratch {
        cols: grad_cols_buf,
        out_mat: go_buf,
        step: bias_buf,
        ..
    } = scratch;
    // Re-layout grad_output [N, OC, OH, OW] into matrix [N*OH*OW, OC].
    let gd = grad_output.data();
    let go_mat = uninit_slice(go_buf, rows * oc);
    for ni in 0..n {
        for ci in 0..oc {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = (ni * oh + oy) * ow + ox;
                    go_mat[row * oc + ci] = gd[((ni * oc + ci) * oh + oy) * ow + ox];
                }
            }
        }
    }
    // grad_weight += go_matᵀ @ cols : [OC, patch], fused with β = 1.
    crate::gemm::gemm(
        true,
        false,
        oc,
        patch,
        rows,
        1.0,
        go_mat,
        cols.data(),
        1.0,
        grad_weight.data_mut(),
    );
    if let Some(gb) = grad_bias {
        if gb.numel() != oc {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![oc],
                rhs: gb.dims().to_vec(),
            });
        }
        // Column sums of go_mat, staged so the accumulation into the live
        // gradient keeps the same summation order as `sum_axis` + add.
        let sums = uninit_slice(bias_buf, oc);
        sums.fill(0.0);
        for row in 0..rows {
            for (s, &g) in sums.iter_mut().zip(&go_mat[row * oc..(row + 1) * oc]) {
                *s += g;
            }
        }
        for (g, &s) in gb.data_mut().iter_mut().zip(sums.iter()) {
            *g += s;
        }
    }
    // grad_cols = go_mat @ weight_mat : [rows, patch]
    let grad_cols = uninit_slice(grad_cols_buf, rows * patch);
    crate::gemm::gemm(
        false,
        false,
        rows,
        patch,
        oc,
        1.0,
        go_mat,
        weight.data(),
        0.0,
        grad_cols,
    );
    let mut grad_input = vec![0.0f32; input_dims.iter().product()];
    col2im_into(grad_cols, rows, patch, input_dims, spec, &mut grad_input)?;
    Tensor::from_vec(grad_input, input_dims)
}

/// Lifts a `[N, C, L]` tensor to `[N, C, 1, L]` so 1-D convolutions reuse the
/// 2-D kernels.
///
/// # Errors
///
/// Returns an error when the input is not rank-3.
pub fn lift_1d(input: &Tensor) -> Result<Tensor> {
    let d = input.dims();
    if d.len() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: d.len(),
        });
    }
    input.reshape(&[d[0], d[1], 1, d[2]])
}

/// Squeezes a `[N, C, 1, L]` tensor back to `[N, C, L]`.
///
/// # Errors
///
/// Returns an error when the input is not rank-4 with height 1.
pub fn squeeze_1d(input: &Tensor) -> Result<Tensor> {
    let d = input.dims();
    if d.len() != 4 || d[2] != 1 {
        return Err(TensorError::InvalidArgument(format!(
            "expected [N, C, 1, L], got {d:?}"
        )));
    }
    input.reshape(&[d[0], d[1], d[3]])
}

fn as_nchw(t: &Tensor) -> Result<(usize, usize, usize, usize)> {
    let d = t.dims();
    if d.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: d.len(),
        });
    }
    Ok((d[0], d[1], d[2], d[3]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn reference_conv2d(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: &Conv2dSpec,
    ) -> Tensor {
        let (n, c, h, w) = as_nchw(input).unwrap();
        let wd = weight.dims();
        let oc = wd[0];
        let (oh, ow) = spec.output_hw(h, w).unwrap();
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        for ni in 0..n {
            for co in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.map(|b| b.data()[co]).unwrap_or(0.0);
                        for ci in 0..c {
                            for ky in 0..spec.kh {
                                for kx in 0..spec.kw {
                                    let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                                    let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                                    if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w
                                    {
                                        let xv =
                                            input.get(&[ni, ci, iy as usize, ix as usize]).unwrap();
                                        let wv = weight.get(&[co, ci, ky, kx]).unwrap();
                                        acc += xv * wv;
                                    }
                                }
                            }
                        }
                        out.set(&[ni, co, oy, ox], acc).unwrap();
                    }
                }
            }
        }
        out
    }

    #[test]
    fn output_geometry() {
        let spec = Conv2dSpec::new(3, 1, 1);
        assert_eq!(spec.output_hw(8, 8).unwrap(), (8, 8));
        let spec = Conv2dSpec::new(3, 2, 1);
        assert_eq!(spec.output_hw(8, 8).unwrap(), (4, 4));
        let spec = Conv2dSpec::new(5, 1, 0);
        assert!(spec.output_hw(3, 3).is_err());
        let bad = Conv2dSpec {
            kh: 1,
            kw: 1,
            stride: 0,
            pad: 0,
        };
        assert!(bad.output_hw(4, 4).is_err());
    }

    #[test]
    fn forward_matches_naive_reference() {
        let mut rng = Rng::seed_from(2);
        for &(stride, pad) in &[(1usize, 0usize), (1, 1), (2, 1)] {
            let spec = Conv2dSpec::new(3, stride, pad);
            let input = Tensor::randn(&[2, 3, 6, 6], 0.0, 1.0, &mut rng);
            let weight = Tensor::randn(&[4, 3, 3, 3], 0.0, 0.5, &mut rng);
            let bias = Tensor::randn(&[4], 0.0, 0.5, &mut rng);
            let got = conv2d_forward(&input, &weight, Some(&bias), &spec).unwrap();
            let expected = reference_conv2d(&input, &weight, Some(&bias), &spec);
            assert!(
                got.output.approx_eq(&expected, 1e-4),
                "mismatch for stride {stride} pad {pad}"
            );
        }
    }

    #[test]
    fn im2col_col2im_adjointness() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of an adjoint pair, which is exactly what backward needs.
        let mut rng = Rng::seed_from(3);
        let spec = Conv2dSpec::new(3, 1, 1);
        let x = Tensor::randn(&[1, 2, 5, 5], 0.0, 1.0, &mut rng);
        let cols = im2col(&x, &spec).unwrap();
        let y = Tensor::randn(cols.dims(), 0.0, 1.0, &mut rng);
        let lhs: f32 = cols
            .data()
            .iter()
            .zip(y.data().iter())
            .map(|(a, b)| a * b)
            .sum();
        let back = col2im(&y, x.dims(), &spec).unwrap();
        let rhs: f32 = x
            .data()
            .iter()
            .zip(back.data().iter())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-2, "lhs {lhs} rhs {rhs}");
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        let mut rng = Rng::seed_from(4);
        let spec = Conv2dSpec::new(3, 1, 1);
        let input = Tensor::randn(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let weight = Tensor::randn(&[3, 2, 3, 3], 0.0, 0.5, &mut rng);
        let bias = Tensor::randn(&[3], 0.0, 0.5, &mut rng);

        // Loss = sum(output); grad_output = ones.
        let fwd = conv2d_forward(&input, &weight, Some(&bias), &spec).unwrap();
        let grad_out = Tensor::ones(fwd.output.dims());
        let grads = conv2d_backward(&grad_out, &fwd.cols, &weight, input.dims(), &spec).unwrap();

        let eps = 1e-2f32;
        // Check a few weight coordinates against central differences.
        for &idx in &[0usize, 7, 20, 35] {
            let mut wp = weight.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = weight.clone();
            wm.data_mut()[idx] -= eps;
            let lp = conv2d_forward(&input, &wp, Some(&bias), &spec)
                .unwrap()
                .output
                .sum();
            let lm = conv2d_forward(&input, &wm, Some(&bias), &spec)
                .unwrap()
                .output
                .sum();
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads.grad_weight.data()[idx];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                "weight grad {idx}: numerical {num} analytic {ana}"
            );
        }
        // Check a few input coordinates.
        for &idx in &[0usize, 5, 17, 31] {
            let mut xp = input.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = input.clone();
            xm.data_mut()[idx] -= eps;
            let lp = conv2d_forward(&xp, &weight, Some(&bias), &spec)
                .unwrap()
                .output
                .sum();
            let lm = conv2d_forward(&xm, &weight, Some(&bias), &spec)
                .unwrap()
                .output
                .sum();
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads.grad_input.data()[idx];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                "input grad {idx}: numerical {num} analytic {ana}"
            );
        }
        // Bias gradient: each output position contributes 1.
        let per_channel = (fwd.output.numel() / 3) as f32;
        for &g in grads.grad_bias.data() {
            assert!((g - per_channel).abs() < 1e-3);
        }
    }

    #[test]
    fn lift_and_squeeze_1d() {
        let x = Tensor::linspace(0.0, 1.0, 12).reshape(&[2, 2, 3]).unwrap();
        let lifted = lift_1d(&x).unwrap();
        assert_eq!(lifted.dims(), &[2, 2, 1, 3]);
        let back = squeeze_1d(&lifted).unwrap();
        assert!(back.approx_eq(&x, 0.0));
        assert!(lift_1d(&Tensor::zeros(&[2, 2])).is_err());
        assert!(squeeze_1d(&Tensor::zeros(&[2, 2, 2, 3])).is_err());
    }

    #[test]
    fn conv_rejects_inconsistent_weight() {
        let spec = Conv2dSpec::new(3, 1, 1);
        let input = Tensor::zeros(&[1, 3, 8, 8]);
        let weight = Tensor::zeros(&[4, 2, 3, 3]); // wrong in-channels
        assert!(conv2d_forward(&input, &weight, None, &spec).is_err());
        let mut scratch = Scratch::new();
        assert!(conv2d_forward_with_scratch(&input, &weight, None, &spec, &mut scratch).is_err());
    }

    #[test]
    fn scratch_forward_matches_allocating_forward() {
        let mut rng = Rng::seed_from(10);
        let mut scratch = Scratch::new();
        for &(stride, pad) in &[(1usize, 0usize), (1, 1), (2, 1)] {
            let spec = Conv2dSpec::new(3, stride, pad);
            let input = Tensor::randn(&[2, 3, 7, 7], 0.0, 1.0, &mut rng);
            let weight = Tensor::randn(&[5, 3, 3, 3], 0.0, 0.5, &mut rng);
            let bias = Tensor::randn(&[5], 0.0, 0.5, &mut rng);
            let reference = conv2d_forward(&input, &weight, Some(&bias), &spec)
                .unwrap()
                .output;
            let got =
                conv2d_forward_with_scratch(&input, &weight, Some(&bias), &spec, &mut scratch)
                    .unwrap();
            assert!(got.approx_eq(&reference, 1e-5), "stride {stride} pad {pad}");
        }
    }

    #[test]
    fn scratch_forward_reuses_buffers_across_calls() {
        let mut rng = Rng::seed_from(11);
        let spec = Conv2dSpec::new(3, 1, 1);
        let input = Tensor::randn(&[2, 4, 12, 12], 0.0, 1.0, &mut rng);
        let weight = Tensor::randn(&[8, 4, 3, 3], 0.0, 0.5, &mut rng);
        let mut scratch = Scratch::new();
        conv2d_forward_with_scratch(&input, &weight, None, &spec, &mut scratch).unwrap();
        let warm = scratch.capacity();
        for _ in 0..3 {
            conv2d_forward_with_scratch(&input, &weight, None, &spec, &mut scratch).unwrap();
        }
        assert_eq!(scratch.capacity(), warm, "steady state must not reallocate");
    }

    #[test]
    fn backward_into_matches_allocating_backward() {
        let mut rng = Rng::seed_from(21);
        for &(stride, pad) in &[(1usize, 1usize), (2, 1)] {
            let spec = Conv2dSpec::new(3, stride, pad);
            let input = Tensor::randn(&[2, 3, 6, 6], 0.0, 1.0, &mut rng);
            let weight = Tensor::randn(&[4, 3, 3, 3], 0.0, 0.5, &mut rng);
            let fwd = conv2d_forward(&input, &weight, None, &spec).unwrap();
            let grad_out = Tensor::randn(fwd.output.dims(), 0.0, 1.0, &mut rng);
            let reference =
                conv2d_backward(&grad_out, &fwd.cols, &weight, input.dims(), &spec).unwrap();

            let mut scratch = Scratch::new();
            let mut gw = Tensor::zeros(weight.dims());
            let mut gb = Tensor::zeros(&[4]);
            let gi = conv2d_backward_into(
                &grad_out,
                &fwd.cols,
                &weight,
                input.dims(),
                &spec,
                &mut gw,
                Some(&mut gb),
                &mut scratch,
            )
            .unwrap();
            assert!(gi.approx_eq(&reference.grad_input, 1e-5));
            assert!(gw.approx_eq(&reference.grad_weight, 1e-5));
            assert!(gb.approx_eq(&reference.grad_bias, 1e-4));

            // Accumulation semantics: a second call doubles the gradients.
            conv2d_backward_into(
                &grad_out,
                &fwd.cols,
                &weight,
                input.dims(),
                &spec,
                &mut gw,
                Some(&mut gb),
                &mut scratch,
            )
            .unwrap();
            assert!(gw.approx_eq(&reference.grad_weight.scale(2.0), 1e-4));

            // Steady state: no further scratch growth.
            let warm = scratch.capacity();
            for _ in 0..2 {
                conv2d_backward_into(
                    &grad_out,
                    &fwd.cols,
                    &weight,
                    input.dims(),
                    &spec,
                    &mut gw,
                    Some(&mut gb),
                    &mut scratch,
                )
                .unwrap();
            }
            assert_eq!(scratch.capacity(), warm, "stride {stride} pad {pad}");
        }
    }

    #[test]
    fn im2col_into_rejects_wrong_buffer_length() {
        let spec = Conv2dSpec::new(3, 1, 1);
        let input = Tensor::zeros(&[1, 2, 5, 5]);
        let mut too_small = vec![0.0f32; 7];
        assert!(im2col_into(&input, &spec, &mut too_small).is_err());
    }

    #[test]
    fn im2col_codes_agrees_with_f32_im2col() {
        // Integer-valued input: the i8 unfolding must produce exactly the
        // same patch matrix as the f32 path (zero padding = code 0).
        let mut rng = Rng::seed_from(12);
        for &(stride, pad) in &[(1usize, 0usize), (1, 1), (2, 1)] {
            let spec = Conv2dSpec::new(3, stride, pad);
            let codes: Vec<i8> = (0..2 * 3 * 6 * 6)
                .map(|_| (rng.normal(0.0, 40.0).round().clamp(-127.0, 127.0)) as i8)
                .collect();
            let dims = [2usize, 3, 6, 6];
            let as_f32: Vec<f32> = codes.iter().map(|&c| f32::from(c)).collect();
            let input = Tensor::from_vec(as_f32, &dims).unwrap();
            let expected = im2col(&input, &spec).unwrap();
            let mut cols = vec![0i8; expected.numel()];
            im2col_codes_into(&codes, &dims, &spec, &mut cols).unwrap();
            for (got, want) in cols.iter().zip(expected.data().iter()) {
                assert_eq!(f32::from(*got), *want, "stride {stride} pad {pad}");
            }
        }
        // Error paths: wrong rank, wrong code count, wrong buffer length.
        let spec = Conv2dSpec::new(3, 1, 1);
        let mut cols = vec![0i8; 8];
        assert!(im2col_codes_into(&[0i8; 4], &[2, 2], &spec, &mut cols).is_err());
        assert!(im2col_codes_into(&[0i8; 4], &[1, 2, 5, 5], &spec, &mut cols).is_err());
        assert!(im2col_codes_into(&[0i8; 50], &[1, 2, 5, 5], &spec, &mut cols).is_err());
    }
}
