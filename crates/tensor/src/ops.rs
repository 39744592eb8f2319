//! Dense linear-algebra and reduction kernels.
//!
//! These free functions operate on [`Tensor`]s interpreted as matrices
//! (rank-2) or batches of rows, and provide the handful of primitives the
//! layer implementations need: matrix products (including the transposed
//! variants used in backward passes), transposition, row-wise softmax /
//! log-softmax, and single-axis reductions.
//!
//! All three matrix-product entry points route into the cache-blocked,
//! register-tiled [`gemm`] kernel (see [`crate::gemm`]); the original naive
//! triple loops are retained verbatim in [`mod@reference`] as the correctness
//! oracle for tests and the baseline for the `layer_throughput` benchmark.

use crate::error::TensorError;
use crate::tensor::Tensor;
use crate::Result;

pub use crate::gemm::{gemm, gemm_with_scratch};

/// Matrix product `a @ b` for `a: [m, k]` and `b: [k, n]`.
///
/// # Errors
///
/// Returns an error when either input is not rank-2 or the inner dimensions
/// disagree.
///
/// # Example
///
/// ```
/// use invnorm_tensor::{ops, Tensor};
/// # fn main() -> Result<(), invnorm_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
/// assert!(ops::matmul(&a, &i)?.approx_eq(&a, 1e-6));
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = as_matrix_dims(a)?;
    let (k2, n) = as_matrix_dims(b)?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            lhs_cols: k,
            rhs_rows: k2,
        });
    }
    let mut out = vec![0.0f32; m * n];
    gemm(false, false, m, n, k, a.data(), b.data(), false, &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// Matrix product `aᵀ @ b` for `a: [k, m]` and `b: [k, n]` without forming the
/// transpose explicitly. Used for weight gradients.
///
/// # Errors
///
/// Returns an error when either input is not rank-2 or the shared dimension
/// disagrees.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m) = as_matrix_dims(a)?;
    let (k2, n) = as_matrix_dims(b)?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            lhs_cols: k,
            rhs_rows: k2,
        });
    }
    let mut out = vec![0.0f32; m * n];
    gemm(true, false, m, n, k, a.data(), b.data(), false, &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// Matrix product `a @ bᵀ` for `a: [m, k]` and `b: [n, k]` without forming the
/// transpose explicitly. Used for input gradients.
///
/// # Errors
///
/// Returns an error when either input is not rank-2 or the shared dimension
/// disagrees.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = as_matrix_dims(a)?;
    let (n, k2) = as_matrix_dims(b)?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            lhs_cols: k,
            rhs_rows: k2,
        });
    }
    let mut out = vec![0.0f32; m * n];
    gemm(false, true, m, n, k, a.data(), b.data(), false, &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// Shape-checked tensor wrapper over [`gemm`]: `c ← op(a) · op(b)`, or
/// `c += op(a) · op(b)` when `accumulate`.
///
/// Backward passes accumulate weight gradients directly into the gradient
/// tensor, fusing the former `matmul + add_assign` pair into one pass with
/// no temporary allocation.
///
/// # Errors
///
/// Returns an error when an operand is not rank-2 or the shapes are
/// inconsistent with `c`'s `[m, n]`.
pub fn gemm_into(
    trans_a: bool,
    trans_b: bool,
    a: &Tensor,
    b: &Tensor,
    accumulate: bool,
    c: &mut Tensor,
) -> Result<()> {
    let (ar, ac) = as_matrix_dims(a)?;
    let (br, bc) = as_matrix_dims(b)?;
    let (m, k) = if trans_a { (ac, ar) } else { (ar, ac) };
    let (kb, n) = if trans_b { (bc, br) } else { (br, bc) };
    if k != kb {
        return Err(TensorError::MatmulDimMismatch {
            lhs_cols: k,
            rhs_rows: kb,
        });
    }
    let (cr, cc) = as_matrix_dims(c)?;
    if cr != m || cc != n {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![m, n],
            rhs: vec![cr, cc],
        });
    }
    gemm(
        trans_a,
        trans_b,
        m,
        n,
        k,
        a.data(),
        b.data(),
        accumulate,
        c.data_mut(),
    );
    Ok(())
}

/// The seed's original naive matrix-product kernels, retained verbatim as
/// the correctness oracle for the blocked [`gemm`] and as the baseline the
/// `layer_throughput` benchmark measures speedups against.
///
/// Note the data-dependent `if a_ip == 0.0 { continue; }` branch in
/// [`reference::matmul`]: it makes dense throughput depend on activation
/// sparsity and poisons the hot loop with a branch per k-step — exactly what
/// the blocked kernel eliminates.
pub mod reference {
    use super::{as_matrix_dims, Result, Tensor, TensorError};

    /// Naive `a @ b` (row-major ikj loop with the historical sparsity skip).
    ///
    /// # Errors
    ///
    /// Returns an error when either input is not rank-2 or the inner
    /// dimensions disagree.
    pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (m, k) = as_matrix_dims(a)?;
        let (k2, n) = as_matrix_dims(b)?;
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                lhs_cols: k,
                rhs_rows: k2,
            });
        }
        let ad = a.data();
        let bd = b.data();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &ad[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &a_ip) in a_row.iter().enumerate() {
                if a_ip == 0.0 {
                    continue;
                }
                let b_row = &bd[p * n..(p + 1) * n];
                for (j, &b_pj) in b_row.iter().enumerate() {
                    out_row[j] += a_ip * b_pj;
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Naive `aᵀ @ b` for `a: [k, m]`, `b: [k, n]`.
    ///
    /// # Errors
    ///
    /// Returns an error when either input is not rank-2 or the shared
    /// dimension disagrees.
    pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (k, m) = as_matrix_dims(a)?;
        let (k2, n) = as_matrix_dims(b)?;
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                lhs_cols: k,
                rhs_rows: k2,
            });
        }
        let ad = a.data();
        let bd = b.data();
        let mut out = vec![0.0f32; m * n];
        for p in 0..k {
            let a_row = &ad[p * m..(p + 1) * m];
            let b_row = &bd[p * n..(p + 1) * n];
            for (i, &a_pi) in a_row.iter().enumerate() {
                if a_pi == 0.0 {
                    continue;
                }
                let out_row = &mut out[i * n..(i + 1) * n];
                for (j, &b_pj) in b_row.iter().enumerate() {
                    out_row[j] += a_pi * b_pj;
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Naive `a @ bᵀ` for `a: [m, k]`, `b: [n, k]`.
    ///
    /// # Errors
    ///
    /// Returns an error when either input is not rank-2 or the shared
    /// dimension disagrees.
    pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (m, k) = as_matrix_dims(a)?;
        let (n, k2) = as_matrix_dims(b)?;
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                lhs_cols: k,
                rhs_rows: k2,
            });
        }
        let ad = a.data();
        let bd = b.data();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &ad[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (j, out_ij) in out_row.iter_mut().enumerate() {
                let b_row = &bd[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (x, y) in a_row.iter().zip(b_row.iter()) {
                    acc += x * y;
                }
                *out_ij = acc;
            }
        }
        Tensor::from_vec(out, &[m, n])
    }
}

/// Transposes a rank-2 tensor.
///
/// # Errors
///
/// Returns an error when the input is not rank-2.
pub fn transpose2d(a: &Tensor) -> Result<Tensor> {
    let (m, n) = as_matrix_dims(a)?;
    let ad = a.data();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = ad[i * n + j];
        }
    }
    Tensor::from_vec(out, &[n, m])
}

/// Numerically stable softmax applied independently to each row of a rank-2
/// tensor `[rows, cols]`.
///
/// The row max and the denominator sum are sequential scalar reductions (so
/// the result is independent of the kernel tier); the exp and normalization
/// passes go through the tier-dispatched [`crate::vecmath`] kernels, which
/// are per-lane and bit-identical across tiers.
///
/// # Errors
///
/// Returns an error when the input is not rank-2.
pub fn softmax_rows(logits: &Tensor) -> Result<Tensor> {
    let (rows, cols) = as_matrix_dims(logits)?;
    let ld = logits.data();
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        let row = &ld[r * cols..(r + 1) * cols];
        let out_row = &mut out[r * cols..(r + 1) * cols];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        crate::vecmath::exp_sub(row, out_row, max);
        let denom = out_row.iter().sum::<f32>();
        crate::vecmath::div_scalar_mut(out_row, denom);
    }
    Tensor::from_vec(out, &[rows, cols])
}

/// Numerically stable log-softmax applied independently to each row.
///
/// Reductions stay sequential scalar code and the exp pass is the
/// tier-dispatched [`crate::vecmath`] kernel, as in [`softmax_rows`].
///
/// # Errors
///
/// Returns an error when the input is not rank-2.
pub fn log_softmax_rows(logits: &Tensor) -> Result<Tensor> {
    let (rows, cols) = as_matrix_dims(logits)?;
    let ld = logits.data();
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        let row = &ld[r * cols..(r + 1) * cols];
        let out_row = &mut out[r * cols..(r + 1) * cols];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        // Use the output row as scratch for the exp values, then overwrite.
        crate::vecmath::exp_sub(row, out_row, max);
        let log_denom = out_row.iter().sum::<f32>().ln();
        for (o, &x) in out_row.iter_mut().zip(row.iter()) {
            *o = x - max - log_denom;
        }
    }
    Tensor::from_vec(out, &[rows, cols])
}

/// Index of the maximum entry of each row of a rank-2 tensor.
///
/// # Errors
///
/// Returns an error when the input is not rank-2.
pub fn argmax_rows(scores: &Tensor) -> Result<Vec<usize>> {
    let (rows, cols) = as_matrix_dims(scores)?;
    let data = scores.data();
    let mut out = Vec::with_capacity(rows);
    for r in 0..rows {
        let row = &data[r * cols..(r + 1) * cols];
        let mut best = 0usize;
        let mut best_val = f32::NEG_INFINITY;
        for (j, &x) in row.iter().enumerate() {
            if x > best_val {
                best_val = x;
                best = j;
            }
        }
        out.push(best);
    }
    Ok(out)
}

/// Sums a tensor along one axis, removing that axis.
///
/// # Errors
///
/// Returns an error when `axis` is out of range.
pub fn sum_axis(t: &Tensor, axis: usize) -> Result<Tensor> {
    reduce_axis(t, axis, |acc, x| acc + x, 0.0, |acc, _| acc)
}

/// Averages a tensor along one axis, removing that axis.
///
/// # Errors
///
/// Returns an error when `axis` is out of range.
pub fn mean_axis(t: &Tensor, axis: usize) -> Result<Tensor> {
    let n = t.shape().dim(axis)? as f32;
    reduce_axis(t, axis, |acc, x| acc + x, 0.0, move |acc, _| acc / n)
}

fn reduce_axis(
    t: &Tensor,
    axis: usize,
    combine: impl Fn(f32, f32) -> f32,
    init: f32,
    finish: impl Fn(f32, usize) -> f32,
) -> Result<Tensor> {
    let dims = t.dims();
    if axis >= dims.len() {
        return Err(TensorError::AxisOutOfRange {
            axis,
            rank: dims.len(),
        });
    }
    let axis_len = dims[axis];
    let outer: usize = dims[..axis].iter().product();
    let inner: usize = dims[axis + 1..].iter().product();
    let data = t.data();
    let mut out = vec![init; outer * inner];
    for o in 0..outer {
        for a in 0..axis_len {
            let base = (o * axis_len + a) * inner;
            for i in 0..inner {
                let idx = o * inner + i;
                out[idx] = combine(out[idx], data[base + i]);
            }
        }
    }
    for v in &mut out {
        *v = finish(*v, axis_len);
    }
    let mut new_dims: Vec<usize> = dims[..axis].to_vec();
    new_dims.extend_from_slice(&dims[axis + 1..]);
    if new_dims.is_empty() {
        new_dims.push(1);
    }
    Tensor::from_vec(out, &new_dims)
}

/// Interprets a tensor as a matrix, returning `(rows, cols)`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] when the tensor is not rank-2.
pub fn as_matrix_dims(t: &Tensor) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: t.rank(),
        });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use proptest::prelude::*;

    #[test]
    fn matmul_identity_and_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
        let v = Tensor::zeros(&[3]);
        assert!(matches!(
            matmul(&v, &a),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn transposed_products_match_explicit_transpose() {
        let mut rng = Rng::seed_from(0);
        let a = Tensor::randn(&[4, 3], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[4, 5], 0.0, 1.0, &mut rng);
        let expected = matmul(&transpose2d(&a).unwrap(), &b).unwrap();
        let got = matmul_at_b(&a, &b).unwrap();
        assert!(got.approx_eq(&expected, 1e-4));

        let c = Tensor::randn(&[6, 3], 0.0, 1.0, &mut rng);
        let d = Tensor::randn(&[5, 3], 0.0, 1.0, &mut rng);
        let expected = matmul(&c, &transpose2d(&d).unwrap()).unwrap();
        let got = matmul_a_bt(&c, &d).unwrap();
        assert!(got.approx_eq(&expected, 1e-4));
    }

    #[test]
    fn transpose_round_trip() {
        let mut rng = Rng::seed_from(1);
        let a = Tensor::randn(&[3, 7], 0.0, 1.0, &mut rng);
        let back = transpose2d(&transpose2d(&a).unwrap()).unwrap();
        assert!(a.approx_eq(&back, 0.0));
    }

    #[test]
    fn softmax_rows_sum_to_one_and_are_shift_invariant() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let p = softmax_rows(&logits).unwrap();
        for r in 0..2 {
            let s: f32 = p.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        let shifted = logits.shift(100.0);
        let p2 = softmax_rows(&shifted).unwrap();
        assert!(p.approx_eq(&p2, 1e-5));
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let logits = Tensor::from_vec(vec![0.3, -0.7, 2.0, 1.0, 1.0, 1.0], &[2, 3]).unwrap();
        let p = softmax_rows(&logits).unwrap().map(|x| x.ln());
        let lp = log_softmax_rows(&logits).unwrap();
        assert!(p.approx_eq(&lp, 1e-5));
    }

    #[test]
    fn softmax_handles_extreme_logits() {
        let logits = Tensor::from_vec(vec![1000.0, -1000.0, 0.0], &[1, 3]).unwrap();
        let p = softmax_rows(&logits).unwrap();
        assert!(!p.has_non_finite());
        assert!((p.data()[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let scores = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.5, 0.2, 0.3], &[2, 3]).unwrap();
        assert_eq!(argmax_rows(&scores).unwrap(), vec![1, 0]);
    }

    #[test]
    fn sum_and_mean_axis() {
        let t = Tensor::from_vec((1..=12).map(|x| x as f32).collect(), &[2, 3, 2]).unwrap();
        let s0 = sum_axis(&t, 0).unwrap();
        assert_eq!(s0.dims(), &[3, 2]);
        assert_eq!(s0.data()[0], 1.0 + 7.0);
        let m1 = mean_axis(&t, 1).unwrap();
        assert_eq!(m1.dims(), &[2, 2]);
        assert!((m1.data()[0] - (1.0 + 3.0 + 5.0) / 3.0).abs() < 1e-6);
        assert!(sum_axis(&t, 3).is_err());
    }

    #[test]
    fn sum_axis_scalar_result_keeps_rank_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let s = sum_axis(&t, 0).unwrap();
        assert_eq!(s.dims(), &[1]);
        assert_eq!(s.data(), &[6.0]);
    }

    #[test]
    fn gemm_into_accumulates_and_checks_shapes() {
        let mut rng = Rng::seed_from(20);
        let a = Tensor::randn(&[5, 3], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[3, 4], 0.0, 1.0, &mut rng);
        let product = matmul(&a, &b).unwrap();
        // `accumulate` adds to the existing contents.
        let mut c = Tensor::ones(&[5, 4]);
        gemm_into(false, false, &a, &b, true, &mut c).unwrap();
        let expected = product.add(&Tensor::ones(&[5, 4])).unwrap();
        assert!(c.approx_eq(&expected, 1e-5));
        // Transposed variants agree with the matmul helpers.
        let at = transpose2d(&a).unwrap();
        let mut c = Tensor::zeros(&[5, 4]);
        gemm_into(true, false, &at, &b, false, &mut c).unwrap();
        assert!(c.approx_eq(&product, 1e-5));
        // Mismatched output shape is rejected.
        let mut wrong = Tensor::zeros(&[4, 5]);
        assert!(gemm_into(false, false, &a, &b, false, &mut wrong).is_err());
        // Mismatched inner dimension is rejected.
        let bad = Tensor::zeros(&[2, 4]);
        let mut c = Tensor::zeros(&[5, 4]);
        assert!(gemm_into(false, false, &a, &bad, false, &mut c).is_err());
    }

    #[test]
    fn gemv_shapes_match_reference() {
        // m == 1 (row-vector GEMV) and n == 1 (matrix-vector) paths.
        let mut rng = Rng::seed_from(21);
        let a = Tensor::randn(&[1, 37], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[37, 19], 0.0, 1.0, &mut rng);
        assert!(matmul(&a, &b)
            .unwrap()
            .approx_eq(&reference::matmul(&a, &b).unwrap(), 1e-4));
        let c = Tensor::randn(&[23, 41], 0.0, 1.0, &mut rng);
        let v = Tensor::randn(&[41, 1], 0.0, 1.0, &mut rng);
        assert!(matmul(&c, &v)
            .unwrap()
            .approx_eq(&reference::matmul(&c, &v).unwrap(), 1e-4));
    }

    #[test]
    fn blocked_kernel_handles_sparse_inputs_like_reference() {
        // The retained naive kernel skips zero activations; the branch-free
        // blocked kernel must produce the same values anyway.
        let mut rng = Rng::seed_from(22);
        let mut a = Tensor::randn(&[30, 50], 0.0, 1.0, &mut rng);
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            if i % 3 != 0 {
                *v = 0.0;
            }
        }
        let b = Tensor::randn(&[50, 20], 0.0, 1.0, &mut rng);
        assert!(matmul(&a, &b)
            .unwrap()
            .approx_eq(&reference::matmul(&a, &b).unwrap(), 1e-4));
    }

    proptest::proptest! {
        #[test]
        fn prop_blocked_matmul_matches_naive_reference(
            m in 1usize..40,
            k in 1usize..70,
            n in 1usize..40,
            seed in 0u32..1000,
        ) {
            let mut rng = Rng::seed_from(seed as u64);
            let a = Tensor::randn(&[m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 0.0, 1.0, &mut rng);
            let blocked = matmul(&a, &b).unwrap();
            let naive = reference::matmul(&a, &b).unwrap();
            prop_assert!(blocked.approx_eq(&naive, 1e-3), "m={} k={} n={}", m, k, n);
        }

        #[test]
        fn prop_transposed_products_match_naive_reference(
            m in 1usize..24,
            k in 1usize..48,
            n in 1usize..24,
            seed in 0u32..1000,
        ) {
            let mut rng = Rng::seed_from(1000 + seed as u64);
            let a_t = Tensor::randn(&[k, m], 0.0, 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 0.0, 1.0, &mut rng);
            prop_assert!(matmul_at_b(&a_t, &b)
                .unwrap()
                .approx_eq(&reference::matmul_at_b(&a_t, &b).unwrap(), 1e-3));
            let a = Tensor::randn(&[m, k], 0.0, 1.0, &mut rng);
            let b_t = Tensor::randn(&[n, k], 0.0, 1.0, &mut rng);
            prop_assert!(matmul_a_bt(&a, &b_t)
                .unwrap()
                .approx_eq(&reference::matmul_a_bt(&a, &b_t).unwrap(), 1e-3));
        }
    }
}
