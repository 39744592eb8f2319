//! The GEMM epilogue: one store that turns a product's accumulators into
//! channel-major f32 output.
//!
//! Every GEMM-backed layer multiplies rows (linear inputs, or im2col patch
//! rows) by a transposed weight matrix, so its product is `[N·P, OC]`: one
//! row per image and output pixel, one column per output channel. The
//! layer's output is `[N, OC, P]` (`P = OH·OW` for a convolution, 1 for a
//! linear layer). [`store`] is that one step, with the dequantization of an
//! integer product and the per-channel bias on the way:
//!
//! ```text
//! out[(n·OC + c)·P + p] = deq(acc[(n·P + p)·ld + col0 + c], c) + bias[c]
//! deq(a, c) = a                       (f32 products)
//! deq(a, c) = (a as f32 · s_x) · s_w[c]   (i32 sums of i8 codes)
//! ```
//!
//! `ld` and `col0` let one call read one realization's column block of a
//! wide product that stacks several realizations side by side. Each output
//! element gets its product, its dequantization multiplies in that order
//! and one bias add, so the store is bit-identical to any other order of
//! the same per-element steps.

use crate::error::TensorError;
use crate::Result;

/// A GEMM accumulator the store reads: f32 products, or the exact i32 sums
/// of an integer product.
pub trait Accumulator: Copy {
    /// The accumulator as f32 (`as` conversion for i32).
    fn to_f32(self) -> f32;
}

impl Accumulator for f32 {
    fn to_f32(self) -> f32 {
        self
    }
}

impl Accumulator for i32 {
    fn to_f32(self) -> f32 {
        self as f32
    }
}

/// Where one product lies in the accumulators and how it lands in the
/// output: `n` images of `oc` channels of `pixels` outputs each, read from
/// rows of `ld` accumulators starting at column `col0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputMap {
    /// Images (rows of a linear layer's input).
    pub n: usize,
    /// Output channels (features of a linear layer).
    pub oc: usize,
    /// Outputs per channel and image: `OH·OW` for a convolution, 1 for a
    /// linear layer.
    pub pixels: usize,
    /// Leading dimension of the accumulator matrix.
    pub ld: usize,
    /// The accumulator column holding channel 0.
    pub col0: usize,
}

impl OutputMap {
    /// The map of a product whose accumulators are exactly `[n·pixels, oc]`.
    pub fn dense(n: usize, oc: usize, pixels: usize) -> Self {
        Self {
            n,
            oc,
            pixels,
            ld: oc,
            col0: 0,
        }
    }
}

/// Pixels of one image stored per pass over the channels. Each channel
/// then writes one contiguous run of its plane while the block's
/// accumulator rows stay in L1: writing channels innermost would store
/// with a stride of `P` floats, and a whole plane per channel would
/// re-read every accumulator row from L2 once per channel.
const PIXEL_BLOCK: usize = 64;

/// Stores the product `acc`, laid out by `map`, into `out` as `[n, oc,
/// pixels]`, plus the per-channel `bias` (see the [module docs](self) for
/// the formula). An integer product passes `dequant = (s_x, s_w)`: the
/// activation scale its input codes were quantized at and one weight scale
/// per output channel; without it `deq` is the identity.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] when `col0 + oc > ld`, and
/// [`TensorError::ShapeDataMismatch`] when `out` does not hold exactly
/// `n·oc·pixels` elements, `acc` holds fewer than the
/// `(n·pixels − 1)·ld + col0 + oc` the map reads, or the bias or the
/// weight scales do not hold `oc` values. Nothing is written then.
// lint: no_alloc
pub fn store<A: Accumulator>(
    acc: &[A],
    map: OutputMap,
    dequant: Option<(f32, &[f32])>,
    bias: Option<&[f32]>,
    out: &mut [f32],
) -> Result<()> {
    let per_channel = [bias, dequant.map(|(_, sw)| sw)];
    check(acc.len(), map, per_channel, out.len())?;
    if out.is_empty() {
        return Ok(());
    }
    match (dequant, bias) {
        (None, None) => store_with(acc, map, out, |a, _| a.to_f32()),
        (None, Some(b)) => store_with(acc, map, out, |a, c| a.to_f32() + b[c]),
        (Some((sx, sw)), None) => store_with(acc, map, out, |a, c| a.to_f32() * sx * sw[c]),
        (Some((sx, sw)), Some(b)) => {
            store_with(acc, map, out, |a, c| a.to_f32() * sx * sw[c] + b[c]);
        }
    }
    Ok(())
}

/// [`store`]'s loops, specialised per element step `f(a, c)`.
#[inline(always)]
fn store_with<A: Copy>(acc: &[A], map: OutputMap, out: &mut [f32], f: impl Fn(A, usize) -> f32) {
    let (oc, pixels, ld, col0) = (map.oc, map.pixels, map.ld, map.col0);
    if pixels == 1 {
        // A linear layer: rows in, rows out, both contiguous.
        for (row, out_row) in out.chunks_exact_mut(oc).enumerate() {
            let acc_row = &acc[row * ld + col0..][..oc];
            for (c, (o, &a)) in out_row.iter_mut().zip(acc_row).enumerate() {
                *o = f(a, c);
            }
        }
        return;
    }
    for (image, out_n) in out.chunks_exact_mut(oc * pixels).enumerate() {
        let rows = &acc[image * pixels * ld + col0..];
        for p0 in (0..pixels).step_by(PIXEL_BLOCK) {
            for (c, plane) in out_n.chunks_exact_mut(pixels).enumerate() {
                for (p, o) in plane[p0..].iter_mut().take(PIXEL_BLOCK).enumerate() {
                    *o = f(rows[(p0 + p) * ld + c], c);
                }
            }
        }
    }
}

/// The length checks of [`store`]; `per_channel` holds the bias and the
/// channel scales.
fn check(acc: usize, map: OutputMap, per_channel: [Option<&[f32]>; 2], out: usize) -> Result<()> {
    let (rows, oc, ld, col0) = (map.n * map.pixels, map.oc, map.ld, map.col0);
    if col0 + oc > ld {
        return Err(TensorError::InvalidArgument(format!(
            "output columns {col0}..{} exceed the accumulator rows of {ld}",
            col0 + oc
        )));
    }
    // (rows − 1)·ld + col0 + oc, the end of the last row's block; none read
    // when there are no rows, since col0 + oc ≤ ld.
    let read = (rows * ld + col0 + oc).saturating_sub(ld);
    let wrong = per_channel.into_iter().flatten().find(|v| v.len() != oc);
    let (expected, actual) = match wrong {
        _ if out != rows * oc => (rows * oc, out),
        _ if acc < read => (read, acc),
        Some(v) => (oc, v.len()),
        None => return Ok(()),
    };
    Err(TensorError::ShapeDataMismatch { expected, actual })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The formula of the module docs, element by element.
    fn reference(
        acc: &[i32],
        map: OutputMap,
        dequant: Option<(f32, &[f32])>,
        bias: Option<&[f32]>,
    ) -> Vec<f32> {
        let OutputMap {
            n,
            oc,
            pixels,
            ld,
            col0,
        } = map;
        let mut out = vec![0.0; n * oc * pixels];
        for i in 0..n {
            for c in 0..oc {
                for p in 0..pixels {
                    let a = acc[(i * pixels + p) * ld + col0 + c];
                    let mut v = match dequant {
                        None => a as f32,
                        Some((sx, sw)) => a as f32 * sx * sw[c],
                    };
                    if let Some(b) = bias {
                        v += b[c];
                    }
                    out[(i * oc + c) * pixels + p] = v;
                }
            }
        }
        out
    }

    /// Every map shape (a linear layer, a conv plane shorter and longer
    /// than one pixel block, a column block of a wide product) stores each
    /// element exactly as the formula says, with and without scales and
    /// bias, for i32 and f32 accumulators.
    #[test]
    fn store_follows_the_formula_bit_for_bit() {
        let scales = [0.5f32, 0.25, 1.5, 0.75, 2.0];
        let bias = [0.1f32, -0.2, 0.3, -0.4, 0.5];
        // (n, oc, pixels, ld, col0)
        let maps = [
            (3, 5, 1, 5, 0),
            (2, 3, 1, 10, 4),
            (2, 4, 9, 4, 0),
            (2, 5, 150, 15, 10),
        ];
        for (n, oc, pixels, ld, col0) in maps {
            let map = OutputMap {
                n,
                oc,
                pixels,
                ld,
                col0,
            };
            let acc: Vec<i32> = (0..n * pixels * ld).map(|i| i as i32 * 7 - 300).collect();
            let acc_f: Vec<f32> = acc.iter().map(|&a| a as f32).collect();
            for dequant in [None, Some((0.37, &scales[..oc]))] {
                for bias in [None, Some(&bias[..oc])] {
                    let want = reference(&acc, map, dequant, bias);
                    let mut got = vec![f32::NAN; n * oc * pixels];
                    store(&acc, map, dequant, bias, &mut got).unwrap();
                    let mut got_f = vec![f32::NAN; n * oc * pixels];
                    store(&acc_f, map, dequant, bias, &mut got_f).unwrap();
                    for got in [got, got_f] {
                        let same = got
                            .iter()
                            .zip(&want)
                            .all(|(g, w)| g.to_bits() == w.to_bits());
                        assert!(same, "{map:?} {dequant:?} {bias:?}");
                    }
                }
            }
        }
    }

    /// A malformed call returns a typed error and leaves `out` untouched:
    /// a short or long `out`, an accumulator one element short of what the
    /// map reads, a column block past `ld`, and a bias or scale vector
    /// shorter or longer than OC.
    #[test]
    fn store_rejects_malformed_operands_with_typed_errors() {
        let map = OutputMap {
            n: 2,
            oc: 3,
            pixels: 4,
            ld: 8,
            col0: 5,
        };
        // The last element read is row 7, column 7.
        let acc = vec![1i32; 7 * 8 + 8];
        let ok = [1.0f32; 3];
        let mut out = vec![0.0f32; 2 * 3 * 4];
        assert!(store(&acc, map, None, Some(&ok), &mut out).is_ok());
        let mismatch = |r: Result<()>, expected: usize, actual: usize| {
            r == Err(TensorError::ShapeDataMismatch { expected, actual })
        };
        let mut sentinel = vec![f32::NAN; 24];
        let untouched = |out: &[f32]| out.iter().all(|v| v.is_nan());
        for len in [23, 25] {
            let mut short = vec![f32::NAN; len];
            assert!(mismatch(store(&acc, map, None, None, &mut short), 24, len));
            assert!(untouched(&short));
        }
        let r = store(&acc[..63], map, None, None, &mut sentinel);
        assert!(mismatch(r, 64, 63), "short accumulator");
        let past = OutputMap { col0: 6, ..map };
        let r = store(&acc, past, None, None, &mut sentinel);
        assert!(matches!(r, Err(TensorError::InvalidArgument(_))), "{r:?}");
        for len in [2, 4] {
            let wrong = vec![1.0f32; len];
            let r = store(&acc, map, None, Some(&wrong), &mut sentinel);
            assert!(mismatch(r, 3, len), "bias of {len}");
            let r = store(&acc, map, Some((1.0, &wrong[..])), Some(&ok), &mut sentinel);
            assert!(mismatch(r, 3, len), "scales of {len}");
        }
        assert!(untouched(&sentinel));
    }
}
