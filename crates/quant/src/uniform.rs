//! Symmetric uniform affine quantization with packed integer code storage.
//!
//! A tensor is mapped to signed integer codes in `[-(2^(k-1) - 1), 2^(k-1) - 1]`
//! with a per-tensor scale, a per-channel scale vector (one scale per
//! output channel, the standard choice for weight matrices), or an
//! asymmetric per-tensor scale/zero-point pair. The codes are stored
//! **packed**: one `i8` per code for widths up to 8 bits (the representation
//! the i8 GEMM in `invnorm_tensor::qgemm` consumes directly), one `i16` per
//! code for the wider DAC/ADC-style widths — a 4× / 2× shrink over the
//! historical `Vec<i32>` storage.

use crate::Result;
use invnorm_nn::NnError;
use invnorm_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A tensor quantized to `bits`-bit signed integer codes such that
/// `value ≈ (code - zero_point) * scale`, with the scale/zero-point either
/// per-tensor or per-channel (leading dimension).
///
/// # Example
///
/// ```
/// use invnorm_quant::uniform::QuantizedTensor;
/// use invnorm_tensor::Tensor;
///
/// # fn main() -> Result<(), invnorm_nn::NnError> {
/// let w = Tensor::from_vec(vec![-1.0, -0.5, 0.0, 0.5, 1.0], &[5])?;
/// let q = QuantizedTensor::quantize(&w, 8)?;
/// let back = q.dequantize();
/// assert!(back.approx_eq(&w, 0.01));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantizedTensor {
    /// Packed codes for widths ≤ 8 bits (empty otherwise).
    codes8: Vec<i8>,
    /// Packed codes for widths in 9..=16 bits (empty otherwise).
    codes16: Vec<i16>,
    dims: Vec<usize>,
    /// One scale (per-tensor) or `dims[0]` scales (per-channel).
    scales: Vec<f32>,
    /// Zero points, same length as `scales`; all zero for the symmetric
    /// quantizers.
    zero_points: Vec<i32>,
    bits: u8,
}

impl QuantizedTensor {
    /// Quantizes a tensor to `bits` bits (2 ≤ bits ≤ 16) using a symmetric
    /// per-tensor scale derived from the maximum absolute value.
    ///
    /// For 1-bit (binary) parameters use [`crate::binary::BinaryTensor::binarize`] instead,
    /// which follows the sign/scaling convention of binary networks.
    ///
    /// # Errors
    ///
    /// Returns an error when `bits` is outside `[2, 16]`.
    pub fn quantize(tensor: &Tensor, bits: u8) -> Result<Self> {
        check_bits(bits)?;
        let qmax = Self::qmax_for(bits) as f32;
        let max_abs = tensor.abs().max();
        let scale = if max_abs > 0.0 { max_abs / qmax } else { 1.0 };
        let mut q = Self::empty(tensor.dims(), vec![scale], vec![0], bits);
        q.fill_codes(tensor.data(), |x| {
            (x / scale).round().clamp(-qmax, qmax) as i32
        });
        Ok(q)
    }

    /// Quantizes a rank ≥ 2 tensor to `bits` bits with one symmetric scale
    /// **per leading-dimension channel** (output channel for `[out, …]`
    /// weight tensors) — the standard weight-quantization granularity, which
    /// preserves small-magnitude channels that a per-tensor scale would
    /// flush to zero.
    ///
    /// # Errors
    ///
    /// Returns an error when `bits` is outside `[2, 16]` or the tensor has
    /// rank < 2.
    pub fn quantize_per_channel(tensor: &Tensor, bits: u8) -> Result<Self> {
        check_bits(bits)?;
        if tensor.rank() < 2 {
            return Err(NnError::Config(format!(
                "per-channel quantization needs rank >= 2, got {:?}",
                tensor.dims()
            )));
        }
        let qmax = Self::qmax_for(bits) as f32;
        let channels = tensor.dims()[0];
        let chunk = tensor.numel() / channels;
        let data = tensor.data();
        let mut scales = vec![1.0f32; channels];
        let mut codes = vec![0i32; data.len()];
        for c in 0..channels {
            let row = &data[c * chunk..(c + 1) * chunk];
            let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let scale = if max_abs > 0.0 { max_abs / qmax } else { 1.0 };
            scales[c] = scale;
            for (dst, &x) in codes[c * chunk..(c + 1) * chunk].iter_mut().zip(row) {
                *dst = (x / scale).round().clamp(-qmax, qmax) as i32;
            }
        }
        let mut q = Self::empty(tensor.dims(), scales, vec![0; channels], bits);
        q.store_codes(&codes);
        Ok(q)
    }

    /// Quantizes a tensor to `bits` bits with an **asymmetric** per-tensor
    /// scale/zero-point pair mapping `[min, max]` onto `[-qmax, qmax]`
    /// (activation-style affine quantization; `value ≈ (code - zp) · scale`).
    ///
    /// # Errors
    ///
    /// Returns an error when `bits` is outside `[2, 16]`.
    pub fn quantize_affine(tensor: &Tensor, bits: u8) -> Result<Self> {
        check_bits(bits)?;
        let qmax = Self::qmax_for(bits) as f32;
        let (lo, hi) = (tensor.min(), tensor.max());
        let (scale, zp) = if hi > lo {
            let scale = (hi - lo) / (2.0 * qmax);
            (scale, -(qmax as i32) - (lo / scale).round() as i32)
        } else {
            // Constant tensor: one exactly-representable level.
            (1.0, -lo.round() as i32)
        };
        let mut q = Self::empty(tensor.dims(), vec![scale], vec![zp], bits);
        q.fill_codes(tensor.data(), |x| {
            ((x / scale).round() as i32 + zp).clamp(-(qmax as i32), qmax as i32)
        });
        Ok(q)
    }

    fn empty(dims: &[usize], scales: Vec<f32>, zero_points: Vec<i32>, bits: u8) -> Self {
        Self {
            codes8: Vec::new(),
            codes16: Vec::new(),
            dims: dims.to_vec(),
            scales,
            zero_points,
            bits,
        }
    }

    fn fill_codes(&mut self, data: &[f32], mut f: impl FnMut(f32) -> i32) {
        if self.bits <= 8 {
            self.codes8 = data.iter().map(|&x| f(x) as i8).collect();
        } else {
            self.codes16 = data.iter().map(|&x| f(x) as i16).collect();
        }
    }

    fn store_codes(&mut self, codes: &[i32]) {
        if self.bits <= 8 {
            self.codes8 = codes.iter().map(|&c| c as i8).collect();
        } else {
            self.codes16 = codes.iter().map(|&c| c as i16).collect();
        }
    }

    /// Largest representable positive code for the given bit width.
    pub fn qmax_for(bits: u8) -> i32 {
        (1i32 << (bits - 1)) - 1
    }

    /// Reconstructs the floating-point tensor from the codes.
    pub fn dequantize(&self) -> Tensor {
        let channels = self.scales.len();
        let chunk = if channels > 1 {
            self.numel() / channels
        } else {
            usize::MAX
        };
        let decode = |i: usize, c: i32| -> f32 {
            let ch = if channels > 1 { i / chunk } else { 0 };
            (c - self.zero_points[ch]) as f32 * self.scales[ch]
        };
        let data: Vec<f32> = if self.bits <= 8 {
            self.codes8
                .iter()
                .enumerate()
                .map(|(i, &c)| decode(i, i32::from(c)))
                .collect()
        } else {
            self.codes16
                .iter()
                .enumerate()
                .map(|(i, &c)| decode(i, i32::from(c)))
                .collect()
        };
        Tensor::from_vec(data, &self.dims).expect("codes and dims are constructed consistently")
    }

    /// The packed i8 codes (row-major, same layout as the original tensor).
    /// `None` when the bit width exceeds 8.
    pub fn codes_i8(&self) -> Option<&[i8]> {
        (self.bits <= 8).then_some(self.codes8.as_slice())
    }

    /// Mutable access to the packed i8 codes (bit widths ≤ 8); used by the
    /// code-domain fault injection path.
    pub fn codes_i8_mut(&mut self) -> Option<&mut [i8]> {
        (self.bits <= 8).then_some(self.codes8.as_mut_slice())
    }

    /// The code at `idx`, widened to i32.
    pub fn code(&self, idx: usize) -> i32 {
        if self.bits <= 8 {
            i32::from(self.codes8[idx])
        } else {
            i32::from(self.codes16[idx])
        }
    }

    /// Stores a code at `idx`, saturating to the **symmetric** storage range
    /// (`[-127, 127]` for packed i8, `[-32767, 32767]` for i16) — the value
    /// `-2^(w-1)` is never stored, because the i8 GEMM's sign-split
    /// microkernel requires magnitudes ≤ 127.
    pub fn set_code(&mut self, idx: usize, value: i32) {
        if self.bits <= 8 {
            self.codes8[idx] = value.clamp(-(i8::MAX as i32), i8::MAX as i32) as i8;
        } else {
            self.codes16[idx] = value.clamp(-(i16::MAX as i32), i16::MAX as i32) as i16;
        }
    }

    /// Applies `f` to every code in place (widening to i32 and saturating
    /// back to the symmetric storage range, like
    /// [`QuantizedTensor::set_code`]). The workhorse of bit-flip fault
    /// injection.
    pub fn map_codes(&mut self, mut f: impl FnMut(i32) -> i32) {
        if self.bits <= 8 {
            for c in &mut self.codes8 {
                *c = f(i32::from(*c)).clamp(-(i8::MAX as i32), i8::MAX as i32) as i8;
            }
        } else {
            for c in &mut self.codes16 {
                *c = f(i32::from(*c)).clamp(-(i16::MAX as i32), i16::MAX as i32) as i16;
            }
        }
    }

    /// Iterates over the codes, widened to i32. Exactly one of the two
    /// storage vectors is populated (by construction), so chaining them
    /// yields the codes regardless of width.
    pub fn iter_codes(&self) -> impl Iterator<Item = i32> + '_ {
        self.codes8
            .iter()
            .map(|&c| i32::from(c))
            .chain(self.codes16.iter().map(|&c| i32::from(c)))
    }

    /// The per-tensor quantization scale (first channel's scale for
    /// per-channel tensors).
    pub fn scale(&self) -> f32 {
        self.scales[0]
    }

    /// All scales: one entry (per-tensor) or one per leading-dim channel.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The per-tensor zero point (first channel's for per-channel tensors);
    /// zero for the symmetric quantizers.
    pub fn zero_point(&self) -> i32 {
        self.zero_points[0]
    }

    /// All zero points, aligned with [`QuantizedTensor::scales`].
    pub fn zero_points(&self) -> &[i32] {
        &self.zero_points
    }

    /// Whether the tensor carries one scale per leading-dim channel.
    pub fn is_per_channel(&self) -> bool {
        self.scales.len() > 1
    }

    /// The bit width.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The logical tensor shape.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        if self.bits <= 8 {
            self.codes8.len()
        } else {
            self.codes16.len()
        }
    }

    /// Clamps every code back into the representable range (used after fault
    /// injection flipped high-order bits).
    pub fn clamp_codes(&mut self) {
        let qmax = Self::qmax_for(self.bits);
        self.map_codes(|c| c.clamp(-qmax, qmax));
    }

    /// Serializes the codes to a compact little-endian byte buffer — **one
    /// byte per code** for widths ≤ 8 bits (the packed i8 storage verbatim),
    /// two bytes per code for the wider widths. The caller keeps shape/scale
    /// metadata; [`bytes_impl::bytes_to_codes`] inverts the packing given the
    /// bit width. Used by the crossbar programming path.
    pub fn codes_to_bytes(&self) -> bytes_impl::BytesBuf {
        if self.bits <= 8 {
            self.codes8.iter().map(|&c| c as u8).collect()
        } else {
            let mut buf = Vec::with_capacity(self.codes16.len() * 2);
            for &c in &self.codes16 {
                buf.extend_from_slice(&c.to_le_bytes());
            }
            buf
        }
    }
}

fn check_bits(bits: u8) -> Result<()> {
    if !(2..=16).contains(&bits) {
        return Err(NnError::Config(format!(
            "uniform quantization supports 2-16 bits, got {bits}"
        )));
    }
    Ok(())
}

/// Quantize-and-dequantize in one step ("fake quantization"), returning a
/// floating-point tensor restricted to the representable grid.
///
/// # Errors
///
/// Returns an error when `bits` is outside `[2, 16]`.
pub fn fake_quantize(tensor: &Tensor, bits: u8) -> Result<Tensor> {
    Ok(QuantizedTensor::quantize(tensor, bits)?.dequantize())
}

/// Byte-packing helpers kept in a private-ish module so the main API stays
/// focused on tensors.
pub mod bytes_impl {
    /// Compact byte buffer alias.
    pub type BytesBuf = Vec<u8>;

    /// Unpacks a buffer produced by
    /// [`super::QuantizedTensor::codes_to_bytes`]: one byte per code for
    /// `bits ≤ 8` (packed i8), two little-endian bytes per code otherwise.
    pub fn bytes_to_codes(buf: &[u8], bits: u8) -> Vec<i32> {
        if bits <= 8 {
            buf.iter().map(|&b| i32::from(b as i8)).collect()
        } else {
            buf.chunks_exact(2)
                .map(|c| i32::from(i16::from_le_bytes([c[0], c[1]])))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invnorm_tensor::Rng;
    use proptest::prelude::*;

    #[test]
    fn quantize_dequantize_error_is_bounded_by_half_scale() {
        let mut rng = Rng::seed_from(1);
        let t = Tensor::randn(&[100], 0.0, 2.0, &mut rng);
        for bits in [4u8, 8, 12] {
            let q = QuantizedTensor::quantize(&t, bits).unwrap();
            let back = q.dequantize();
            let max_err = t.sub(&back).unwrap().abs().max();
            assert!(
                max_err <= q.scale() * 0.5 + 1e-6,
                "bits {bits}: max error {max_err} vs half-scale {}",
                q.scale() * 0.5
            );
        }
    }

    #[test]
    fn higher_bit_width_is_more_precise() {
        let mut rng = Rng::seed_from(2);
        let t = Tensor::randn(&[256], 0.0, 1.0, &mut rng);
        let err4 = t.sub(&fake_quantize(&t, 4).unwrap()).unwrap().abs().max();
        let err8 = t.sub(&fake_quantize(&t, 8).unwrap()).unwrap().abs().max();
        assert!(err8 < err4);
    }

    #[test]
    fn invalid_bit_widths_are_rejected() {
        let t = Tensor::ones(&[4]);
        assert!(QuantizedTensor::quantize(&t, 1).is_err());
        assert!(QuantizedTensor::quantize(&t, 17).is_err());
        assert!(QuantizedTensor::quantize(&t, 0).is_err());
        assert!(QuantizedTensor::quantize_affine(&t, 1).is_err());
        let m = Tensor::ones(&[2, 2]);
        assert!(QuantizedTensor::quantize_per_channel(&m, 1).is_err());
    }

    #[test]
    fn zero_tensor_quantizes_to_zero() {
        let t = Tensor::zeros(&[8]);
        let q = QuantizedTensor::quantize(&t, 8).unwrap();
        assert!(q.iter_codes().all(|c| c == 0));
        assert!(q.dequantize().approx_eq(&t, 0.0));
        assert_eq!(q.scale(), 1.0);
        assert_eq!(q.zero_point(), 0);
    }

    #[test]
    fn qmax_values() {
        assert_eq!(QuantizedTensor::qmax_for(8), 127);
        assert_eq!(QuantizedTensor::qmax_for(4), 7);
        assert_eq!(QuantizedTensor::qmax_for(2), 1);
    }

    #[test]
    fn clamp_codes_restores_range() {
        let t = Tensor::from_vec(vec![1.0, -1.0, 0.5], &[3]).unwrap();
        let mut q = QuantizedTensor::quantize(&t, 4).unwrap();
        q.set_code(0, 1000);
        q.set_code(1, -1000);
        q.clamp_codes();
        assert!(q.iter_codes().all(|c| c.abs() <= 7));
    }

    #[test]
    fn code_setters_never_store_the_asymmetric_minimum() {
        // -2^(w-1) would break the i8 GEMM's sign-split microkernel, so the
        // saturating store must stop at -(2^(w-1) - 1).
        let t = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        let mut q = QuantizedTensor::quantize(&t, 8).unwrap();
        q.set_code(0, -500);
        assert_eq!(q.code(0), -127);
        q.map_codes(|_| i32::MIN);
        assert!(q.iter_codes().all(|c| c == -127));
        let mut wide = QuantizedTensor::quantize(&t, 16).unwrap();
        wide.set_code(0, i32::MIN);
        assert_eq!(wide.code(0), -32767);
    }

    #[test]
    fn packed_storage_is_one_byte_per_code_for_8_bits() {
        let mut rng = Rng::seed_from(5);
        let t = Tensor::randn(&[64], 0.0, 1.0, &mut rng);
        let q = QuantizedTensor::quantize(&t, 8).unwrap();
        let codes = q.codes_i8().expect("8-bit codes are packed i8");
        assert_eq!(codes.len(), 64);
        assert_eq!(q.codes_to_bytes().len(), 64);
        // Wide widths fall back to i16 storage.
        let w = QuantizedTensor::quantize(&t, 12).unwrap();
        assert!(w.codes_i8().is_none());
        assert_eq!(w.codes_to_bytes().len(), 128);
    }

    #[test]
    fn byte_round_trip_narrow_and_wide() {
        let t = Tensor::from_vec(vec![0.9, -0.5, 0.1, -1.0], &[4]).unwrap();
        for bits in [4u8, 8, 12, 16] {
            let q = QuantizedTensor::quantize(&t, bits).unwrap();
            let bytes = q.codes_to_bytes();
            let codes = bytes_impl::bytes_to_codes(&bytes, bits);
            assert_eq!(codes, q.iter_codes().collect::<Vec<_>>(), "bits {bits}");
        }
    }

    #[test]
    fn per_channel_scales_track_channel_magnitudes() {
        // Two rows with very different magnitudes: per-tensor quantization
        // crushes the small row, per-channel preserves it.
        let t = Tensor::from_vec(vec![100.0, -50.0, 0.01, -0.02], &[2, 2]).unwrap();
        let q = QuantizedTensor::quantize_per_channel(&t, 8).unwrap();
        assert!(q.is_per_channel());
        assert_eq!(q.scales().len(), 2);
        assert!(q.scales()[0] > q.scales()[1]);
        let back = q.dequantize();
        for (a, b) in t.data().iter().zip(back.data().iter()) {
            let ch_scale = if a.abs() > 1.0 {
                q.scales()[0]
            } else {
                q.scales()[1]
            };
            assert!((a - b).abs() <= ch_scale * 0.5 + 1e-9, "{a} vs {b}");
        }
        // Per-tensor, by contrast, flushes the small channel to zero.
        let flat = QuantizedTensor::quantize(&t, 8).unwrap().dequantize();
        assert_eq!(flat.data()[2], 0.0);
        assert!(QuantizedTensor::quantize_per_channel(&Tensor::ones(&[4]), 8).is_err());
    }

    #[test]
    fn affine_quantization_covers_shifted_ranges() {
        // A strictly positive tensor wastes half the symmetric grid; the
        // affine quantizer spends all levels on [min, max].
        let t = Tensor::from_vec(vec![10.0, 10.5, 11.0, 11.75, 12.0], &[5]).unwrap();
        let q = QuantizedTensor::quantize_affine(&t, 8).unwrap();
        assert_ne!(q.zero_point(), 0);
        let back = q.dequantize();
        let max_err = t.sub(&back).unwrap().abs().max();
        assert!(max_err <= q.scale() * 0.5 + 1e-5, "err {max_err}");
        // Codes stay in the symmetric storage range the i8 GEMM requires.
        assert!(q.iter_codes().all(|c| c.abs() <= 127));
        // Constant tensors get one exact level.
        let c = Tensor::from_vec(vec![3.0; 4], &[4]).unwrap();
        let qc = QuantizedTensor::quantize_affine(&c, 8).unwrap();
        assert!(qc.dequantize().approx_eq(&c, 1e-6));
    }

    #[test]
    fn metadata_accessors() {
        let t = Tensor::ones(&[2, 3]);
        let q = QuantizedTensor::quantize(&t, 8).unwrap();
        assert_eq!(q.dims(), &[2, 3]);
        assert_eq!(q.numel(), 6);
        assert_eq!(q.bits(), 8);
        assert_eq!(q.code(0), 127);
        assert_eq!(q.zero_points(), &[0]);
        assert!(!q.is_per_channel());
    }

    proptest! {
        #[test]
        fn prop_dequantized_values_on_grid(values in proptest::collection::vec(-10.0f32..10.0, 1..64), bits in 2u8..10) {
            let t = Tensor::from_slice(&values);
            let q = QuantizedTensor::quantize(&t, bits).unwrap();
            let back = q.dequantize();
            // Every dequantized value must be an integer multiple of the scale.
            for &v in back.data() {
                let ratio = v / q.scale();
                prop_assert!((ratio - ratio.round()).abs() < 1e-3);
            }
            // Codes fit in the representable range.
            let qmax = QuantizedTensor::qmax_for(bits);
            prop_assert!(q.iter_codes().all(|c| c.abs() <= qmax));
        }

        #[test]
        fn prop_quantization_error_bounded(values in proptest::collection::vec(-5.0f32..5.0, 1..64)) {
            let t = Tensor::from_slice(&values);
            let q = QuantizedTensor::quantize(&t, 8).unwrap();
            let back = q.dequantize();
            for (a, b) in t.data().iter().zip(back.data().iter()) {
                prop_assert!((a - b).abs() <= q.scale() * 0.5 + 1e-6);
            }
        }

        #[test]
        fn prop_per_channel_error_bounded_by_channel_half_scale(
            values in proptest::collection::vec(-5.0f32..5.0, 8..64),
        ) {
            // Shape [4, len/4]; drop the ragged tail.
            let cols = values.len() / 4;
            let t = Tensor::from_vec(values[..4 * cols].to_vec(), &[4, cols]).unwrap();
            let q = QuantizedTensor::quantize_per_channel(&t, 8).unwrap();
            let back = q.dequantize();
            for (i, (a, b)) in t.data().iter().zip(back.data().iter()).enumerate() {
                let s = q.scales()[i / cols];
                prop_assert!((a - b).abs() <= s * 0.5 + 1e-6);
            }
        }

        #[test]
        fn prop_byte_round_trip(values in proptest::collection::vec(-3.0f32..3.0, 1..48), bits in 2u8..16) {
            let t = Tensor::from_slice(&values);
            let q = QuantizedTensor::quantize(&t, bits).unwrap();
            let codes = bytes_impl::bytes_to_codes(&q.codes_to_bytes(), bits);
            prop_assert_eq!(codes, q.iter_codes().collect::<Vec<_>>());
        }

        #[test]
        fn prop_i8_gemm_matches_f32_reference_within_dequant_tolerance(
            m in 1usize..16,
            k in 1usize..32,
            n in 1usize..16,
            seed in 0u32..500,
        ) {
            // Quantize random f32 matrices to i8 codes, multiply in the
            // integer domain, dequantize the i32 accumulators — the result
            // must match the f32 product to within the accumulated
            // quantization error (|x|·Δw + |w|·Δx + Δx·Δw per term).
            use invnorm_tensor::{ops, Rng};
            let mut rng = Rng::seed_from(seed as u64 + 9000);
            let a = Tensor::randn(&[m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 0.0, 1.0, &mut rng);
            let qa = QuantizedTensor::quantize(&a, 8).unwrap();
            let qb = QuantizedTensor::quantize(&b, 8).unwrap();
            let mut acc = vec![0i32; m * n];
            ops::qgemm(
                false,
                false,
                m,
                n,
                k,
                qa.codes_i8().unwrap(),
                qb.codes_i8().unwrap(),
                false,
                &mut acc,
            );
            let rescale = qa.scale() * qb.scale();
            let reference = ops::matmul(&a, &b).unwrap();
            let (sa, sb) = (qa.scale(), qb.scale());
            let (amax, bmax) = (a.abs().max(), b.abs().max());
            let bound = k as f32 * (amax * sb * 0.5 + bmax * sa * 0.5 + sa * sb * 0.25) + 1e-5;
            for (i, &c) in acc.iter().enumerate() {
                let got = c as f32 * rescale;
                let want = reference.data()[i];
                prop_assert!(
                    (got - want).abs() <= bound,
                    "m={} n={} k={} idx={}: {} vs {} (bound {})",
                    m, n, k, i, got, want, bound
                );
            }
        }
    }
}
