//! Affine int8 quantization primitives for the wire codecs.
//!
//! One quantized block maps `f32` values into `i8` codes through an affine
//! transform `x ≈ min + scale · (code + 128)`: the block's `[min, max]`
//! range is split into 255 uniform steps, so the worst-case reconstruction
//! error of any value inside the range is `scale / 2 = (max - min) / 510`.
//! Non-finite inputs are clamped to the block range; an all-equal (or empty)
//! block has `scale = 0` and reconstructs exactly.

/// Affine parameters of one quantized block: `value ≈ min + scale · step`
/// with `step = code as i16 + 128 ∈ [0, 255]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantParams {
    /// Step size `(max - min) / 255`; `0.0` for constant blocks.
    pub scale: f32,
    /// Value represented by code `-128`.
    pub min: f32,
}

/// Quantizes `values` into `i8` codes, returning the affine parameters.
///
/// The output slice must have the same length as the input. The block range
/// is computed over the *finite* inputs; non-finite values quantize to the
/// nearest range endpoint.
///
/// # Panics
///
/// Panics if `out.len() != values.len()`.
pub fn quantize_affine_i8(values: &[f32], out: &mut [i8]) -> QuantParams {
    assert_eq!(
        out.len(),
        values.len(),
        "quantization buffer length mismatch"
    );
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in values {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if !lo.is_finite() || !hi.is_finite() || hi <= lo {
        // Empty, all-non-finite, or constant block: every code is -128 and
        // reconstruction returns `min` exactly.
        let min = if lo.is_finite() { lo } else { 0.0 };
        out.fill(-128);
        return QuantParams { scale: 0.0, min };
    }
    let scale = (hi - lo) / 255.0;
    let inv = 1.0 / scale;
    for (o, &v) in out.iter_mut().zip(values.iter()) {
        let clamped = if v.is_finite() { v.clamp(lo, hi) } else { lo };
        let step = ((clamped - lo) * inv).round().clamp(0.0, 255.0);
        *o = (step as i16 - 128) as i8;
    }
    QuantParams { scale, min: lo }
}

/// Reconstructs one quantized code.
#[inline]
pub fn dequantize_one(code: i8, params: QuantParams) -> f32 {
    params.min + params.scale * (code as i16 + 128) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(values: &[f32]) -> (Vec<f32>, QuantParams) {
        let mut codes = vec![0i8; values.len()];
        let p = quantize_affine_i8(values, &mut codes);
        let back = codes.iter().map(|&c| dequantize_one(c, p)).collect();
        (back, p)
    }

    #[test]
    fn endpoints_reconstruct_exactly() {
        let (back, p) = roundtrip(&[-1.0, 0.25, 1.0]);
        assert_eq!(back[0], -1.0);
        // The top code is 127 → min + scale*255 = max.
        assert!((back[2] - 1.0).abs() < 1e-6);
        assert!((p.scale - 2.0 / 255.0).abs() < 1e-7);
    }

    #[test]
    fn constant_block_is_exact() {
        let (back, p) = roundtrip(&[3.5; 7]);
        assert_eq!(p.scale, 0.0);
        assert_eq!(back, vec![3.5; 7]);
    }

    #[test]
    fn empty_block_is_fine() {
        let (back, p) = roundtrip(&[]);
        assert!(back.is_empty());
        assert_eq!(p.scale, 0.0);
    }

    #[test]
    fn non_finite_values_clamp_to_range() {
        let mut codes = vec![0i8; 4];
        let p = quantize_affine_i8(&[f32::NAN, -2.0, f32::INFINITY, 2.0], &mut codes);
        let back: Vec<f32> = codes.iter().map(|&c| dequantize_one(c, p)).collect();
        assert!(back.iter().all(|v| v.is_finite()));
        assert!((-2.0..=2.0).contains(&back[0]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Round-trip error never exceeds the documented half-step bound.
        #[test]
        fn codec_quant_roundtrip_within_half_step(
            values in proptest::collection::vec(-10.0f32..10.0, 1..200),
        ) {
            let (back, p) = roundtrip(&values);
            let bound = 0.5 * p.scale + 1e-6;
            for (&v, &b) in values.iter().zip(back.iter()) {
                prop_assert!((v - b).abs() <= bound, "{v} -> {b} exceeds {bound}");
            }
        }
    }
}
