//! Hand-rolled row quantization: f32 ↔ f16 bit conversion and symmetric
//! per-row int8. No external `half` crate — the build is offline — so the
//! f16 conversion implements IEEE 754 binary16 round-to-nearest-even
//! directly on the bit patterns.
//!
//! Both codecs are *stored* formats: the scorer always works on
//! dequantized f32 rows, so quantization costs accuracy (gated by the
//! AUC-delta check in [`crate::freeze`](mod@crate::freeze)) but never changes the kernel
//! path.

/// Converts an `f32` to IEEE 754 binary16 bits, round-to-nearest-even.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp32 = ((bits >> 23) & 0xff) as i32;
    let frac = bits & 0x007f_ffff;
    if exp32 == 0xff {
        // Inf / NaN: preserve the class (quiet any NaN payload).
        return sign | 0x7c00 | if frac != 0 { 0x0200 } else { 0 };
    }
    let exp = exp32 - 127 + 15;
    if exp >= 0x1f {
        return sign | 0x7c00; // overflow → ±inf
    }
    if exp <= 0 {
        // Subnormal half (or underflow to zero).
        if exp < -10 {
            return sign;
        }
        let mant = frac | 0x0080_0000; // implicit leading 1
        let shift = (14 - exp) as u32; // 14..=24
        let half = mant >> shift;
        let rem = mant & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let round_up = rem > halfway || (rem == halfway && (half & 1) == 1);
        return sign | (half + round_up as u32) as u16;
    }
    let half = ((exp as u32) << 10) | (frac >> 13);
    let rem = frac & 0x1fff;
    let round_up = rem > 0x1000 || (rem == 0x1000 && (half & 1) == 1);
    // Rounding may carry into the exponent; the carry is correct by
    // construction (1.11..1 rounds to 10.0..0 of the next exponent).
    sign | (half + round_up as u32) as u16
}

/// 2^-24 as an exact `f32` — the value of one binary16 subnormal ulp.
const F16_SUBNORMAL_ULP: f32 = 5.960_464_5e-8;

/// Converts IEEE 754 binary16 bits back to the exactly-representable `f32`.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let frac = (h & 0x3ff) as u32;
    if exp == 0x1f {
        return f32::from_bits(sign | 0x7f80_0000 | (frac << 13));
    }
    if exp == 0 {
        // Subnormal: frac * 2^-24, exact in f32 (frac < 2^11).
        let mag = frac as f32 * F16_SUBNORMAL_ULP;
        return if sign != 0 { -mag } else { mag };
    }
    f32::from_bits(sign | ((exp + 112) << 23) | (frac << 13))
}

/// Symmetric per-row int8 quantization. Writes `q[i] =
/// round(row[i] * 127 / max_abs)` and returns the dequantization scale
/// `max_abs / 127` (0 for an all-zero row). Artifacts store the quantized
/// payload itself (see [`crate::artifact::TensorData`]), so round-trip
/// byte-identity never depends on re-quantizing dequantized values.
pub fn quantize_row_i8(row: &[f32], q: &mut [i8]) -> f32 {
    debug_assert_eq!(row.len(), q.len());
    let mut max_abs = 0.0f32;
    for &x in row {
        let a = x.abs();
        if a > max_abs {
            max_abs = a;
        }
    }
    if max_abs == 0.0 || !max_abs.is_finite() {
        for slot in q.iter_mut() {
            *slot = 0;
        }
        return 0.0;
    }
    let inv = 127.0 / max_abs;
    for (slot, &x) in q.iter_mut().zip(row.iter()) {
        *slot = (x * inv).round().clamp(-127.0, 127.0) as i8;
    }
    max_abs / 127.0
}

/// Dequantizes one int8 row in place: `out[i] = q[i] * scale`.
pub fn dequantize_row_i8(q: &[i8], scale: f32, out: &mut [f32]) {
    debug_assert_eq!(q.len(), out.len());
    for (slot, &v) in out.iter_mut().zip(q.iter()) {
        *slot = v as f32 * scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_known_values() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff); // largest finite half
        assert_eq!(f32_to_f16_bits(1e6), 0x7c00); // overflow → inf
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_bits(5.960_464_5e-8), 0x0001); // smallest subnormal
        assert_eq!(f16_bits_to_f32(0x3c00), 1.0);
        assert_eq!(f16_bits_to_f32(0x0001), 5.960_464_5e-8);
        assert_eq!(f16_bits_to_f32(0x7c00), f32::INFINITY);
        assert!(f16_bits_to_f32(0x7e00).is_nan());
    }

    #[test]
    fn f16_round_trip_is_identity_on_half_values() {
        // Every one of the 63488 non-NaN f16 bit patterns must survive
        // f16 → f32 → f16 exactly.
        for h in 0..=u16::MAX {
            if (h >> 10) & 0x1f == 0x1f && h & 0x3ff != 0 {
                continue; // NaN payloads are canonicalised, skip
            }
            assert_eq!(f32_to_f16_bits(f16_bits_to_f32(h)), h, "bits {h:#06x}");
        }
    }

    #[test]
    fn f16_rounds_to_nearest_even() {
        // 1.0 + 2^-11 is exactly halfway between 1.0 and the next half;
        // round-to-even keeps the even mantissa (1.0).
        let halfway = f32::from_bits(0x3f80_0000 | (1 << 12));
        assert_eq!(f32_to_f16_bits(halfway), 0x3c00);
        // Just above the halfway point rounds up.
        let above = f32::from_bits(0x3f80_0000 | (1 << 12) | 1);
        assert_eq!(f32_to_f16_bits(above), 0x3c01);
    }

    #[test]
    fn int8_round_trip_error_is_bounded() {
        let row: Vec<f32> = (0..64)
            .map(|i| ((i * 37 % 100) as f32 - 50.0) / 80.0)
            .collect();
        let mut q = vec![0i8; row.len()];
        let scale = quantize_row_i8(&row, &mut q);
        let mut back = vec![0.0f32; row.len()];
        dequantize_row_i8(&q, scale, &mut back);
        for (a, b) in row.iter().zip(back.iter()) {
            assert!((a - b).abs() <= scale * 0.5 + 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn int8_zero_row() {
        let row = [0.0f32; 4];
        let mut q = [1i8; 4];
        assert_eq!(quantize_row_i8(&row, &mut q), 0.0);
        assert_eq!(q, [0i8; 4]);
    }
}
