//! Symmetric quantization and dyadic requantization.
//!
//! PICACHU's integer path (§4.1) represents tensors as `x ≈ q · s` with an
//! integer `q` and a real scale `s`. Polynomial evaluation on quantized inputs
//! uses I-BERT's completing-the-square technique, and intermediate rescaling
//! uses **dyadic** scales `m / 2^k` so the hardware needs only an integer
//! multiplier and a shifter — the same mechanism gemmlowp uses.

use std::fmt;

/// Quantization parameters for a symmetric, zero-point-free scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Real scale: `x ≈ q * scale`.
    pub scale: f64,
    /// Quantized storage width in bits (values clamp to `±(2^(bits-1)-1)`).
    pub bits: u32,
}

impl QuantParams {
    /// Chooses the scale so that `max_abs` maps to the largest representable
    /// magnitude.
    ///
    /// # Panics
    /// Panics if `max_abs` is not positive/finite or `bits` is not in `2..=32`.
    pub fn from_max_abs(max_abs: f64, bits: u32) -> QuantParams {
        assert!(
            max_abs.is_finite() && max_abs > 0.0,
            "max_abs must be positive finite, got {max_abs}"
        );
        assert!((2..=32).contains(&bits), "bits must be in 2..=32, got {bits}");
        let qmax = ((1i64 << (bits - 1)) - 1) as f64;
        QuantParams {
            scale: max_abs / qmax,
            bits,
        }
    }

    /// Calibrates from data: scale chosen from the maximum magnitude seen.
    /// Falls back to scale 1.0 for all-zero input.
    pub fn calibrate(data: &[f32], bits: u32) -> QuantParams {
        let max_abs = data.iter().fold(0.0f64, |m, &x| m.max((x as f64).abs()));
        if max_abs == 0.0 {
            QuantParams { scale: 1.0, bits }
        } else {
            QuantParams::from_max_abs(max_abs, bits)
        }
    }

    /// Largest representable quantized magnitude.
    pub fn qmax(&self) -> i64 {
        (1i64 << (self.bits - 1)) - 1
    }

    /// Quantizes a single value with rounding and saturation.
    pub fn quantize(&self, x: f64) -> i32 {
        let q = (x / self.scale).round();
        q.clamp(-(self.qmax() as f64), self.qmax() as f64) as i32
    }

    /// Dequantizes a single value.
    pub fn dequantize(&self, q: i32) -> f64 {
        q as f64 * self.scale
    }
}

impl fmt::Display for QuantParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "int{}(scale={:.3e})", self.bits, self.scale)
    }
}

/// A quantized tensor: integer payload plus its [`QuantParams`].
#[derive(Debug, Clone, PartialEq)]
pub struct Quantized {
    /// Integer values (stored widened to i32 regardless of `params.bits`).
    pub values: Vec<i32>,
    /// Scale/bit-width metadata.
    pub params: QuantParams,
}

impl Quantized {
    /// Quantizes a float slice with calibration from its own max-abs.
    pub fn quantize(data: &[f32], bits: u32) -> Quantized {
        let params = QuantParams::calibrate(data, bits);
        Quantized {
            values: data.iter().map(|&x| params.quantize(x as f64)).collect(),
            params,
        }
    }

    /// Dequantizes back to floats.
    pub fn dequantize(&self) -> Vec<f32> {
        self.values
            .iter()
            .map(|&q| self.params.dequantize(q) as f32)
            .collect()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A dyadic multiplier `m / 2^shift` with `m` a positive i32, used for
/// hardware requantization (integer multiply + arithmetic shift).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DyadicScale {
    /// Integer multiplier, normalized into `[2^30, 2^31)` when possible.
    pub multiplier: i32,
    /// Right-shift amount applied after the widening multiply.
    pub shift: u32,
}

impl DyadicScale {
    /// Approximates a positive real `scale` as `multiplier / 2^shift`.
    ///
    /// The multiplier is normalized into `[2^30, 2^31)` so the representation
    /// keeps 31 bits of precision, matching gemmlowp's
    /// `QuantizeMultiplier`.
    ///
    /// # Panics
    /// Panics if `scale` is not in `(0, 1e30)`.
    pub fn from_real(scale: f64) -> DyadicScale {
        assert!(
            scale > 0.0 && scale < 1e30,
            "dyadic scale requires positive real input, got {scale}"
        );
        // scale = frac * 2^exp with frac in [0.5, 1)
        let exp = scale.log2().floor() as i32 + 1;
        let frac = scale / 2f64.powi(exp); // in [0.5, 1)
        let mut multiplier = (frac * (1i64 << 31) as f64).round() as i64;
        let mut exp = exp;
        if multiplier == (1i64 << 31) {
            multiplier /= 2;
            exp += 1;
        }
        // value = multiplier * 2^(exp-31)  =>  shift = 31 - exp
        let shift = (31 - exp).max(0) as u32;
        DyadicScale {
            multiplier: multiplier as i32,
            shift,
        }
    }

    /// The real value this dyadic scale represents.
    pub fn to_real(self) -> f64 {
        self.multiplier as f64 / 2f64.powi(self.shift as i32)
    }

    /// Applies the scale to an integer: `round(x * multiplier / 2^shift)`,
    /// computed with a widening multiply exactly as the hardware would.
    pub fn apply(self, x: i32) -> i32 {
        let wide = x as i64 * self.multiplier as i64;
        crate::fixed::round_shift_right(wide, self.shift)
            .clamp(i32::MIN as i64, i32::MAX as i64) as i32
    }
}

impl fmt::Display for DyadicScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/2^{}", self.multiplier, self.shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picachu_testkit::{prop_assert, prop_check};

    #[test]
    fn quantize_round_trip() {
        let data = vec![0.0f32, 1.0, -1.0, 0.5, 127.0, -127.0];
        let q = Quantized::quantize(&data, 8);
        let back = q.dequantize();
        for (a, b) in data.iter().zip(back.iter()) {
            assert!((a - b).abs() <= q.params.scale as f32 / 2.0 + 1e-6);
        }
    }

    #[test]
    fn saturation_at_qmax() {
        let p = QuantParams::from_max_abs(1.0, 8);
        assert_eq!(p.qmax(), 127);
        assert_eq!(p.quantize(100.0), 127);
        assert_eq!(p.quantize(-100.0), -127);
    }

    #[test]
    fn calibrate_all_zero() {
        let p = QuantParams::calibrate(&[0.0; 8], 16);
        assert_eq!(p.scale, 1.0);
    }

    #[test]
    fn int16_resolution() {
        let p = QuantParams::from_max_abs(8.0, 16);
        // resolution ~ 8/32767 ≈ 2.4e-4
        assert!((p.dequantize(p.quantize(1.23456)) - 1.23456).abs() < 3e-4);
    }

    #[test]
    fn dyadic_round_trip() {
        for scale in [0.5f64, 0.1, 0.9999, 1.0 / 3.0, 1e-5, 3.7, 123.456] {
            let d = DyadicScale::from_real(scale);
            assert!(
                (d.to_real() - scale).abs() / scale < 1e-8,
                "scale {scale} -> {d}"
            );
        }
    }

    #[test]
    fn dyadic_apply_matches_real() {
        let d = DyadicScale::from_real(0.0042);
        for x in [-100_000i32, -17, 0, 5, 12_345, 1_000_000] {
            let expect = (x as f64 * 0.0042).round();
            assert!((d.apply(x) as f64 - expect).abs() <= 1.0, "x={x}");
        }
    }

    #[test]
    fn dyadic_multiplier_normalized() {
        let d = DyadicScale::from_real(0.25);
        assert!(d.multiplier >= (1 << 30), "multiplier {} not normalized", d.multiplier);
    }

    #[test]
    fn quantization_error_bound() {
        prop_check!(256, 0x90A01, |g| {
            let data: Vec<f32> = g.vec(-50.0f32..50.0, 1..100);
            let bits = g.u32(8..17);
            let q = Quantized::quantize(&data, bits);
            let back = q.dequantize();
            let half_step = (q.params.scale / 2.0) as f32;
            for (a, b) in data.iter().zip(back.iter()) {
                // allow for the f32 representation error of the dequantized value
                let slack = half_step + a.abs() * 4.0 * f32::EPSILON + 1e-6;
                prop_assert!((a - b).abs() <= slack);
            }
            Ok(())
        });
    }

    #[test]
    fn dyadic_relative_error() {
        prop_check!(256, 0x90A02, |g| {
            let scale = g.f64(1e-8..1e8);
            let d = DyadicScale::from_real(scale);
            prop_assert!((d.to_real() - scale).abs() / scale < 1e-8);
            Ok(())
        });
    }

    #[test]
    fn dyadic_apply_error_bounded() {
        prop_check!(256, 0x90A03, |g| {
            let scale = g.f64(1e-4..10.0);
            let x = g.i32(-1_000_000..1_000_000);
            let d = DyadicScale::from_real(scale);
            let expect = x as f64 * scale;
            if expect.abs() < 2e9 {
                prop_assert!((d.apply(x) as f64 - expect).abs() <= expect.abs() * 1e-6 + 1.0);
            }
            Ok(())
        });
    }
}
