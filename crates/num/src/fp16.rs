//! Software IEEE-754 binary16 ("half precision").
//!
//! LLM inference baselines in the paper run in FP16 on an A100; the PICACHU
//! CGRA accepts FP16 inputs and converts them to FP32 for intermediate
//! computation (§4.2.1). This module implements bit-exact conversion with
//! round-to-nearest-even, including subnormals, infinities and NaN, so the
//! accuracy experiments can quantize activations exactly the way the hardware
//! would.

use std::cmp::Ordering;
use std::fmt;

/// An IEEE-754 binary16 value stored as its raw bit pattern.
///
/// ```
/// use picachu_num::Fp16;
/// let x = Fp16::from_f32(0.1);
/// assert!((x.to_f32() - 0.1).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fp16(u16);

impl Fp16 {
    /// Positive zero.
    pub const ZERO: Fp16 = Fp16(0);
    /// One.
    pub const ONE: Fp16 = Fp16(0x3C00);
    /// Positive infinity.
    pub const INFINITY: Fp16 = Fp16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: Fp16 = Fp16(0xFC00);
    /// Largest finite value (65504).
    pub const MAX: Fp16 = Fp16(0x7BFF);
    /// Smallest positive normal value (2^-14).
    pub const MIN_POSITIVE: Fp16 = Fp16(0x0400);

    /// Constructs a value from its raw bit pattern.
    pub fn from_bits(bits: u16) -> Fp16 {
        Fp16(bits)
    }

    /// Returns the raw bit pattern.
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f32` with round-to-nearest-even, handling overflow to
    /// infinity and underflow to subnormals/zero.
    pub fn from_f32(value: f32) -> Fp16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mant = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf or NaN. Preserve NaN-ness with a quiet payload bit.
            let payload = if mant != 0 { 0x0200 } else { 0 };
            return Fp16(sign | 0x7C00 | payload | ((mant >> 13) as u16 & 0x03FF));
        }

        // Unbiased exponent.
        let e = exp - 127;
        if e > 15 {
            // Overflow to infinity.
            return Fp16(sign | 0x7C00);
        }
        if e >= -14 {
            // Normal range: round 23-bit mantissa to 10 bits (RNE).
            let half_exp = ((e + 15) as u16) << 10;
            let shifted = mant >> 13;
            let round_bit = (mant >> 12) & 1;
            let sticky = mant & 0x0FFF;
            let mut out = sign | half_exp | shifted as u16;
            if round_bit == 1 && (sticky != 0 || (shifted & 1) == 1) {
                out = out.wrapping_add(1); // may carry into exponent: correct
            }
            return Fp16(out);
        }
        if e >= -25 {
            // Subnormal: implicit leading one becomes explicit.
            let full = mant | 0x0080_0000;
            let shift = (-14 - e) as u32 + 13;
            let shifted = full >> shift;
            let rem_mask = (1u32 << shift) - 1;
            let rem = full & rem_mask;
            let halfway = 1u32 << (shift - 1);
            let mut out = sign | shifted as u16;
            if rem > halfway || (rem == halfway && (shifted & 1) == 1) {
                out = out.wrapping_add(1);
            }
            return Fp16(out);
        }
        // Underflow to signed zero.
        Fp16(sign)
    }

    /// Converts to `f32` exactly (every binary16 value is representable).
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> 10) & 0x1F) as u32;
        let mant = (self.0 & 0x03FF) as u32;

        let bits = if exp == 0 {
            if mant == 0 {
                sign
            } else {
                // Subnormal: normalize. `lz` counts zeros within the 10-bit field.
                let lz = mant.leading_zeros() - 22;
                let mant_norm = (mant << (lz + 1)) & 0x03FF;
                let exp_f32 = 127 - 15 - lz;
                sign | (exp_f32 << 23) | (mant_norm << 13)
            }
        } else if exp == 0x1F {
            sign | 0x7F80_0000 | (mant << 13)
        } else {
            sign | ((exp + 127 - 15) << 23) | (mant << 13)
        };
        f32::from_bits(bits)
    }

    /// Converts from `f64` via `f32` (double rounding is acceptable here; the
    /// hardware path is f32-intermediate anyway).
    pub fn from_f64(value: f64) -> Fp16 {
        Fp16::from_f32(value as f32)
    }

    /// Converts to `f64` exactly.
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// Returns `true` if the value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// Returns `true` if the value is positive or negative infinity.
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// Returns `true` for finite values.
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }

    /// Rounds an `f32` to the nearest representable FP16 and back, emulating a
    /// half-precision storage round trip.
    pub fn round_trip(value: f32) -> f32 {
        Fp16::from_f32(value).to_f32()
    }
}

impl From<f32> for Fp16 {
    fn from(v: f32) -> Fp16 {
        Fp16::from_f32(v)
    }
}

impl From<Fp16> for f32 {
    fn from(v: Fp16) -> f32 {
        v.to_f32()
    }
}

impl PartialOrd for Fp16 {
    fn partial_cmp(&self, other: &Fp16) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Display for Fp16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picachu_testkit::{prop_assert, prop_check};

    #[test]
    fn exact_small_integers() {
        for i in -2048..=2048i32 {
            let x = i as f32;
            assert_eq!(Fp16::round_trip(x), x, "integer {i} must be exact");
        }
    }

    #[test]
    fn constants() {
        assert_eq!(Fp16::ONE.to_f32(), 1.0);
        assert_eq!(Fp16::MAX.to_f32(), 65504.0);
        assert_eq!(Fp16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert!(Fp16::INFINITY.is_infinite());
        assert!(Fp16::NEG_INFINITY.is_infinite());
    }

    #[test]
    fn overflow_to_infinity() {
        assert!(Fp16::from_f32(1e6).is_infinite());
        assert!(Fp16::from_f32(-1e6).is_infinite());
        assert_eq!(Fp16::from_f32(65504.0).to_f32(), 65504.0);
        // 65520 rounds up to infinity (beyond MAX + ulp/2).
        assert!(Fp16::from_f32(65520.0).is_infinite());
    }

    #[test]
    fn subnormals() {
        let tiny = 2.0f32.powi(-24); // smallest positive subnormal
        assert_eq!(Fp16::round_trip(tiny), tiny);
        let sub = 3.0 * 2.0f32.powi(-24);
        assert_eq!(Fp16::round_trip(sub), sub);
        // Below half the smallest subnormal flushes to zero.
        assert_eq!(Fp16::round_trip(2.0f32.powi(-26)), 0.0);
    }

    #[test]
    fn nan_preserved() {
        assert!(Fp16::from_f32(f32::NAN).is_nan());
        assert!(Fp16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn signed_zero() {
        assert_eq!(Fp16::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(Fp16::from_f32(0.0).to_bits(), 0x0000);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1.0 + 2^-11 is exactly halfway between 1.0 and 1.0+2^-10: ties to even -> 1.0
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(Fp16::round_trip(halfway), 1.0);
        // slightly above halfway rounds up
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(Fp16::round_trip(above), 1.0 + 2.0f32.powi(-10));
    }

    #[test]
    fn round_trip_is_idempotent() {
        prop_check!(256, 0xF1601, |g| {
            let x = g.f32(-70000.0..70000.0);
            let once = Fp16::round_trip(x);
            let twice = Fp16::round_trip(once);
            prop_assert!(once == twice || (once.is_nan() && twice.is_nan()));
            Ok(())
        });
    }

    #[test]
    fn round_trip_error_bounded() {
        prop_check!(256, 0xF1602, |g| {
            let x = g.f32(-1000.0..1000.0);
            let rt = Fp16::round_trip(x);
            // Relative error bounded by 2^-11 in the normal range.
            if x.abs() > 2.0f32.powi(-14) {
                prop_assert!((rt - x).abs() <= x.abs() * 2.0f32.powi(-11) + 1e-12);
            }
            Ok(())
        });
    }

    #[test]
    fn all_bit_patterns_convert() {
        // exhaustive instead of sampled: the domain is only 2^16 wide
        for bits in 0u16..=u16::MAX {
            let h = Fp16::from_bits(bits);
            let f = h.to_f32();
            if h.is_finite() {
                // round-tripping the exact f32 must give back the same bits
                // (modulo -0.0 == 0.0 which still preserves bits here)
                assert_eq!(Fp16::from_f32(f).to_bits(), bits);
            } else if h.is_nan() {
                assert!(f.is_nan());
            } else {
                assert!(f.is_infinite());
            }
        }
    }

    #[test]
    fn ordering_matches_f32() {
        prop_check!(256, 0xF1604, |g| {
            let a = g.f32(-60000.0..60000.0);
            let b = g.f32(-60000.0..60000.0);
            let (ha, hb) = (Fp16::from_f32(a), Fp16::from_f32(b));
            if ha.to_f32() < hb.to_f32() {
                prop_assert!(ha < hb);
            }
            Ok(())
        });
    }
}
