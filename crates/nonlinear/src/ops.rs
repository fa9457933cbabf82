//! Basic nonlinear mathematical operators — the Table 3 calculation methods.
//!
//! Every operator follows the paper's recipe: **range reduction** through the
//! FP2FX special functional unit, followed by a **Taylor expansion whose term
//! count the user selects** (§3.2.3 user-defined precision, §4.1). Division is
//! executed directly by a pipelined divider FU, and the inverse square root
//! uses the GNU-libc-style Newton iteration because it only occurs outside the
//! hot normalization loops.

use picachu_num::Fp2Fx;

/// User-selected approximation levels: the number of Taylor terms per
/// operator (§4.1 "PICACHU allows the users to adjust the level of
/// approximation by selecting the number of polynomial terms").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ApproxConfig {
    /// Terms of the `2^f` series (exp Step 4 of Table 3).
    pub exp_terms: usize,
    /// Terms of the `log2(1+m)` series (log Step 2 of Table 3).
    pub log_terms: usize,
    /// Terms of the sine/cosine series (only odd/even powers are counted).
    pub trig_terms: usize,
    /// Newton–Raphson refinement steps for the inverse square root.
    pub invsqrt_iters: usize,
}

impl Default for ApproxConfig {
    /// The paper's accuracy-evaluation configuration: enough terms that the
    /// FP16-storage path shows no perplexity degradation (Table 5).
    fn default() -> ApproxConfig {
        ApproxConfig {
            exp_terms: 8,
            log_terms: 12,
            trig_terms: 6,
            invsqrt_iters: 3,
        }
    }
}

impl ApproxConfig {
    /// A deliberately cheap configuration for the precision/performance
    /// trade-off experiments (§5.3.3).
    pub fn fast() -> ApproxConfig {
        ApproxConfig {
            exp_terms: 3,
            log_terms: 3,
            trig_terms: 2,
            invsqrt_iters: 1,
        }
    }
}

/// `exp(x)` via Table 3:
/// 1. `t = log2(e)·x`
/// 2. FP2FX splits `t` into integer `i` and fraction `f ∈ [0,1)`
/// 3. `2^i` by direct exponent construction
/// 4. `2^f = 1 + ln2·f + ln²2/2!·f² + …` (`cfg.exp_terms` terms)
/// 5. multiply.
pub fn exp_approx(x: f32, cfg: &ApproxConfig) -> f32 {
    if x.is_nan() {
        return f32::NAN;
    }
    let t = std::f32::consts::LOG2_E * x;
    // Saturate like the hardware: |t| beyond the exponent range.
    if t >= 128.0 {
        return f32::INFINITY;
    }
    if t < -149.0 {
        return 0.0;
    }
    let parts = Fp2Fx::split_int_frac(t);
    let pow2_i = Fp2Fx::pow2_int(parts.int_part);
    let pow2_f = pow2_frac(parts.frac_part, cfg.exp_terms);
    pow2_i * pow2_f
}

/// `2^f` for `f ∈ [0,1)` by the Taylor series of `exp(f·ln2)` with `terms`
/// terms (`terms = n` keeps powers `f^0 … f^(n-1)`).
pub fn pow2_frac(f: f32, terms: usize) -> f32 {
    debug_assert!((0.0..1.0).contains(&f), "pow2_frac domain is [0,1), got {f}");
    let ln2 = std::f32::consts::LN_2;
    // Horner evaluation of sum_{k<terms} (ln2·f)^k / k!
    let z = ln2 * f;
    let mut acc = 0.0f32;
    for k in (0..terms).rev() {
        acc = acc * z / (k as f32 + 1.0) + 1.0;
        if k == 0 {
            break;
        }
    }
    // The loop above computes 1 + z/1·(1 + z/2·(1 + …)) which equals the
    // truncated series.
    acc
}

/// `ln(x)` via Table 3:
/// 1. FP2FX extracts exponent `e` and mantissa `m ∈ [0,1)`
/// 2. `log2(1+m) = 1/ln2 · (m - m²/2 + m³/3 - …)` — we fold the `1/ln2`
///    constant and instead evaluate `ln(1+m)` directly, then
/// 3. `ln(x) = e·ln2 + ln(1+m)`.
///
/// For `m > 0.5` the series converges slowly, so the hardware kernel applies
/// one extra halving step (`1+m = 2·(1+m')/… `): we reduce via
/// `ln(1+m) = ln2 + ln((1+m)/2)` keeping the series argument in `[-0.25, 0.5]`.
pub fn ln_approx(x: f32, cfg: &ApproxConfig) -> f32 {
    if x.is_nan() || x < 0.0 {
        return f32::NAN;
    }
    if x == 0.0 {
        return f32::NEG_INFINITY;
    }
    if x.is_infinite() {
        return f32::INFINITY;
    }
    let parts = Fp2Fx::split_exp_mantissa(x);
    let mut e = parts.int_part as f32;
    let mut m = parts.frac_part;
    if m > 0.5 {
        // (1+m) in (1.5, 2): write as 2·(1 + m') with m' = (m-1)/2 ∈ (-0.25, 0)
        e += 1.0;
        m = (m - 1.0) / 2.0;
    }
    let ln1p = ln_1p_series(m, cfg.log_terms);
    e * std::f32::consts::LN_2 + ln1p
}

/// Truncated Mercator series `ln(1+m) = m - m²/2 + m³/3 - …` with `terms`
/// terms.
pub fn ln_1p_series(m: f32, terms: usize) -> f32 {
    let mut acc = 0.0f32;
    let mut pow = m;
    for k in 1..=terms {
        let term = pow / k as f32;
        if k % 2 == 1 {
            acc += term;
        } else {
            acc -= term;
        }
        pow *= m;
    }
    acc
}

/// `sin(x)` via Table 3: reduce to `t ∈ [-π/2, π/2]` with `sin(t) = sin(x)`,
/// then the odd Taylor series `t - t³/3! + t⁵/5! - …` with `cfg.trig_terms`
/// terms.
pub fn sin_approx(x: f32, cfg: &ApproxConfig) -> f32 {
    if !x.is_finite() {
        return f32::NAN;
    }
    let (t, negate) = reduce_to_half_pi(x);
    let s = sin_series(t, cfg.trig_terms);
    if negate {
        -s
    } else {
        s
    }
}

/// `cos(x)` via Table 3: `cos(x) = sin(x + π/2)` reuses the same reduction,
/// then the even series `1 - t²/2! + t⁴/4! - …`.
pub fn cos_approx(x: f32, cfg: &ApproxConfig) -> f32 {
    if !x.is_finite() {
        return f32::NAN;
    }
    sin_approx(x + std::f32::consts::FRAC_PI_2, cfg)
}

/// Range reduction: find `t ∈ [-π/2, π/2]` and a sign such that
/// `sin(x) = ±sin(t)`. Uses the FP2FX floor split on `x/π`.
fn reduce_to_half_pi(x: f32) -> (f32, bool) {
    // x = k·π + r with r ∈ [-π/2, π/2): sin(x) = (-1)^k · sin(r)
    let inv_pi = std::f32::consts::FRAC_1_PI;
    // Work in f64 for the reduction itself; the hardware uses an extended
    // fixed-point accumulator for the same reason (argument-reduction error
    // would otherwise dominate).
    let xd = x as f64;
    let k = (xd * inv_pi as f64 + 0.5).floor();
    let r = xd - k * std::f64::consts::PI;
    (r as f32, (k as i64).rem_euclid(2) == 1)
}

/// Odd Taylor series for sine with `terms` terms (`terms = n` keeps powers
/// `t^1 … t^(2n-1)`).
pub fn sin_series(t: f32, terms: usize) -> f32 {
    let t2 = t * t;
    let mut acc = 0.0f32;
    let mut term = t;
    for k in 0..terms {
        if k % 2 == 0 {
            acc += term;
        } else {
            acc -= term;
        }
        let n = (2 * k + 2) as f32;
        term = term * t2 / (n * (n + 1.0));
    }
    acc
}

/// Inverse square root, GNU-libc style (§4.1): an exponent-halving initial
/// guess (the classic bit trick) refined by `cfg.invsqrt_iters` Newton steps.
/// It runs on the CGRA outside the normalization loops, so its cost is
/// negligible relative to the loop bodies.
pub fn invsqrt_approx(x: f32, cfg: &ApproxConfig) -> f32 {
    if x.is_nan() || x < 0.0 {
        return f32::NAN;
    }
    if x == 0.0 {
        return f32::INFINITY;
    }
    if x.is_infinite() {
        return 0.0;
    }
    let mut y = f32::from_bits(0x5F37_59DF_u32.wrapping_sub(x.to_bits() >> 1));
    for _ in 0..cfg.invsqrt_iters {
        y *= 1.5 - 0.5 * x * y * y;
    }
    y
}

/// `tanh(x) = (exp(2x) - 1) / (exp(2x) + 1)`, built from the range-reduced
/// exponential plus the divider FU — exactly how the GeLU kernel of Table 1
/// computes its `Tanh`.
pub fn tanh_approx(x: f32, cfg: &ApproxConfig) -> f32 {
    if x.is_nan() {
        return f32::NAN;
    }
    // Saturate early: |x| > 10 is 1.0 to within FP32.
    if x > 10.0 {
        return 1.0;
    }
    if x < -10.0 {
        return -1.0;
    }
    let e2x = exp_approx(2.0 * x, cfg);
    (e2x - 1.0) / (e2x + 1.0)
}

/// `sigmoid(x) = 1 / (1 + exp(-x))` from the same primitives (used by SiLU).
pub fn sigmoid_approx(x: f32, cfg: &ApproxConfig) -> f32 {
    if x.is_nan() {
        return f32::NAN;
    }
    if x > 30.0 {
        return 1.0;
    }
    if x < -30.0 {
        return 0.0;
    }
    1.0 / (1.0 + exp_approx(-x, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use picachu_num::ErrorStats;
    use picachu_testkit::{prop_assert, prop_check};

    fn cfg() -> ApproxConfig {
        ApproxConfig::default()
    }

    #[test]
    fn exp_matches_reference_over_softmax_range() {
        // Softmax after max-subtraction sees x in [-inf, 0]; attention logits
        // commonly span [-30, 0].
        let s = ErrorStats::sweep(-30.0, 0.0, 50_000, |x| exp_approx(x as f32, &cfg()) as f64, f64::exp);
        assert!(s.max_rel < 1e-5, "exp rel err {s}");
    }

    #[test]
    fn exp_positive_range() {
        let s = ErrorStats::sweep(0.0, 30.0, 50_000, |x| exp_approx(x as f32, &cfg()) as f64, f64::exp);
        assert!(s.max_rel < 1e-5, "exp rel err {s}");
    }

    #[test]
    fn exp_extremes() {
        assert_eq!(exp_approx(1000.0, &cfg()), f32::INFINITY);
        assert_eq!(exp_approx(-1000.0, &cfg()), 0.0);
        assert!(exp_approx(f32::NAN, &cfg()).is_nan());
        assert_eq!(exp_approx(0.0, &cfg()), 1.0);
    }

    #[test]
    fn exp_term_count_monotone_accuracy() {
        // More Taylor terms -> lower error (the user-defined precision knob).
        let mut prev = f64::INFINITY;
        for terms in [2usize, 3, 4, 5, 6] {
            let c = ApproxConfig { exp_terms: terms, ..cfg() };
            let s = ErrorStats::sweep(-5.0, 5.0, 2000, |x| exp_approx(x as f32, &c) as f64, f64::exp);
            assert!(s.max_rel < prev, "terms={terms}: {} !< {prev}", s.max_rel);
            prev = s.max_rel;
        }
    }

    #[test]
    fn ln_matches_reference() {
        let s = ErrorStats::sweep(1e-6, 1e6, 50_000, |x| ln_approx(x as f32, &cfg()) as f64, f64::ln);
        // absolute error matters for ln (values near 0 cross zero at x=1)
        assert!(s.max_abs < 1e-4, "ln err {s}");
    }

    #[test]
    fn ln_edge_cases() {
        assert_eq!(ln_approx(0.0, &cfg()), f32::NEG_INFINITY);
        assert!(ln_approx(-1.0, &cfg()).is_nan());
        assert_eq!(ln_approx(f32::INFINITY, &cfg()), f32::INFINITY);
        assert!((ln_approx(1.0, &cfg())).abs() < 1e-6);
    }

    #[test]
    fn sin_cos_match_reference() {
        let s = ErrorStats::sweep(-100.0, 100.0, 100_000, |x| sin_approx(x as f32, &cfg()) as f64, f64::sin);
        assert!(s.max_abs < 1e-5, "sin err {s}");
        let c = ErrorStats::sweep(-100.0, 100.0, 100_000, |x| cos_approx(x as f32, &cfg()) as f64, f64::cos);
        assert!(c.max_abs < 1e-5, "cos err {c}");
    }

    #[test]
    fn sin_rope_angles() {
        // RoPE angles: m·θ_i with θ_i = 10000^(-2(i-1)/d); m up to 4096.
        for i in 0..64 {
            let theta = 10000f64.powf(-2.0 * i as f64 / 128.0);
            for m in [0u32, 1, 100, 1024, 4095] {
                let a = m as f64 * theta;
                assert!(
                    (sin_approx(a as f32, &cfg()) as f64 - a.sin()).abs() < 2e-4,
                    "angle {a}"
                );
            }
        }
    }

    #[test]
    fn invsqrt_matches_reference() {
        let s = ErrorStats::sweep(1e-4, 1e6, 50_000, |x| invsqrt_approx(x as f32, &cfg()) as f64, |x| 1.0 / x.sqrt());
        assert!(s.max_rel < 1e-5, "invsqrt err {s}");
    }

    #[test]
    fn invsqrt_edge_cases() {
        assert_eq!(invsqrt_approx(0.0, &cfg()), f32::INFINITY);
        assert_eq!(invsqrt_approx(f32::INFINITY, &cfg()), 0.0);
        assert!(invsqrt_approx(-1.0, &cfg()).is_nan());
    }

    #[test]
    fn tanh_and_sigmoid() {
        let s = ErrorStats::sweep(-8.0, 8.0, 10_000, |x| tanh_approx(x as f32, &cfg()) as f64, f64::tanh);
        assert!(s.max_abs < 1e-5, "tanh err {s}");
        let g = ErrorStats::sweep(-20.0, 20.0, 10_000, |x| sigmoid_approx(x as f32, &cfg()) as f64, |x| 1.0 / (1.0 + (-x).exp()));
        assert!(g.max_abs < 1e-5, "sigmoid err {g}");
    }

    #[test]
    fn tanh_saturation() {
        assert_eq!(tanh_approx(50.0, &cfg()), 1.0);
        assert_eq!(tanh_approx(-50.0, &cfg()), -1.0);
    }

    #[test]
    fn fast_config_worse_than_default() {
        let sf = ErrorStats::sweep(-5.0, 5.0, 2000, |x| exp_approx(x as f32, &ApproxConfig::fast()) as f64, f64::exp);
        let sd = ErrorStats::sweep(-5.0, 5.0, 2000, |x| exp_approx(x as f32, &cfg()) as f64, f64::exp);
        assert!(sf.max_rel > sd.max_rel * 10.0);
    }

    #[test]
    fn exp_always_nonnegative() {
        prop_check!(256, 0x0B501, |g| {
            let x = g.f32(-200.0..200.0);
            prop_assert!(exp_approx(x, &cfg()) >= 0.0);
            Ok(())
        });
    }

    #[test]
    fn exp_monotone() {
        prop_check!(256, 0x0B502, |g| {
            let a = g.f32(-40.0..40.0);
            let d = g.f32(0.01..10.0);
            prop_assert!(exp_approx(a + d, &cfg()) >= exp_approx(a, &cfg()));
            Ok(())
        });
    }

    #[test]
    fn ln_exp_inverse() {
        prop_check!(256, 0x0B503, |g| {
            let x = g.f32(-20.0..20.0);
            let y = ln_approx(exp_approx(x, &cfg()), &cfg());
            prop_assert!((y - x).abs() < 1e-3);
            Ok(())
        });
    }

    #[test]
    fn sin_bounded() {
        prop_check!(256, 0x0B504, |g| {
            let x = g.f32(-1000.0..1000.0);
            let s = sin_approx(x, &cfg());
            prop_assert!((-1.0001..=1.0001).contains(&s));
            Ok(())
        });
    }

    #[test]
    fn pythagorean_identity() {
        prop_check!(256, 0x0B505, |g| {
            let x = g.f32(-50.0..50.0);
            let s = sin_approx(x, &cfg());
            let c = cos_approx(x, &cfg());
            prop_assert!((s * s + c * c - 1.0).abs() < 1e-4);
            Ok(())
        });
    }

    #[test]
    fn sigmoid_in_unit_interval() {
        prop_check!(256, 0x0B506, |g| {
            let x = g.f32(-100.0..100.0);
            let y = sigmoid_approx(x, &cfg());
            prop_assert!((0.0..=1.0).contains(&y));
            Ok(())
        });
    }

    #[test]
    fn tanh_odd() {
        prop_check!(256, 0x0B507, |g| {
            let x = g.f32(-8.0..8.0);
            prop_assert!((tanh_approx(x, &cfg()) + tanh_approx(-x, &cfg())).abs() < 1e-5);
            Ok(())
        });
    }

    #[test]
    fn invsqrt_positive() {
        prop_check!(256, 0x0B508, |g| {
            let x = g.f32(1e-6..1e6);
            prop_assert!(invsqrt_approx(x, &cfg()) > 0.0);
            Ok(())
        });
    }
}
