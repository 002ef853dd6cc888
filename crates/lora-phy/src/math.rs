//! Float math that also works without `std`.
//!
//! `core` deliberately has no float transcendentals — `f64::ln`,
//! `powf`, `sqrt` and friends live in `std` because they lower to
//! platform intrinsics. The PHY models need a handful of them, so this
//! module provides the complete set the crate uses:
//!
//! * with the `std` feature (the default) every function delegates to
//!   the `std` intrinsic, so results are bit-identical to what the
//!   simulator's golden fingerprints were captured with;
//! * without it, portable software implementations (argument reduction
//!   plus truncated series, no `libm` dependency) take over. They are
//!   accurate to well under a millionth of a dB over the ranges the
//!   link-budget and propagation models exercise — sufficient for
//!   firmware targets, where the analytic PHY model is advisory anyway.
//!
//! The portable implementations are compiled (and differential-tested
//! against `std`) in every build, so the no_std path cannot rot behind
//! the feature gate.

/// Base-10 logarithm.
#[must_use]
pub fn log10(x: f64) -> f64 {
    #[cfg(feature = "std")]
    {
        x.log10()
    }
    #[cfg(not(feature = "std"))]
    {
        portable::log10(x)
    }
}

/// Natural logarithm.
#[must_use]
pub fn ln(x: f64) -> f64 {
    #[cfg(feature = "std")]
    {
        x.ln()
    }
    #[cfg(not(feature = "std"))]
    {
        portable::ln(x)
    }
}

/// Natural exponential.
#[must_use]
pub fn exp(x: f64) -> f64 {
    #[cfg(feature = "std")]
    {
        x.exp()
    }
    #[cfg(not(feature = "std"))]
    {
        portable::exp(x)
    }
}

/// `base` raised to the (real) power `exponent`; `base` must be
/// positive, which is all the dB ↔ linear conversions ever need.
#[must_use]
pub fn powf(base: f64, exponent: f64) -> f64 {
    #[cfg(feature = "std")]
    {
        base.powf(exponent)
    }
    #[cfg(not(feature = "std"))]
    {
        portable::powf(base, exponent)
    }
}

/// Square root.
#[must_use]
pub fn sqrt(x: f64) -> f64 {
    #[cfg(feature = "std")]
    {
        x.sqrt()
    }
    #[cfg(not(feature = "std"))]
    {
        portable::sqrt(x)
    }
}

/// Cosine.
#[must_use]
pub fn cos(x: f64) -> f64 {
    #[cfg(feature = "std")]
    {
        x.cos()
    }
    #[cfg(not(feature = "std"))]
    {
        portable::cos(x)
    }
}

/// Euclidean distance `sqrt(x² + y²)` without undue overflow.
#[must_use]
pub fn hypot(x: f64, y: f64) -> f64 {
    #[cfg(feature = "std")]
    {
        x.hypot(y)
    }
    #[cfg(not(feature = "std"))]
    {
        portable::hypot(x, y)
    }
}

/// The software implementations behind the no_std build. Public only to
/// keep them differential-testable from the `std` test build; call the
/// top-level functions instead.
pub mod portable {
    /// `|x|` via sign-bit masking (`f64::abs` is a `std` method).
    #[must_use]
    pub fn abs(x: f64) -> f64 {
        f64::from_bits(x.to_bits() & !(1u64 << 63))
    }

    /// Largest integer ≤ `x`, for arguments within `i64` range (all the
    /// range reductions here are).
    fn floor(x: f64) -> f64 {
        let truncated = x as i64 as f64;
        if truncated > x {
            truncated - 1.0
        } else {
            truncated
        }
    }

    /// Natural exponential: reduce `x = k·ln2 + r` with `|r| ≤ ln2/2`,
    /// run the Taylor series on `r` and scale by `2^k` through the
    /// exponent bits.
    #[must_use]
    pub fn exp(x: f64) -> f64 {
        if x.is_nan() {
            return x; // NaN
        }
        // exp underflows/overflows outside roughly ±709.
        if x > 709.78 {
            return f64::INFINITY;
        }
        if x < -745.0 {
            return 0.0;
        }
        let k = floor(x / core::f64::consts::LN_2 + 0.5);
        let r = x - k * core::f64::consts::LN_2;
        // 14 terms: with |r| ≤ 0.347 the truncation error is ~1e-19.
        let mut term = 1.0;
        let mut sum = 1.0;
        let mut n = 1.0;
        while n < 15.0 {
            term *= r / n;
            sum += term;
            n += 1.0;
        }
        let k = k as i64;
        let scale = f64::from_bits((u64::wrapping_add(1023, k as u64)) << 52);
        sum * scale
    }

    /// Natural logarithm: split `x = 2^k · m` with `m ∈ [1, 2)` and use
    /// the `atanh` series `ln m = 2·Σ t^(2i+1)/(2i+1)`, `t = (m−1)/(m+1)`.
    #[must_use]
    pub fn ln(x: f64) -> f64 {
        if x.is_nan() || x < 0.0 {
            return f64::NAN;
        }
        if x == 0.0 {
            return f64::NEG_INFINITY;
        }
        if x == f64::INFINITY {
            return x;
        }
        let bits = x.to_bits();
        let mut exponent = ((bits >> 52) & 0x7FF) as i64 - 1023;
        let mut mantissa = if exponent == -1023 {
            // Subnormal: renormalise.
            let m = f64::from_bits(bits | (1023u64 << 52)) - 1.0;
            exponent += 1;
            m.max(f64::MIN_POSITIVE)
        } else {
            f64::from_bits((bits & ((1u64 << 52) - 1)) | (1023u64 << 52))
        };
        // Fold [√2, 2) down to [1/√2, √2) so |t| stays ≤ 0.1716.
        if mantissa > core::f64::consts::SQRT_2 {
            mantissa /= 2.0;
            exponent += 1;
        }
        let t = (mantissa - 1.0) / (mantissa + 1.0);
        let t2 = t * t;
        let mut sum = 0.0;
        let mut power = t;
        let mut n = 1.0;
        while n < 28.0 {
            sum += power / n;
            power *= t2;
            n += 2.0;
        }
        let k = exponent as f64;
        2.0 * sum + k * core::f64::consts::LN_2
    }

    /// Base-10 logarithm.
    #[must_use]
    pub fn log10(x: f64) -> f64 {
        ln(x) / core::f64::consts::LN_10
    }

    /// `base^exponent` for positive `base`.
    #[must_use]
    pub fn powf(base: f64, exponent: f64) -> f64 {
        if exponent == 0.0 {
            return 1.0;
        }
        if base == 0.0 {
            return if exponent > 0.0 { 0.0 } else { f64::INFINITY };
        }
        exp(exponent * ln(base))
    }

    /// Square root by Newton iteration from a bit-level initial guess.
    #[must_use]
    pub fn sqrt(x: f64) -> f64 {
        if x.is_nan() || x < 0.0 {
            return f64::NAN;
        }
        if x == 0.0 || x == f64::INFINITY {
            return x;
        }
        // Halve the exponent for a guess good to a few percent.
        let mut guess = f64::from_bits((x.to_bits() >> 1) + (1022u64 << 51));
        for _ in 0..5 {
            guess = 0.5 * (guess + x / guess);
        }
        guess
    }

    /// Cosine: reduce to `[-π, π]` and sum the Taylor series (15 terms
    /// keep the truncation error below 1e-17 on that interval).
    #[must_use]
    pub fn cos(x: f64) -> f64 {
        if x.is_nan() || x == f64::INFINITY || x == f64::NEG_INFINITY {
            return f64::NAN;
        }
        let tau = core::f64::consts::TAU;
        let mut r = x - tau * floor(x / tau);
        if r > core::f64::consts::PI {
            r -= tau;
        }
        let r2 = r * r;
        let mut term = 1.0;
        let mut sum = 1.0;
        let mut n = 1.0;
        while n < 30.0 {
            term *= -r2 / (n * (n + 1.0));
            sum += term;
            n += 2.0;
        }
        sum
    }

    /// Overflow-safe `sqrt(x² + y²)`.
    #[must_use]
    pub fn hypot(x: f64, y: f64) -> f64 {
        let (a, b) = (abs(x), abs(y));
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        if hi == 0.0 {
            return 0.0;
        }
        let ratio = lo / hi;
        hi * sqrt(1.0 + ratio * ratio)
    }
}

#[cfg(all(test, feature = "std"))]
#[expect(
    clippy::float_cmp,
    reason = "exact comparisons against sentinel values (0.0, 1.0, infinities) are the point"
)]
mod tests {
    use super::portable;

    /// Relative error of the portable function against the intrinsic.
    fn rel(err: f64, reference: f64) -> f64 {
        if reference == 0.0 {
            err.abs()
        } else {
            (err / reference).abs()
        }
    }

    #[test]
    fn portable_exp_matches_std() {
        let mut x = -30.0;
        while x <= 30.0 {
            let (p, s) = (portable::exp(x), x.exp());
            assert!(rel(p - s, s) < 1e-12, "exp({x}): {p} vs {s}");
            x += 0.137;
        }
        assert_eq!(portable::exp(f64::NEG_INFINITY), 0.0);
        assert_eq!(portable::exp(1000.0), f64::INFINITY);
    }

    #[test]
    fn portable_ln_and_log10_match_std() {
        for x in [1e-9, 1e-3, 0.5, 1.0, 2.0, 868e6, 1.7e12] {
            let (p, s) = (portable::ln(x), x.ln());
            assert!(rel(p - s, s.abs().max(1.0)) < 1e-13, "ln({x}): {p} vs {s}");
            let (p, s) = (portable::log10(x), x.log10());
            assert!(rel(p - s, s.abs().max(1.0)) < 1e-13, "log10({x})");
        }
        assert!(portable::ln(-1.0).is_nan());
        assert_eq!(portable::ln(0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn portable_powf_matches_std() {
        for (b, e) in [
            (10.0, -17.4),
            (10.0, 1.4),
            (2.0, 0.5),
            (300.0, 2.75),
            (0.97, 31.0),
        ] {
            let (p, s) = (portable::powf(b, e), f64::powf(b, e));
            assert!(rel(p - s, s) < 1e-12, "powf({b}, {e}): {p} vs {s}");
        }
        assert_eq!(portable::powf(7.5, 0.0), 1.0);
        assert_eq!(portable::powf(0.0, 3.0), 0.0);
    }

    #[test]
    fn portable_sqrt_cos_hypot_match_std() {
        let mut x = 0.001;
        while x < 1e7 {
            let (p, s) = (portable::sqrt(x), x.sqrt());
            assert!(rel(p - s, s) < 1e-14, "sqrt({x})");
            x *= 3.7;
        }
        let mut x = -10.0;
        while x <= 10.0 {
            let (p, s) = (portable::cos(x), x.cos());
            assert!((p - s).abs() < 1e-13, "cos({x}): {p} vs {s}");
            x += 0.173;
        }
        for (a, b) in [(3.0, 4.0), (-300.0, 0.0), (1e-8, 2e-8), (7e150, 7e150)] {
            let (p, s) = (portable::hypot(a, b), a.hypot(b));
            assert!(rel(p - s, s) < 1e-13, "hypot({a}, {b})");
        }
    }
}
