//! The closed-form two-circle intersection area `INTC(d)` and the
//! coverage fractions built on it.
//!
//! The broadcast-storm analysis (paper §2.2.1) leans on the area of the
//! lens formed by two transmission disks of equal radius `r` whose centers
//! are `d` apart:
//!
//! ```text
//! INTC(d) = 4 * ∫_{d/2}^{r} sqrt(r² − x²) dx
//!         = 2 r² acos(d / 2r) − (d/2) sqrt(4r² − d²)
//! ```
//!
//! The *additional coverage* a rebroadcast at distance `d` provides over the
//! original transmission is `πr² − INTC(d)`, maximized at `d = r` where it
//! equals ≈ `0.61 πr²`.

/// The paper's `INTC(d)`: intersection area of two circles of radius `r`
/// with centers `d` apart.
///
/// Returns `πr²` for `d = 0` (coincident disks) and `0` for `d ≥ 2r`
/// (disjoint disks).
///
/// # Panics
///
/// Panics if `d` is negative or either argument is not finite.
///
/// # Examples
///
/// ```
/// use manet_geom::intc;
/// use std::f64::consts::PI;
///
/// let r = 500.0;
/// assert!((intc(0.0, r) - PI * r * r).abs() < 1e-6);
/// assert_eq!(intc(2.0 * r, r), 0.0);
/// ```
pub fn intc(d: f64, r: f64) -> f64 {
    assert!(
        d.is_finite() && d >= 0.0 && r.is_finite() && r >= 0.0,
        "intc arguments must be finite and non-negative: d={d}, r={r}"
    );
    if d >= 2.0 * r || r == 0.0 {
        return 0.0;
    }
    let half_d = d / 2.0;
    2.0 * r * r * (half_d / r).acos() - half_d * (4.0 * r * r - d * d).sqrt()
}

/// Additional coverage `πr² − INTC(d)` of a rebroadcast at distance `d`
/// from the original transmitter (both with radius `r`).
pub fn additional_coverage_two(d: f64, r: f64) -> f64 {
    std::f64::consts::PI * r * r - intc(d.min(2.0 * r), r)
}

/// The maximum additional coverage fraction of a single rebroadcast,
/// `1 − INTC(r)/πr² ≈ 0.6090`, attained at `d = r` (paper §2.2.1, "61%").
pub fn max_additional_coverage_fraction() -> f64 {
    additional_coverage_two(1.0, 1.0) / std::f64::consts::PI
}

/// The expected additional coverage fraction of a rebroadcast from a host
/// placed uniformly at random inside the transmitter's disk:
///
/// ```text
/// ∫₀ʳ 2πx (πr² − INTC(x)) / (πr²)² dx ≈ 0.41
/// ```
///
/// Computed by Simpson-rule integration with `steps` panels (paper §2.2.1,
/// "41%"). `steps` is rounded up to an even number; 1 000 gives ~12 digits.
pub fn mean_additional_coverage_fraction(steps: usize) -> f64 {
    let r = 1.0;
    let area = std::f64::consts::PI * r * r;
    let f = |x: f64| 2.0 * std::f64::consts::PI * x * (area - intc(x, r)) / (area * area);
    simpson(f, 0.0, r, steps)
}

/// The expected probability that a second receiver contends with the first:
///
/// ```text
/// ∫₀ʳ 2πx · INTC(x) / (πr²)² dx ≈ 0.59
/// ```
///
/// (paper §2.2.2, "59%").
pub fn expected_contention_probability(steps: usize) -> f64 {
    let r = 1.0;
    let area = std::f64::consts::PI * r * r;
    let f = |x: f64| 2.0 * std::f64::consts::PI * x * intc(x, r) / (area * area);
    simpson(f, 0.0, r, steps)
}

/// Composite Simpson's rule on `[a, b]` with `steps` panels (rounded up to
/// even).
fn simpson<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, steps: usize) -> f64 {
    let n = steps.max(2) + (steps % 2);
    let h = (b - a) / n as f64;
    let mut sum = f(a) + f(b);
    for i in 1..n {
        let x = a + i as f64 * h;
        sum += f(x) * if i % 2 == 1 { 4.0 } else { 2.0 };
    }
    sum * h / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    const R: f64 = 500.0;

    #[test]
    fn intc_boundary_values() {
        assert!((intc(0.0, R) - PI * R * R).abs() < 1e-6);
        assert_eq!(intc(2.0 * R, R), 0.0);
        assert_eq!(intc(3.0 * R, R), 0.0);
        assert_eq!(intc(1.0, 0.0), 0.0);
    }

    #[test]
    fn intc_is_monotone_decreasing() {
        let mut prev = intc(0.0, R);
        for i in 1..=100 {
            let d = 2.0 * R * i as f64 / 100.0;
            let cur = intc(d, R);
            assert!(cur <= prev + 1e-9, "INTC must not increase with d");
            prev = cur;
        }
    }

    #[test]
    fn intc_matches_numeric_integral() {
        // INTC(d) = 4 ∫_{d/2}^r sqrt(r² − x²) dx — check the closed form
        // against direct numeric integration at several distances.
        for frac in [0.1, 0.3, 0.5, 0.8, 1.0, 1.5, 1.9] {
            let d = frac * R;
            let numeric = simpson(|x| (R * R - x * x).max(0.0).sqrt(), d / 2.0, R, 20_000) * 4.0;
            let closed = intc(d, R);
            assert!(
                (numeric - closed).abs() / (PI * R * R) < 1e-6,
                "d={d}: numeric {numeric} vs closed {closed}"
            );
        }
    }

    #[test]
    fn paper_constant_61_percent() {
        // Additional coverage at d = r is "about 0.61 πr²".
        let frac = max_additional_coverage_fraction();
        assert!((frac - 0.6090).abs() < 5e-4, "got {frac}");
    }

    #[test]
    fn paper_constant_41_percent() {
        let frac = mean_additional_coverage_fraction(2_000);
        assert!((frac - 0.41).abs() < 5e-3, "got {frac}");
    }

    #[test]
    fn paper_constant_59_percent() {
        let p = expected_contention_probability(2_000);
        assert!((p - 0.59).abs() < 5e-3, "got {p}");
    }

    #[test]
    fn mean_and_contention_are_complementary() {
        // E[additional]/πr² + E[INTC]/πr² = 1 for a uniformly random point,
        // so 0.41 + 0.59 ≈ 1.
        let a = mean_additional_coverage_fraction(2_000);
        let c = expected_contention_probability(2_000);
        assert!((a + c - 1.0).abs() < 1e-9);
    }
}
