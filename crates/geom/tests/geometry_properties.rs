//! Property-based tests for the geometry layer.

use manet_geom::{additional_coverage_two, intc, sample_in_disk, CoverageGrid, Vec2};
use manet_sim_engine::SimRng;
use manet_testkit::prop_check;
use std::f64::consts::PI;

prop_check! {
    /// 0 <= INTC(d) <= πr² for all valid inputs.
    fn intc_is_bounded(g) {
        let d = g.f64_in(0.0..5_000.0);
        let r = g.f64_in(1.0..2_000.0);
        let v = intc(d, r);
        assert!(v >= 0.0);
        assert!(v <= PI * r * r + 1e-6);
    }

    /// INTC scales with r²: INTC(s·d, s·r) = s²·INTC(d, r).
    fn intc_scales_quadratically(g) {
        let d = g.f64_in(0.0..1_000.0);
        let s = g.f64_in(0.5..4.0);
        let r = 500.0;
        let base = intc(d, r);
        let scaled = intc(s * d, s * r);
        assert!((scaled - s * s * base).abs() < 1e-6 * s * s * PI * r * r);
    }

    /// Additional coverage of two circles is within [0, πr²] and
    /// complementary to INTC.
    fn additional_coverage_complements_intc(g) {
        let d = g.f64_in(0.0..2_500.0);
        let r = 500.0;
        let extra = additional_coverage_two(d, r);
        assert!(extra >= -1e-9);
        assert!(extra <= PI * r * r + 1e-9);
        assert!((extra + intc(d.min(2.0 * r), r) - PI * r * r).abs() < 1e-6);
    }

    /// The grid coverage estimator stays in [0, 1] and agrees with the
    /// closed form for a single hearer.
    fn grid_estimator_bounded_and_accurate(g) {
        let d = g.f64_in(0.0..1_200.0);
        let r = 500.0;
        let grid = CoverageGrid::new(64);
        let frac = grid.additional_fraction(Vec2::ZERO, r, &[Vec2::new(d, 0.0)]);
        assert!((0.0..=1.0).contains(&frac));
        let exact = additional_coverage_two(d, r) / (PI * r * r);
        assert!((frac - exact).abs() < 0.015, "d={}: {} vs {}", d, frac, exact);
    }

    /// Adding one more heard transmitter can only shrink the uncovered area.
    fn coverage_is_monotone_in_hearers(g) {
        let seeds = g.vec(1..6, |g| {
            (g.f64_in(0.0..1_000.0), g.f64_in(0.0..std::f64::consts::TAU))
        });
        let r = 500.0;
        let grid = CoverageGrid::new(48);
        let mut heard: Vec<Vec2> = Vec::new();
        let mut prev = 1.0;
        for (rho, theta) in seeds {
            heard.push(Vec2::from_angle(theta) * rho);
            let frac = grid.additional_fraction(Vec2::ZERO, r, &heard);
            assert!(frac <= prev + 1e-12);
            prev = frac;
        }
    }

    /// Disk samples land in the disk.
    fn disk_samples_in_disk(g) {
        let seed = g.u64();
        let mut rng = SimRng::seed_from(seed);
        let c = Vec2::new(100.0, -50.0);
        for _ in 0..100 {
            let p = sample_in_disk(c, 500.0, &mut rng);
            assert!(c.distance_to(p) <= 500.0 + 1e-9);
        }
    }
}
