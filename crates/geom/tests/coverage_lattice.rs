//! Differential test of the column-bitmask coverage kernel against the
//! per-point definition it replaced: materialize every lattice point of
//! the disk, delete the ones each heard transmitter covers.

use manet_geom::{CoverageGrid, Vec2};
use manet_testkit::{prop_check, Gen};

/// Lattice point `(i, j)` of the disk at `center`, in the expression the
/// estimator has always used.
fn lattice_point(n: usize, center: Vec2, r: f64, i: usize, j: usize) -> Vec2 {
    let step = 2.0 * r / n as f64;
    Vec2::new(
        center.x - r + (i as f64 + 0.5) * step,
        center.y - r + (j as f64 + 0.5) * step,
    )
}

/// The oracle's state: the sample points inside the disk, column-major.
fn sample_points(n: usize, center: Vec2, r: f64) -> Vec<Vec2> {
    let r2 = r * r;
    let mut points = Vec::new();
    for i in 0..n {
        for j in 0..n {
            let p = lattice_point(n, center, r, i, j);
            if p.distance_squared_to(center) <= r2 {
                points.push(p);
            }
        }
    }
    points
}

/// The points a column-mask state stands for, column-major.
fn mask_points(columns: &[u64], center: Vec2, r: f64) -> Vec<Vec2> {
    let n = columns.len();
    let mut points = Vec::new();
    for (i, column) in columns.iter().enumerate() {
        assert_eq!(
            column >> (n - 1) >> 1,
            0,
            "column {i} has a bit past row {n}"
        );
        for j in (0..n).filter(|j| column >> j & 1 == 1) {
            points.push(lattice_point(n, center, r, i, j));
        }
    }
    points
}

/// A heard transmitter. Half the draws are anywhere within hearing range
/// and a little beyond; the other half are the placements a static grid
/// of hosts produces and the ones that put a lattice point exactly on the
/// transmitter's rim.
fn sender(g: &mut Gen, n: usize, center: Vec2, r: f64) -> Vec2 {
    let on_lattice = |g: &mut Gen| {
        let (i, j) = (g.usize_in(0..n), g.usize_in(0..n));
        lattice_point(n, center, r, i, j)
    };
    match g.u32_in(0..12) {
        0 => center,
        1 => on_lattice(g),
        // A lattice point at distance exactly r: straight along its column
        // (`dx = 0`), where the chord shrinks to nothing (`dx = ±r`, the
        // square root at its least accurate), or anywhere between.
        2..=4 => {
            let p = on_lattice(g);
            let dx = match g.u32_in(0..4) {
                0 => 0.0,
                1 => r,
                2 => -r,
                _ => g.f64_in_incl(-r, r),
            };
            let h = (r * r - dx * dx).sqrt();
            Vec2::new(p.x + dx, if g.bool() { p.y - h } else { p.y + h })
        }
        // Exactly r and 2r from the center, on an axis.
        5 => {
            let d = if g.bool() { r } else { 2.0 * r };
            let d = if g.bool() { d } else { -d };
            if g.bool() {
                Vec2::new(center.x + d, center.y)
            } else {
                Vec2::new(center.x, center.y + d)
            }
        }
        _ => {
            center + Vec2::from_angle(g.f64_in(0.0..std::f64::consts::TAU)) * g.f64_in(0.0..2.2 * r)
        }
    }
}

prop_check! {
    /// Same disk at every center, and after every heard transmitter the
    /// same surviving points, bit for bit, as the per-point oracle.
    fn cover_matches_the_per_point_oracle(g) {
        let n = if g.bool() { 48 } else { g.usize_in(2..65) };
        let r = if g.bool() { 500.0 } else { g.f64_in(1.0..2_000.0) };
        // Hosts sit anywhere on an 11 × 11-radius map, or on a grid of it.
        let coordinate = |g: &mut Gen| {
            if g.bool() {
                g.f64_in_incl(0.0, 11.0 * r)
            } else {
                f64::from(g.u32_in(0..45)) * r / 4.0
            }
        };
        let center = Vec2::new(coordinate(g), coordinate(g));
        let grid = CoverageGrid::new(n);

        let mut oracle = sample_points(n, center, r);
        let mut columns = grid.disk().to_vec();
        assert_eq!(mask_points(&columns, center, r), oracle, "own disk at {center:?}");
        assert_eq!(grid.fraction(&columns), 1.0);

        let total = oracle.len();
        let mut heard = Vec::new();
        for _ in 0..g.usize_in(1..9) {
            let s = sender(g, n, center, r);
            oracle.retain(|p| p.distance_squared_to(s) > r * r);
            grid.cover(center, r, &mut columns, s);
            assert_eq!(mask_points(&columns, center, r), oracle, "after hearing {s:?}");
            let fraction = oracle.len() as f64 / total as f64;
            assert_eq!(grid.fraction(&columns), fraction);
            heard.push(s);
            assert_eq!(grid.additional_fraction(center, r, &heard), fraction);
        }
    }
}
