//! Additional-coverage estimation against a *union* of heard disks.
//!
//! The location-based schemes need, at a receiving host `x`, the area of
//! `x`'s own transmission disk **not** already covered by the disks of the
//! transmitters it has heard the packet from. For one prior transmitter the
//! closed form [`crate::additional_coverage_two`] applies; for several, the
//! union of disks has no convenient closed form, so this module provides two
//! estimators:
//!
//! * [`CoverageGrid`] — deterministic grid sampling (the default in the
//!   simulator; same inputs, same output).
//! * [`monte_carlo_additional_fraction`] — randomized sampling, used by the
//!   redundancy analysis of Fig. 1 and as a cross-check in tests.
//!
//! Both return the additional coverage as a **fraction of `πr²`** in
//! `[0, 1]`, which is the unit the paper's `A(n)` thresholds use
//! (e.g. `A = 0.187`).

use manet_sim_engine::SimRng;

use crate::vec2::Vec2;

/// Most lattice columns a grid can have: a column's rows are the bits of
/// one `u64`.
const MAX_RESOLUTION: usize = 64;

/// How close (in rows) a chord end may come to a lattice row before the
/// per-point predicate is consulted: its boundary lies within
/// `√ulp(r²) · n / 2r ≤ 2⁻²⁶ · 32 ≈ 4.8·10⁻⁷` rows of the computed end for
/// coordinates up to 10⁶ radii ([`CoverageGrid::cover`]).
const ROW_TOLERANCE: f64 = 1e-6;

/// Deterministic grid estimator of additional coverage.
///
/// The estimator lays a `resolution × resolution` lattice of cell centers
/// over the bounding square of the host's disk — point `(i, j)` sits at
/// `center - r + (i + 0.5) · 2r/resolution` on each axis — and counts the
/// points inside the host's disk but outside every heard disk. A lattice
/// column is one `u64` of row bits, so the points still uncovered are
/// `resolution` words ([`disk`](Self::disk) to start with) and hearing one
/// more transmitter clears one row interval per column
/// ([`cover`](Self::cover)).
///
/// # Examples
///
/// ```
/// use manet_geom::{CoverageGrid, Vec2};
///
/// let grid = CoverageGrid::new(64);
/// // No one heard yet: the whole disk is additional coverage.
/// assert_eq!(grid.additional_fraction(Vec2::ZERO, 500.0, &[]), 1.0);
/// // Heard from a co-located transmitter: nothing left to cover.
/// assert_eq!(grid.additional_fraction(Vec2::ZERO, 500.0, &[Vec2::ZERO]), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageGrid {
    resolution: usize,
    /// Bit `j` of `disk[i]`: lattice point `(i, j)` is inside the disk.
    disk: [u64; MAX_RESOLUTION],
    /// Lattice points inside the disk (the `πr²` denominator).
    total: u32,
}

impl CoverageGrid {
    /// Creates an estimator with the given grid resolution per axis.
    ///
    /// Resolution 64 keeps the error against the exact two-circle form
    /// under about one percentage point, which is far below the spacing of
    /// the paper's `A` thresholds.
    ///
    /// The own-disk mask is built here, once, on the unit disk: it depends
    /// on neither the center nor the radius. In units of the lattice step a
    /// point's squared distance from the center is `k + ½` (even
    /// resolution) or `k` (odd) for an integer `k`, while `r²` is
    /// `resolution²/4` — an integer or an integer plus `¼` — so every point
    /// misses the rim by at least `¼` step², a relative `2.4·10⁻⁴` of `r²`
    /// at resolution 64, against a float error of `10⁻¹⁰` for centers up
    /// to 10⁶ radii from the origin.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is outside `2..=64`.
    pub const fn new(resolution: usize) -> Self {
        assert!(
            2 <= resolution && resolution <= MAX_RESOLUTION,
            "grid resolution must be at least 2 and at most 64 (one word per column)"
        );
        let step = 2.0 / resolution as f64;
        let mut disk = [0u64; MAX_RESOLUTION];
        let mut total = 0;
        let mut i = 0;
        while i < resolution {
            let x = -1.0 + (i as f64 + 0.5) * step;
            let mut j = 0;
            while j < resolution {
                let y = -1.0 + (j as f64 + 0.5) * step;
                if x * x + y * y <= 1.0 {
                    disk[i] |= 1 << j;
                    total += 1;
                }
                j += 1;
            }
            i += 1;
        }
        CoverageGrid {
            resolution,
            disk,
            total,
        }
    }

    /// Grid resolution per axis.
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// The lattice points inside a host's own disk, one word of row bits
    /// per column: what is uncovered before any transmitter is heard.
    pub fn disk(&self) -> &[u64] {
        &self.disk[..self.resolution]
    }

    /// Clears from `columns` every lattice point of the disk at `center`
    /// (radius `r`) that the same-radius disk of a transmitter at `sender`
    /// covers — exactly the points `p` with
    /// `p.distance_squared_to(sender) <= r * r`.
    ///
    /// Per column the covered points are one row interval: the chord of
    /// the sender's disk at that `x`, half-length `h = √(r² − dx²)`. Only a
    /// chord end within `10⁻⁶` rows of a lattice row — closer than
    /// the rounding of `dx² + dy²`, `r² − dx²` and the square root can move
    /// it — is settled by evaluating the float predicate at that row.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not positive and finite, or `columns` is not
    /// [`resolution`](Self::resolution) long.
    pub fn cover(&self, center: Vec2, r: f64, columns: &mut [u64], sender: Vec2) {
        assert!(r.is_finite() && r > 0.0, "radius must be positive, got {r}");
        let n = self.resolution;
        assert_eq!(columns.len(), n, "one word per lattice column");
        let r2 = r * r;
        let step = 2.0 * r / n as f64;
        let rows_per_unit = 1.0 / step;
        let origin = Vec2::new(center.x - r, center.y - r);
        let at = |origin: f64, index: i64| origin + (index as f64 + 0.5) * step;
        for (i, column) in columns.iter_mut().enumerate() {
            if *column == 0 {
                continue;
            }
            let dx = sender.x - at(origin.x, i as i64);
            let dx2 = dx * dx;
            if dx2 > r2 {
                continue;
            }
            let covered = |row: i64| {
                let dy = sender.y - at(origin.y, row);
                dx2 + dy * dy <= r2
            };
            // A chord end as (nearest row, signed offset from it), clamped
            // to one row beyond the lattice: `t + 1.5` stays positive, so
            // the cast's truncation rounds `t` to nearest.
            let nearest = |y: f64| {
                let t = ((y - origin.y) * rows_per_unit - 0.5).clamp(-1.0, n as f64);
                let row = (t + 1.5) as i64 - 1;
                (row, t - row as f64)
            };
            let h = (r2 - dx2).sqrt();
            let (row, off) = nearest(sender.y - h);
            let lo = if off.abs() < ROW_TOLERANCE {
                row + i64::from(!covered(row))
            } else {
                row + i64::from(off > 0.0)
            };
            let (row, off) = nearest(sender.y + h);
            let hi = if off.abs() < ROW_TOLERANCE {
                row - i64::from(!covered(row))
            } else {
                row - i64::from(off < 0.0)
            };
            let (lo, hi) = (lo.max(0), hi.min(n as i64 - 1));
            if lo <= hi {
                *column &= !((u64::MAX >> (63 - (hi - lo))) << lo);
            }
        }
    }

    /// The share of the disk's lattice points still set in `columns`.
    pub fn fraction(&self, columns: &[u64]) -> f64 {
        let left: u32 = columns.iter().map(|column| column.count_ones()).sum();
        f64::from(left) / f64::from(self.total)
    }

    /// Fraction of the disk at `center` with radius `r` that is **not**
    /// covered by any same-radius disk centered at a point of `heard`.
    ///
    /// Returns a value in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics as [`cover`](Self::cover) does once `heard` is not empty.
    pub fn additional_fraction(&self, center: Vec2, r: f64, heard: &[Vec2]) -> f64 {
        let mut columns = self.disk;
        let columns = &mut columns[..self.resolution];
        for &sender in heard {
            self.cover(center, r, columns, sender);
        }
        self.fraction(columns)
    }
}

impl Default for CoverageGrid {
    /// The finest resolution (64).
    fn default() -> Self {
        CoverageGrid::new(MAX_RESOLUTION)
    }
}

/// Monte-Carlo estimate of the additional coverage fraction.
///
/// Draws `samples` points uniformly from the disk at `center` (radius `r`)
/// and returns the fraction that no heard disk covers.
pub fn monte_carlo_additional_fraction(
    center: Vec2,
    r: f64,
    heard: &[Vec2],
    samples: usize,
    rng: &mut SimRng,
) -> f64 {
    assert!(r.is_finite() && r > 0.0, "radius must be positive, got {r}");
    assert!(samples > 0, "need at least one sample");
    if heard.is_empty() {
        return 1.0;
    }
    let r2 = r * r;
    let mut uncovered = 0usize;
    for _ in 0..samples {
        let p = sample_in_disk(center, r, rng);
        if heard.iter().all(|h| h.distance_squared_to(p) > r2) {
            uncovered += 1;
        }
    }
    uncovered as f64 / samples as f64
}

/// Draws a point uniformly at random from the disk at `center`, radius `r`.
pub fn sample_in_disk(center: Vec2, r: f64, rng: &mut SimRng) -> Vec2 {
    // Inverse-CDF sampling: radius ~ r*sqrt(U) gives a uniform area density.
    let rho = r * rng.gen_unit_f64().sqrt();
    let theta = rng.gen_range_f64(0.0..std::f64::consts::TAU);
    center + Vec2::from_angle(theta) * rho
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circle::additional_coverage_two;
    use std::f64::consts::PI;

    const R: f64 = 500.0;

    #[test]
    fn empty_heard_means_full_disk() {
        let grid = CoverageGrid::default();
        assert_eq!(grid.additional_fraction(Vec2::ZERO, R, &[]), 1.0);
    }

    #[test]
    fn colocated_transmitter_covers_everything() {
        let grid = CoverageGrid::default();
        assert_eq!(
            grid.additional_fraction(Vec2::new(3.0, 4.0), R, &[Vec2::new(3.0, 4.0)]),
            0.0
        );
    }

    #[test]
    fn grid_matches_two_circle_closed_form() {
        let grid = CoverageGrid::new(64);
        for frac in [0.2, 0.5, 0.8, 1.0, 1.5] {
            let d = frac * R;
            let exact = additional_coverage_two(d, R) / (PI * R * R);
            let est = grid.additional_fraction(Vec2::ZERO, R, &[Vec2::new(d, 0.0)]);
            assert!(
                (est - exact).abs() < 0.01,
                "d={d}: grid {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn monte_carlo_matches_two_circle_closed_form() {
        let mut rng = SimRng::seed_from(99);
        for frac in [0.3, 1.0, 1.7] {
            let d = frac * R;
            let exact = additional_coverage_two(d, R) / (PI * R * R);
            let est = monte_carlo_additional_fraction(
                Vec2::ZERO,
                R,
                &[Vec2::new(d, 0.0)],
                50_000,
                &mut rng,
            );
            assert!(
                (est - exact).abs() < 0.01,
                "d={d}: mc {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn more_hearers_never_increase_coverage() {
        let grid = CoverageGrid::default();
        let mut heard = Vec::new();
        let mut prev = 1.0;
        for k in 0..6 {
            heard.push(Vec2::new(
                R * 0.7 * (k as f64 * 1.1).cos(),
                R * 0.7 * (k as f64 * 1.1).sin(),
            ));
            let frac = grid.additional_fraction(Vec2::ZERO, R, &heard);
            assert!(frac <= prev + 1e-12, "coverage fraction must be monotone");
            prev = frac;
        }
    }

    #[test]
    fn disjoint_hearer_leaves_full_disk() {
        let grid = CoverageGrid::default();
        let far = Vec2::new(2.5 * R, 0.0);
        let frac = grid.additional_fraction(Vec2::ZERO, R, &[far]);
        assert!((frac - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disk_sampling_is_uniform_enough() {
        // Mean squared distance from center of a uniform disk sample is r²/2.
        let mut rng = SimRng::seed_from(5);
        let n = 100_000;
        let mean_sq: f64 = (0..n)
            .map(|_| sample_in_disk(Vec2::ZERO, R, &mut rng).length_squared())
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean_sq - R * R / 2.0).abs() / (R * R) < 0.01,
            "mean squared radius {mean_sq}"
        );
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_resolution_panics() {
        let _ = CoverageGrid::new(1);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn multi_word_columns_are_refused() {
        let _ = CoverageGrid::new(65);
    }
}
