//! Strip partition of the map for range queries.
//!
//! A [`StripMap`] splits the map into as many equal-width vertical strips
//! as fit while each stays at least one radio radius wide (a map narrower
//! than one radius is a single strip). That width is what keeps a range
//! query local: a disc of one radius around any host intersects at most
//! three strips, so the world's geometry index scans the strips a query
//! window overlaps instead of every host.
//!
//! Strip assignment mirrors [`NeighborGrid`](crate::NeighborGrid) cell
//! clamping exactly: coordinates at or past the right map edge (including
//! `x == width` when `width` is an exact multiple of the strip width)
//! bin into the **last** strip, and coordinates at or below zero into
//! strip 0. Hosts that momentarily overshoot the map are therefore owned
//! by the border strips, not lost.

/// An immutable partition of the map's x-axis into equal-width strips.
///
/// # Examples
///
/// ```
/// use manet_phy::StripMap;
///
/// // A 2500 m map with 500 m radios is cut into 5 strips.
/// let map = StripMap::new(2_500.0, 500.0);
/// assert_eq!(map.strips(), 5);
/// assert_eq!(map.strip_of_x(0.0), 0);
/// assert_eq!(map.strip_of_x(2_500.0), 4); // right edge bins into the last strip
/// assert_eq!(map.strips_overlapping(600.0, 1_100.0), (1, 2));
///
/// // A map narrower than one radius is a single strip.
/// assert_eq!(StripMap::new(400.0, 500.0).strips(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StripMap {
    width: f64,
    strip: f64,
    strips: usize,
}

impl StripMap {
    /// Partitions a `width`-wide map into `floor(width / radius)` strips
    /// (at least one), so every strip is at least `radius` wide.
    ///
    /// # Panics
    ///
    /// Panics unless `width` and `radius` are finite and positive.
    pub fn new(width: f64, radius: f64) -> Self {
        assert!(
            width.is_finite() && width > 0.0,
            "map width must be positive and finite"
        );
        assert!(
            radius.is_finite() && radius > 0.0,
            "radio radius must be positive and finite"
        );
        let strips = (width / radius).floor().max(1.0) as usize;
        StripMap {
            width,
            strip: width / strips as f64,
            strips,
        }
    }

    /// Number of strips.
    pub fn strips(&self) -> usize {
        self.strips
    }

    /// The strip owning x-coordinate `x`, clamped into `0..strips`.
    ///
    /// `x <= 0` maps to strip 0 and `x >= width` (including exactly
    /// `width`) to the last strip, matching the grid's cell clamping.
    pub fn strip_of_x(&self, x: f64) -> usize {
        let idx = (x / self.strip).floor();
        if idx <= 0.0 {
            0
        } else {
            (idx as usize).min(self.strips - 1)
        }
    }

    /// Inclusive range `(first, last)` of strips whose x-extent intersects
    /// the closed interval `[lo, hi]`. The interval may extend past the
    /// map; it is clamped into the border strips.
    pub fn strips_overlapping(&self, lo: f64, hi: f64) -> (usize, usize) {
        debug_assert!(lo <= hi, "inverted interval");
        (self.strip_of_x(lo), self.strip_of_x(hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_count_is_the_whole_radii_that_fit() {
        assert_eq!(StripMap::new(2_500.0, 500.0).strips(), 5);
        assert_eq!(StripMap::new(2_499.0, 500.0).strips(), 4);
        assert_eq!(StripMap::new(500.0, 500.0).strips(), 1);
        assert_eq!(StripMap::new(400.0, 500.0).strips(), 1);
    }

    #[test]
    fn every_strip_is_at_least_one_radius_wide() {
        for &(w, r) in &[(2_500.0, 500.0), (5_000.0, 500.0), (1_234.5, 300.0)] {
            let map = StripMap::new(w, r);
            assert!(map.strip >= r, "{w}x{r}: strip {}", map.strip);
        }
    }

    #[test]
    fn exact_boundaries_bin_like_the_grid() {
        let map = StripMap::new(2_000.0, 500.0);
        assert_eq!(map.strip_of_x(-50.0), 0);
        assert_eq!(map.strip_of_x(0.0), 0);
        assert_eq!(map.strip_of_x(499.999), 0);
        assert_eq!(map.strip_of_x(500.0), 1, "interior boundary goes right");
        assert_eq!(map.strip_of_x(1_999.999), 3);
        assert_eq!(map.strip_of_x(2_000.0), 3, "exact right edge stays in-map");
        assert_eq!(map.strip_of_x(2_400.0), 3);
    }

    #[test]
    fn overlap_ranges_cover_the_query_window() {
        let map = StripMap::new(2_000.0, 500.0);
        assert_eq!(map.strips_overlapping(-100.0, 2_100.0), (0, 3));
        assert_eq!(map.strips_overlapping(750.0, 750.0), (1, 1));
        assert_eq!(map.strips_overlapping(499.0, 501.0), (0, 1));
    }

    #[test]
    fn a_one_radius_window_spans_at_most_three_strips() {
        let map = StripMap::new(2_500.0, 500.0);
        for x in [0.0, 250.0, 999.9, 1_000.0, 1_700.0, 2_500.0] {
            let home = map.strip_of_x(x);
            let (lo, hi) = map.strips_overlapping(x - 500.0, x + 500.0);
            assert!(
                lo + 1 >= home && hi <= home + 1,
                "x={x}: strips {lo}..={hi}"
            );
        }
    }
}
