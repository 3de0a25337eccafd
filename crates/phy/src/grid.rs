//! The retired cell grid's four calls, answered by [`StripIndex`]. The
//! grid was the world's second spatial index, for the reachability
//! search; the harness under `perfbench/` still prices these calls, so
//! they stay, hidden, until it prices the search through a `World`
//! (ROADMAP 1(f)) and this file goes (ROADMAP 9(a)).

use manet_geom::Vec2;

use crate::id::NodeId;
use crate::strips::{StripIndex, WINDOW_SLACK};

/// The cell grid's four calls over a [`StripIndex`].
///
/// # Examples
///
/// ```
/// use manet_geom::Vec2;
/// use manet_phy::{in_range_of, NeighborGrid, NodeId};
///
/// let positions = [Vec2::ZERO, Vec2::new(450.0, 0.0), Vec2::new(900.0, 0.0)];
/// let (mut grid, mut heard) = (NeighborGrid::new(2_500.0, 2_500.0, 500.0), vec![]);
/// grid.update(&positions);
/// grid.in_range_into(&positions, NodeId::new(0), 500.0, &mut heard);
/// assert_eq!(heard, in_range_of(&positions, NodeId::new(0), 500.0));
/// ```
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct NeighborGrid(StripIndex);

impl NeighborGrid {
    /// An empty index over a `width`-wide map, in strips at least `cell`
    /// wide; strips span the whole height.
    pub fn new(width: f64, _height: f64, cell: f64) -> Self {
        NeighborGrid(StripIndex::new(width, cell))
    }

    /// Re-indexes every host at `positions`.
    pub fn update(&mut self, positions: &[Vec2]) {
        self.0.rebuild(positions);
    }

    /// The hosts within `radius` of `positions[of]`, excluding `of`, in
    /// ascending order: [`in_range_of`](crate::in_range_of) over the
    /// positions of the last [`update`](Self::update).
    pub fn in_range_into(
        &self,
        positions: &[Vec2],
        of: NodeId,
        radius: f64,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        let center = positions[of.index()];
        let r2 = radius * radius;
        self.0.window(center, radius + WINDOW_SLACK, |p, h| {
            if h as usize != of.index() && p.distance_squared_to(center) <= r2 {
                out.push(NodeId::new(h));
            }
        });
        out.sort_unstable();
    }

    /// [`StripIndex::reachable_into`] with every host active.
    pub fn reachable_into(
        &mut self,
        positions: &[Vec2],
        source: NodeId,
        radius: f64,
        out: &mut Vec<NodeId>,
    ) {
        self.0.reachable_into(positions, source, radius, None, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{in_range_of, reachable_from};

    const R: f64 = 500.0;

    fn query_both(grid: &mut NeighborGrid, positions: &[Vec2], of: u32) {
        let mut near = Vec::new();
        grid.in_range_into(positions, NodeId::new(of), R, &mut near);
        assert_eq!(near, in_range_of(positions, NodeId::new(of), R));
        let mut reach = Vec::new();
        grid.reachable_into(positions, NodeId::new(of), R, &mut reach);
        assert_eq!(reach, reachable_from(positions, NodeId::new(of), R));
    }

    #[test]
    fn matches_brute_force_on_a_line() {
        let positions: Vec<Vec2> = (0..12).map(|i| Vec2::new(i as f64 * 450.0, 0.0)).collect();
        let mut grid = NeighborGrid::new(5_500.0, 500.0, R);
        grid.update(&positions);
        for i in 0..positions.len() as u32 {
            query_both(&mut grid, &positions, i);
        }
    }

    #[test]
    fn exact_on_cell_boundaries_and_radius_edge() {
        // Hosts sitting exactly on strip edges and exactly at distance R.
        let positions = [
            Vec2::new(500.0, 500.0),
            Vec2::new(1_000.0, 500.0),
            Vec2::new(500.0, 1_000.0),
            Vec2::new(1_000.1, 500.0),
            Vec2::ZERO,
        ];
        let mut grid = NeighborGrid::new(1_500.0, 1_500.0, R);
        grid.update(&positions);
        for i in 0..positions.len() as u32 {
            query_both(&mut grid, &positions, i);
        }
    }

    #[test]
    fn coincident_and_out_of_bounds_positions() {
        let positions = [
            Vec2::new(250.0, 250.0),
            Vec2::new(250.0, 250.0),
            Vec2::new(-40.0, 990.0),
            Vec2::new(1_600.0, 1_600.0), // outside the 1500×1500 map
            Vec2::new(1_400.0, 1_400.0),
        ];
        let mut grid = NeighborGrid::new(1_500.0, 1_500.0, R);
        grid.update(&positions);
        for i in 0..positions.len() as u32 {
            query_both(&mut grid, &positions, i);
        }
    }

    #[test]
    fn incremental_update_tracks_moves() {
        let mut positions = vec![
            Vec2::new(100.0, 100.0),
            Vec2::new(600.0, 100.0),
            Vec2::new(1_100.0, 100.0),
        ];
        let mut grid = NeighborGrid::new(1_500.0, 1_500.0, R);
        grid.update(&positions);
        query_both(&mut grid, &positions, 0);
        // Walk host 0 across two strip boundaries.
        for step in 0..8 {
            positions[0] = Vec2::new(100.0 + step as f64 * 180.0, 100.0);
            grid.update(&positions);
            for i in 0..positions.len() as u32 {
                query_both(&mut grid, &positions, i);
            }
        }
    }

    #[test]
    fn exact_map_edge_bins_into_last_cell() {
        // The map width is an exact multiple of the radius, so a host at
        // exactly `width` must bin into the last strip, not one past it.
        // This locks that against the brute-force oracle for every corner
        // and edge midpoint of the map.
        const W: f64 = 2_000.0; // 4 strips of R exactly
        const H: f64 = 1_500.0;
        let positions = [
            Vec2::new(W, H),                 // far corner, both axes exact
            Vec2::new(W, 0.0),               // bottom-right corner
            Vec2::new(0.0, H),               // top-left corner
            Vec2::ZERO,                      // origin corner
            Vec2::new(W, H / 2.0),           // right edge midpoint
            Vec2::new(W / 2.0, H),           // top edge midpoint
            Vec2::new(W - 10.0, H - 10.0),   // in range of the far corner
            Vec2::new(W + 300.0, H + 300.0), // overshoot past the corner
            Vec2::new(1_500.0, 1_000.0),     // interior exact strip boundary
        ];
        let mut grid = NeighborGrid::new(W, H, R);
        grid.update(&positions);
        for i in 0..positions.len() as u32 {
            query_both(&mut grid, &positions, i);
        }
    }
}
