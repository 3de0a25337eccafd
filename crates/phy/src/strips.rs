//! The map's one spatial index.
//!
//! A [`StripIndex`] cuts the map into as many equal-width vertical strips
//! as fit while each stays at least one radio radius wide (a map narrower
//! than one radius is a single strip), and keeps each strip's hosts as
//! `(position, id)` sorted by y, ties by id. A disc of one radius then
//! meets at most three strips and one y-slice of each, so a query touches
//! a disc's worth of hosts instead of every host.
//!
//! Hosts at or past the right map edge (`x == width` included) bin into
//! the **last** strip and those at or below zero into strip 0, so hosts
//! that momentarily overshoot the map are not lost.
//!
//! The index holds positions as of its last [`rebuild`](StripIndex::rebuild).
//! [`window`](StripIndex::window) walks the hosts of a square window; the
//! world's drift-window range query is built on it while hosts move on.
//! [`reachable_into`](StripIndex::reachable_into) is the exact multi-hop
//! search over the rebuilt positions, in which a skip pointer per slot
//! leads past every host already reached, so each walk touches only hosts
//! not reached yet.

use manet_geom::Vec2;

use crate::id::NodeId;

/// Metres added to a search window's half-width, so that the rounding of
/// `centre ± radius` never leaves out a host the exact distance test
/// would keep: the test decides, the window only bounds the walk.
pub(crate) const WINDOW_SLACK: f64 = 1e-6;

/// Hosts binned into vertical strips at least one radius wide, each strip
/// sorted by y.
///
/// # Examples
///
/// ```
/// use manet_geom::Vec2;
/// use manet_phy::{NodeId, StripIndex};
///
/// // A 2500 m map with 500 m radios is cut into 5 strips; host 2 is in
/// // strip 2, outside the window, and out of reach.
/// let positions = [Vec2::ZERO, Vec2::new(450.0, 0.0), Vec2::new(1_200.0, 300.0)];
/// let (mut index, mut near, mut reached) = (StripIndex::new(2_500.0, 500.0), vec![], vec![]);
/// index.rebuild(&positions);
/// index.window(Vec2::ZERO, 500.0, |_, id| near.push(id));
/// index.reachable_into(&positions, NodeId::new(0), 500.0, None, &mut reached);
/// assert_eq!((near, reached), (vec![0, 1], vec![NodeId::new(1)]));
/// ```
#[derive(Debug, Clone)]
pub struct StripIndex {
    /// Strip width: the map width over the strip count.
    strip: f64,
    /// `hosts[starts[s]..starts[s + 1]]` is strip `s`.
    starts: Vec<usize>,
    /// Every host as `(position, id)`, strip by strip.
    hosts: Vec<(Vec2, u32)>,
    /// Search scratch: following `next` from slot `k` ends at the first
    /// slot at or after `k` not yet reached (`hosts.len()` if none is).
    next: Vec<u32>,
    /// Search scratch: reached slots whose neighbours are still unwalked.
    stack: Vec<u32>,
}

impl StripIndex {
    /// An empty index over a `width`-wide map, cut into
    /// `floor(width / radius)` strips (at least one), so every strip is at
    /// least `radius` wide.
    ///
    /// # Panics
    ///
    /// Panics unless `width` and `radius` are finite and positive.
    pub fn new(width: f64, radius: f64) -> Self {
        let positive = |v: f64| v.is_finite() && v > 0.0;
        assert!(
            positive(width) && positive(radius),
            "map width {width} or radius {radius} is not positive and finite"
        );
        let strips = (width / radius).floor().max(1.0) as usize;
        StripIndex {
            strip: width / strips as f64,
            starts: vec![0; strips + 1],
            hosts: Vec::new(),
            next: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn strips(&self) -> usize {
        self.starts.len() - 1
    }

    /// The strip owning x-coordinate `x`, clamped into `0..strips`.
    fn strip_of_x(&self, x: f64) -> usize {
        let idx = (x / self.strip).floor();
        if idx <= 0.0 {
            0
        } else {
            (idx as usize).min(self.strips() - 1)
        }
    }

    /// Inclusive range `(first, last)` of strips whose x-extent intersects
    /// the closed interval `[lo, hi]`, clamped into the border strips.
    fn strips_overlapping(&self, lo: f64, hi: f64) -> (usize, usize) {
        debug_assert!(lo <= hi, "inverted interval");
        (self.strip_of_x(lo), self.strip_of_x(hi))
    }

    /// Re-indexes every host at `positions`, host `i` at `positions[i]`.
    /// Allocation-free once the index has held as many hosts.
    pub fn rebuild(&mut self, positions: &[Vec2]) {
        let strips = self.strips();
        self.starts.fill(0);
        for p in positions {
            let s = self.strip_of_x(p.x);
            self.starts[s + 1] += 1;
        }
        for s in 0..strips {
            self.starts[s + 1] += self.starts[s];
        }
        // Placing hosts moves each `starts[s]` to its strip's end; a shift
        // right restores the starts.
        self.hosts.resize(positions.len(), (Vec2::ZERO, 0));
        for (i, &p) in positions.iter().enumerate() {
            let s = self.strip_of_x(p.x);
            self.hosts[self.starts[s]] = (p, i as u32);
            self.starts[s] += 1;
        }
        self.starts.copy_within(0..strips, 1);
        self.starts[0] = 0;
        for s in 0..strips {
            self.hosts[self.starts[s]..self.starts[s + 1]]
                .sort_unstable_by(|a, b| a.0.y.total_cmp(&b.0.y).then(a.1.cmp(&b.1)));
        }
    }

    /// Calls `visit(position, id)` for every host whose indexed position
    /// has a y within `center.y ± reach`, in each strip overlapping
    /// `center.x ± reach`: every host of the square window, and some
    /// beside it in those strips. Strips are walked left to right, each
    /// in ascending y.
    pub fn window(&self, center: Vec2, reach: f64, mut visit: impl FnMut(Vec2, u32)) {
        let (lo_y, hi_y) = (center.y - reach, center.y + reach);
        let (lo, hi) = self.strips_overlapping(center.x - reach, center.x + reach);
        for s in lo..=hi {
            let hosts = &self.hosts[self.starts[s]..self.starts[s + 1]];
            let start = hosts.partition_point(|&(p, _)| p.y < lo_y);
            for &(p, h) in &hosts[start..] {
                if p.y > hi_y {
                    break;
                }
                visit(p, h);
            }
        }
    }

    /// All hosts reachable from `source` over hops of at most `radius`,
    /// excluding `source`, written into `out` ascending: exactly
    /// [`reachable_from`](crate::reachable_from) over `positions`, which
    /// must be what the index was last rebuilt from. With an `active`
    /// mask, inactive hosts but `source` neither relay nor appear in
    /// `out`. Repeated searches allocate nothing once warm.
    ///
    /// # Panics
    ///
    /// Panics when `positions` or `active` disagrees in length with the
    /// last rebuild.
    pub fn reachable_into(
        &mut self,
        positions: &[Vec2],
        source: NodeId,
        radius: f64,
        active: Option<&[bool]>,
        out: &mut Vec<NodeId>,
    ) {
        let n = self.hosts.len();
        assert!(
            positions.len() == n && active.is_none_or(|m| m.len() == n),
            "positions or mask disagree with the last rebuild"
        );
        // Hosts that are down start out reached, so the walk skips them.
        self.next.clear();
        self.next.extend((0..n).map(|k| {
            let down = active.is_some_and(|m| !m[self.hosts[k].1 as usize]);
            (k + usize::from(down)) as u32
        }));
        self.next.push(n as u32);
        self.stack.clear();
        out.clear();
        let (r2, reach) = (radius * radius, radius + WINDOW_SLACK);
        // The source's own walk reaches it (unless it is down); it leaves
        // `out` at the end.
        let mut at = Some(positions[source.index()]);
        while let Some(pu) = at {
            let (lo, hi) = self.strips_overlapping(pu.x - reach, pu.x + reach);
            for s in lo..=hi {
                let (begin, end) = (self.starts[s], self.starts[s + 1]);
                let below = self.hosts[begin..end].partition_point(|&(p, _)| p.y < pu.y - reach);
                let mut k = begin + below;
                loop {
                    k = unreached_from(&mut self.next, k);
                    if k >= end || self.hosts[k].0.y > pu.y + reach {
                        break;
                    }
                    let (p, h) = self.hosts[k];
                    if p.distance_squared_to(pu) <= r2 {
                        self.next[k] = k as u32 + 1;
                        self.stack.push(k as u32);
                        out.push(NodeId::new(h));
                    }
                    k += 1;
                }
            }
            at = self.stack.pop().map(|u| self.hosts[u as usize].0);
        }
        out.sort_unstable();
        if let Ok(i) = out.binary_search(&source) {
            out.remove(i);
        }
    }
}

/// The first slot at or after `k` not yet reached, pointing every slot
/// passed on the way straight at it.
fn unreached_from(next: &mut [u32], k: usize) -> usize {
    let mut root = k;
    while next[root] as usize != root {
        root = next[root] as usize;
    }
    let mut k = k;
    while k != root {
        let step = next[k] as usize;
        next[k] = root as u32;
        k = step;
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_count_is_the_whole_radii_that_fit() {
        assert_eq!(StripIndex::new(2_500.0, 500.0).strips(), 5);
        assert_eq!(StripIndex::new(2_499.0, 500.0).strips(), 4);
        assert_eq!(StripIndex::new(500.0, 500.0).strips(), 1);
        assert_eq!(StripIndex::new(400.0, 500.0).strips(), 1);
    }

    #[test]
    fn every_strip_is_at_least_one_radius_wide() {
        for &(w, r) in &[(2_500.0, 500.0), (5_000.0, 500.0), (1_234.5, 300.0)] {
            let index = StripIndex::new(w, r);
            assert!(index.strip >= r, "{w}x{r}: strip {}", index.strip);
        }
    }

    #[test]
    fn exact_boundaries_bin_like_the_grid() {
        let index = StripIndex::new(2_000.0, 500.0);
        assert_eq!(index.strip_of_x(-50.0), 0);
        assert_eq!(index.strip_of_x(0.0), 0);
        assert_eq!(index.strip_of_x(499.999), 0);
        assert_eq!(index.strip_of_x(500.0), 1, "interior boundary goes right");
        assert_eq!(index.strip_of_x(1_999.999), 3);
        assert_eq!(
            index.strip_of_x(2_000.0),
            3,
            "exact right edge stays in-map"
        );
        assert_eq!(index.strip_of_x(2_400.0), 3);
    }

    #[test]
    fn overlap_ranges_cover_the_query_window() {
        let index = StripIndex::new(2_000.0, 500.0);
        assert_eq!(index.strips_overlapping(-100.0, 2_100.0), (0, 3));
        assert_eq!(index.strips_overlapping(750.0, 750.0), (1, 1));
        assert_eq!(index.strips_overlapping(499.0, 501.0), (0, 1));
    }

    #[test]
    fn a_one_radius_window_spans_at_most_three_strips() {
        let index = StripIndex::new(2_500.0, 500.0);
        for x in [0.0, 250.0, 999.9, 1_000.0, 1_700.0, 2_500.0] {
            let home = index.strip_of_x(x);
            let (lo, hi) = index.strips_overlapping(x - 500.0, x + 500.0);
            assert!(
                lo + 1 >= home && hi <= home + 1,
                "x={x}: strips {lo}..={hi}"
            );
        }
    }

    #[test]
    fn masked_reachability_removes_relays_and_targets() {
        // A chain 0-1-2-3: masking out host 1 severs everything past it.
        let positions: Vec<Vec2> = (0..4).map(|i| Vec2::new(i as f64 * 450.0, 0.0)).collect();
        let mut index = StripIndex::new(2_000.0, 500.0);
        index.rebuild(&positions);
        let mut out = Vec::new();
        let mut reach = |active: &[bool]| {
            index.reachable_into(&positions, NodeId::new(0), 500.0, Some(active), &mut out);
            out.iter().map(|id| id.index()).collect::<Vec<_>>()
        };
        assert_eq!(reach(&[true; 4]), [1, 2, 3]);
        assert_eq!(
            reach(&[true, false, true, true]),
            [],
            "host 1 was the only relay"
        );
        assert_eq!(
            reach(&[true, true, true, false]),
            [1, 2],
            "a masked leaf just disappears"
        );
    }
}
