//! Property tests pinning the [`StripIndex`] to the brute-force topology
//! oracle: for any placement (coincident and off-map hosts included), any
//! radius, and any sequence of moves and rebuilds, a range query built on
//! the window walk and the reachability search, masked or not, agree with
//! `in_range_of`/`reachable_from` element for element (all return
//! ascending `NodeId` lists).

use manet_geom::Vec2;
use manet_phy::{in_range_of, reachable_from, NodeId, StripIndex};
use manet_testkit::{prop_check, Gen};

const WIDTH: f64 = 1500.0;
const HEIGHT: f64 = 1500.0;

/// Random placement; some positions intentionally coincide and some sit
/// outside the map rectangle (roaming hosts can momentarily overshoot —
/// the index must clamp them, not lose them).
fn placement(g: &mut Gen, n: usize) -> Vec<Vec2> {
    (0..n)
        .map(|_| {
            if g.u32_in(0..8) == 0 {
                // Off-map or exactly-on-corner positions.
                Vec2::new(
                    g.f64_in(-200.0..WIDTH + 200.0),
                    g.f64_in(-200.0..HEIGHT + 200.0),
                )
            } else {
                Vec2::new(g.f64_in(0.0..WIDTH), g.f64_in(0.0..HEIGHT))
            }
        })
        .collect()
}

/// The hosts within `radius` of `of`, from the window walk around it and
/// the exact distance test; each host is walked at most once, at its
/// indexed position.
fn in_range(index: &StripIndex, positions: &[Vec2], of: NodeId, radius: f64) -> Vec<NodeId> {
    let center = positions[of.index()];
    let mut out = Vec::new();
    index.window(center, radius + 1e-6, |p, h| {
        assert_eq!(p, positions[h as usize], "host {h} walked off its position");
        if h as usize != of.index() && p.distance_squared_to(center) <= radius * radius {
            out.push(NodeId::new(h));
        }
    });
    out.sort();
    out
}

/// `reachable_from` over the hosts `active` keeps, `source` among them.
fn reachable_masked(
    positions: &[Vec2],
    source: NodeId,
    radius: f64,
    active: &[bool],
) -> Vec<NodeId> {
    let kept: Vec<usize> = (0..positions.len()).filter(|&i| active[i]).collect();
    let sub: Vec<Vec2> = kept.iter().map(|&i| positions[i]).collect();
    let from = kept.binary_search(&source.index()).expect("source is kept");
    reachable_from(&sub, NodeId::new(from as u32), radius)
        .into_iter()
        .map(|v| NodeId::new(kept[v.index()] as u32))
        .collect()
}

/// Checks the range query and the unmasked search from every host.
fn check_all(index: &mut StripIndex, positions: &[Vec2], radius: f64) {
    let mut got = Vec::new();
    for i in 0..positions.len() {
        let of = NodeId::new(i as u32);
        let want = in_range_of(positions, of, radius);
        assert_eq!(in_range(index, positions, of, radius), want, "near {i}");
        index.reachable_into(positions, of, radius, None, &mut got);
        assert_eq!(got, reachable_from(positions, of, radius), "from {i}");
    }
}

prop_check! {
    /// The range query matches the O(n) oracle for every host, radii up
    /// to one and a half strips.
    fn grid_in_range_matches_oracle(g, cases = 128) {
        let n = g.usize_in(1..40);
        let cell = g.f64_in(100.0..800.0);
        let radius = cell * g.f64_in_incl(0.05, 1.5);
        let mut positions = placement(g, n);
        // Duplicate a position to cover the coincident-hosts edge case.
        if n >= 2 {
            positions[n - 1] = positions[0];
        }
        let mut index = StripIndex::new(WIDTH, cell);
        index.rebuild(&positions);
        for i in 0..n {
            let of = NodeId::new(i as u32);
            assert_eq!(in_range(&index, &positions, of, radius), in_range_of(&positions, of, radius), "node {i}");
        }
    }

    /// The search matches the flood oracle from every source, and over
    /// a random mask the oracle over the hosts it keeps; searches reuse
    /// the index's scratch.
    fn grid_reachable_matches_oracle(g, cases = 96) {
        let n = g.usize_in(1..32);
        let cell = g.f64_in(150.0..700.0);
        let radius = cell * g.f64_in_incl(0.1, 1.5);
        let positions = placement(g, n);
        let mut index = StripIndex::new(WIDTH, cell);
        index.rebuild(&positions);
        let mut got = Vec::new();
        for i in 0..n {
            let source = NodeId::new(i as u32);
            index.reachable_into(&positions, source, radius, None, &mut got);
            assert_eq!(got, reachable_from(&positions, source, radius), "source {i}");
            let mut active: Vec<bool> = (0..n).map(|_| g.u32_in(0..4) != 0).collect();
            active[i] = true;
            index.reachable_into(&positions, source, radius, Some(&active), &mut got);
            assert_eq!(got, reachable_masked(&positions, source, radius, &active), "masked {i}");
        }
    }

    /// Moving a few hosts (possibly across strip boundaries and off the
    /// map) and rebuilding leaves the index as consistent as a fresh one.
    fn grid_incremental_updates_match_oracle(g, cases = 96) {
        let n = g.usize_in(2..24);
        let cell = g.f64_in(200.0..600.0);
        let radius = cell * g.f64_in_incl(0.2, 1.0);
        let mut positions = placement(g, n);
        let mut index = StripIndex::new(WIDTH, cell);
        index.rebuild(&positions);
        let rounds = g.usize_in(1..5);
        for _ in 0..rounds {
            let movers = g.usize_in(1..n.max(2));
            for _ in 0..movers {
                let who = g.usize_in(0..n);
                positions[who] = Vec2::new(
                    g.f64_in(-100.0..WIDTH + 100.0),
                    g.f64_in(-100.0..HEIGHT + 100.0),
                );
            }
            index.rebuild(&positions);
            check_all(&mut index, &positions, radius);
        }
    }

    /// Map widths that are exact multiples of the strip width, with hosts
    /// snapped onto strip boundaries, corners, and the exact map edges.
    /// `width / strip` is then a whole number, so a host at exactly
    /// `width` computes a strip index of `strips` and must be clamped into
    /// the last strip — the map-edge case that would read one strip out of
    /// bounds (or drop border hosts) if the clamp were ever lost.
    fn grid_exact_extent_boundary_matches_oracle(g, cases = 128) {
        let cell = g.f64_in(100.0..800.0);
        let cols = g.usize_in(1..6);
        let rows = g.usize_in(1..6);
        let (w, h) = (cell * cols as f64, cell * rows as f64);
        let n = g.usize_in(2..32);
        let positions: Vec<Vec2> = (0..n)
            .map(|_| {
                // Snap each axis to an exact strip boundary (including 0
                // and the full extent) half the time, else roam freely
                // past the map edges.
                let snap = |g: &mut Gen, extent: f64, count: usize| {
                    if g.u32_in(0..2) == 0 {
                        cell * g.usize_in(0..count + 1) as f64
                    } else {
                        g.f64_in(-cell..extent + cell)
                    }
                };
                let x = snap(g, w, cols);
                let y = snap(g, h, rows);
                Vec2::new(x, y)
            })
            .collect();
        let radius = cell * g.f64_in_incl(0.1, 1.0);
        let mut index = StripIndex::new(w, cell);
        index.rebuild(&positions);
        check_all(&mut index, &positions, radius);
    }

    /// Radii that land exactly on the strip width (the boundary the
    /// three-strip window depends on) stay exact.
    fn grid_exact_cell_edge_radius(g, cases = 64) {
        let n = g.usize_in(1..30);
        let cell = g.f64_in(100.0..800.0);
        let strip = WIDTH / (WIDTH / cell).floor().max(1.0);
        let positions = placement(g, n);
        let mut index = StripIndex::new(WIDTH, cell);
        index.rebuild(&positions);
        check_all(&mut index, &positions, strip);
    }
}
