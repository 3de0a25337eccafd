//! Unit-disk topology queries over a position snapshot.
//!
//! The simulator evaluates host positions at an event's timestamp and asks
//! this module who can hear whom: a host hears another iff their distance
//! is at most the transmission radius (the paper's unit-disk model,
//! r = 500 m).

use manet_geom::Vec2;

use crate::id::NodeId;

/// All hosts within `radius` of `positions[of]`, excluding `of` itself.
///
/// # Examples
///
/// ```
/// use manet_geom::Vec2;
/// use manet_phy::{in_range_of, NodeId};
///
/// let positions = [Vec2::new(0.0, 0.0), Vec2::new(400.0, 0.0), Vec2::new(900.0, 0.0)];
/// let heard = in_range_of(&positions, NodeId::new(0), 500.0);
/// assert_eq!(heard, vec![NodeId::new(1)]);
/// ```
pub fn in_range_of(positions: &[Vec2], of: NodeId, radius: f64) -> Vec<NodeId> {
    let center = positions[of.index()];
    let r2 = radius * radius;
    positions
        .iter()
        .enumerate()
        .filter(|&(i, p)| i != of.index() && p.distance_squared_to(center) <= r2)
        .map(|(i, _)| NodeId::new(i as u32))
        .collect()
}

/// Writes the hosts within `radius` of `of` (excluding `of` itself) into
/// `out` in ascending [`NodeId`] order, clearing it first — the
/// allocation-free variant of [`in_range_of`] for callers that issue a
/// single range query per position snapshot (where a linear scan beats
/// maintaining a spatial index).
pub fn in_range_into(positions: &[Vec2], of: NodeId, radius: f64, out: &mut Vec<NodeId>) {
    out.clear();
    let center = positions[of.index()];
    let r2 = radius * radius;
    for (i, p) in positions.iter().enumerate() {
        if i != of.index() && p.distance_squared_to(center) <= r2 {
            out.push(NodeId::new(i as u32));
        }
    }
}

/// The set of hosts reachable from `source` (directly or over multiple
/// hops) in the unit-disk graph, **excluding** `source` itself.
///
/// This is the paper's `e` in `RE = r / e`: the hosts that *could* receive
/// a broadcast issued by `source` at this instant, accounting for network
/// partitions.
pub fn reachable_from(positions: &[Vec2], source: NodeId, radius: f64) -> Vec<NodeId> {
    let n = positions.len();
    let r2 = radius * radius;
    let mut visited = vec![false; n];
    visited[source.index()] = true;
    let mut stack = vec![source.index()];
    let mut out = Vec::new();
    while let Some(u) = stack.pop() {
        let pu = positions[u];
        for (v, pv) in positions.iter().enumerate() {
            if !visited[v] && pv.distance_squared_to(pu) <= r2 {
                visited[v] = true;
                stack.push(v);
                out.push(NodeId::new(v as u32));
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: f64 = 500.0;

    fn line(n: usize, spacing: f64) -> Vec<Vec2> {
        (0..n).map(|i| Vec2::new(i as f64 * spacing, 0.0)).collect()
    }

    #[test]
    fn in_range_respects_radius_boundary() {
        let pos = [Vec2::ZERO, Vec2::new(500.0, 0.0), Vec2::new(500.1, 0.0)];
        assert_eq!(
            in_range_of(&pos, NodeId::new(0), R),
            vec![NodeId::new(1)],
            "exactly at radius counts, just over does not"
        );
    }

    #[test]
    fn chain_is_fully_reachable() {
        let pos = line(10, 450.0);
        let reach = reachable_from(&pos, NodeId::new(0), R);
        assert_eq!(reach.len(), 9);
    }

    #[test]
    fn gap_partitions_chain() {
        // Hosts 0-4 spaced 450 apart, then a 1000 m gap, then 5-9.
        let mut pos = line(5, 450.0);
        let offset = pos.last().unwrap().x + 1_000.0;
        pos.extend((0..5).map(|i| Vec2::new(offset + i as f64 * 450.0, 0.0)));
        let reach = reachable_from(&pos, NodeId::new(0), R);
        assert_eq!(reach.len(), 4, "only the first segment is reachable");
    }

    #[test]
    fn isolated_host_reaches_nobody() {
        let pos = [Vec2::ZERO, Vec2::new(10_000.0, 0.0)];
        assert!(reachable_from(&pos, NodeId::new(0), R).is_empty());
    }

    #[test]
    fn reachability_is_symmetric_set() {
        let pos = line(6, 400.0);
        for i in 0..6u32 {
            let reach = reachable_from(&pos, NodeId::new(i), R);
            assert_eq!(reach.len(), 5, "all hosts mutually reachable");
            assert!(!reach.contains(&NodeId::new(i)), "excludes self");
        }
    }
}
