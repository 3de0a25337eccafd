//! The world's geometry: the one answer to "who is within radio range of
//! this host right now", and to "whom can a broadcast from it reach".
//!
//! Hosts move along piecewise-linear [`Segment`]s, so a position is a pure
//! function of `(segment, now)`. A [`StripIndex`] holds every host at its
//! position at the last *sync* (once per simulated second); a range query
//! evaluates fresh positions only for hosts whose sync position leaves
//! their membership undecided ([`Geometry::in_range`]), and the
//! per-broadcast reachability search forces a sync at its instant.

use manet_geom::{Rect, Vec2};
use manet_mobility::{Map, Segment};
use manet_phy::{NodeId, StripIndex};
use manet_sim_engine::{SimDuration, SimTime};

/// How often the strip index is rebuilt from fresh positions. Between
/// syncs, hosts drift from their sync positions by at most
/// `max_speed × elapsed`, which the query windows absorb.
const STRIP_SYNC_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Slack (meters) added to the `max_speed × elapsed` drift bound, absorbing
/// the rounding of that product: overestimated drift only widens the
/// window, and the exact distance test still decides membership.
const DRIFT_SLACK: f64 = 1e-6;

/// Host motion, sync positions and the strip index over them.
#[derive(Debug)]
pub(super) struct Geometry {
    bounds: Rect,
    radius: f64,
    /// Upper bound on host speed in m/s, for the drift margin.
    max_speed_ms: f64,
    /// Every host's current motion segment.
    segments: Vec<Segment>,
    /// Every host's position at the last sync; exact at `positions_at`,
    /// which a segment change clears.
    positions: Vec<Vec2>,
    positions_at: Option<SimTime>,
    /// Every host at its position at the last sync, `synced_at`.
    index: StripIndex,
    synced_at: SimTime,
    /// Host-id-indexed hit bitmap: a query marks ids while scanning in
    /// spatial order, then reads them back ascending without a sort.
    /// All-zero between queries.
    range_bits: Vec<u64>,
}

impl Geometry {
    /// Indexes hosts standing at `positions` at time zero and moving along
    /// `segments`, none faster than `max_speed_kmh`.
    pub(super) fn new(
        map: &Map,
        radius: f64,
        max_speed_kmh: f64,
        positions: Vec<Vec2>,
        segments: Vec<Segment>,
    ) -> Self {
        let bounds = map.bounds();
        let mut index = StripIndex::new(bounds.width(), radius);
        index.rebuild(&positions);
        Geometry {
            bounds,
            radius,
            // RandomWaypoint floors its speed at 3.6 km/h, so the drift
            // bound must too; overestimating only widens query windows.
            max_speed_ms: max_speed_kmh.max(3.6) / 3.6,
            segments,
            range_bits: vec![0; positions.len().div_ceil(64)],
            positions,
            positions_at: None,
            index,
            synced_at: SimTime::ZERO,
        }
    }

    /// Replaces `node`'s motion segment (it turned, or a snapshot restored
    /// it). Sync positions stay valid for the drift bound — it does not
    /// care which way a host went — but are no longer exact.
    pub(super) fn set_segment(&mut self, node: NodeId, segment: Segment) {
        self.segments[node.index()] = segment;
        self.positions_at = None;
    }

    /// `node`'s position at `now`, evaluated from its segment.
    pub(super) fn position_at(&self, node: NodeId, now: SimTime) -> Vec2 {
        self.segments[node.index()].position_at(now, self.bounds)
    }

    /// Rebuilds the strip index from every host's position at `now`. The
    /// sync is not an event — it consumes no sequence number and draws no
    /// randomness — and query results do not depend on when it happens,
    /// which is also why a resumed world may start from the time-zero
    /// index: the drift bound covers whatever has elapsed since.
    fn sync(&mut self, now: SimTime) {
        let bounds = self.bounds;
        for (p, s) in self.positions.iter_mut().zip(&self.segments) {
            *p = s.position_at(now, bounds);
        }
        self.index.rebuild(&self.positions);
        self.positions_at = Some(now);
        self.synced_at = now;
    }

    /// Writes the hosts within the radio radius of `of` at `now` into
    /// `out` (excluding `of`, ascending ids), byte-identical to
    /// [`manet_phy::in_range_into`] over freshly evaluated positions.
    ///
    /// Drift-window argument: nobody outruns `max_speed_ms`, so a host
    /// within `radius` of the centre now sat, at the last sync, within
    /// `radius + drift` of the centre's *current* position. The coarse
    /// test against sync positions therefore keeps every host that could
    /// be in range, and the same inflated window bounds which strips —
    /// and which y-slice of each — can hold candidates. By the same
    /// bound, a candidate within `radius - drift` at the sync cannot have
    /// left the disc, so membership is already decided for it; only the
    /// annulus in between needs a position evaluated at `now` for the
    /// exact squared-distance test (identical arithmetic on an identical
    /// position, hence identical results).
    pub(super) fn in_range(&mut self, now: SimTime, of: NodeId, out: &mut Vec<NodeId>) {
        if now >= self.synced_at + STRIP_SYNC_INTERVAL {
            self.sync(now);
        }
        let center = self.position_at(of, now);
        let elapsed = now.saturating_duration_since(self.synced_at);
        let drift = self.max_speed_ms * elapsed.as_secs_f64() + DRIFT_SLACK;
        let reach = self.radius + drift;
        let m2 = reach * reach;
        let r2 = self.radius * self.radius;
        // Negative sentinel when drift swallows the radius: nothing is
        // certain, every candidate takes the exact test.
        let inner = self.radius - drift;
        let inner2 = if inner > 0.0 { inner * inner } else { -1.0 };
        let me = of.index() as u32;
        self.index.window(center, reach, |sync_pos, h| {
            let d2 = sync_pos.distance_squared_to(center);
            if h == me || d2 > m2 {
                return;
            }
            if d2 > inner2 {
                let p = self.segments[h as usize].position_at(now, self.bounds);
                if p.distance_squared_to(center) > r2 {
                    return;
                }
            }
            self.range_bits[(h >> 6) as usize] |= 1u64 << (h & 63);
        });
        // Words are zeroed as they are consumed, keeping the map clean
        // for the next query.
        out.clear();
        for (w, word) in self.range_bits.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            let base = (w as u32) << 6;
            while bits != 0 {
                out.push(NodeId::new(base + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
    }

    /// Writes every host reachable from `source` at `now` over one or
    /// more radio hops (excluding `source`, ascending ids) into `out`.
    /// With an `active` mask, hosts that are down neither relay nor
    /// count. Issued once per broadcast request, so it pays for a sync
    /// unless one happened at `now` with no turn since: the search is
    /// exact on the index's positions, which must be `now`'s.
    pub(super) fn reachable_into(
        &mut self,
        now: SimTime,
        source: NodeId,
        active: Option<&[bool]>,
        out: &mut Vec<NodeId>,
    ) {
        if self.positions_at != Some(now) {
            self.sync(now);
        }
        self.index
            .reachable_into(&self.positions, source, self.radius, active, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_mobility::{Mobility, RandomTurn, RandomTurnParams};
    use manet_sim_engine::SimRng;
    use manet_testkit::prop_check;

    /// [`manet_phy::reachable_from`] over the hosts `active` keeps,
    /// `source` among them.
    fn reachable_masked(
        positions: &[Vec2],
        source: NodeId,
        radius: f64,
        active: &[bool],
    ) -> Vec<NodeId> {
        let kept: Vec<usize> = (0..positions.len()).filter(|&i| active[i]).collect();
        let sub: Vec<Vec2> = kept.iter().map(|&i| positions[i]).collect();
        let from = kept.binary_search(&source.index()).expect("source is kept");
        manet_phy::reachable_from(&sub, NodeId::new(from as u32), radius)
            .into_iter()
            .map(|v| NodeId::new(kept[v.index()] as u32))
            .collect()
    }

    prop_check! {
        /// The strip query equals the brute-force scan over freshly
        /// evaluated positions, whatever the map, radius, population,
        /// speed and query time — including the first second, where a
        /// resumed world still holds its time-zero strips — and so does
        /// the reachability search, masked or not, with the forced syncs
        /// it makes between range queries.
        fn in_range_matches_the_brute_force_scan(g, cases = 48) {
            let map = Map::square_units(g.u32_in(1..13));
            let radius = g.f64_in(100.0..800.0);
            let hosts = if g.bool() { g.usize_in(1..60) } else { g.usize_in(60..2_001) };
            let speed_kmh = g.f64_in_incl(0.0, 100.0);
            let mut rng = SimRng::seed_from(g.u64());
            let start = manet_mobility::uniform_placement(&map, hosts, &mut rng);
            let params = RandomTurnParams::paper(speed_kmh);
            let mut models: Vec<RandomTurn> = start
                .iter()
                .enumerate()
                .map(|(i, &p)| RandomTurn::new(map, params, p, SimTime::ZERO, rng.fork(i as u64)))
                .collect();
            let segments = models.iter().map(Mobility::segment).collect();
            let mut geometry = Geometry::new(&map, radius, speed_kmh, start, segments);

            // Query times climb through the first second and across
            // several syncs, some landing exactly on a sync boundary.
            let mut now = SimTime::ZERO;
            let (mut got, mut want, mut fresh) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..12 {
                now += match g.u32_in(0..4) {
                    0 => SimDuration::ZERO,
                    1 => SimDuration::from_nanos(g.u64_in(1..400_000_000)),
                    2 => STRIP_SYNC_INTERVAL,
                    _ => SimDuration::from_nanos(g.u64_in(1..3_000_000_000)),
                };
                for (i, model) in models.iter_mut().enumerate() {
                    while model.next_change().is_some_and(|at| at <= now) {
                        model.advance(model.next_change().expect("checked above"));
                        geometry.set_segment(NodeId::new(i as u32), model.segment());
                    }
                }
                fresh.clear();
                fresh.extend(models.iter().map(|m| m.segment().position_at(now, map.bounds())));
                for _ in 0..4 {
                    let of = NodeId::new(g.u32_in(0..hosts as u32));
                    // Reachability searches, masked or not, force syncs
                    // between the range queries. The quadratic oracles
                    // check them on populations of a few hundred.
                    if g.u32_in(0..4) == 0 {
                        let mut active: Vec<bool> = (0..hosts).map(|_| g.u32_in(0..8) != 0).collect();
                        active[of.index()] = true;
                        let small = hosts <= 400;
                        geometry.reachable_into(now, of, Some(&active), &mut got);
                        if small {
                            want = reachable_masked(&fresh, of, radius, &active);
                            assert_eq!(got, want, "masked search from {of:?} at {now:?}");
                        }
                        geometry.reachable_into(now, of, None, &mut got);
                        if small {
                            want = manet_phy::reachable_from(&fresh, of, radius);
                            assert_eq!(got, want, "search from {of:?} at {now:?}");
                        }
                    }
                    geometry.in_range(now, of, &mut got);
                    manet_phy::in_range_into(&fresh, of, radius, &mut want);
                    assert_eq!(got, want, "query of {of:?} at {now:?}");
                    assert!(geometry.range_bits.iter().all(|&w| w == 0), "bitmap left dirty");
                }
            }
        }
    }
}
