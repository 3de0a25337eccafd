//! The world's geometry index: the one answer to "who is within radio
//! range of this host right now".
//!
//! Hosts move along piecewise-linear [`Segment`]s, so a position is a pure
//! function of `(segment, now)`. A range query must not pay for all of
//! them: the map is cut into vertical strips at least one radio radius
//! wide ([`StripMap`]), each strip keeps its hosts y-sorted at the
//! positions they had at the last *sync* (once per simulated second), and
//! a query evaluates fresh positions only for hosts whose sync position
//! leaves their membership undecided (see [`Geometry::in_range`]). The
//! dense all-hosts refresh survives for the two consumers that really
//! need every position: the strip sync itself and the per-broadcast
//! reachability search.

use manet_geom::{Rect, Vec2};
use manet_mobility::{Map, Segment};
use manet_phy::{NeighborGrid, NodeId, StripMap};
use manet_sim_engine::{SimDuration, SimTime};

/// How often strip membership is rebuilt from fresh positions. Between
/// syncs, hosts drift from their sync positions by at most
/// `max_speed × elapsed`, which the query windows absorb.
const STRIP_SYNC_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Absolute slack (meters) added to the `max_speed × elapsed` drift bound,
/// absorbing the floating-point rounding of that product. Overestimating
/// drift only widens the candidate window — the exact distance test still
/// decides membership — so a micrometer of safety costs nothing and
/// removes any 1-ulp exclusion hazard.
const DRIFT_SLACK: f64 = 1e-6;

/// Host motion, cached positions and the strip index over them.
#[derive(Debug)]
pub(super) struct Geometry {
    bounds: Rect,
    radius: f64,
    /// Upper bound on host speed in m/s, for the drift margin.
    max_speed_ms: f64,
    /// Whether queries must leave a fresh cached position for *every* hit
    /// (capture signal strengths and scenario link faults read them), not
    /// just for the hits that needed one to be decided.
    keep_hit_positions: bool,
    /// Every host's current motion segment.
    segments: Vec<Segment>,
    /// Cached positions. All valid at `positions_at` after a dense
    /// refresh; range queries overwrite individual entries with fresher
    /// values (see [`Geometry::cached_position`]).
    positions: Vec<Vec2>,
    positions_at: Option<SimTime>,
    strips: StripMap,
    /// Each strip's hosts as `(sync position, id)`, sorted by the
    /// position's y (ties by id). Read-only between syncs.
    strip_hosts: Vec<Vec<(Vec2, u32)>>,
    strip_sync_at: SimTime,
    /// Host-id-indexed hit bitmap: a query marks ids while scanning in
    /// spatial order, then reads them back ascending without a sort.
    /// All-zero between queries.
    range_bits: Vec<u64>,
    /// Cell index over `positions` for the reachability search, synced to
    /// the dense refresh at `grid_at`.
    grid: NeighborGrid,
    grid_at: Option<SimTime>,
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
        keep_hit_positions: bool,
    ) -> Self {
        let bounds = map.bounds();
        let strips = StripMap::new(bounds.width(), radius);
        let mut geometry = Geometry {
            bounds,
            radius,
            // RandomWaypoint floors its speed at 3.6 km/h, so the drift
            // bound must too; overestimating only widens query windows.
            max_speed_ms: max_speed_kmh.max(3.6) / 3.6,
            keep_hit_positions,
            segments,
            range_bits: vec![0; positions.len().div_ceil(64)],
            positions,
            positions_at: None,
            strip_hosts: vec![Vec::new(); strips.strips()],
            strips,
            strip_sync_at: SimTime::ZERO,
            grid: NeighborGrid::new(bounds.width(), bounds.height(), radius),
            grid_at: None,
        };
        geometry.rebuild_strips();
        geometry
    }

    /// Replaces `node`'s motion segment (it turned, or a snapshot restored
    /// it). Sync positions stay valid — the drift bound does not care
    /// which way a host went — but dense caches at this timestamp do not.
    pub(super) fn set_segment(&mut self, node: NodeId, segment: Segment) {
        self.segments[node.index()] = segment;
        self.positions_at = None;
        self.grid_at = None;
    }

    /// `node`'s position at `now`, evaluated from its segment.
    pub(super) fn position_at(&self, node: NodeId, now: SimTime) -> Vec2 {
        self.segments[node.index()].position_at(now, self.bounds)
    }

    /// The cached position of `node`: its position at the timestamp of
    /// the last [`in_range`](Self::in_range) query, provided `node` was
    /// that query's centre or — with `keep_hit_positions` — one of its
    /// hits.
    pub(super) fn cached_position(&self, node: NodeId) -> Vec2 {
        self.positions[node.index()]
    }

    /// Ensures `positions` holds every host's position at `now`; free
    /// when it already does.
    fn refresh_positions(&mut self, now: SimTime) {
        if self.positions_at == Some(now) {
            return;
        }
        let bounds = self.bounds;
        for (p, s) in self.positions.iter_mut().zip(&self.segments) {
            *p = s.position_at(now, bounds);
        }
        self.positions_at = Some(now);
    }

    /// Re-bins every host into its strip by `positions`, y-sorted.
    fn rebuild_strips(&mut self) {
        for hosts in &mut self.strip_hosts {
            hosts.clear();
        }
        for (i, &p) in self.positions.iter().enumerate() {
            self.strip_hosts[self.strips.strip_of_x(p.x)].push((p, i as u32));
        }
        for hosts in &mut self.strip_hosts {
            hosts.sort_unstable_by(|a, b| a.0.y.total_cmp(&b.0.y).then(a.1.cmp(&b.1)));
        }
    }

    /// Rebuilds strip membership once per [`STRIP_SYNC_INTERVAL`]. The
    /// sync is not an event — it consumes no sequence number and draws no
    /// randomness — and query results do not depend on when it happens,
    /// which is also why a resumed world may start from the time-zero
    /// strips: the drift bound covers whatever has elapsed since.
    fn maybe_strip_sync(&mut self, now: SimTime) {
        if now < self.strip_sync_at + STRIP_SYNC_INTERVAL {
            return;
        }
        self.refresh_positions(now);
        self.rebuild_strips();
        self.strip_sync_at = now;
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
        self.maybe_strip_sync(now);
        let bounds = self.bounds;
        let center = if self.positions_at == Some(now) {
            self.positions[of.index()]
        } else {
            let p = self.segments[of.index()].position_at(now, bounds);
            self.positions[of.index()] = p;
            p
        };
        let elapsed = now.saturating_duration_since(self.strip_sync_at);
        let drift = self.max_speed_ms * elapsed.as_secs_f64() + DRIFT_SLACK;
        let reach = self.radius + drift;
        let m2 = reach * reach;
        let r2 = self.radius * self.radius;
        // Negative sentinel when drift swallows the radius: nothing is
        // certain, every candidate takes the exact test.
        let inner = self.radius - drift;
        let inner2 = if inner > 0.0 { inner * inner } else { -1.0 };
        let me = of.index() as u32;
        let (lo_y, hi_y) = (center.y - reach, center.y + reach);
        let (lo, hi) = self
            .strips
            .strips_overlapping(center.x - reach, center.x + reach);
        for hosts in &self.strip_hosts[lo..=hi] {
            let start = hosts.partition_point(|&(p, _)| p.y < lo_y);
            for &(sync_pos, h) in &hosts[start..] {
                if sync_pos.y > hi_y {
                    break;
                }
                if h == me {
                    continue;
                }
                let d2 = sync_pos.distance_squared_to(center);
                if d2 > m2 {
                    continue;
                }
                if d2 > inner2 {
                    let p = self.segments[h as usize].position_at(now, bounds);
                    self.positions[h as usize] = p;
                    if p.distance_squared_to(center) > r2 {
                        continue;
                    }
                } else if self.keep_hit_positions {
                    self.positions[h as usize] = self.segments[h as usize].position_at(now, bounds);
                }
                self.range_bits[(h >> 6) as usize] |= 1u64 << (h & 63);
            }
        }
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
    /// count. Issued once per broadcast request, so it pays for a dense
    /// refresh and a grid re-index.
    pub(super) fn reachable_into(
        &mut self,
        now: SimTime,
        source: NodeId,
        active: Option<&[bool]>,
        out: &mut Vec<NodeId>,
    ) {
        self.refresh_positions(now);
        if self.grid_at != Some(now) {
            self.grid.update(&self.positions);
            self.grid_at = Some(now);
        }
        match active {
            Some(active) => {
                self.grid
                    .reachable_masked_into(&self.positions, source, self.radius, active, out)
            }
            None => self
                .grid
                .reachable_into(&self.positions, source, self.radius, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_mobility::{Mobility, RandomTurn, RandomTurnParams};
    use manet_sim_engine::SimRng;
    use manet_testkit::prop_check;

    prop_check! {
        /// The strip query equals the brute-force scan over freshly
        /// evaluated positions, whatever the map, radius, population,
        /// speed and query time — including the first second, where a
        /// resumed world still holds its time-zero strips.
        fn in_range_matches_the_brute_force_scan(g, cases = 48) {
            let map = Map::square_units(g.u32_in(1..13));
            let radius = g.f64_in(100.0..800.0);
            let hosts = if g.bool() { g.usize_in(1..60) } else { g.usize_in(60..2_001) };
            let speed_kmh = g.f64_in_incl(0.0, 100.0);
            let keep_hit_positions = g.bool();
            let mut rng = SimRng::seed_from(g.u64());
            let start = manet_mobility::uniform_placement(&map, hosts, &mut rng);
            let params = RandomTurnParams::paper(speed_kmh);
            let mut models: Vec<RandomTurn> = start
                .iter()
                .enumerate()
                .map(|(i, &p)| RandomTurn::new(map, params, p, SimTime::ZERO, rng.fork(i as u64)))
                .collect();
            let segments = models.iter().map(Mobility::segment).collect();
            let mut geometry =
                Geometry::new(&map, radius, speed_kmh, start, segments, keep_hit_positions);

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
                fresh.extend(models.iter().map(|m| m.position_at(now)));
                for _ in 0..4 {
                    let of = NodeId::new(g.u32_in(0..hosts as u32));
                    geometry.in_range(now, of, &mut got);
                    manet_phy::in_range_into(&fresh, of, radius, &mut want);
                    assert_eq!(got, want, "query of {of:?} at {now:?}");
                    assert!(geometry.range_bits.iter().all(|&w| w == 0), "bitmap left dirty");
                    assert_eq!(geometry.cached_position(of), fresh[of.index()]);
                    if keep_hit_positions {
                        for &hit in &got {
                            assert_eq!(geometry.cached_position(hit), fresh[hit.index()]);
                        }
                    }
                }
            }
        }
    }
}
