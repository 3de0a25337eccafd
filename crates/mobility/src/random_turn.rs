//! The paper's random-turn roaming model.
//!
//! From §4 of the paper: *"The roaming pattern of each host consists of a
//! series of turns. In each turn, the direction, speed, and time interval
//! are randomly generated. The direction is uniformly distributed from 0°
//! to 360°, the time interval from 1 to 100 seconds, and the speed from 0
//! to a given maximum speed."*
//!
//! The paper does not specify boundary behaviour. This implementation
//! **clips a turn at the map edge**: when the straight-line path would
//! leave the map, the segment ends at the wall and the host immediately
//! takes its next (re-randomized) turn there. Hosts therefore never leave
//! the map, motion stays piecewise-linear, and the turn statistics match
//! the paper everywhere away from walls.

use manet_geom::Vec2;
use manet_sim_engine::{SimDuration, SimRng, SimTime, WireDecoder, WireEncoder, WireError};

use crate::map::Map;
use crate::model::{Mobility, Segment};

/// Parameters of the random-turn model.
///
/// The defaults are the paper's: turn interval uniform in `[1, 100]` s and
/// speed uniform in `[0, max_speed]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomTurnParams {
    /// Maximum speed, meters per second.
    pub max_speed_mps: f64,
    /// Shortest turn duration.
    pub min_interval: SimDuration,
    /// Longest turn duration.
    pub max_interval: SimDuration,
}

impl RandomTurnParams {
    /// The paper's parameters for a given maximum speed in km/h.
    ///
    /// # Panics
    ///
    /// Panics if `max_speed_kmh` is negative or not finite.
    pub fn paper(max_speed_kmh: f64) -> Self {
        assert!(
            max_speed_kmh.is_finite() && max_speed_kmh >= 0.0,
            "max speed must be finite and non-negative, got {max_speed_kmh}"
        );
        RandomTurnParams {
            max_speed_mps: crate::map::kmh_to_mps(max_speed_kmh),
            min_interval: SimDuration::from_secs(1),
            max_interval: SimDuration::from_secs(100),
        }
    }
}

/// A host roaming with the paper's random-turn pattern.
///
/// # Examples
///
/// ```
/// use manet_mobility::{Map, Mobility, RandomTurn, RandomTurnParams};
/// use manet_geom::Vec2;
/// use manet_sim_engine::{SimRng, SimTime};
///
/// let map = Map::square_units(3);
/// let mut host = RandomTurn::new(
///     map,
///     RandomTurnParams::paper(30.0),
///     Vec2::new(700.0, 700.0),
///     SimTime::ZERO,
///     SimRng::seed_from(1),
/// );
/// // Advance through a few turns; the host stays on the map.
/// for _ in 0..10 {
///     let t = host.next_change().unwrap();
///     assert!(map.contains(host.segment().position_at(t, map.bounds())));
///     host.advance(t);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RandomTurn {
    map: Map,
    params: RandomTurnParams,
    rng: SimRng,
    origin: Vec2,
    velocity: Vec2,
    seg_start: SimTime,
    seg_end: SimTime,
}

impl RandomTurn {
    /// Creates a roaming host at `start_pos`, taking its first turn at
    /// `start_time`.
    ///
    /// # Panics
    ///
    /// Panics if `start_pos` is outside the map.
    pub fn new(
        map: Map,
        params: RandomTurnParams,
        start_pos: Vec2,
        start_time: SimTime,
        rng: SimRng,
    ) -> Self {
        assert!(
            map.contains(start_pos),
            "start position {start_pos} outside map {}",
            map.label()
        );
        let mut host = RandomTurn {
            map,
            params,
            rng,
            origin: start_pos,
            velocity: Vec2::ZERO,
            seg_start: start_time,
            seg_end: start_time,
        };
        host.take_turn(start_time);
        host
    }

    /// The velocity of the current segment, m/s.
    pub fn velocity(&self) -> Vec2 {
        self.velocity
    }

    /// Draws a fresh (direction, speed, interval) turn at `now`, clipping
    /// the segment where it would cross the map boundary.
    fn take_turn(&mut self, now: SimTime) {
        let bounds = self.map.bounds();
        let origin = bounds.clamp(self.segment().position_at(now, bounds));
        // Redraw until the direction does not point straight off the map
        // from a boundary position (at most a handful of iterations; half
        // of all directions point inward from an edge).
        for attempt in 0..64 {
            let theta = self.rng.gen_range_f64(0.0..std::f64::consts::TAU);
            let speed = self
                .rng
                .gen_range_f64(0.0..self.params.max_speed_mps.max(f64::MIN_POSITIVE));
            let interval = self
                .rng
                .gen_duration_between(self.params.min_interval, self.params.max_interval);
            let velocity = Vec2::from_angle(theta) * speed;
            let duration = interval.as_secs_f64();
            let exit = time_to_boundary(origin, velocity, self.map);
            let seg_secs = match exit {
                Some(t_exit) if t_exit < duration => {
                    if t_exit < 1e-3 && attempt < 63 {
                        // Pointing off the map from (almost) on the wall;
                        // pick a new direction instead of a zero-length hop.
                        continue;
                    }
                    t_exit.max(1e-3)
                }
                _ => duration,
            };
            self.origin = origin;
            self.velocity = velocity;
            self.seg_start = now;
            self.seg_end = now + SimDuration::from_secs_f64(seg_secs);
            return;
        }
        // Extremely unlikely fallback: stand still for the minimum interval.
        self.origin = origin;
        self.velocity = Vec2::ZERO;
        self.seg_start = now;
        self.seg_end = now + self.params.min_interval;
    }

    /// Serializes the mutable roaming state — RNG position and current
    /// segment — for a world snapshot. The map and parameters are not
    /// written: [`restore_snapshot`](Self::restore_snapshot) targets a
    /// host already built with the same configuration.
    pub fn snapshot_into(&self, enc: &mut WireEncoder) {
        enc.rng(&self.rng);
        enc.f64(self.origin.x);
        enc.f64(self.origin.y);
        enc.f64(self.velocity.x);
        enc.f64(self.velocity.y);
        enc.time(self.seg_start);
        enc.time(self.seg_end);
    }

    /// Overwrites this host's mutable state from
    /// [`snapshot_into`](Self::snapshot_into) output, refusing a segment
    /// that ends before it starts (every position query clamps into it).
    pub fn restore_snapshot(&mut self, dec: &mut WireDecoder<'_>) -> Result<(), WireError> {
        self.rng = dec.rng()?;
        self.origin = Vec2::new(dec.f64()?, dec.f64()?);
        self.velocity = Vec2::new(dec.f64()?, dec.f64()?);
        let at = dec.position();
        self.seg_start = dec.time()?;
        self.seg_end = dec.time()?;
        if self.seg_end < self.seg_start {
            let what = "motion segment ends before it starts";
            return Err(WireError { at, what });
        }
        Ok(())
    }
}

impl Mobility for RandomTurn {
    fn next_change(&self) -> Option<SimTime> {
        Some(self.seg_end)
    }

    fn advance(&mut self, now: SimTime) {
        self.take_turn(now);
    }

    fn segment(&self) -> Segment {
        Segment {
            origin: self.origin,
            velocity: self.velocity,
            seg_start: self.seg_start,
            seg_end: self.seg_end,
            moving: true,
        }
    }
}

/// Time in seconds until the ray `origin + t·velocity` first leaves `map`,
/// or `None` if it never does (zero velocity or exactly parallel motion
/// inside the bounds).
fn time_to_boundary(origin: Vec2, velocity: Vec2, map: Map) -> Option<f64> {
    let mut earliest: Option<f64> = None;
    let mut consider = |t: f64| {
        if t >= 0.0 && earliest.is_none_or(|e| t < e) {
            earliest = Some(t);
        }
    };
    if velocity.x > 0.0 {
        consider((map.bounds().width() - origin.x) / velocity.x);
    } else if velocity.x < 0.0 {
        consider(-origin.x / velocity.x);
    }
    if velocity.y > 0.0 {
        consider((map.bounds().height() - origin.y) / velocity.y);
    } else if velocity.y < 0.0 {
        consider(-origin.y / velocity.y);
    }
    earliest
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(host: &RandomTurn, t: SimTime) -> Vec2 {
        host.segment().position_at(t, host.map.bounds())
    }

    fn walk(seed: u64, units: u32, kmh: f64, turns: usize) -> Vec<Vec2> {
        let map = Map::square_units(units);
        let mut host = RandomTurn::new(
            map,
            RandomTurnParams::paper(kmh),
            map.bounds().center(),
            SimTime::ZERO,
            SimRng::seed_from(seed),
        );
        let mut positions = Vec::new();
        for _ in 0..turns {
            let end = host.next_change().unwrap();
            // Sample the middle and the end of each segment.
            let mid = SimTime::from_nanos((host.seg_start.as_nanos() + end.as_nanos()) / 2);
            positions.push(at(&host, mid));
            positions.push(at(&host, end));
            host.advance(end);
        }
        positions
    }

    #[test]
    fn host_stays_on_map() {
        for seed in 0..10 {
            let map = Map::square_units(3);
            for p in walk(seed, 3, 30.0, 200) {
                assert!(map.contains(p), "seed {seed}: {p} left the map");
            }
        }
    }

    #[test]
    fn host_actually_moves() {
        let positions = walk(1, 5, 50.0, 50);
        let start = positions[0];
        let max_dist = positions
            .iter()
            .map(|p| p.distance_to(start))
            .fold(0.0, f64::max);
        assert!(max_dist > 100.0, "host barely moved: {max_dist} m");
    }

    #[test]
    fn speed_never_exceeds_max() {
        let map = Map::square_units(5);
        let params = RandomTurnParams::paper(50.0);
        let mut host = RandomTurn::new(
            map,
            params,
            map.bounds().center(),
            SimTime::ZERO,
            SimRng::seed_from(2),
        );
        for _ in 0..300 {
            assert!(
                host.velocity().length() <= params.max_speed_mps + 1e-9,
                "speed {} exceeds max {}",
                host.velocity().length(),
                params.max_speed_mps
            );
            let end = host.next_change().unwrap();
            host.advance(end);
        }
    }

    #[test]
    fn segments_have_positive_length() {
        let map = Map::square_units(1);
        let mut host = RandomTurn::new(
            map,
            RandomTurnParams::paper(10.0),
            Vec2::ZERO, // corner start: worst case for wall clipping
            SimTime::ZERO,
            SimRng::seed_from(3),
        );
        let mut prev = SimTime::ZERO;
        for _ in 0..500 {
            let end = host.next_change().unwrap();
            assert!(end > prev, "segment must advance time");
            prev = end;
            host.advance(end);
        }
    }

    #[test]
    fn position_is_continuous_across_turns() {
        let map = Map::square_units(3);
        let mut host = RandomTurn::new(
            map,
            RandomTurnParams::paper(30.0),
            map.bounds().center(),
            SimTime::ZERO,
            SimRng::seed_from(4),
        );
        for _ in 0..200 {
            let end = host.next_change().unwrap();
            let before = at(&host, end);
            host.advance(end);
            let after = at(&host, end);
            assert!(
                before.distance_to(after) < 1e-6,
                "teleport at turn: {before} -> {after}"
            );
        }
    }

    #[test]
    fn zero_max_speed_stays_put() {
        let map = Map::square_units(3);
        let start = map.bounds().center();
        let mut host = RandomTurn::new(
            map,
            RandomTurnParams::paper(0.0),
            start,
            SimTime::ZERO,
            SimRng::seed_from(5),
        );
        for _ in 0..20 {
            let end = host.next_change().unwrap();
            assert!(at(&host, end).distance_to(start) < 1e-6);
            host.advance(end);
        }
    }

    /// Every position query clamps into the segment, so a restored one
    /// that ends before it starts used to panic at the first query
    /// (`clamp`'s `min <= max`). It is refused at the segment.
    #[test]
    fn restore_refuses_a_segment_that_ends_before_it_starts() {
        let map = Map::square_units(3);
        let mut host = RandomTurn::new(
            map,
            RandomTurnParams::paper(30.0),
            map.bounds().center(),
            SimTime::ZERO,
            SimRng::seed_from(6),
        );
        host.advance(host.next_change().unwrap());
        let mut enc = WireEncoder::new();
        host.snapshot_into(&mut enc);
        let mut bytes = enc.into_bytes();
        // The segment closes the image: start, then end.
        let segment = bytes.len() - 16;
        assert!(host.restore_snapshot(&mut WireDecoder::new(&bytes)).is_ok());
        bytes[segment + 8..].copy_from_slice(&0u64.to_le_bytes());
        let err = host
            .restore_snapshot(&mut WireDecoder::new(&bytes))
            .expect_err("a segment ending at 0, before its start");
        assert_eq!(err.at, segment, "{err}");
    }

    #[test]
    #[should_panic(expected = "outside map")]
    fn offmap_start_panics() {
        let map = Map::square_units(1);
        let _ = RandomTurn::new(
            map,
            RandomTurnParams::paper(10.0),
            Vec2::new(-1.0, 0.0),
            SimTime::ZERO,
            SimRng::seed_from(0),
        );
    }
}
