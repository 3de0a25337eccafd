//! The random-waypoint mobility model — the other classic MANET mobility
//! model, provided alongside the paper's random-turn model so results can
//! be checked for robustness to the mobility assumption.
//!
//! Each host repeatedly picks a uniform destination on the map, travels
//! there in a straight line at a uniform random speed, then pauses for a
//! fixed time before picking the next destination.

use manet_geom::Vec2;
use manet_sim_engine::{SimDuration, SimRng, SimTime, WireDecoder, WireEncoder, WireError};

use crate::map::Map;
use crate::model::{Mobility, Segment};

/// Parameters of the random-waypoint model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomWaypointParams {
    /// Lowest travel speed, m/s. Must be positive (the classic model's
    /// `min_speed → 0` speed-decay pathology is thereby excluded).
    pub min_speed_mps: f64,
    /// Highest travel speed, m/s.
    pub max_speed_mps: f64,
    /// Pause at each waypoint.
    pub pause: SimDuration,
}

impl RandomWaypointParams {
    /// A conventional parameterization from a maximum speed in km/h:
    /// speeds uniform in `[1 m/s, max]`, 5 s pause.
    ///
    /// # Panics
    ///
    /// Panics unless `max_speed_kmh` is finite and at least 3.6 km/h
    /// (1 m/s).
    pub fn conventional(max_speed_kmh: f64) -> Self {
        assert!(
            max_speed_kmh.is_finite() && max_speed_kmh >= 3.6,
            "waypoint model needs a max speed of at least 3.6 km/h, got {max_speed_kmh}"
        );
        RandomWaypointParams {
            min_speed_mps: 1.0,
            max_speed_mps: crate::map::kmh_to_mps(max_speed_kmh),
            pause: SimDuration::from_secs(5),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Standing at `origin` until the segment end.
    Pausing,
    /// Traveling from `origin` with `velocity` until the segment end.
    Moving { velocity: Vec2 },
}

/// A host roaming under the random-waypoint model.
///
/// # Examples
///
/// ```
/// use manet_mobility::{Map, Mobility, RandomWaypoint, RandomWaypointParams};
/// use manet_sim_engine::{SimRng, SimTime};
///
/// let map = Map::square_units(5);
/// let mut host = RandomWaypoint::new(
///     map,
///     RandomWaypointParams::conventional(50.0),
///     map.bounds().center(),
///     SimTime::ZERO,
///     SimRng::seed_from(3),
/// );
/// for _ in 0..20 {
///     let t = host.next_change().unwrap();
///     assert!(map.contains(host.segment().position_at(t, map.bounds())));
///     host.advance(t);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    map: Map,
    params: RandomWaypointParams,
    rng: SimRng,
    phase: Phase,
    origin: Vec2,
    seg_start: SimTime,
    seg_end: SimTime,
}

impl RandomWaypoint {
    /// Creates a host at `start_pos` that begins traveling at
    /// `start_time`.
    ///
    /// # Panics
    ///
    /// Panics if `start_pos` is outside the map or the speed range is
    /// invalid.
    pub fn new(
        map: Map,
        params: RandomWaypointParams,
        start_pos: Vec2,
        start_time: SimTime,
        rng: SimRng,
    ) -> Self {
        assert!(
            map.contains(start_pos),
            "start position {start_pos} outside map {}",
            map.label()
        );
        assert!(
            params.min_speed_mps > 0.0
                && params.max_speed_mps >= params.min_speed_mps
                && params.max_speed_mps.is_finite(),
            "invalid speed range [{}, {}]",
            params.min_speed_mps,
            params.max_speed_mps
        );
        let mut host = RandomWaypoint {
            map,
            params,
            rng,
            phase: Phase::Pausing,
            origin: start_pos,
            seg_start: start_time,
            seg_end: start_time,
        };
        host.pick_waypoint(start_time);
        host
    }

    fn pick_waypoint(&mut self, now: SimTime) {
        let dest = Vec2::new(
            self.rng.gen_range_f64(0.0..self.map.bounds().width()),
            self.rng.gen_range_f64(0.0..self.map.bounds().height()),
        );
        let distance = self.origin.distance_to(dest);
        if distance < 1e-9 {
            // Degenerate draw: treat as an immediate pause.
            self.phase = Phase::Pausing;
            self.seg_start = now;
            self.seg_end = now + self.params.pause.max(SimDuration::from_millis(1));
            return;
        }
        let speed = self.rng.gen_range_f64(
            self.params.min_speed_mps
                ..self
                    .params
                    .max_speed_mps
                    .max(self.params.min_speed_mps + f64::EPSILON),
        );
        let travel = SimDuration::from_secs_f64(distance / speed);
        let velocity = (dest - self.origin) / (distance / speed);
        self.phase = Phase::Moving { velocity };
        self.seg_start = now;
        self.seg_end = now + travel;
    }

    /// Serializes the mutable roaming state — RNG position, phase, and
    /// current segment — for a world snapshot. The map and parameters are
    /// not written: [`restore_snapshot`](Self::restore_snapshot) targets
    /// a host already built with the same configuration.
    pub fn snapshot_into(&self, enc: &mut WireEncoder) {
        enc.rng(&self.rng);
        match self.phase {
            Phase::Pausing => enc.u8(0),
            Phase::Moving { velocity } => {
                enc.u8(1);
                enc.f64(velocity.x);
                enc.f64(velocity.y);
            }
        }
        enc.f64(self.origin.x);
        enc.f64(self.origin.y);
        enc.time(self.seg_start);
        enc.time(self.seg_end);
    }

    /// Overwrites this host's mutable state from
    /// [`snapshot_into`](Self::snapshot_into) output, refusing a segment
    /// that ends before it starts (every position query clamps into it).
    pub fn restore_snapshot(&mut self, dec: &mut WireDecoder<'_>) -> Result<(), WireError> {
        self.rng = dec.rng()?;
        let (tag, invalid) = dec.tag("waypoint phase tag")?;
        self.phase = match tag {
            0 => Phase::Pausing,
            1 => Phase::Moving {
                velocity: Vec2::new(dec.f64()?, dec.f64()?),
            },
            _ => return Err(invalid),
        };
        self.origin = Vec2::new(dec.f64()?, dec.f64()?);
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

impl Mobility for RandomWaypoint {
    fn next_change(&self) -> Option<SimTime> {
        Some(self.seg_end)
    }

    fn advance(&mut self, now: SimTime) {
        self.origin = self.segment().position_at(self.seg_end, self.map.bounds());
        match self.phase {
            Phase::Moving { .. } if !self.params.pause.is_zero() => {
                self.phase = Phase::Pausing;
                self.seg_start = now;
                self.seg_end = now + self.params.pause;
            }
            _ => self.pick_waypoint(now),
        }
    }

    fn segment(&self) -> Segment {
        let (velocity, moving) = match self.phase {
            Phase::Pausing => (Vec2::ZERO, false),
            Phase::Moving { velocity } => (velocity, true),
        };
        Segment {
            origin: self.origin,
            velocity,
            seg_start: self.seg_start,
            seg_end: self.seg_end,
            moving,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(h: &RandomWaypoint, t: SimTime) -> Vec2 {
        h.segment().position_at(t, h.map.bounds())
    }

    fn host(seed: u64) -> RandomWaypoint {
        let map = Map::square_units(5);
        RandomWaypoint::new(
            map,
            RandomWaypointParams::conventional(50.0),
            map.bounds().center(),
            SimTime::ZERO,
            SimRng::seed_from(seed),
        )
    }

    #[test]
    fn stays_on_map_across_many_segments() {
        let map = Map::square_units(5);
        for seed in 0..5 {
            let mut h = host(seed);
            for _ in 0..200 {
                let end = h.next_change().unwrap();
                assert!(map.contains(at(&h, end)));
                h.advance(end);
            }
        }
    }

    #[test]
    fn alternates_travel_and_pause() {
        let mut h = host(1);
        let mut saw_pause = false;
        let mut saw_travel = false;
        for _ in 0..20 {
            if matches!(h.phase, Phase::Pausing) {
                saw_pause = true;
                // Position is constant during a pause.
                let start = at(&h, h.seg_start);
                let end = at(&h, h.next_change().unwrap());
                assert_eq!(start, end);
            } else {
                saw_travel = true;
            }
            let end = h.next_change().unwrap();
            h.advance(end);
        }
        assert!(saw_pause && saw_travel);
    }

    #[test]
    fn pause_lasts_exactly_the_configured_time() {
        let mut h = host(2);
        // Advance until we enter a pause.
        for _ in 0..10 {
            let end = h.next_change().unwrap();
            h.advance(end);
            if matches!(h.phase, Phase::Pausing) {
                let length = h.next_change().unwrap() - h.seg_start;
                assert_eq!(length, SimDuration::from_secs(5));
                return;
            }
        }
        panic!("never paused");
    }

    #[test]
    fn travel_speed_is_within_bounds() {
        let mut h = host(3);
        for _ in 0..50 {
            if let Phase::Moving { velocity } = h.phase {
                let speed = velocity.length();
                assert!(speed >= 1.0 - 1e-9, "speed {speed} below minimum");
                assert!(
                    speed <= h.params.max_speed_mps + 1e-9,
                    "speed {speed} above maximum"
                );
            }
            let end = h.next_change().unwrap();
            h.advance(end);
        }
    }

    #[test]
    fn position_is_continuous_across_advance() {
        let mut h = host(4);
        for _ in 0..100 {
            let end = h.next_change().unwrap();
            let before = at(&h, end);
            h.advance(end);
            let after = at(&h, end);
            assert!(before.distance_to(after) < 1e-6);
        }
    }

    /// Every position query clamps into the segment, so a restored one
    /// that ends before it starts used to panic at the first query
    /// (`clamp`'s `min <= max`). It is refused at the segment.
    #[test]
    fn restore_refuses_a_segment_that_ends_before_it_starts() {
        let mut h = host(7);
        h.advance(h.next_change().unwrap());
        let mut enc = WireEncoder::new();
        h.snapshot_into(&mut enc);
        let mut bytes = enc.into_bytes();
        // The segment closes the image: start, then end.
        let segment = bytes.len() - 16;
        assert!(h.restore_snapshot(&mut WireDecoder::new(&bytes)).is_ok());
        bytes[segment + 8..].copy_from_slice(&0u64.to_le_bytes());
        let err = h
            .restore_snapshot(&mut WireDecoder::new(&bytes))
            .expect_err("a segment ending at 0, before its start");
        assert_eq!(err.at, segment, "{err}");
    }

    #[test]
    #[should_panic(expected = "outside map")]
    fn offmap_start_panics() {
        let map = Map::square_units(1);
        let _ = RandomWaypoint::new(
            map,
            RandomWaypointParams::conventional(10.0),
            Vec2::new(-5.0, 0.0),
            SimTime::ZERO,
            SimRng::seed_from(0),
        );
    }
}
