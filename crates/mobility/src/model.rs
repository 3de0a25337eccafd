//! The mobility-model abstraction.
//!
//! A mobility model answers two questions for one host:
//!
//! 1. *Where is the host at time `t`?* — its current [`Segment`]'s
//!    [`position_at`](Segment::position_at), valid for any `t` within the
//!    segment.
//! 2. *When does its motion change next?* — [`Mobility::next_change`], at
//!    which point the driver must call [`Mobility::advance`] so the model
//!    can start its next segment (pick a new direction, bounce off a wall,
//!    …).
//!
//! Keeping motion piecewise-linear lets the simulator query exact positions
//! at arbitrary event timestamps in `O(1)` without integrating trajectories.

use manet_geom::{Rect, Vec2};
use manet_sim_engine::SimTime;

/// One host's motion over its current piecewise-linear segment, in the
/// canonical form every mobility model reduces to: a start point, a
/// velocity, and the segment's time window. It is the one place a
/// position is evaluated: the models advance through it, and a driver
/// holding many hosts evaluates all their positions in one dense pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Position at `seg_start` (and the exact result for non-moving
    /// segments).
    pub origin: Vec2,
    /// Straight-line velocity in map units per second; zero while paused.
    pub velocity: Vec2,
    /// When this segment began.
    pub seg_start: SimTime,
    /// When this segment ends ([`Mobility::next_change`]).
    pub seg_end: SimTime,
    /// `true` for moving segments, which interpolate and clamp into the
    /// map; `false` for paused or stationary hosts, which stay at `origin`.
    pub moving: bool,
}

impl Segment {
    /// The segment's position at `t`, clamping `t` into the segment's
    /// window: a query momentarily past the segment end (a same-timestamp
    /// event ordered before the turn) gets the segment's endpoint.
    #[inline]
    pub fn position_at(&self, t: SimTime, bounds: Rect) -> Vec2 {
        if !self.moving {
            return self.origin;
        }
        let t = t.clamp(self.seg_start, self.seg_end);
        let dt = (t - self.seg_start).as_secs_f64();
        bounds.clamp(self.origin + self.velocity * dt)
    }
}

/// A single host's motion over time.
pub trait Mobility {
    /// The instant at which the current motion segment ends and
    /// [`advance`](Self::advance) must be called, or `None` for models that
    /// never change (e.g. a stationary host).
    fn next_change(&self) -> Option<SimTime>;

    /// Begins the next motion segment at `now`.
    ///
    /// Called by the simulation driver when `now ==`
    /// [`next_change`](Self::next_change).
    fn advance(&mut self, now: SimTime);

    /// The current motion segment in canonical form (see [`Segment`]).
    /// Valid until the next [`advance`](Self::advance).
    fn segment(&self) -> Segment;
}

/// A host that never moves.
///
/// # Examples
///
/// ```
/// use manet_geom::Vec2;
/// use manet_mobility::{Map, Mobility, Stationary};
/// use manet_sim_engine::SimTime;
///
/// let host = Stationary::new(Vec2::new(100.0, 200.0));
/// let bounds = Map::square_units(1).bounds();
/// let at = host.segment().position_at(SimTime::from_secs(99), bounds);
/// assert_eq!(at, Vec2::new(100.0, 200.0));
/// assert_eq!(host.next_change(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stationary {
    position: Vec2,
}

impl Stationary {
    /// Creates a host fixed at `position`.
    pub fn new(position: Vec2) -> Self {
        Stationary { position }
    }
}

impl Mobility for Stationary {
    fn next_change(&self) -> Option<SimTime> {
        None
    }

    fn advance(&mut self, _now: SimTime) {}

    fn segment(&self) -> Segment {
        Segment {
            origin: self.position,
            velocity: Vec2::ZERO,
            seg_start: SimTime::ZERO,
            seg_end: SimTime::ZERO,
            moving: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_is_inert() {
        let mut s = Stationary::new(Vec2::new(1.0, 2.0));
        s.advance(SimTime::from_secs(10));
        let bounds = Rect::new(5.0, 5.0);
        let at = s.segment().position_at(SimTime::from_secs(20), bounds);
        assert_eq!(at, Vec2::new(1.0, 2.0));
        assert_eq!(s.next_change(), None);
    }
}
