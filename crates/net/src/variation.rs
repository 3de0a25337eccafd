//! Neighborhood-variation tracking (paper §4.3).
//!
//! The paper defines a host `x`'s neighborhood variation as
//!
//! ```text
//! nv_x = (number of hosts joining or leaving N_x in the past 10 s)
//!        / (|N_x| * 10)
//! ```
//!
//! — a per-neighbor, per-second churn rate. [`VariationTracker`] keeps the
//! 10-second sliding window of membership-change timestamps and evaluates
//! `nv_x` on demand.

use std::collections::VecDeque;

use manet_sim_engine::{SimDuration, SimTime, WireDecoder, WireEncoder, WireError};

/// Length of the paper's churn window: 10 seconds.
pub const VARIATION_WINDOW: SimDuration = SimDuration::from_secs(10);

/// Sliding-window estimator of neighborhood variation.
///
/// # Examples
///
/// ```
/// use manet_net::VariationTracker;
/// use manet_sim_engine::SimTime;
///
/// let mut tracker = VariationTracker::new();
/// tracker.record_change(SimTime::from_secs(1));
/// tracker.record_change(SimTime::from_secs(2));
/// // Two changes in the window, 4 current neighbors:
/// let nv = tracker.variation(SimTime::from_secs(5), 4);
/// assert!((nv - 2.0 / 40.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VariationTracker {
    events: VecDeque<SimTime>,
}

impl VariationTracker {
    /// Creates a tracker with an empty window.
    pub fn new() -> Self {
        VariationTracker::default()
    }

    /// Records one membership change (a join or a leave) at `now`.
    ///
    /// Trims aged-out events first, so the queue stays bounded by the
    /// change rate times the window even on a host that records churn for
    /// hours without ever being asked for [`variation`](Self::variation).
    pub fn record_change(&mut self, now: SimTime) {
        self.trim(now);
        self.events.push_back(now);
    }

    /// Drops events older than the window.
    fn trim(&mut self, now: SimTime) {
        while let Some(&front) = self.events.front() {
            if now.saturating_duration_since(front) > VARIATION_WINDOW {
                self.events.pop_front();
            } else {
                break;
            }
        }
    }

    /// Number of membership changes within the past 10 seconds.
    pub fn changes_in_window(&mut self, now: SimTime) -> usize {
        self.trim(now);
        self.events.len()
    }

    /// The paper's `nv_x` given the current neighbor count.
    ///
    /// With zero neighbors the paper's denominator vanishes; a lone,
    /// churning host plainly has an unstable neighborhood, so the count is
    /// clamped to 1 (an empty *and quiet* neighborhood still yields 0).
    pub fn variation(&mut self, now: SimTime, neighbor_count: usize) -> f64 {
        let changes = self.changes_in_window(now);
        changes as f64 / (neighbor_count.max(1) as f64 * VARIATION_WINDOW.as_secs_f64())
    }

    /// Serializes the event window for a world snapshot.
    pub fn snapshot_into(&self, enc: &mut WireEncoder) {
        enc.seq(self.events.iter().copied(), WireEncoder::time);
    }

    /// Rebuilds a tracker from [`snapshot_into`](Self::snapshot_into)
    /// output taken when the clock read `now`.
    ///
    /// # Errors
    ///
    /// A positioned [`WireError`] on a window whose times are not
    /// non-decreasing, or that holds a time after `now`: no host records
    /// a change out of order or ahead of the clock.
    pub fn restore_snapshot(
        dec: &mut WireDecoder<'_>,
        now: SimTime,
    ) -> Result<VariationTracker, WireError> {
        let mut last = SimTime::ZERO;
        let events = dec.seq(8, |dec| {
            let at = dec.position();
            let time = dec.time()?;
            if time < last {
                let what = "variation window times are not non-decreasing";
                return Err(WireError { at, what });
            }
            if time > now {
                let what = "a variation window holds a time after the checkpoint's clock";
                return Err(WireError { at, what });
            }
            last = time;
            Ok(time)
        })?;
        Ok(VariationTracker {
            events: events.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_neighborhood_has_zero_variation() {
        let mut t = VariationTracker::new();
        assert_eq!(t.variation(SimTime::from_secs(100), 5), 0.0);
        assert_eq!(t.variation(SimTime::from_secs(100), 0), 0.0);
    }

    #[test]
    fn matches_paper_formula() {
        let mut t = VariationTracker::new();
        for s in [1, 2, 3] {
            t.record_change(SimTime::from_secs(s));
        }
        // 3 changes, 6 neighbors: nv = 3 / 60.
        let nv = t.variation(SimTime::from_secs(5), 6);
        assert!((nv - 0.05).abs() < 1e-12);
    }

    #[test]
    fn events_age_out_after_ten_seconds() {
        let mut t = VariationTracker::new();
        t.record_change(SimTime::from_secs(1));
        t.record_change(SimTime::from_secs(8));
        assert_eq!(t.changes_in_window(SimTime::from_secs(10)), 2);
        // t = 11.5 s: the event at 1 s is out, the one at 8 s remains.
        assert_eq!(t.changes_in_window(SimTime::from_millis(11_500)), 1);
        assert_eq!(t.changes_in_window(SimTime::from_secs(19)), 0);
    }

    #[test]
    fn boundary_is_inclusive() {
        let mut t = VariationTracker::new();
        t.record_change(SimTime::from_secs(5));
        // Exactly 10 s later the event is still (just) inside the window.
        assert_eq!(t.changes_in_window(SimTime::from_secs(15)), 1);
        assert_eq!(t.changes_in_window(SimTime::from_nanos(15_000_000_001)), 0);
    }

    #[test]
    fn queue_stays_bounded_under_sustained_churn() {
        // One change every 100 ms for 20 simulated minutes, with no
        // variation() queries in between: the window holds at most
        // 10 s / 100 ms + 1 = 101 events at any point.
        let mut t = VariationTracker::new();
        let step = SimDuration::from_millis(100);
        let mut now = SimTime::ZERO;
        for _ in 0..12_000 {
            t.record_change(now);
            assert!(
                t.events.len() <= 101,
                "window grew to {} events",
                t.events.len()
            );
            now += step;
        }
        // And the window is still correct afterwards: `now` is one step
        // past the last record, so events in (now - 10 s, now] span
        // t = 1190.0 s ..= 1199.9 s — exactly 100 of them.
        assert_eq!(t.changes_in_window(now), 100);
    }

    #[test]
    fn zero_neighbors_clamps_denominator() {
        let mut t = VariationTracker::new();
        t.record_change(SimTime::from_secs(1));
        let nv = t.variation(SimTime::from_secs(2), 0);
        assert!((nv - 0.1).abs() < 1e-12, "1 change / (1 * 10 s)");
    }

    #[test]
    fn restore_refuses_a_window_out_of_order_or_ahead_of_the_clock() {
        let window = |times: &[u64]| {
            let mut enc = WireEncoder::new();
            enc.seq(times.iter().copied(), WireEncoder::u64);
            enc.into_bytes()
        };
        let restore = |times: &[u64], now| {
            let bytes = window(times);
            VariationTracker::restore_snapshot(
                &mut WireDecoder::new(&bytes),
                SimTime::from_nanos(now),
            )
            .map(|t| {
                t.events
                    .into_iter()
                    .map(SimTime::as_nanos)
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(restore(&[1, 1, 5], 5), Ok(vec![1, 1, 5]));
        assert_eq!(restore(&[], 0), Ok(vec![]));
        let at = |err: Result<_, WireError>| err.expect_err("refused").at;
        // The count, then one time per event.
        assert_eq!(at(restore(&[1, 5, 4], 9)), 8 + 2 * 8);
        assert_eq!(at(restore(&[1, 6], 5)), 8 + 8);
    }
}
