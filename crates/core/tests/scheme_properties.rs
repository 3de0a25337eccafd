//! Property-based tests of the scheme decision state machines, driven as
//! pure functions over arbitrary duplicate sequences.

use broadcast_core::policy::{DuplicateDecision, FirstDecision, HearContext};
use broadcast_core::{AreaThreshold, CounterThreshold, PacketState, SchemeSpec};
use manet_geom::Vec2;
use manet_phy::NodeId;
use manet_testkit::{prop_check, Gen};

/// Builds a context for a sender at polar position (rho, theta) with a
/// given neighbor count.
struct Fixture {
    neighbors: Vec<NodeId>,
    sender_neighbors: Vec<NodeId>,
}

impl Fixture {
    fn new() -> Self {
        Fixture {
            neighbors: Vec::new(),
            sender_neighbors: Vec::new(),
        }
    }

    fn ctx(&self, n: usize, sender: u32, rho: f64, theta: f64) -> HearContext<'_> {
        HearContext {
            neighbor_count: n,
            own_position: Vec2::ZERO,
            sender: NodeId::new(sender),
            sender_position: Vec2::from_angle(theta) * rho,
            neighbors: &self.neighbors,
            sender_neighbors: &self.sender_neighbors,
            random_unit: 0.5,
        }
    }
}

/// A random stream of duplicate arrivals: (sender id, rho, theta, n).
fn arrivals(g: &mut Gen) -> Vec<(u32, f64, f64, usize)> {
    g.vec(1..12, |g| {
        (
            g.u32_in(0..20),
            g.f64_in(0.0..500.0),
            g.f64_in(0.0..std::f64::consts::TAU),
            g.usize_in(0..20),
        )
    })
}

/// The additional-coverage estimate `ac` a location-scheme state stands for.
fn ac(state: &PacketState) -> f64 {
    match state {
        PacketState::Uncovered(lattice) => lattice.additional_coverage(),
        other => panic!("location keeps the uncovered points, not {other:?}"),
    }
}

/// The `d_min` a distance-scheme state stands for.
fn d_min(state: &PacketState) -> f64 {
    match state {
        PacketState::MinDistance(d) => *d,
        other => panic!("distance keeps d_min, not {other:?}"),
    }
}

/// The pending set `T` a neighbor-coverage state stands for.
fn pending_set(state: &PacketState) -> Vec<NodeId> {
    match state {
        PacketState::Pending(t) => t.clone(),
        other => panic!("neighbor coverage keeps T, not {other:?}"),
    }
}

prop_check! {
    /// The counter scheme cancels exactly when the running count reaches
    /// the threshold evaluated at that moment.
    fn counter_cancels_exactly_at_threshold(g, cases = 64) {
        let seq = arrivals(g);
        let fx = Fixture::new();
        let threshold = CounterThreshold::paper_recommended();
        let spec = SchemeSpec::AdaptiveCounter(threshold);
        let first = &seq[0];
        let (decision, mut state) = spec.first_hear(&fx.ctx(first.3, first.0, first.1, first.2));
        assert_eq!(decision, FirstDecision::Schedule);
        let mut count = 1u32;
        for dup in &seq[1..] {
            let decision = spec.duplicate_hear(&mut state, &fx.ctx(dup.3, dup.0, dup.1, dup.2));
            count += 1;
            assert_eq!(state, PacketState::Count(count));
            let expected = if count < threshold.threshold(dup.3) {
                DuplicateDecision::Keep
            } else {
                DuplicateDecision::Cancel
            };
            assert_eq!(decision, expected);
            if decision == DuplicateDecision::Cancel {
                break;
            }
        }
    }

    /// The location scheme's coverage estimate never increases, and a
    /// Cancel decision implies it is below the threshold.
    fn location_coverage_is_monotone(g, cases = 64) {
        let seq = arrivals(g);
        let fx = Fixture::new();
        let spec = SchemeSpec::Location(0.05);
        let first = &seq[0];
        let (decision, mut state) = spec.first_hear(&fx.ctx(first.3, first.0, first.1, first.2));
        if decision == FirstDecision::Inhibit {
            assert!(ac(&state) < 0.05);
            return;
        }
        let mut prev = ac(&state);
        for dup in &seq[1..] {
            let decision = spec.duplicate_hear(&mut state, &fx.ctx(dup.3, dup.0, dup.1, dup.2));
            let ac = ac(&state);
            assert!(ac <= prev + 1e-12, "coverage grew: {prev} -> {ac}");
            prev = ac;
            match decision {
                DuplicateDecision::Cancel => {
                    assert!(ac < 0.05);
                    return;
                }
                DuplicateDecision::Keep => assert!(ac >= 0.05),
            }
        }
    }

    /// The distance scheme's minimum distance never increases and the
    /// decision matches the threshold test.
    fn distance_minimum_is_monotone(g, cases = 64) {
        let seq = arrivals(g);
        let threshold = g.f64_in(0.0..400.0);
        let fx = Fixture::new();
        let spec = SchemeSpec::Distance(threshold);
        let first = &seq[0];
        let (decision, mut state) = spec.first_hear(&fx.ctx(first.3, first.0, first.1, first.2));
        assert_eq!(
            decision == FirstDecision::Inhibit,
            d_min(&state) < threshold
        );
        if decision == FirstDecision::Inhibit {
            return;
        }
        let mut prev = d_min(&state);
        for dup in &seq[1..] {
            let decision = spec.duplicate_hear(&mut state, &fx.ctx(dup.3, dup.0, dup.1, dup.2));
            let d = d_min(&state);
            assert!(d <= prev + 1e-12);
            prev = d;
            assert_eq!(decision == DuplicateDecision::Cancel, d < threshold);
            if decision == DuplicateDecision::Cancel {
                return;
            }
        }
    }

    /// The neighbor-coverage pending set only shrinks, and cancellation
    /// happens exactly when it empties.
    fn neighbor_coverage_pending_shrinks(g, cases = 64) {
        let neighbors = g.u32_set(0..30, 1..10);
        let senders = g.vec(1..8, |g| (g.u32_in(0..30), g.u32_set(0..30, 0..6)));
        let mut fx = Fixture::new();
        fx.neighbors = neighbors.iter().map(|&i| NodeId::new(i)).collect();
        let spec = SchemeSpec::NeighborCoverage;

        let (first_sender, first_known) = &senders[0];
        fx.sender_neighbors = first_known.iter().map(|&i| NodeId::new(i)).collect();
        let ctx = HearContext {
            neighbor_count: fx.neighbors.len(),
            own_position: Vec2::ZERO,
            sender: NodeId::new(*first_sender),
            sender_position: Vec2::new(100.0, 0.0),
            neighbors: &fx.neighbors,
            sender_neighbors: &fx.sender_neighbors,
            random_unit: 0.5,
        };
        let (decision, mut state) = spec.first_hear(&ctx);
        let mut pending = pending_set(&state);
        assert_eq!(decision == FirstDecision::Inhibit, pending.is_empty());
        if pending.is_empty() {
            return;
        }
        // Pending is a subset of the announced neighborhood minus covered.
        for p in &pending {
            assert!(fx.neighbors.contains(p));
            assert!(*p != NodeId::new(*first_sender));
            assert!(!fx.sender_neighbors.contains(p));
        }
        for (sender, known) in &senders[1..] {
            fx.sender_neighbors = known.iter().map(|&i| NodeId::new(i)).collect();
            let ctx = HearContext {
                neighbor_count: fx.neighbors.len(),
                own_position: Vec2::ZERO,
                sender: NodeId::new(*sender),
                sender_position: Vec2::new(100.0, 0.0),
                neighbors: &fx.neighbors,
                sender_neighbors: &fx.sender_neighbors,
                    random_unit: 0.5,
            };
            let decision = spec.duplicate_hear(&mut state, &ctx);
            let next = pending_set(&state);
            assert!(next.len() <= pending.len(), "pending set grew");
            assert!(next.iter().all(|p| pending.contains(p)));
            assert_eq!(decision == DuplicateDecision::Cancel, next.is_empty());
            pending = next;
            if pending.is_empty() {
                return;
            }
        }
    }

    /// Every scheme survives an arbitrary arrival sequence without
    /// panicking and never un-cancels.
    fn all_schemes_are_total(g, cases = 64) {
        let seq = arrivals(g);
        let which = g.usize_in(0..7);
        let spec = match which {
            0 => SchemeSpec::Flooding,
            1 => SchemeSpec::Counter(3),
            2 => SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
            3 => SchemeSpec::Distance(80.0),
            4 => SchemeSpec::Location(0.0469),
            5 => SchemeSpec::AdaptiveLocation(AreaThreshold::paper_recommended()),
            _ => SchemeSpec::NeighborCoverage,
        };
        let mut fx = Fixture::new();
        fx.neighbors = (0..5).map(NodeId::new).collect();
        let first = &seq[0];
        let (decision, mut state) = spec.first_hear(&fx.ctx(first.3, first.0, first.1, first.2));
        if decision == FirstDecision::Inhibit {
            return;
        }
        for dup in &seq[1..] {
            if spec.duplicate_hear(&mut state, &fx.ctx(dup.3, dup.0, dup.1, dup.2))
                == DuplicateDecision::Cancel
            {
                break;
            }
        }
    }
}
