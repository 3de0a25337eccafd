//! Property-based tests of the scheme decision state machines, driven as
//! pure functions over arbitrary duplicate sequences.

use std::rc::Rc;

use broadcast_core::policy::{DuplicateDecision, FirstDecision, HearContext};
use broadcast_core::{
    AreaThreshold, CounterThreshold, NeighborInfo, OracleView, PacketId, PacketState, PureAction,
    PureModels, SchemeSpec, SimConfig,
};
use manet_geom::Vec2;
use manet_net::HelloIntervalPolicy;
use manet_phy::NodeId;
use manet_sim_engine::{SimDuration, SimTime};
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

/// One spelling of each scheme family (`SchemeSpec::parse`).
const FAMILIES: [&str; 12] = [
    "flooding",
    "counter:3",
    "ac",
    "ac:ramp3",
    "ac:to4",
    "ac:4,12,convex",
    "distance:120",
    "location:0.0134",
    "al",
    "al:6,12",
    "nc",
    "prob:0.6",
];

/// A value a field may hold when nothing reads it: any finite number, or
/// a NaN or an infinity.
fn arbitrary(g: &mut Gen) -> f64 {
    match g.usize_in(0..4) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => g.f64_in(-5_000.0..5_000.0),
    }
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

    /// What a scheme does not read cannot move a decision: an `MTRC`
    /// trace writes a hear's positions and coin only where the run's
    /// [`Reads`](broadcast_core::Reads) says it reads them, and its reader
    /// hands zero for the rest. Two pure models of each scheme family, in
    /// HELLO and in oracle mode, step the same hears, except that one sees
    /// arbitrary values where the other's scheme reads nothing; every
    /// `first_hear` and `duplicate_hear` behind them decides the same.
    fn unread_hear_fields_never_move_a_decision(g, cases = 96) {
        let spelling = FAMILIES[g.usize_in(0..FAMILIES.len())];
        let scheme = SchemeSpec::parse(spelling).expect("a scheme spelling");
        let oracle = g.bool();
        let info = if oracle {
            NeighborInfo::Oracle
        } else {
            NeighborInfo::Hello(HelloIntervalPolicy::fixed_1s())
        };
        let hosts = 10u32;
        let config = SimConfig::builder(1, scheme.clone()).hosts(hosts).neighbor_info(info).build();
        let reads = config.reads();
        let (mut read, mut unread) = (PureModels::new(&config), PureModels::new(&config));
        let (mut fx_read, mut fx_unread) = (Vec::new(), Vec::new());
        let mut now = SimTime::ZERO;
        let sources: Vec<_> = (0..g.usize_in(1..4)).map(|_| NodeId::new(g.u32_in(0..hosts))).collect();
        let packet = |seq: usize| PacketId::new(sources[seq], seq as u32);
        for (seq, &node) in sources.iter().enumerate() {
            let originate = PureAction::Originate { node, packet: packet(seq) };
            read.step(now, &originate, &mut fx_read);
            unread.step(now, &originate, &mut fx_unread);
        }
        let ids = |set: std::collections::BTreeSet<u32>| -> Vec<NodeId> {
            set.into_iter().map(NodeId::new).collect()
        };
        for _ in 0..g.usize_in(1..40) {
            now += SimDuration::from_millis(g.u64_in(0..300));
            let node = NodeId::new(g.u32_in(0..hosts));
            let sender = NodeId::new((node.index() as u32 + g.u32_in(1..hosts)) % hosts);
            if reads.hello.is_some() && g.bool() {
                // A HELLO fills the hearer's table, so HELLO-mode counts and
                // lists are not all empty.
                let mut listed = g.u32_set(0..hosts, 0..6);
                listed.remove(&(sender.index() as u32));
                let listed: Rc<[NodeId]> = ids(listed).into();
                let hello = PureAction::HelloHeard {
                    hearers: &[node],
                    sender,
                    interval: SimDuration::from_secs(1),
                    neighbors: &listed,
                };
                read.step(now, &hello, &mut fx_read);
                unread.step(now, &hello, &mut fx_unread);
                continue;
            }
            let packet = packet(g.usize_in(0..sources.len()));
            let (own, theirs) = (ids(g.u32_set(0..hosts, 0..6)), ids(g.u32_set(0..hosts, 0..6)));
            let view = reads.oracle().then(|| OracleView {
                neighbor_count: own.len(),
                neighbors: &own,
                sender_neighbors: &theirs,
            });
            let positions = [g.f64_in(0.0..500.0), g.f64_in(0.0..500.0), g.f64_in(0.0..500.0), g.f64_in(0.0..500.0)];
            let coin = g.f64_in(0.0..1.0);
            let hear = |positions: [f64; 4], coin| PureAction::PacketHeard {
                node,
                packet,
                sender,
                sender_position: Vec2::new(positions[0], positions[1]),
                own_position: Vec2::new(positions[2], positions[3]),
                random_unit: coin,
                oracle: view,
            };
            let other = if reads.positions {
                positions
            } else {
                [arbitrary(g), arbitrary(g), arbitrary(g), arbitrary(g)]
            };
            let other_coin = if reads.coin { coin } else { arbitrary(g) };
            fx_read.clear();
            fx_unread.clear();
            read.step(now, &hear(positions, coin), &mut fx_read);
            unread.step(now, &hear(other, other_coin), &mut fx_unread);
            assert_eq!(fx_read, fx_unread, "{spelling}, oracle {oracle}");
        }
        assert_eq!(read.suppression(), unread.suppression(), "{spelling}, oracle {oracle}");
    }
}
