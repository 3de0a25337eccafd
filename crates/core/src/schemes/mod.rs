//! The broadcast schemes. [`SchemeSpec`] names one scheme with its
//! parameters — one value per world — and owns the S1/S4 decision logic;
//! [`PacketState`] is the one variable a scheme keeps per packet.

use std::fmt::{self, Display};

use manet_geom::{CoverageGrid, Vec2};
use manet_mobility::PAPER_RADIO_RADIUS_M;
use manet_phy::NodeId;
use manet_scenario::quote;

use crate::config::COVERAGE_RESOLUTION;
use crate::policy::{DuplicateDecision, FirstDecision, HearContext};
use crate::threshold::{number, AreaThreshold, CounterThreshold};
use crate::trace::SuppressReason;

/// Which broadcast scheme a simulation runs, with its parameters.
///
/// `SchemeSpec` is the run's *configuration* and its decision procedure:
/// [`first_hear`](Self::first_hear) creates the per-`(host, packet)`
/// [`PacketState`] and [`duplicate_hear`](Self::duplicate_hear) updates it.
/// Thresholds are read from `self` at every hear, never copied per packet.
///
/// # Examples
///
/// ```
/// use broadcast_core::{CounterThreshold, SchemeSpec};
///
/// let spec = SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended());
/// assert_eq!(spec.label(), "AC");
/// assert!(!spec.needs_two_hop_hellos());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeSpec {
    /// Blind flooding — the baseline that *causes* the broadcast storm:
    /// every host rebroadcasts every packet exactly once, unconditionally
    /// (§2.2: "A host, on receiving a broadcast packet for the first time,
    /// has the obligation to rebroadcast the packet"). Its `SRB` is 0 by
    /// construction; in dense networks its reachability *drops* because of
    /// contention and collision — the storm.
    Flooding,
    /// Counter-based with a fixed threshold `C ≥ 2` (from \[15\]): count
    /// how many times the same packet has been heard (`c`,
    /// [`PacketState::Count`]) and cancel the pending rebroadcast once `c`
    /// reaches `C`.
    Counter(u32),
    /// The paper's **adaptive counter-based scheme (AC)**, §3.1: the same
    /// counter against the threshold function `C(n)`, re-evaluated against
    /// the host's *current* neighbor count at every duplicate, so a host
    /// whose neighborhood changes mid-wait adapts on the fly.
    AdaptiveCounter(CounterThreshold),
    /// Distance-based with threshold `D` meters (from \[15\]) — an extra
    /// baseline. The closer a receiver is to the nearest transmitter it
    /// has heard the packet from, the smaller the extra area its own
    /// rebroadcast could cover; the scheme tracks the minimum such
    /// distance `d_min` ([`PacketState::MinDistance`]) and cancels once
    /// `d_min < D`.
    Distance(f64),
    /// Location-based with a fixed coverage threshold `A` (fraction of
    /// `πr²`, from \[15\]). Assumes each host knows its position (GPS) and
    /// that packets carry the transmitter's position. The receiver
    /// computes the *additional coverage* `ac` its own rebroadcast would
    /// provide — the part of its disk no heard transmitter has covered —
    /// and suppresses once `ac < A`.
    ///
    /// The estimate is maintained **incrementally**
    /// ([`PacketState::Uncovered`]): on the first copy the host takes the
    /// lattice of its own disk and clears the points the sender covers;
    /// every duplicate clears more. The surviving fraction is exactly the
    /// grid estimate of [`CoverageGrid::additional_fraction`] at the
    /// position of the first hear, one
    /// [`cover`](CoverageGrid::cover) per copy.
    Location(f64),
    /// The paper's **adaptive location-based scheme (AL)**, §3.2: the same
    /// estimate against the threshold function `A(n)` at the host's
    /// current neighbor count.
    AdaptiveLocation(AreaThreshold),
    /// The paper's neighbor-coverage scheme (§3.3) — adaptivity without
    /// GPS. Host `x` keeps a set `T` of *pending* neighbors that, to its
    /// knowledge, have not yet received the packet
    /// ([`PacketState::Pending`]). On the first copy from `h`:
    /// `T = N_x − N_{x,h} − {h}` (everything `h` covered is done). Every
    /// further copy from some `h'` subtracts `N_{x,h'} ∪ {h'}`. The pending
    /// rebroadcast survives only while `T` is non-empty.
    ///
    /// Accuracy depends on how fresh the HELLO-derived `N_x` / `N_{x,h}`
    /// sets are — which is exactly the trade-off the paper's dynamic hello
    /// interval addresses (§4.3).
    NeighborCoverage,
    /// Probabilistic (gossip) rebroadcasting (from \[15\]) — another fixed
    /// baseline. On first hearing a packet, rebroadcast with probability
    /// `P` (and stay silent with probability `1 − P`); duplicates change
    /// nothing. `P = 1` degenerates to flooding. Like the other fixed
    /// schemes it cannot adapt: a `P` that saves well in dense networks
    /// strands hosts in sparse ones. The uniform sample is supplied by the
    /// simulation through [`HearContext::random_unit`], so the decision
    /// stays a pure function of its inputs.
    Probabilistic(f64),
}

/// The variable a scheme keeps for one packet at one host while the
/// rebroadcast is pending (the paper's `c`, `d_min`, `ac`, `T`).
///
/// Plain data: the host's ledger stores it, an `MSNP` snapshot writes it as
/// is, and only [`SchemeSpec::first_hear`] / [`SchemeSpec::duplicate_hear`]
/// give it meaning. It is dropped once the packet is on the air or
/// cancelled.
#[derive(Debug, Clone, PartialEq)]
pub enum PacketState {
    /// Flooding and probabilistic: duplicates change nothing.
    Stateless,
    /// Counter-based: copies of the packet heard so far (the paper's `c`).
    Count(u32),
    /// Distance-based: the smallest distance to any heard transmitter.
    MinDistance(f64),
    /// Location-based: what is left of the host's own disk.
    Uncovered(Box<Lattice>),
    /// Neighbor coverage: the pending set `T`, strictly ascending.
    Pending(Vec<NodeId>),
}

/// The simulator's coverage estimator, built at compile time: a world
/// that runs no location scheme pays nothing for it.
pub(crate) static COVERAGE: CoverageGrid = CoverageGrid::new(COVERAGE_RESOLUTION);

/// The sample lattice of one host's disk, as laid down where the host
/// first heard the packet: the lattice points no heard transmitter has
/// covered yet.
#[derive(Debug, Clone, PartialEq)]
pub struct Lattice {
    /// Where the host was at the first hear; the lattice stays there.
    pub(crate) center: Vec2,
    /// Per lattice column, the rows still uncovered
    /// ([`CoverageGrid::disk`] to start with).
    pub(crate) columns: [u64; COVERAGE_RESOLUTION],
}

impl Lattice {
    /// The additional coverage `ac`: the share of the disk's sample
    /// points still uncovered.
    pub fn additional_coverage(&self) -> f64 {
        COVERAGE.fraction(&self.columns)
    }

    /// Clears the sample points a transmitter at `sender` covers and
    /// returns what is left, the additional coverage `ac`.
    fn cover(&mut self, sender: Vec2) -> f64 {
        COVERAGE.cover(self.center, PAPER_RADIO_RADIUS_M, &mut self.columns, sender);
        self.additional_coverage()
    }
}

impl SchemeSpec {
    /// S1: the first copy of the packet arrived. Returns the verdict and
    /// the state to keep while the rebroadcast is pending.
    pub fn first_hear(&self, ctx: &HearContext<'_>) -> (FirstDecision, PacketState) {
        // Every stateful scheme starts from "nothing heard yet" and then
        // treats the first sender exactly like a duplicate's.
        let mut state = match self {
            SchemeSpec::Flooding | SchemeSpec::Probabilistic(_) => PacketState::Stateless,
            SchemeSpec::Counter(_) | SchemeSpec::AdaptiveCounter(_) => PacketState::Count(0),
            SchemeSpec::Distance(_) => PacketState::MinDistance(f64::INFINITY),
            // One allocation per first hear, 400 bytes.
            SchemeSpec::Location(_) | SchemeSpec::AdaptiveLocation(_) => {
                let mut columns = [0; COVERAGE_RESOLUTION];
                columns.copy_from_slice(COVERAGE.disk());
                PacketState::Uncovered(Box::new(Lattice {
                    center: ctx.own_position,
                    columns,
                }))
            }
            // One allocation per first hear: T = N_x is the packet's state.
            SchemeSpec::NeighborCoverage => PacketState::Pending(ctx.neighbors.to_vec()),
        };
        let suppress = match self {
            SchemeSpec::Probabilistic(p) => ctx.random_unit >= *p,
            _ => self.absorb(&mut state, ctx),
        };
        let decision = if suppress {
            FirstDecision::Inhibit
        } else {
            FirstDecision::Schedule
        };
        (decision, state)
    }

    /// S4: another copy arrived while the rebroadcast was still pending.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not the variant this scheme's
    /// [`first_hear`](Self::first_hear) returns.
    pub fn duplicate_hear(
        &self,
        state: &mut PacketState,
        ctx: &HearContext<'_>,
    ) -> DuplicateDecision {
        if self.absorb(state, ctx) {
            DuplicateDecision::Cancel
        } else {
            DuplicateDecision::Keep
        }
    }

    /// Folds the copy heard from `ctx.sender` into `state`; `true` when
    /// the scheme's suppression criterion now holds, tested against the
    /// threshold at the host's *current* neighbor count.
    fn absorb(&self, state: &mut PacketState, ctx: &HearContext<'_>) -> bool {
        let n = ctx.neighbor_count;
        match (self, state) {
            (SchemeSpec::Flooding | SchemeSpec::Probabilistic(_), PacketState::Stateless) => false,
            // c += 1; suppress unless c < C(n). Thresholds are at least 2,
            // so the first hearing (c = 1) never inhibits by itself.
            (SchemeSpec::Counter(threshold), PacketState::Count(c)) => {
                *c += 1;
                *c >= *threshold
            }
            (SchemeSpec::AdaptiveCounter(f), PacketState::Count(c)) => {
                *c += 1;
                *c >= f.threshold(n)
            }
            (SchemeSpec::Distance(threshold_m), PacketState::MinDistance(d_min)) => {
                *d_min = d_min.min(ctx.own_position.distance_to(ctx.sender_position));
                *d_min < *threshold_m
            }
            (SchemeSpec::Location(a), PacketState::Uncovered(lattice)) => {
                lattice.cover(ctx.sender_position) < *a
            }
            (SchemeSpec::AdaptiveLocation(f), PacketState::Uncovered(lattice)) => {
                lattice.cover(ctx.sender_position) < f.threshold(n)
            }
            (SchemeSpec::NeighborCoverage, PacketState::Pending(pending)) => {
                // T = T − N_{x,h} − {h} as one merge pass: T and the
                // context's neighbor slices are all ascending.
                let mut covered = ctx.sender_neighbors.iter().peekable();
                pending.retain(|&p| {
                    while covered.next_if(|&&c| c < p).is_some() {}
                    p != ctx.sender && covered.peek() != Some(&&p)
                });
                pending.is_empty()
            }
            (scheme, state) => unreachable!("{state:?} is not the packet state of {scheme:?}"),
        }
    }

    /// The reason this scheme gives when it suppresses a rebroadcast
    /// (S1 inhibit or S5 cancel). `None` for flooding, which never
    /// suppresses.
    ///
    /// Distance-based suppression reports
    /// [`SuppressReason::CoverageThreshold`]: the distance threshold is
    /// the paper's computation-cheap proxy for expected additional
    /// coverage.
    pub fn suppress_reason(&self) -> Option<SuppressReason> {
        match self {
            SchemeSpec::Flooding => None,
            SchemeSpec::Counter(_) | SchemeSpec::AdaptiveCounter(_) => {
                Some(SuppressReason::CounterThreshold)
            }
            SchemeSpec::Distance(_) | SchemeSpec::Location(_) | SchemeSpec::AdaptiveLocation(_) => {
                Some(SuppressReason::CoverageThreshold)
            }
            SchemeSpec::NeighborCoverage => Some(SuppressReason::NeighborCoverage),
            SchemeSpec::Probabilistic(_) => Some(SuppressReason::Probabilistic),
        }
    }

    /// Checks the parameters against the ranges the decision logic
    /// assumes. Called once wherever a scheme enters the program
    /// ([`parse`](Self::parse), `SimConfig::validate`, the `MTRC` header
    /// decoder), so no hear ever meets an out-of-range threshold.
    ///
    /// # Errors
    ///
    /// Names the offending parameter: a counter threshold below 2, a
    /// negative or non-finite distance, a coverage fraction or probability
    /// outside `[0, 1]`, or an `A(n)` ramp without `0 < n1 < n2`.
    pub fn validate(&self) -> Result<(), String> {
        fn require(ok: bool, what: &str, got: impl Display, want: &str) -> Result<(), String> {
            ok.then_some(())
                .ok_or_else(|| format!("{what} {got} is not {want}"))
        }
        let fraction = |what, v: f64| require((0.0..=1.0).contains(&v), what, v, "within 0..=1");
        match self {
            // The threshold families' constructors admit no parameter
            // out of range.
            SchemeSpec::Flooding
            | SchemeSpec::NeighborCoverage
            | SchemeSpec::AdaptiveCounter(_)
            | SchemeSpec::AdaptiveLocation(_) => Ok(()),
            SchemeSpec::Counter(c) => require(*c >= 2, "counter threshold", c, "at least 2"),
            SchemeSpec::Distance(d) => require(
                d.is_finite() && *d >= 0.0,
                "distance threshold",
                d,
                "a finite, non-negative number of meters",
            ),
            SchemeSpec::Location(a) => fraction("coverage threshold", *a),
            SchemeSpec::Probabilistic(p) => fraction("rebroadcast probability", *p),
        }
    }

    /// Short label for tables and plots (`flooding`, `C=2`, `AC`,
    /// `A=0.0134`, `AL`, `NC`, …).
    pub fn label(&self) -> String {
        match self {
            SchemeSpec::Flooding => "flooding".to_string(),
            SchemeSpec::Counter(c) => format!("C={c}"),
            SchemeSpec::AdaptiveCounter(f) => f.label(),
            SchemeSpec::Distance(d) => format!("D={d}"),
            SchemeSpec::Location(a) => format!("A={a}"),
            SchemeSpec::AdaptiveLocation(f) => f.label(),
            SchemeSpec::NeighborCoverage => "NC".to_string(),
            SchemeSpec::Probabilistic(p) => format!("P={p}"),
        }
    }

    /// `true` when the scheme's decisions read the neighbor count `n`,
    /// i.e. neighbor discovery must run.
    pub fn needs_neighbor_count(&self) -> bool {
        matches!(
            self,
            SchemeSpec::AdaptiveCounter(_) | SchemeSpec::AdaptiveLocation(_)
        )
    }

    /// `true` when HELLOs must carry the sender's neighbor list (two-hop
    /// knowledge) — only the neighbor-coverage scheme needs this.
    pub fn needs_two_hop_hellos(&self) -> bool {
        matches!(self, SchemeSpec::NeighborCoverage)
    }

    /// Parses the one scheme grammar of every front end (`manet-sim`,
    /// campaign jobs, config text), which `Display` writes: `flooding`,
    /// `nc`, `counter:C` (`C ≥ 2`), `distance:D` (meters, `D ≥ 0`),
    /// `location:A` or `prob:P` (both in `0..=1`); `ac`, `al` and the rest
    /// of their families: `ac:rampK`, `ac:toN1`, `ac:N1,N2,SHAPE`
    /// (Figs 5, 6) and `al:N1,N2` (Figs 8, 9). A constant threshold is
    /// spelled `counter:C` or `location:A` only.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem, an
    /// out-of-range parameter ([`validate`](Self::validate)) included.
    ///
    /// # Examples
    ///
    /// ```
    /// use broadcast_core::SchemeSpec;
    ///
    /// assert_eq!(SchemeSpec::parse("counter:3").unwrap().label(), "C=3");
    /// assert_eq!(SchemeSpec::parse("ac").unwrap().label(), "AC");
    /// let convex = SchemeSpec::parse("ac:4,12,convex").unwrap();
    /// assert_eq!(convex.label(), "n1=4,n2=12,convex");
    /// assert_eq!(convex.to_string(), "ac:4,12,convex");
    /// assert!(SchemeSpec::parse("bogus").is_err());
    /// assert!(SchemeSpec::parse("counter:1").is_err());
    /// ```
    pub fn parse(s: &str) -> Result<SchemeSpec, String> {
        let spec = match s.split_once(':') {
            Some(("counter", arg)) => SchemeSpec::Counter(number("counter threshold", arg)?),
            Some(("distance", arg)) => SchemeSpec::Distance(number("distance threshold", arg)?),
            Some(("location", arg)) => SchemeSpec::Location(number("coverage threshold", arg)?),
            Some(("prob", arg)) => {
                SchemeSpec::Probabilistic(number("rebroadcast probability", arg)?)
            }
            Some(("ac", arg)) => SchemeSpec::AdaptiveCounter(CounterThreshold::parse(arg)?),
            Some(("al", arg)) => SchemeSpec::AdaptiveLocation(AreaThreshold::parse(arg)?),
            Some((other, _)) => {
                return Err(format!("unknown parameterized scheme {}", quote(other)))
            }
            None => match s {
                "flooding" => SchemeSpec::Flooding,
                "ac" => SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
                "al" => SchemeSpec::AdaptiveLocation(AreaThreshold::paper_recommended()),
                "nc" => SchemeSpec::NeighborCoverage,
                other => {
                    return Err(format!(
                        "unknown scheme {} (try flooding, counter:2, ac, al, nc, prob:0.7)",
                        quote(other)
                    ))
                }
            },
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// The spelling [`SchemeSpec::parse`] reads back: equal spellings name
/// equal schemes, and no spelling holds `=` or whitespace.
impl fmt::Display for SchemeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeSpec::Flooding => f.write_str("flooding"),
            SchemeSpec::Counter(c) => write!(f, "counter:{c}"),
            SchemeSpec::AdaptiveCounter(t) => t.fmt(f),
            SchemeSpec::Distance(d) => write!(f, "distance:{d}"),
            SchemeSpec::Location(a) => write!(f, "location:{a}"),
            SchemeSpec::AdaptiveLocation(t) => t.fmt(f),
            SchemeSpec::NeighborCoverage => f.write_str("nc"),
            SchemeSpec::Probabilistic(p) => write!(f, "prob:{p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_support::CtxFixture;

    #[test]
    fn labels_are_stable() {
        assert_eq!(SchemeSpec::Flooding.label(), "flooding");
        assert_eq!(SchemeSpec::Counter(2).label(), "C=2");
        assert_eq!(SchemeSpec::Location(0.0134).label(), "A=0.0134");
        assert_eq!(SchemeSpec::NeighborCoverage.label(), "NC");
        assert_eq!(
            SchemeSpec::AdaptiveLocation(AreaThreshold::adaptive(6, 12)).label(),
            "AL(6,12)"
        );
    }

    #[test]
    fn parse_covers_every_scheme_family() {
        assert_eq!(SchemeSpec::parse("flooding").unwrap().label(), "flooding");
        assert_eq!(SchemeSpec::parse("counter:4").unwrap().label(), "C=4");
        assert_eq!(SchemeSpec::parse("ac").unwrap().label(), "AC");
        assert_eq!(SchemeSpec::parse("distance:250").unwrap().label(), "D=250");
        assert_eq!(
            SchemeSpec::parse("location:0.0134").unwrap().label(),
            "A=0.0134"
        );
        assert_eq!(SchemeSpec::parse("al").unwrap().label(), "AL");
        assert_eq!(SchemeSpec::parse("nc").unwrap().label(), "NC");
        assert_eq!(SchemeSpec::parse("prob:0.7").unwrap().label(), "P=0.7");
        assert!(SchemeSpec::parse("bogus").is_err());
        assert!(SchemeSpec::parse("counter:x").is_err());
        assert!(SchemeSpec::parse("prob:1.5").is_err(), "probability range");
        assert!(SchemeSpec::parse("frob:1").is_err());
    }

    /// The ranges the per-packet constructors used to `assert!` at the
    /// first hear are refused where the scheme enters, naming the
    /// parameter.
    #[test]
    fn out_of_range_parameters_are_refused_by_name() {
        for (spec, names) in [
            ("counter:1", "counter threshold 1"),
            ("counter:0", "counter threshold 0"),
            ("distance:-3", "distance threshold -3"),
            ("distance:nan", "distance threshold NaN"),
            ("distance:inf", "distance threshold inf"),
            ("location:2", "coverage threshold 2"),
            ("location:-0.1", "coverage threshold -0.1"),
            ("location:nan", "coverage threshold NaN"),
            ("prob:1.5", "rebroadcast probability 1.5"),
        ] {
            let err = SchemeSpec::parse(spec).expect_err(spec);
            assert!(err.contains(names), "{spec}: {err}");
        }
        for ok in [
            "counter:2",
            "distance:0",
            "location:0",
            "location:1",
            "prob:0",
            "prob:1",
        ] {
            assert!(SchemeSpec::parse(ok).is_ok(), "{ok}");
        }
        // The threshold families are refused where they are spelled, by
        // the parameter out of range.
        for (spec, names) in [
            ("al:0,12", "n1=0"),
            ("al:12,12", "n2=12"),
            ("al:6", "unknown coverage threshold \"6\""),
            // A constant threshold is `counter:C` or `location:A` only.
            (
                "al:fixed0.0469",
                "unknown coverage threshold \"fixed0.0469\"",
            ),
            ("ac:fixed3", "unknown counter threshold \"fixed3\""),
            ("ac:ramp0", "slope denominator"),
            ("ac:to0", "n1 must be positive"),
            ("ac:5,5,linear", "n2=5"),
            ("ac:4,12,wavy", "descent shape \"wavy\""),
            ("ac:4,x,linear", "bad n2 \"x\""),
            ("ac:4,12", "unknown counter threshold"),
        ] {
            let err = SchemeSpec::parse(spec).expect_err(spec);
            assert!(err.contains(names), "{spec}: {err}");
        }
        for ok in ["al:6,12", "ac:ramp1", "ac:to1", "ac:1,2,concave"] {
            assert!(SchemeSpec::parse(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn capability_flags() {
        assert!(
            SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended())
                .needs_neighbor_count()
        );
        assert!(!SchemeSpec::Counter(2).needs_neighbor_count());
        assert!(SchemeSpec::NeighborCoverage.needs_two_hop_hellos());
    }

    #[test]
    fn suppress_reasons_follow_the_scheme_family() {
        assert_eq!(SchemeSpec::Flooding.suppress_reason(), None);
        assert_eq!(
            SchemeSpec::Counter(2).suppress_reason(),
            Some(SuppressReason::CounterThreshold)
        );
        assert_eq!(
            SchemeSpec::Distance(40.0).suppress_reason(),
            Some(SuppressReason::CoverageThreshold)
        );
        assert_eq!(
            SchemeSpec::Location(0.0134).suppress_reason(),
            Some(SuppressReason::CoverageThreshold)
        );
        assert_eq!(
            SchemeSpec::NeighborCoverage.suppress_reason(),
            Some(SuppressReason::NeighborCoverage)
        );
        assert_eq!(
            SchemeSpec::Probabilistic(0.7).suppress_reason(),
            Some(SuppressReason::Probabilistic)
        );
    }

    /// Every ledger entry carries a `PacketState`: the lattice lives
    /// behind its box so counter and `nc` worlds do not pay for it.
    #[test]
    fn the_lattice_does_not_widen_packet_state() {
        // 32 bytes while the location state was a point list and a count.
        assert!(size_of::<PacketState>() <= 32);
        assert_eq!(size_of::<Lattice>(), 16 + 8 * COVERAGE_RESOLUTION);
    }

    #[test]
    fn first_hear_produces_matching_state() {
        let fx = CtxFixture::default();
        for spec in [
            SchemeSpec::Flooding,
            SchemeSpec::Counter(3),
            SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
            SchemeSpec::Distance(40.0),
            SchemeSpec::Location(0.0134),
            SchemeSpec::AdaptiveLocation(AreaThreshold::paper_recommended()),
            SchemeSpec::NeighborCoverage,
            SchemeSpec::Probabilistic(0.7),
        ] {
            // Every scheme yields *some* decision, and accepts the state
            // it made, without panicking.
            let (first, mut state) = spec.first_hear(&fx.ctx());
            if first == FirstDecision::Schedule {
                let _ = spec.duplicate_hear(&mut state, &fx.ctx());
            }
        }
    }
}

// The per-family unit tests keep the module paths they had while each
// family was a file of its own (`schemes::counter::tests::…`), so their
// test ids did not move when the files were folded into this one.

#[cfg(test)]
mod flooding {
    mod tests {
        use crate::policy::test_support::CtxFixture;
        use crate::schemes::*;

        #[test]
        fn never_suppresses() {
            let fx = CtxFixture::default();
            let spec = SchemeSpec::Flooding;
            let (first, mut state) = spec.first_hear(&fx.ctx());
            assert_eq!(first, FirstDecision::Schedule);
            assert_eq!(state, PacketState::Stateless);
            for _ in 0..20 {
                assert_eq!(
                    spec.duplicate_hear(&mut state, &fx.ctx()),
                    DuplicateDecision::Keep
                );
            }
        }
    }
}

#[cfg(test)]
mod counter {
    mod tests {
        use crate::policy::test_support::CtxFixture;
        use crate::schemes::*;

        #[test]
        fn fixed_threshold_cancels_at_c() {
            let fx = CtxFixture::default();
            let spec = SchemeSpec::Counter(3);
            let (first, mut state) = spec.first_hear(&fx.ctx());
            assert_eq!(first, FirstDecision::Schedule);
            assert_eq!(state, PacketState::Count(1));
            // c = 2 < 3: keep. c = 3: cancel.
            assert_eq!(
                spec.duplicate_hear(&mut state, &fx.ctx()),
                DuplicateDecision::Keep
            );
            assert_eq!(
                spec.duplicate_hear(&mut state, &fx.ctx()),
                DuplicateDecision::Cancel
            );
            assert_eq!(state, PacketState::Count(3));
        }

        #[test]
        fn lowest_threshold_cancels_on_first_duplicate() {
            let fx = CtxFixture::default();
            let spec = SchemeSpec::Counter(2);
            let (first, mut state) = spec.first_hear(&fx.ctx());
            assert_eq!(first, FirstDecision::Schedule);
            assert_eq!(
                spec.duplicate_hear(&mut state, &fx.ctx()),
                DuplicateDecision::Cancel
            );
        }

        #[test]
        fn adaptive_threshold_tracks_neighbor_count() {
            // With few neighbors AC tolerates many duplicates; with many it
            // cancels fast.
            let mut sparse = CtxFixture {
                neighbor_count: 2, // C(2) = 3
                ..CtxFixture::default()
            };
            let spec = SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended());
            let (_, mut state) = spec.first_hear(&sparse.ctx());
            assert_eq!(
                spec.duplicate_hear(&mut state, &sparse.ctx()),
                DuplicateDecision::Keep
            );
            // The neighborhood becomes crowded mid-wait: C(20) = 2 <= c = 3.
            sparse.neighbor_count = 20;
            assert_eq!(
                spec.duplicate_hear(&mut state, &sparse.ctx()),
                DuplicateDecision::Cancel
            );
        }

        #[test]
        fn sparse_host_with_adaptive_threshold_persists() {
            // n = 1 -> C = 2? paper_recommended: C(1) = 2. n = 3 -> C(3) = 4:
            // survives two duplicates.
            let fx = CtxFixture {
                neighbor_count: 3,
                ..CtxFixture::default()
            };
            let spec = SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended());
            let (_, mut state) = spec.first_hear(&fx.ctx());
            let mut dup = || spec.duplicate_hear(&mut state, &fx.ctx());
            assert_eq!(dup(), DuplicateDecision::Keep);
            assert_eq!(dup(), DuplicateDecision::Keep);
            assert_eq!(dup(), DuplicateDecision::Cancel);
        }
    }
}

#[cfg(test)]
mod distance {
    mod tests {
        use crate::policy::test_support::CtxFixture;
        use crate::schemes::*;

        fn d_min(state: &PacketState) -> f64 {
            match state {
                PacketState::MinDistance(d) => *d,
                other => panic!("distance keeps d_min, not {other:?}"),
            }
        }

        #[test]
        fn close_first_sender_inhibits() {
            let fx = CtxFixture {
                sender_position: Vec2::new(50.0, 0.0),
                ..CtxFixture::default()
            };
            let (first, _) = SchemeSpec::Distance(100.0).first_hear(&fx.ctx());
            assert_eq!(first, FirstDecision::Inhibit);
        }

        #[test]
        fn far_sender_schedules_then_close_duplicate_cancels() {
            let mut fx = CtxFixture {
                sender_position: Vec2::new(450.0, 0.0),
                ..CtxFixture::default()
            };
            let spec = SchemeSpec::Distance(100.0);
            let (first, mut state) = spec.first_hear(&fx.ctx());
            assert_eq!(first, FirstDecision::Schedule);
            assert!((d_min(&state) - 450.0).abs() < 1e-9);
            // A duplicate from far away keeps the rebroadcast alive…
            fx.sender_position = Vec2::new(0.0, 400.0);
            assert_eq!(
                spec.duplicate_hear(&mut state, &fx.ctx()),
                DuplicateDecision::Keep
            );
            // …but one from next door kills it.
            fx.sender_position = Vec2::new(30.0, 0.0);
            assert_eq!(
                spec.duplicate_hear(&mut state, &fx.ctx()),
                DuplicateDecision::Cancel
            );
            assert!((d_min(&state) - 30.0).abs() < 1e-9);
        }

        #[test]
        fn zero_threshold_never_suppresses() {
            let fx = CtxFixture {
                sender_position: Vec2::ZERO, // co-located sender, d = 0
                ..CtxFixture::default()
            };
            let spec = SchemeSpec::Distance(0.0);
            let (first, mut state) = spec.first_hear(&fx.ctx());
            assert_eq!(first, FirstDecision::Schedule);
            assert_eq!(
                spec.duplicate_hear(&mut state, &fx.ctx()),
                DuplicateDecision::Keep
            );
        }
    }
}

#[cfg(test)]
mod location {
    mod tests {
        use crate::policy::test_support::CtxFixture;
        use crate::schemes::*;
        use manet_geom::additional_coverage_two;
        use std::f64::consts::PI;

        /// The additional-coverage estimate `ac` a state stands for.
        fn ac(state: &PacketState) -> f64 {
            match state {
                PacketState::Uncovered(lattice) => lattice.additional_coverage(),
                other => panic!("location keeps the uncovered points, not {other:?}"),
            }
        }

        #[test]
        fn first_hear_matches_two_circle_form() {
            let fx = CtxFixture {
                sender_position: Vec2::new(400.0, 0.0),
                ..CtxFixture::default()
            };
            let (first, state) = SchemeSpec::Location(0.0134).first_hear(&fx.ctx());
            assert_eq!(first, FirstDecision::Schedule);
            let exact = additional_coverage_two(400.0, 500.0) / (PI * 500.0 * 500.0);
            assert!(
                (ac(&state) - exact).abs() < 0.01,
                "ac {} vs exact {exact}",
                ac(&state)
            );
        }

        #[test]
        fn colocated_sender_inhibits_immediately() {
            let fx = CtxFixture {
                sender_position: Vec2::ZERO,
                ..CtxFixture::default()
            };
            let (first, state) = SchemeSpec::Location(0.0134).first_hear(&fx.ctx());
            assert_eq!(first, FirstDecision::Inhibit);
            assert_eq!(ac(&state), 0.0);
        }

        #[test]
        fn duplicates_erode_coverage_until_cancel() {
            // Senders at distance 450 in three directions leave less and less.
            let mut fx = CtxFixture {
                sender_position: Vec2::new(450.0, 0.0),
                ..CtxFixture::default()
            };
            let spec = SchemeSpec::Location(0.3);
            let (first, mut state) = spec.first_hear(&fx.ctx());
            assert_eq!(first, FirstDecision::Schedule);
            let after_one = ac(&state);
            fx.sender_position = Vec2::new(-450.0, 0.0);
            let d1 = spec.duplicate_hear(&mut state, &fx.ctx());
            let after_two = ac(&state);
            assert!(after_two < after_one);
            if d1 == DuplicateDecision::Keep {
                fx.sender_position = Vec2::new(0.0, 450.0);
                let _ = spec.duplicate_hear(&mut state, &fx.ctx());
                fx.sender_position = Vec2::new(0.0, -450.0);
                assert_eq!(
                    spec.duplicate_hear(&mut state, &fx.ctx()),
                    DuplicateDecision::Cancel
                );
            }
        }

        #[test]
        fn adaptive_threshold_forces_rebroadcast_when_sparse() {
            // n <= n1 = 6: A(n) = 0, so even a nearly covered host schedules.
            let fx = CtxFixture {
                neighbor_count: 3,
                sender_position: Vec2::new(20.0, 0.0), // tiny ac
                ..CtxFixture::default()
            };
            let spec = SchemeSpec::AdaptiveLocation(AreaThreshold::paper_recommended());
            let (first, state) = spec.first_hear(&fx.ctx());
            assert_eq!(first, FirstDecision::Schedule);
            // Only exactly-zero coverage can inhibit at A(n) = 0.
            assert!(ac(&state) > 0.0);
        }

        #[test]
        fn adaptive_threshold_suppresses_when_dense() {
            // n >= n2 = 12: A(n) = 0.187; a sender at 250 m leaves ~39% > 0.187
            // (keep), but a second opposite sender drops it below.
            let mut fx = CtxFixture {
                neighbor_count: 15,
                sender_position: Vec2::new(250.0, 0.0),
                ..CtxFixture::default()
            };
            let spec = SchemeSpec::AdaptiveLocation(AreaThreshold::paper_recommended());
            let (first, mut state) = spec.first_hear(&fx.ctx());
            assert_eq!(first, FirstDecision::Schedule);
            fx.sender_position = Vec2::new(-250.0, 0.0);
            assert_eq!(
                spec.duplicate_hear(&mut state, &fx.ctx()),
                DuplicateDecision::Cancel
            );
        }
    }
}

#[cfg(test)]
mod neighbor_coverage {
    mod tests {
        use crate::policy::test_support::CtxFixture;
        use crate::schemes::*;

        const NC: SchemeSpec = SchemeSpec::NeighborCoverage;

        fn id(i: u32) -> NodeId {
            NodeId::new(i)
        }

        #[test]
        fn sender_covering_everyone_inhibits() {
            // x's neighbors {1, 2, h}; h claims neighbors {1, 2, x}: T empty.
            let fx = CtxFixture {
                sender: id(9),
                neighbors: vec![id(1), id(2), id(9)],
                sender_neighbors: vec![id(0), id(1), id(2)],
                ..CtxFixture::default()
            };
            assert_eq!(NC.first_hear(&fx.ctx()).0, FirstDecision::Inhibit);
        }

        #[test]
        fn uncovered_neighbor_keeps_rebroadcast_alive() {
            // Host 3 is x's neighbor but not h's: T = {3}.
            let fx = CtxFixture {
                sender: id(9),
                neighbors: vec![id(1), id(3), id(9)],
                sender_neighbors: vec![id(1)],
                ..CtxFixture::default()
            };
            let (first, state) = NC.first_hear(&fx.ctx());
            assert_eq!(first, FirstDecision::Schedule);
            assert_eq!(state, PacketState::Pending(vec![id(3)]));
        }

        #[test]
        fn duplicates_whittle_down_pending_set() {
            let mut fx = CtxFixture {
                sender: id(9),
                neighbors: vec![id(1), id(2), id(3), id(9)],
                sender_neighbors: vec![id(1)],
                ..CtxFixture::default()
            };
            let (first, mut state) = NC.first_hear(&fx.ctx());
            assert_eq!(first, FirstDecision::Schedule);
            assert_eq!(state, PacketState::Pending(vec![id(2), id(3)]));
            // A duplicate from host 2 (whose neighbors include nobody new):
            fx.sender = id(2);
            fx.sender_neighbors = vec![];
            assert_eq!(
                NC.duplicate_hear(&mut state, &fx.ctx()),
                DuplicateDecision::Keep
            );
            assert_eq!(state, PacketState::Pending(vec![id(3)]));
            // A duplicate whose sender covers host 3:
            fx.sender = id(7);
            fx.sender_neighbors = vec![id(3)];
            assert_eq!(
                NC.duplicate_hear(&mut state, &fx.ctx()),
                DuplicateDecision::Cancel
            );
        }

        #[test]
        fn isolated_host_inhibits() {
            // No neighbors at all: nothing to cover.
            let fx = CtxFixture {
                sender: id(9),
                neighbors: vec![id(9)],
                sender_neighbors: vec![],
                ..CtxFixture::default()
            };
            assert_eq!(NC.first_hear(&fx.ctx()).0, FirstDecision::Inhibit);
        }

        #[test]
        fn stale_knowledge_errs_toward_rebroadcasting() {
            // h actually covers host 2, but x's record of N_{x,h} is stale and
            // omits it: x rebroadcasts anyway (redundant but safe).
            let fx = CtxFixture {
                sender: id(9),
                neighbors: vec![id(2), id(9)],
                sender_neighbors: vec![], // stale: h's real neighbors unknown
                ..CtxFixture::default()
            };
            assert_eq!(NC.first_hear(&fx.ctx()).0, FirstDecision::Schedule);
        }
    }
}

#[cfg(test)]
mod probabilistic {
    mod tests {
        use crate::policy::test_support::CtxFixture;
        use crate::schemes::*;

        #[test]
        #[allow(clippy::field_reassign_with_default)]
        fn decision_follows_the_supplied_sample() {
            let mut fx = CtxFixture::default();
            let spec = SchemeSpec::Probabilistic(0.6);
            fx.random_unit = 0.59;
            assert_eq!(spec.first_hear(&fx.ctx()).0, FirstDecision::Schedule);
            fx.random_unit = 0.61;
            assert_eq!(spec.first_hear(&fx.ctx()).0, FirstDecision::Inhibit);
        }

        #[test]
        fn extremes_behave_like_flooding_and_silence() {
            let fx = CtxFixture {
                random_unit: 0.999_999,
                ..CtxFixture::default()
            };
            let always = SchemeSpec::Probabilistic(1.0);
            assert_eq!(always.first_hear(&fx.ctx()).0, FirstDecision::Schedule);
            let fx = CtxFixture {
                random_unit: 0.0,
                ..CtxFixture::default()
            };
            let never = SchemeSpec::Probabilistic(0.0);
            assert_eq!(never.first_hear(&fx.ctx()).0, FirstDecision::Inhibit);
        }

        #[test]
        fn duplicates_never_cancel() {
            let fx = CtxFixture {
                random_unit: 0.0,
                ..CtxFixture::default()
            };
            let spec = SchemeSpec::Probabilistic(0.9);
            let (first, mut state) = spec.first_hear(&fx.ctx());
            assert_eq!(first, FirstDecision::Schedule);
            for _ in 0..5 {
                assert_eq!(
                    spec.duplicate_hear(&mut state, &fx.ctx()),
                    DuplicateDecision::Keep
                );
            }
        }

        #[test]
        fn bad_probability_is_refused() {
            let err = SchemeSpec::Probabilistic(1.5).validate().unwrap_err();
            assert!(err.contains("probability 1.5 is not within"), "{err}");
        }
    }
}
