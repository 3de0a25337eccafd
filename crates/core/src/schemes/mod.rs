//! The broadcast schemes, and the [`SchemeSpec`] configuration type that
//! names them.

mod counter;
mod distance;
mod flooding;
mod location;
mod neighbor_coverage;
mod probabilistic;

pub use counter::CounterScheme;
pub use distance::DistanceScheme;
pub use flooding::Flooding;
pub use location::LocationScheme;
pub use neighbor_coverage::NeighborCoverageScheme;
pub use probabilistic::ProbabilisticScheme;

use crate::policy::{DuplicateDecision, FirstDecision, HearContext, RebroadcastPolicy};
use crate::threshold::{AreaThreshold, CounterThreshold};
use crate::trace::SuppressReason;

/// Which broadcast scheme a simulation runs, with its parameters.
///
/// `SchemeSpec` is the *configuration*; calling [`build`](Self::build)
/// creates the per-`(host, packet)` decision state.
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
#[derive(Debug, Clone)]
pub enum SchemeSpec {
    /// Blind flooding.
    Flooding,
    /// Counter-based with a fixed threshold `C` (from \[15\]).
    Counter(u32),
    /// The paper's adaptive counter-based scheme with threshold function
    /// `C(n)`.
    AdaptiveCounter(CounterThreshold),
    /// Distance-based with threshold `D` meters (from \[15\]).
    Distance(f64),
    /// Location-based with a fixed coverage threshold `A` (fraction of
    /// `πr²`, from \[15\]).
    Location(f64),
    /// The paper's adaptive location-based scheme with threshold function
    /// `A(n)`.
    AdaptiveLocation(AreaThreshold),
    /// The paper's neighbor-coverage scheme (two-hop HELLO knowledge).
    NeighborCoverage,
    /// Probabilistic (gossip) rebroadcasting with probability `P`
    /// (from \[15\]).
    Probabilistic(f64),
}

impl SchemeSpec {
    /// Creates the decision state for one packet at one host.
    pub fn build(&self) -> PacketPolicy {
        match self {
            SchemeSpec::Flooding => PacketPolicy::Flooding(Flooding),
            SchemeSpec::Counter(c) => {
                PacketPolicy::Counter(CounterScheme::new(CounterThreshold::fixed(*c)))
            }
            SchemeSpec::AdaptiveCounter(f) => PacketPolicy::Counter(CounterScheme::new(f.clone())),
            SchemeSpec::Distance(d) => PacketPolicy::Distance(DistanceScheme::new(*d)),
            SchemeSpec::Location(a) => {
                PacketPolicy::Location(LocationScheme::new(AreaThreshold::fixed(*a)))
            }
            SchemeSpec::AdaptiveLocation(f) => {
                PacketPolicy::Location(LocationScheme::new(f.clone()))
            }
            SchemeSpec::NeighborCoverage => {
                PacketPolicy::NeighborCoverage(NeighborCoverageScheme::new())
            }
            SchemeSpec::Probabilistic(p) => {
                PacketPolicy::Probabilistic(ProbabilisticScheme::new(*p))
            }
        }
    }

    /// Short label for tables and plots (`flooding`, `C=2`, `AC`,
    /// `A=0.0134`, `AL`, `NC`, …).
    pub fn label(&self) -> String {
        match self {
            SchemeSpec::Flooding => "flooding".to_string(),
            SchemeSpec::Counter(c) => format!("C={c}"),
            SchemeSpec::AdaptiveCounter(f) => f.label().to_string(),
            SchemeSpec::Distance(d) => format!("D={d}"),
            SchemeSpec::Location(a) => format!("A={a}"),
            SchemeSpec::AdaptiveLocation(f) => f.label().to_string(),
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

    /// Parses the CLI/campaign scheme syntax: `flooding`, `ac`, `al`,
    /// `nc`, `counter:C`, `distance:D`, `location:A`, or `prob:P`.
    ///
    /// This is the one shared grammar for every front end that names a
    /// scheme as a string — `manet-sim`, campaign job envelopes, service
    /// clients — so a job submitted over the wire selects exactly the
    /// scheme the CLI would.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem.
    ///
    /// # Examples
    ///
    /// ```
    /// use broadcast_core::SchemeSpec;
    ///
    /// assert_eq!(SchemeSpec::parse("counter:3").unwrap().label(), "C=3");
    /// assert_eq!(SchemeSpec::parse("ac").unwrap().label(), "AC");
    /// assert!(SchemeSpec::parse("bogus").is_err());
    /// ```
    pub fn parse(s: &str) -> Result<SchemeSpec, String> {
        if let Some((kind, arg)) = s.split_once(':') {
            return match kind {
                "counter" => arg
                    .parse::<u32>()
                    .map(SchemeSpec::Counter)
                    .map_err(|e| format!("bad counter threshold '{arg}': {e}")),
                "distance" => arg
                    .parse::<f64>()
                    .map(SchemeSpec::Distance)
                    .map_err(|e| format!("bad distance threshold '{arg}': {e}")),
                "location" => arg
                    .parse::<f64>()
                    .map(SchemeSpec::Location)
                    .map_err(|e| format!("bad coverage threshold '{arg}': {e}")),
                "prob" => arg
                    .parse::<f64>()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .map(SchemeSpec::Probabilistic)
                    .ok_or_else(|| format!("bad rebroadcast probability '{arg}' (want 0..=1)")),
                other => Err(format!("unknown parameterized scheme '{other}'")),
            };
        }
        match s {
            "flooding" => Ok(SchemeSpec::Flooding),
            "ac" => Ok(SchemeSpec::AdaptiveCounter(
                CounterThreshold::paper_recommended(),
            )),
            "al" => Ok(SchemeSpec::AdaptiveLocation(
                AreaThreshold::paper_recommended(),
            )),
            "nc" => Ok(SchemeSpec::NeighborCoverage),
            other => Err(format!(
                "unknown scheme '{other}' (try flooding, counter:2, ac, al, nc, prob:0.7)"
            )),
        }
    }
}

/// Per-packet decision state for whichever scheme is configured.
///
/// An enum rather than a boxed trait object: packets are created by the
/// hundreds of thousands in a full run, and static dispatch keeps the hot
/// path allocation-light.
#[derive(Debug)]
pub enum PacketPolicy {
    /// State for [`SchemeSpec::Flooding`].
    Flooding(Flooding),
    /// State for the fixed and adaptive counter-based schemes.
    Counter(CounterScheme),
    /// State for [`SchemeSpec::Distance`].
    Distance(DistanceScheme),
    /// State for the fixed and adaptive location-based schemes.
    Location(LocationScheme),
    /// State for [`SchemeSpec::NeighborCoverage`].
    NeighborCoverage(NeighborCoverageScheme),
    /// State for [`SchemeSpec::Probabilistic`].
    Probabilistic(ProbabilisticScheme),
}

impl PacketPolicy {
    /// The reason this policy gives when it suppresses a rebroadcast
    /// (S1 inhibit or S5 cancel). `None` for flooding, which never
    /// suppresses.
    ///
    /// Distance-based suppression reports
    /// [`SuppressReason::CoverageThreshold`]: the distance threshold is
    /// the paper's computation-cheap proxy for expected additional
    /// coverage.
    pub fn suppress_reason(&self) -> Option<SuppressReason> {
        match self {
            PacketPolicy::Flooding(_) => None,
            PacketPolicy::Counter(_) => Some(SuppressReason::CounterThreshold),
            PacketPolicy::Distance(_) | PacketPolicy::Location(_) => {
                Some(SuppressReason::CoverageThreshold)
            }
            PacketPolicy::NeighborCoverage(_) => Some(SuppressReason::NeighborCoverage),
            PacketPolicy::Probabilistic(_) => Some(SuppressReason::Probabilistic),
        }
    }
}

impl RebroadcastPolicy for PacketPolicy {
    fn on_first_hear(&mut self, ctx: &HearContext<'_>) -> FirstDecision {
        match self {
            PacketPolicy::Flooding(p) => p.on_first_hear(ctx),
            PacketPolicy::Counter(p) => p.on_first_hear(ctx),
            PacketPolicy::Distance(p) => p.on_first_hear(ctx),
            PacketPolicy::Location(p) => p.on_first_hear(ctx),
            PacketPolicy::NeighborCoverage(p) => p.on_first_hear(ctx),
            PacketPolicy::Probabilistic(p) => p.on_first_hear(ctx),
        }
    }

    fn on_duplicate_hear(&mut self, ctx: &HearContext<'_>) -> DuplicateDecision {
        match self {
            PacketPolicy::Flooding(p) => p.on_duplicate_hear(ctx),
            PacketPolicy::Counter(p) => p.on_duplicate_hear(ctx),
            PacketPolicy::Distance(p) => p.on_duplicate_hear(ctx),
            PacketPolicy::Location(p) => p.on_duplicate_hear(ctx),
            PacketPolicy::NeighborCoverage(p) => p.on_duplicate_hear(ctx),
            PacketPolicy::Probabilistic(p) => p.on_duplicate_hear(ctx),
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
        assert_eq!(SchemeSpec::Flooding.build().suppress_reason(), None);
        assert_eq!(
            SchemeSpec::Counter(2).build().suppress_reason(),
            Some(SuppressReason::CounterThreshold)
        );
        assert_eq!(
            SchemeSpec::Distance(40.0).build().suppress_reason(),
            Some(SuppressReason::CoverageThreshold)
        );
        assert_eq!(
            SchemeSpec::Location(0.0134).build().suppress_reason(),
            Some(SuppressReason::CoverageThreshold)
        );
        assert_eq!(
            SchemeSpec::NeighborCoverage.build().suppress_reason(),
            Some(SuppressReason::NeighborCoverage)
        );
        assert_eq!(
            SchemeSpec::Probabilistic(0.7).build().suppress_reason(),
            Some(SuppressReason::Probabilistic)
        );
    }

    #[test]
    fn build_produces_matching_state() {
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
            let mut policy = spec.build();
            // Every scheme yields *some* decision without panicking.
            let first = policy.on_first_hear(&fx.ctx());
            if first == FirstDecision::Schedule {
                let _ = policy.on_duplicate_hear(&fx.ctx());
            }
        }
    }
}
