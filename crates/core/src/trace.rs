//! The vocabulary of scheme decisions: what a host decided about a
//! pending rebroadcast ([`DecisionKind`]) and which criterion made it
//! suppress ([`SuppressReason`]). The `MTRC` action trace
//! ([`crate::record`]) records one of each per decision, and
//! [`SuppressionCounts`](crate::SuppressionCounts) tallies them in the
//! report.
//!
//! # Examples
//!
//! ```
//! use broadcast_core::trace::{DecisionKind, SuppressReason};
//! use broadcast_core::{SchemeSpec, SimConfig, TraceFile, TraceRecord, World};
//! use manet_sim_engine::SimTime;
//!
//! let config = SimConfig::builder(3, SchemeSpec::Counter(2))
//!     .hosts(15)
//!     .broadcasts(2)
//!     .seed(9)
//!     .build();
//! let mut world = World::new(config);
//! world.enable_recording();
//! world.advance(SimTime::MAX);
//! let bytes = world.take_trace().unwrap();
//! // The trace is read in one pass, a record at a time.
//! let mut trace = TraceFile::open(&bytes).unwrap();
//! let mut cancels = 0;
//! while let Some(record) = trace.next_record().unwrap() {
//!     // The counter scheme cancels for exactly one reason.
//!     if let TraceRecord::Decision(d) = record {
//!         if d.kind == DecisionKind::Cancelled {
//!             assert_eq!(d.reason, Some(SuppressReason::CounterThreshold));
//!             cancels += 1;
//!         }
//!     }
//! }
//! assert_eq!(cancels, world.into_report().suppression.cancelled);
//! ```

/// A scheme-level decision about a pending rebroadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// S1 scheduled a rebroadcast (assessment delay started).
    Scheduled,
    /// S1 declined immediately.
    InhibitedOnFirstHear,
    /// S4/S5 cancelled the pending rebroadcast after a duplicate.
    Cancelled,
}

/// Why a scheme suppressed a rebroadcast (the S1-inhibit or S5-cancel
/// criterion that fired).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuppressReason {
    /// Counter-based: the packet was heard `C(n)` or more times.
    CounterThreshold,
    /// Distance/location-based: expected additional coverage (or the
    /// distance proxy for it) fell below the threshold.
    CoverageThreshold,
    /// Neighbor-coverage: every known neighbor is already covered.
    NeighborCoverage,
    /// Gossip: the probabilistic draw declined.
    Probabilistic,
}

/// The second argument of the hidden `World::advance_until` shim, kept
/// only because the frozen `perfbench/src/workloads/{world,record_resume}.rs`
/// name it; it goes with the shim (ROADMAP 1(f)).
#[doc(hidden)]
#[derive(Debug)]
pub struct NoopObserver;
