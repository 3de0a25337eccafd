//! # broadcast-core
//!
//! A faithful reproduction of *"Adaptive Approaches to Relieving Broadcast
//! Storms in a Wireless Multihop Mobile Ad Hoc Network"* (Tseng, Ni, Shih;
//! ICDCS 2001 / IEEE ToC 52(5) 2003).
//!
//! Naive flooding in a CSMA/CA ad hoc network causes the **broadcast
//! storm problem** — redundant rebroadcasts, medium contention, and
//! collisions that *reduce* reachability. This crate implements every
//! scheme the paper studies on top of a discrete-event IEEE 802.11 DCF
//! simulation:
//!
//! | Scheme | Spec | Idea |
//! |---|---|---|
//! | Flooding | [`SchemeSpec::Flooding`] | everyone rebroadcasts once |
//! | Counter-based | [`SchemeSpec::Counter`] | cancel after hearing the packet `C` times |
//! | **Adaptive counter (AC)** | [`SchemeSpec::AdaptiveCounter`] | threshold `C(n)` from the live neighbor count |
//! | Distance-based | [`SchemeSpec::Distance`] | cancel when a transmitter was too close |
//! | Location-based | [`SchemeSpec::Location`] | cancel when additional coverage < `A` |
//! | **Adaptive location (AL)** | [`SchemeSpec::AdaptiveLocation`] | threshold `A(n)` |
//! | **Neighbor coverage (NC)** | [`SchemeSpec::NeighborCoverage`] | rebroadcast only while some neighbor is uncovered (two-hop HELLO knowledge) |
//!
//! plus the paper's **dynamic hello interval**
//! ([`manet_net::DynamicHelloParams`], wired via
//! [`NeighborInfo::Hello`]).
//!
//! # Quick start
//!
//! ```
//! use broadcast_core::{CounterThreshold, SchemeSpec, SimConfig, World};
//!
//! // The paper's adaptive counter-based scheme on a 3x3 map.
//! let config = SimConfig::builder(
//!     3,
//!     SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
//! )
//! .hosts(30)
//! .broadcasts(5)
//! .seed(42)
//! .build();
//!
//! let report = World::new(config).run();
//! println!(
//!     "RE = {:.3}, SRB = {:.3}, latency = {:.4} s",
//!     report.reachability, report.saved_rebroadcasts, report.avg_latency_s,
//! );
//! # assert!(report.reachability > 0.0);
//! ```
//!
//! # Crate map
//!
//! * [`threshold`] — the `C(n)` / `A(n)` function families (Figs 3, 4, 6, 8).
//! * [`schemes`] — the seven schemes' S1/S4 decision logic and the plain
//!   per-packet state it keeps.
//! * [`policy`] — the hear context and verdicts the decisions speak in.
//! * [`pure`] — the pure protocol models (actions in, effects out).
//! * [`world`] — the effectful dispatcher (queue, RNG, channel, MAC, workload).
//! * [`record`] — the action-level `MTRC` trace format and pure replay.
//! * [`metrics`] — RE, SRB, and latency, as defined in §4.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cancel;
mod config;
mod ids;
mod ledger;
pub mod metrics;
pub mod policy;
pub mod pure;
pub mod record;
pub mod schemes;
pub mod threshold;
pub mod trace;
pub mod world;

pub use cancel::CancelToken;
pub use config::{
    CaptureConfig, MobilitySpec, NeighborInfo, PlacementSpec, Reads, SimConfig, SimConfigBuilder,
    View,
};
pub use ids::PacketId;
// Report-embedded types from the lower layers, re-exported so downstream
// crates can consume a `SimReport` without depending on phy/mac directly.
pub use manet_mac::MacStats;
pub use manet_phy::{LossCause, LossCounters};
pub use manet_scenario::{ChurnKind, Region, Scenario, ScenarioError, WorldAction};
pub use manet_sim_engine::{KindProfile, LoopProfile};
pub use metrics::{
    latency_summary, summarize, BroadcastOutcome, LatencySummary, MetricsCollector, NetActivity,
    ScenarioCounts, SimReport, SuppressionCounts,
};
pub use policy::{DuplicateDecision, FirstDecision, HearContext};
pub use pure::{Effect, OracleView, PureAction, PureModels};
pub use record::{
    first_divergence, replay_decisions, Agreed, DecisionRecord, Divergence, ReplayError,
    ReplaySummary, TraceFile, TraceRecord, TraceWriter, TRACE_MAGIC, TRACE_VERSION,
};
pub use schemes::{Lattice, PacketState, SchemeSpec};
pub use threshold::{
    AreaThreshold, CounterThreshold, DescentShape, EAC2_FRACTION, MIN_COUNTER_THRESHOLD,
};
pub use world::snapshot;
pub use world::World;
