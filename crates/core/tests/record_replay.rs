//! Action-level record/replay: a live run's `MTRC` trace must replay
//! through the pure models alone (no queue, no medium, no RNG) and
//! re-derive the identical decision stream; recording must not perturb
//! the run; and the trace's decision tallies must equal the live
//! suppression counters.

use broadcast_core::trace::{DecisionKind, SuppressReason};
use broadcast_core::{
    replay_decisions, ChurnKind, CounterThreshold, ReplayError, Scenario, SchemeSpec, SimConfig,
    SimReport, SuppressionCounts, TraceFile, TraceRecord, World,
};
use manet_sim_engine::SimTime;

fn config(scheme: SchemeSpec, seed: u64) -> SimConfig {
    SimConfig::builder(3, scheme)
        .hosts(40)
        .broadcasts(15)
        .seed(seed)
        .build()
}

fn all_schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::Flooding,
        SchemeSpec::Counter(3),
        SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
        SchemeSpec::Distance(40.0),
        SchemeSpec::Location(0.4),
        SchemeSpec::AdaptiveLocation(broadcast_core::AreaThreshold::paper_recommended()),
        SchemeSpec::NeighborCoverage,
        SchemeSpec::Probabilistic(0.6),
    ]
}

/// Runs `config` with recording armed; returns the trace and the report.
fn record_run(config: SimConfig) -> (Vec<u8>, SimReport) {
    let mut world = World::new(config);
    world.enable_recording();
    world.advance(SimTime::MAX);
    let trace = world.take_trace().expect("recording was armed");
    (trace, world.into_report())
}

#[test]
fn every_scheme_replays_through_pure_models() {
    for scheme in all_schemes() {
        let (trace, report) = record_run(config(scheme.clone(), 11));
        let summary = replay_decisions(&trace)
            .unwrap_or_else(|e| panic!("replay failed for {scheme:?}: {e}"));
        assert!(summary.actions > 0, "{scheme:?} recorded no actions");
        assert_eq!(
            summary.decisions,
            report.suppression.scheduled
                + report.suppression.inhibited_first_hear
                + report.suppression.cancelled,
            "{scheme:?}: replayed decision count != live decision count",
        );
    }
}

#[test]
fn recording_does_not_perturb_the_run() {
    for scheme in [
        SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
        SchemeSpec::NeighborCoverage,
    ] {
        let silent = World::new(config(scheme.clone(), 5)).run();
        let (_, recorded) = record_run(config(scheme.clone(), 5));
        assert_eq!(
            format!("{silent:?}"),
            format!("{recorded:?}"),
            "{scheme:?}: recording changed the run",
        );
    }
}

#[test]
fn traces_are_byte_deterministic() {
    let (a, _) = record_run(config(SchemeSpec::Counter(3), 17));
    let (b, _) = record_run(config(SchemeSpec::Counter(3), 17));
    assert_eq!(a, b);
}

/// The decision stream in the trace, tallied the same way the live
/// metrics tally effects, must reproduce the report's suppression
/// counters exactly — live accounting and the recording channel cannot
/// drift apart.
#[test]
fn trace_decision_tallies_match_live_suppression_counts() {
    for scheme in all_schemes() {
        let (trace, report) = record_run(config(scheme.clone(), 23));
        let file = TraceFile::decode(&trace).expect("trace decodes");
        let mut replayed = SuppressionCounts::default();
        for record in &file.records {
            let TraceRecord::Decision(d) = record else {
                continue;
            };
            match d.kind {
                DecisionKind::Scheduled => replayed.scheduled += 1,
                DecisionKind::InhibitedOnFirstHear => replayed.inhibited_first_hear += 1,
                DecisionKind::Cancelled => replayed.cancelled += 1,
            }
            match d.reason {
                None => {}
                Some(SuppressReason::CounterThreshold) => replayed.counter_threshold += 1,
                Some(SuppressReason::CoverageThreshold) => replayed.coverage_threshold += 1,
                Some(SuppressReason::NeighborCoverage) => replayed.neighbor_coverage += 1,
                Some(SuppressReason::Probabilistic) => replayed.probabilistic += 1,
            }
        }
        assert_eq!(
            replayed, report.suppression,
            "{scheme:?}: trace tallies diverge from live counters",
        );
    }
}

/// Churn exercises the remaining action kinds (neighbor expiry on leave,
/// counter retirement on crash); the trace must still replay cleanly.
#[test]
fn churn_scenario_trace_replays() {
    let scenario = Scenario::new("record-churn")
        .with_hosts(40)
        .churn(SimTime::from_secs(1), ChurnKind::Leave, 3)
        .churn(SimTime::from_secs(2), ChurnKind::Crash, 11)
        .churn(SimTime::from_secs(4), ChurnKind::Join, 3)
        .churn(SimTime::from_secs(6), ChurnKind::Recover, 11)
        .noise(SimTime::from_secs(3), SimTime::from_secs(8), 0.2);
    let config = SimConfig::builder(3, SchemeSpec::NeighborCoverage)
        .hosts(40)
        .broadcasts(15)
        .scenario(scenario)
        .seed(29)
        .build();
    let (trace, report) = record_run(config);
    let summary = replay_decisions(&trace).expect("churn trace replays");
    assert!(summary.actions > 0);
    assert_eq!(
        summary.decisions,
        report.suppression.scheduled
            + report.suppression.inhibited_first_hear
            + report.suppression.cancelled,
    );
}

/// A tampered trace must be rejected, not replay quietly: truncation is
/// a wire error, and a forged trailing decision (one the pure models
/// never derived) is a replay mismatch.
#[test]
fn corrupted_traces_are_rejected() {
    let (trace, _) = record_run(config(SchemeSpec::Counter(3), 31));

    let truncated = &trace[..trace.len() - 3];
    assert!(
        replay_decisions(truncated).is_err(),
        "truncated trace replayed cleanly",
    );

    // Forge a Cancelled decision nobody made, about the first packet (an
    // unissued `seq` would already fail to decode): tag=1, time u64,
    // node u32, packet (source u32, seq u32), kind u8, reason u8 — all
    // little-endian, matching the writer.
    let mut forged = trace.clone();
    forged.push(1);
    forged.extend_from_slice(&1_000_000u64.to_le_bytes());
    forged.extend_from_slice(&0u32.to_le_bytes());
    forged.extend_from_slice(&0u32.to_le_bytes());
    forged.extend_from_slice(&0u32.to_le_bytes());
    forged.push(2);
    forged.push(0);
    assert!(
        matches!(replay_decisions(&forged), Err(ReplayError::Mismatch { .. })),
        "forged decision replayed cleanly",
    );
}
