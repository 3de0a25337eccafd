//! What a run lets you observe without a debugger: the decoded `MTRC`
//! action trace must tell one causal story per packet and agree with the
//! run report, and the report's own counters must match each scheme's
//! semantics.

use std::collections::{BTreeMap, BTreeSet};

use broadcast_core::{
    CounterThreshold, PacketId, PureAction, SchemeSpec, SimConfig, SimReport, TraceFile,
    TraceRecord, World,
};
use manet_sim_engine::SimTime;

fn config(scheme: SchemeSpec) -> SimConfig {
    SimConfig::builder(3, scheme)
        .hosts(25)
        .broadcasts(8)
        .seed(77)
        .build()
}

/// Runs `config` with recording armed, hands `visit` each record of the
/// trace in order, and returns the report.
fn recorded_run(config: SimConfig, mut visit: impl FnMut(TraceRecord<'_>)) -> SimReport {
    let mut world = World::new(config);
    world.enable_recording();
    world.advance(SimTime::MAX);
    let trace = world.take_trace().expect("recording was armed");
    let mut file = TraceFile::open(&trace).expect("a live trace opens");
    while let Some(record) = file.next_record().expect("a live trace decodes") {
        visit(record);
    }
    world.into_report()
}

#[test]
fn counters_agree_with_the_report() {
    let (mut originated, mut sent) = (0, 0);
    let scheme = SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended());
    let report = recorded_run(config(scheme), |record| match record {
        TraceRecord::Action {
            action: PureAction::Originate { .. },
            ..
        } => originated += 1,
        TraceRecord::Action {
            action: PureAction::FrameSent { .. },
            ..
        } => sent += 1,
        _ => {}
    });

    assert_eq!(originated, u64::from(report.broadcasts));
    assert_eq!(sent, report.data_frames);
    assert_eq!(
        report.collisions,
        report.losses.overlap + report.losses.capture,
        "the paper-comparable collision figure is the contention share"
    );
    // Every scheduled rebroadcast either transmits or is cancelled; the
    // source frames are extra.
    assert!(report.suppression.scheduled >= report.suppression.cancelled);
    assert!(
        sent <= report.suppression.scheduled + originated,
        "every data frame is a source frame or a scheduled rebroadcast"
    );
}

#[test]
fn flooding_never_inhibits_or_cancels() {
    let report = World::new(config(SchemeSpec::Flooding)).run();
    assert_eq!(report.suppression.inhibited_first_hear, 0);
    assert_eq!(report.suppression.cancelled, 0);
    let first_hears: u32 = report.per_broadcast.iter().map(|o| o.received).sum();
    assert_eq!(report.suppression.scheduled, u64::from(first_hears));
}

#[test]
fn counter_scheme_cancels_in_dense_networks() {
    let report = World::new(config(SchemeSpec::Counter(2))).run();
    assert!(
        report.suppression.cancelled > 0,
        "C=2 must cancel on a 3x3 map"
    );
    assert_eq!(
        report.suppression.inhibited_first_hear, 0,
        "the counter scheme never inhibits on first hear"
    );
}

#[test]
fn report_suppressions_carry_reasons_and_the_profile_names_event_kinds() {
    let cfg = SimConfig::builder(3, SchemeSpec::Counter(2))
        .hosts(25)
        .broadcasts(8)
        .seed(77)
        .profile_events(true)
        .build();
    let report = World::new(cfg).run();

    assert_eq!(
        report.suppression.counter_threshold
            + report.suppression.coverage_threshold
            + report.suppression.neighbor_coverage
            + report.suppression.probabilistic,
        report.suppression.inhibited_first_hear + report.suppression.cancelled,
        "every suppression carries its reason"
    );
    assert!(report.mac.backoff_draws > 0, "the run transmitted frames");
    assert!(report.mac.enqueued >= report.data_frames);

    let profile = report.profile.expect("profiling was enabled");
    assert!(profile.events > 0);
    assert!(
        profile.kinds.iter().any(|k| k.kind == "tx_end"),
        "wall time is attributed to event kinds"
    );
}

#[test]
fn profile_is_absent_by_default() {
    let report = World::new(config(SchemeSpec::Flooding)).run();
    assert!(report.profile.is_none());
}

#[test]
fn packet_timelines_are_causal() {
    // Per packet: has its `Originate` been seen, and who has heard it.
    let mut timelines: BTreeMap<PacketId, BTreeSet<_>> = BTreeMap::new();
    let mut last = SimTime::ZERO;
    let report = recorded_run(config(SchemeSpec::Counter(3)), |record| {
        // Times never decrease along the trace, so neither along any packet.
        let at = match record {
            TraceRecord::Action { at, .. } => at,
            TraceRecord::Decision(d) => d.at,
        };
        assert!(last <= at, "{record:?} after {last}");
        last = at;
        match record {
            TraceRecord::Action { action, .. } => match action {
                PureAction::Originate { node, packet } => {
                    assert_eq!(node, packet.source);
                    let fresh = timelines.insert(packet, BTreeSet::new()).is_none();
                    assert!(fresh, "{packet} originated twice");
                }
                PureAction::PacketHeard { node, packet, .. } => {
                    let hearers = timelines.get_mut(&packet);
                    hearers
                        .unwrap_or_else(|| panic!("{packet} heard before its Originate"))
                        .insert(node);
                }
                PureAction::AssessmentFired { packet, .. }
                | PureAction::FrameSent { packet, .. } => {
                    assert!(timelines.contains_key(&packet), "{packet} before Originate");
                }
                _ => {}
            },
            // A decision requires a prior hear at that host.
            TraceRecord::Decision(d) => assert!(
                timelines
                    .get(&d.packet)
                    .is_some_and(|h| h.contains(&d.node)),
                "decision {:?} at {} before it heard {}",
                d.kind,
                d.node,
                d.packet
            ),
        }
    });

    // The hosts that heard a packet, its source aside, are its receivers.
    assert_eq!(timelines.len(), report.per_broadcast.len());
    for outcome in &report.per_broadcast {
        let mut hearers = timelines[&outcome.packet].clone();
        hearers.remove(&outcome.packet.source);
        assert_eq!(hearers.len() as u32, outcome.received);
    }
}

#[test]
fn hello_frames_appear_for_adaptive_schemes_only() {
    let report = World::new(config(SchemeSpec::Counter(3))).run();
    assert_eq!(report.hello_packets, 0);

    let report = World::new(config(SchemeSpec::NeighborCoverage)).run();
    assert!(report.hello_packets > 0);
}

#[test]
fn decision_kinds_match_scheme_semantics() {
    // Neighbor coverage inhibits on first hear (empty pending set) but the
    // counter scheme never does; both can cancel.
    let report = World::new(config(SchemeSpec::NeighborCoverage)).run();
    assert!(
        report.suppression.inhibited_first_hear > 0,
        "NC on a dense map should inhibit some hosts outright"
    );
}
