//! What `replay_decisions` refuses: a truncated `MTRC` trace, cut at any
//! byte (a wire error), and a forged decision the pure models never
//! derived (a replay mismatch); that every scheme's trace, whose reader
//! hands the pure models zero for each field the scheme does not read,
//! replays to the recorded decisions; and what a trace costs per hear. That every live
//! trace replays cleanly, byte-deterministically and with tallies equal to
//! the live suppression counters is the generated property in the root
//! `tests/equivalence.rs`.

use broadcast_core::{
    replay_decisions, NeighborInfo, PureAction, ReplayError, Scenario, SchemeSpec, SimConfig,
    TraceFile, TraceRecord, TraceWriter, World,
};
use manet_geom::Vec2;
use manet_net::HelloIntervalPolicy;
use manet_sim_engine::{SimTime, WireEncoder, WireError};

/// The trace of a whole run of `config`, and the run's decision count.
fn recorded(config: SimConfig) -> (Vec<u8>, u64) {
    let mut world = World::new(config);
    world.enable_recording();
    world.advance(SimTime::MAX);
    let trace = world.take_trace().expect("recording was armed");
    let s = world.into_report().suppression;
    (trace, s.scheduled + s.inhibited_first_hear + s.cancelled)
}

#[test]
fn corrupted_traces_are_rejected() {
    let config = SimConfig::builder(3, SchemeSpec::Counter(3))
        .hosts(40)
        .broadcasts(15)
        .seed(31)
        .build();
    let (trace, _) = recorded(config);

    let truncated = &trace[..trace.len() - 3];
    assert!(
        replay_decisions(truncated).is_err(),
        "truncated trace replayed cleanly",
    );

    // Forge a hear of the first packet at host 1 from host 0, a second
    // after the last action, and a Cancelled decision (counter reason)
    // nobody made about it: tag 4, then Δt, node, seq and sender as
    // LEB128, then the decision's tag, 0x80 | kind 2 << 3 | reason 1; and
    // an end record that counts them.
    let records = records_of(&trace);
    let end = end_record(records);
    let mut forged = WireEncoder::new();
    forged.u8(4);
    for field in [1_000_000_000, 1, 0, 0] {
        forged.uvarint(field);
    }
    forged.u8(0x80 | 2 << 3 | 1);
    let body = &trace[..trace.len() - end.len()];
    let forged = [body, forged.as_slice(), &end_record(records + 2)].concat();
    assert!(
        matches!(replay_decisions(&forged), Err(ReplayError::Mismatch { .. })),
        "forged decision replayed cleanly",
    );
}

/// How many records `trace` holds before its end.
fn records_of(trace: &[u8]) -> u64 {
    let mut file = TraceFile::open(trace).expect("a live trace opens");
    let mut records = 0;
    while file.next_record().expect("a live trace reads").is_some() {
        records += 1;
    }
    records
}

/// The end record closing a trace of `records` records.
fn end_record(records: u64) -> Vec<u8> {
    let mut enc = WireEncoder::new();
    enc.u8(0x7f);
    enc.uvarint(records);
    enc.into_bytes()
}

/// A trace ends with a record that counts the records before it, so a
/// cut at any byte, between two records as well as inside one, is a
/// decode error, never a shorter trace that replays.
#[test]
fn a_trace_cut_at_any_byte_is_refused() {
    let config = SimConfig::builder(3, SchemeSpec::parse("ac").expect("a scheme spelling"))
        .hosts(20)
        .broadcasts(2)
        .seed(7)
        .build();
    let (trace, _) = recorded(config);
    assert!(replay_decisions(&trace).is_ok());
    let header = TraceWriter::new(&TraceFile::open(&trace).expect("opens").config)
        .into_bytes()
        .len()
        - end_record(0).len();
    assert!(records_of(&trace) > 100, "a trace of many records");
    for cut in 0..trace.len() {
        match replay_decisions(&trace[..cut]) {
            Err(ReplayError::Wire(WireError { at, .. })) => {
                assert!(cut < header || at <= cut, "cut at {cut}: refused at {at}")
            }
            other => panic!("cut at {cut} of {}: {other:?}", trace.len()),
        }
    }
}

/// Each of the eight schemes, under HELLO and oracle neighbor info: the
/// trace writes a hear's positions and coin only where the scheme reads
/// them, and a view exactly when the run reads one from geometry
/// ([`Reads::oracle`](broadcast_core::Reads::oracle)); the reader hands
/// zero for the rest, and replay through the pure
/// models alone re-derives every recorded decision. A scheme that reads a
/// field gets it back as recorded: not all zero.
#[test]
fn every_scheme_replays_from_what_its_trace_writes() {
    for spelling in [
        "flooding",
        "counter:3",
        "ac",
        "distance:120",
        "location:0.0134",
        "al",
        "nc",
        "prob:0.6",
    ] {
        let scheme = SchemeSpec::parse(spelling).expect("a scheme spelling");
        let hello = NeighborInfo::Hello(HelloIntervalPolicy::fixed_1s());
        for info in [hello, NeighborInfo::Oracle] {
            let leg = format!("{spelling} under {info:?}");
            let config = SimConfig::builder(3, scheme.clone())
                .hosts(25)
                .broadcasts(6)
                .neighbor_info(info)
                .seed(77)
                .build();
            let reads = config.reads();
            let (trace, decided) = recorded(config);
            let replayed = replay_decisions(&trace).unwrap_or_else(|e| panic!("{leg}: {e}"));
            assert_eq!(replayed.decisions, decided, "{leg}");
            assert!(
                decided > 0,
                "{leg}: a run that decides nothing shows nothing"
            );

            let (mut positions, mut coins) = (Vec::new(), Vec::new());
            let mut file = TraceFile::open(&trace).expect("a live trace opens");
            while let Some(record) = file.next_record().expect("a live trace reads") {
                if let TraceRecord::Action {
                    action:
                        PureAction::PacketHeard {
                            sender_position,
                            own_position,
                            random_unit,
                            oracle: view,
                            ..
                        },
                    ..
                } = record
                {
                    positions.extend([sender_position, own_position]);
                    coins.push(random_unit);
                    assert_eq!(view.is_some(), reads.oracle(), "{leg}: a hear's view");
                }
            }
            let zero = |p: &Vec2| *p == Vec2::ZERO;
            assert_eq!(
                positions.iter().all(zero),
                !reads.positions,
                "{leg}: positions"
            );
            assert_eq!(coins.iter().all(|&c| c == 0.0), !reads.coin, "{leg}: coins");
        }
    }
}

/// Body bytes (after the header) per hear of the trace of `config`: per
/// record, where a HELLO frame's record counts once for each hearer (as
/// v5 wrote one record per hearer).
fn bytes_per_hear(config: SimConfig) -> f64 {
    let header = TraceWriter::new(&config).into_bytes().len();
    let (trace, _) = recorded(config);
    let mut file = TraceFile::open(&trace).expect("a live trace opens");
    let mut hears = 0;
    while let Some(record) = file.next_record().expect("a live trace reads") {
        hears += match record {
            TraceRecord::Action {
                action: PureAction::HelloHeard { hearers, .. },
                ..
            } => hearers.len(),
            _ => 1,
        };
    }
    (trace.len() - header) as f64 / hears as f64
}

/// A gate that fails `cargo test`, not only a bench row, when a change
/// fattens the trace: bytes per hear of two fixed runs, each bounded by
/// its measured value plus 10 %. The churn script CI records under `nc`
/// (v6: 2.46; v5 wrote 4.64 and v4 26.9), whose HELLOs spell out lists;
/// and a 1×1 `ac` run, the densest map, where nearly every hear is a
/// HELLO heard again (v6: 1.18; v5: 4.02; v4: 20.1). Writing a hear's
/// positions back, absolute times, or a record per HELLO hearer moves
/// either past its bound.
#[test]
fn a_trace_spends_a_few_bytes_per_record() {
    let script = Scenario::parse(include_str!("../../../examples/scenarios/churn_quick.txt"))
        .expect("the CI churn script parses");
    let churn = SimConfig::builder(3, SchemeSpec::NeighborCoverage)
        .hosts(100)
        .broadcasts(60)
        .scenario(script)
        .seed(5)
        .build();
    let ac = SimConfig::builder(1, SchemeSpec::parse("ac").expect("a scheme spelling"))
        .hosts(100)
        .broadcasts(10)
        .seed(5)
        .build();
    for (run, config, bound) in [("churn under nc", churn, 2.7), ("1x1 ac", ac, 1.3)] {
        let measured = bytes_per_hear(config);
        eprintln!("{run}: {measured:.3} bytes per hear");
        assert!(
            measured <= bound,
            "{run}: {measured:.3} bytes per hear, bound {bound}"
        );
    }
}
