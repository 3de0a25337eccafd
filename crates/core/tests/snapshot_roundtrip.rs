//! Checkpoint/resume correctness: a world paused mid-run, snapshotted to
//! bytes, and resumed in a fresh process image must finish **bit-identically**
//! to the same world never having paused. The Debug rendering of
//! [`SimReport`] covers every field (per-broadcast outcomes, MAC and loss
//! counters, suppression tallies, scenario counts), so string equality is
//! full-report equality.

use broadcast_core::{
    ChurnKind, CounterThreshold, NeighborInfo, Scenario, SchemeSpec, SimConfig, SimReport, World,
};
use manet_sim_engine::SimTime;

/// Adaptive counter: exercises HELLOs, neighbor tables, and variation
/// trackers alongside the per-packet counter state.
fn adaptive_config(seed: u64) -> SimConfig {
    SimConfig::builder(
        3,
        SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
    )
    .hosts(40)
    .broadcasts(15)
    .seed(seed)
    .build()
}

/// Neighbor coverage: exercises two-hop HELLO payloads and pending sets.
fn coverage_config(seed: u64) -> SimConfig {
    SimConfig::builder(3, SchemeSpec::NeighborCoverage)
        .hosts(40)
        .broadcasts(15)
        .seed(seed)
        .build()
}

/// Counter scheme under a fault script covering every scenario feature:
/// leave/join, crash/recover, a blackout, a noise window, a partition.
fn churn_config(seed: u64) -> SimConfig {
    let scenario = Scenario::new("snapshot-churn")
        .with_hosts(40)
        .churn(SimTime::from_secs(1), ChurnKind::Leave, 3)
        .churn(SimTime::from_secs(2), ChurnKind::Crash, 11)
        .churn(SimTime::from_secs(4), ChurnKind::Join, 3)
        .churn(SimTime::from_secs(6), ChurnKind::Recover, 11)
        .blackout(SimTime::from_secs(2), SimTime::from_secs(8), 5, 9)
        .noise(SimTime::from_secs(3), SimTime::from_secs(9), 0.2)
        .partition(
            SimTime::from_secs(4),
            SimTime::from_secs(10),
            broadcast_core::Region {
                x0: 0.0,
                y0: 0.0,
                x1: 700.0,
                y1: 700.0,
            },
        );
    SimConfig::builder(3, SchemeSpec::Counter(3))
        .hosts(40)
        .broadcasts(15)
        .scenario(scenario)
        .seed(seed)
        .build()
}

/// Runs `config` uninterrupted, then again with a pause + snapshot +
/// resume at `pause`, asserting identical reports.
fn assert_roundtrip(make: impl Fn() -> SimConfig, pause: SimTime) {
    let baseline: SimReport = World::new(make()).run();

    let mut world = World::new(make());
    world.advance(pause);
    let bytes = world.snapshot();
    drop(world); // the resumed world must not share anything with it

    let resumed = World::resume(make(), &bytes).expect("snapshot resumes");
    let report = resumed.run();
    assert_eq!(
        format!("{baseline:?}"),
        format!("{report:?}"),
        "resume at {pause} diverged from the uninterrupted run",
    );
}

#[test]
fn adaptive_counter_roundtrip_is_bit_identical() {
    for secs in [1, 5, 20] {
        assert_roundtrip(|| adaptive_config(7), SimTime::from_secs(secs));
    }
}

#[test]
fn neighbor_coverage_roundtrip_is_bit_identical() {
    for secs in [2, 9] {
        assert_roundtrip(|| coverage_config(21), SimTime::from_secs(secs));
    }
}

#[test]
fn churn_scenario_roundtrip_is_bit_identical() {
    // Pause times straddle the scripted faults: mid-blackout, mid-noise,
    // and after everything healed.
    for secs in [3, 7, 12] {
        assert_roundtrip(|| churn_config(9), SimTime::from_secs(secs));
    }
}

#[test]
fn oracle_mode_roundtrip_is_bit_identical() {
    let make = || {
        SimConfig::builder(
            3,
            SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
        )
        .hosts(30)
        .broadcasts(10)
        .neighbor_info(NeighborInfo::Oracle)
        .seed(4)
        .build()
    };
    assert_roundtrip(make, SimTime::from_secs(4));
}

/// Snapshotting is a pure function of world state: re-snapshotting a
/// just-resumed world reproduces the byte stream exactly.
#[test]
fn snapshot_of_resumed_world_is_byte_identical() {
    let mut world = World::new(churn_config(9));
    world.advance(SimTime::from_secs(5));
    let bytes = world.snapshot();
    let resumed = World::resume(churn_config(9), &bytes).expect("snapshot resumes");
    assert_eq!(bytes, resumed.snapshot());
}

#[test]
fn resume_rejects_a_different_config() {
    let mut world = World::new(adaptive_config(7));
    world.advance(SimTime::from_secs(2));
    let bytes = world.snapshot();
    let err = World::resume(adaptive_config(8), &bytes).expect_err("seed differs");
    assert!(err.to_string().contains("different config"), "{err}");
}

#[test]
fn resume_rejects_truncated_bytes() {
    let mut world = World::new(adaptive_config(7));
    world.advance(SimTime::from_secs(2));
    let bytes = world.snapshot();
    for cut in [0, 4, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            World::resume(adaptive_config(7), &bytes[..cut]).is_err(),
            "accepted a snapshot truncated to {cut} bytes",
        );
    }
}

/// A finished world snapshots and resumes too (the trivial fixpoint).
#[test]
fn finished_world_roundtrips() {
    let mut world = World::new(adaptive_config(7));
    world.advance(SimTime::MAX);
    let bytes = world.snapshot();
    let baseline = world.into_report();
    let resumed = World::resume(adaptive_config(7), &bytes).expect("snapshot resumes");
    let report = resumed.run();
    assert_eq!(format!("{baseline:?}"), format!("{report:?}"));
}
