//! End-to-end integration tests over the full simulation stack:
//! deterministic topologies with exactly predictable outcomes, scheme
//! invariants, determinism, and failure injection.

use manet_broadcast::{
    AreaThreshold, CounterThreshold, NeighborInfo, PlacementSpec, SchemeSpec, SimConfig,
    SimDuration, SimReport, World,
};

/// A static chain of hosts 450 m apart: every host reaches exactly its
/// chain neighbors; interference cannot reach the propagation frontier.
fn line_config(scheme: SchemeSpec, hosts: u32, broadcasts: u32) -> SimConfig {
    SimConfig::builder(11, scheme)
        .hosts(hosts)
        .broadcasts(broadcasts)
        .placement(PlacementSpec::Line { spacing_m: 450 })
        .max_speed_kmh(0.0)
        .neighbor_info(NeighborInfo::Oracle)
        .max_interarrival(SimDuration::from_secs(4))
        .seed(99)
        .build()
}

#[test]
fn flooding_on_a_static_line_reaches_everyone() {
    let report = World::new(line_config(SchemeSpec::Flooding, 12, 4)).run();
    assert_eq!(
        report.reachability, 1.0,
        "line propagation must be lossless"
    );
    assert_eq!(
        report.saved_rebroadcasts, 0.0,
        "flooding never saves a rebroadcast"
    );
    for outcome in &report.per_broadcast {
        assert_eq!(outcome.received, 11, "all 11 non-source hosts receive");
        assert_eq!(outcome.rebroadcast, 11, "and all of them rebroadcast");
    }
}

#[test]
fn counter_scheme_cannot_suppress_on_a_line() {
    // Each host hears the packet from its upstream neighbor only (the
    // downstream duplicate arrives after it has already transmitted), so
    // the counter never reaches 2 in time: identical to flooding.
    let report = World::new(line_config(SchemeSpec::Counter(2), 12, 4)).run();
    assert_eq!(report.reachability, 1.0);
    assert_eq!(report.saved_rebroadcasts, 0.0);
}

#[test]
fn neighbor_coverage_suppresses_exactly_the_line_endpoint() {
    // With oracle two-hop knowledge, the far endpoint of the chain is the
    // only host whose rebroadcast covers nobody new.
    let report = World::new(line_config(SchemeSpec::NeighborCoverage, 12, 4)).run();
    assert_eq!(report.reachability, 1.0);
    for outcome in &report.per_broadcast {
        // The source sits somewhere on the chain; the packet spreads in
        // both directions, and each chain end is suppressed. A source at
        // an end suppresses one host; an interior source suppresses two.
        let suppressed = outcome.received - outcome.rebroadcast;
        assert!(
            (1..=2).contains(&suppressed),
            "endpoints suppressed, got {suppressed}"
        );
    }
}

#[test]
fn location_scheme_on_a_line_behaves_like_flooding_with_tiny_threshold() {
    // At A = 0.0134 a 450 m-distant sender leaves far more uncovered area
    // than the threshold; nothing is suppressed on a chain.
    let report = World::new(line_config(SchemeSpec::Location(0.0134), 12, 4)).run();
    assert_eq!(report.reachability, 1.0);
    assert_eq!(report.saved_rebroadcasts, 0.0);
}

#[test]
fn dense_clique_suppresses_almost_everything() {
    // 30 hosts in one radio radius: the source's transmission reaches
    // everyone directly, so with C = 2 nearly all rebroadcasts cancel.
    let config = SimConfig::builder(1, SchemeSpec::Counter(2))
        .hosts(30)
        .broadcasts(10)
        .placement(PlacementSpec::Grid)
        .max_speed_kmh(0.0)
        .neighbor_info(NeighborInfo::Oracle)
        .seed(7)
        .build();
    let report = World::new(config).run();
    assert!(report.reachability > 0.95, "RE = {}", report.reachability);
    // With the 15 us CCA latency, same-slot rebroadcasts collide and are
    // not heard as duplicates, so suppression is a little below the
    // instant-sensing ideal.
    assert!(
        report.saved_rebroadcasts > 0.7,
        "clique SRB = {}",
        report.saved_rebroadcasts
    );
}

#[test]
fn same_seed_is_bit_identical_and_different_seeds_differ() {
    let config = |seed: u64| {
        SimConfig::builder(
            5,
            SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
        )
        .hosts(40)
        .broadcasts(20)
        .seed(seed)
        .build()
    };
    let a: SimReport = World::new(config(1)).run();
    let b: SimReport = World::new(config(1)).run();
    assert_eq!(a.reachability, b.reachability);
    assert_eq!(a.saved_rebroadcasts, b.saved_rebroadcasts);
    assert_eq!(a.avg_latency_s, b.avg_latency_s);
    assert_eq!(a.data_frames, b.data_frames);
    assert_eq!(a.hello_packets, b.hello_packets);
    assert_eq!(a.collisions, b.collisions);

    let c: SimReport = World::new(config(2)).run();
    assert!(
        a.data_frames != c.data_frames || a.avg_latency_s != c.avg_latency_s,
        "different seeds should alter the run"
    );
}

#[test]
fn injected_loss_degrades_reachability_monotonically() {
    let run = |p: f64| {
        let mut config = SimConfig::builder(5, SchemeSpec::Counter(4))
            .hosts(50)
            .broadcasts(30)
            .seed(3)
            .build();
        config.drop_probability = p;
        World::new(config).run().reachability
    };
    let clean = run(0.0);
    let light = run(0.2);
    let heavy = run(0.6);
    assert!(clean > light, "loss must hurt: {clean} vs {light}");
    assert!(
        light > heavy,
        "more loss must hurt more: {light} vs {heavy}"
    );
    assert!(heavy > 0.0, "some packets still get through");
}

#[test]
fn adaptive_counter_beats_fixed_c2_on_sparse_maps() {
    // The paper's headline claim (Fig. 7): on sparse maps AC keeps
    // reachability high where C = 2 degrades sharply.
    let run = |scheme: SchemeSpec| {
        let config = SimConfig::builder(9, scheme)
            .broadcasts(60)
            .seed(17)
            .build();
        World::new(config).run()
    };
    let fixed = run(SchemeSpec::Counter(2));
    let adaptive = run(SchemeSpec::AdaptiveCounter(
        CounterThreshold::paper_recommended(),
    ));
    assert!(
        adaptive.reachability > fixed.reachability + 0.05,
        "AC {} should clearly beat C=2 {} on a 9x9 map",
        adaptive.reachability,
        fixed.reachability
    );
    assert!(adaptive.reachability > 0.9);
}

#[test]
fn adaptive_location_beats_fixed_high_threshold_on_sparse_maps() {
    let run = |scheme: SchemeSpec| {
        let config = SimConfig::builder(9, scheme)
            .broadcasts(60)
            .seed(23)
            .build();
        World::new(config).run()
    };
    let fixed = run(SchemeSpec::Location(0.1871));
    let adaptive = run(SchemeSpec::AdaptiveLocation(
        AreaThreshold::paper_recommended(),
    ));
    assert!(
        adaptive.reachability >= fixed.reachability,
        "AL {} must not lose to A=0.1871 {} on a sparse map",
        adaptive.reachability,
        fixed.reachability
    );
    assert!(adaptive.reachability > 0.9);
}

#[test]
fn flooding_suffers_on_dense_maps_relative_to_suppression() {
    // The broadcast storm: on the 1x1 map flooding's latency and
    // collision count dwarf a suppression scheme's.
    let run = |scheme: SchemeSpec| {
        let config = SimConfig::builder(1, scheme)
            .broadcasts(60)
            .seed(31)
            .build();
        World::new(config).run()
    };
    let flood = run(SchemeSpec::Flooding);
    let counter = run(SchemeSpec::Counter(2));
    assert!(
        flood.collisions > counter.collisions * 3,
        "storm collisions: flooding {} vs C=2 {}",
        flood.collisions,
        counter.collisions
    );
    assert!(
        flood.avg_latency_s > counter.avg_latency_s * 3.0,
        "storm latency: flooding {} vs C=2 {}",
        flood.avg_latency_s,
        counter.avg_latency_s
    );
}

#[test]
fn oracle_and_hello_neighbor_info_both_work_for_nc() {
    let run = |info: NeighborInfo| {
        let config = SimConfig::builder(3, SchemeSpec::NeighborCoverage)
            .hosts(50)
            .broadcasts(30)
            .neighbor_info(info)
            .seed(13)
            .build();
        World::new(config).run()
    };
    let oracle = run(NeighborInfo::Oracle);
    let hello = run(NeighborInfo::Hello(
        manet_broadcast::HelloIntervalPolicy::fixed_1s(),
    ));
    assert!(
        oracle.reachability > 0.9,
        "oracle RE {}",
        oracle.reachability
    );
    assert!(hello.reachability > 0.85, "hello RE {}", hello.reachability);
    assert_eq!(oracle.hello_packets, 0, "oracle mode sends no hellos");
    assert!(hello.hello_packets > 0, "hello mode beacons");
}

#[test]
fn report_metrics_are_well_formed() {
    let config = SimConfig::builder(7, SchemeSpec::NeighborCoverage)
        .broadcasts(25)
        .seed(5)
        .build();
    let report = World::new(config).run();
    assert_eq!(report.broadcasts, 25);
    assert_eq!(report.per_broadcast.len(), 25);
    assert!((0.0..=1.05).contains(&report.reachability));
    assert!((0.0..=1.0).contains(&report.saved_rebroadcasts));
    assert!(report.avg_latency_s >= 0.0);
    assert!(report.data_frames >= 25, "at least one frame per broadcast");
    assert_eq!(report.map, "7x7");
    for outcome in &report.per_broadcast {
        if let Some(re) = outcome.reachability {
            assert!(re >= 0.0);
        }
        if let Some(srb) = outcome.saved_rebroadcasts {
            assert!((0.0..=1.0).contains(&srb));
        }
        assert!(outcome.rebroadcast <= outcome.received.max(1));
    }
}

/// Numbers no run can use are usage errors — one `error:` line and exit
/// 1 before any event runs — not a panic out of the builder (exit 101)
/// or, for a HELLO interval that rounds to zero, a timer that re-arms at
/// the same instant forever.
#[test]
fn cli_rejects_invalid_numbers_without_running() {
    for (flag, value, names) in [
        ("--drop", "2", "bad drop probability 2"),
        ("--drop", "nan", "bad drop probability NaN"),
        ("--speed", "-5", "bad max speed -5"),
        ("--speed", "nan", "bad max speed NaN"),
        ("--hosts", "0", "need at least one host"),
        ("--map", "0", "map must be at least 1x1"),
        ("--broadcasts", "0", "need at least one broadcast"),
        ("--hello", "1e-10", "bad hello policy \"1e-10\""),
        ("--hello", "1e30", "bad hello policy \"1e30\""),
        ("--hello", "0", "hello interval must be longer than zero"),
    ] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_manet-sim"))
            .args(["--map", "1", "--broadcasts", "1", flag, value])
            .output()
            .expect("manet-sim runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{flag} {value}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with(&format!("error: {names}")),
            "{flag} {value}: {first}"
        );
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
        assert!(output.stdout.is_empty(), "{flag} {value} printed a run");
    }
}
