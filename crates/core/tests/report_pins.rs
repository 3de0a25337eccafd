//! The strip index stays tied to what the linear scan produced: every
//! configuration below was run at the last commit that still answered
//! range queries with a dense position refresh and a linear scan, and an
//! FNV-1a 64 of its `{:?}`-rendered [`SimReport`] (every field) — and of
//! the churn run's mid-run snapshot bytes — is pinned here. A mismatch
//! means the one geometry path no longer reproduces that run bit for bit.
//! The two `nc` pins were taken again when `N_{x,h}` became exactly the
//! list `h` last advertised (expiry no longer hides a host from the
//! surviving two-hop lists). Every pin of the churn test was taken again
//! when channel drops, noise drops and rejoin HELLO phases became keyed
//! draws (`MSNP` v8, and a rejoining MAC keeps its host's stream); the
//! geometry-vs-linear-scan anchor of those runs now rests on
//! `grid_properties.rs` and `tests/equivalence.rs`. The `nc` and `al`
//! snapshot pins were taken again when hosts under a fixed hello interval
//! stopped keeping variation windows, which their checkpoints now write
//! empty; the `nc dynamic` pin holds the windows a checkpoint still
//! carries, in bytes unchanged since before. Every other pin is the
//! linear scan's.
//!
//! Also pins the `advance` pause boundary: a pause time equal to a
//! queued event's timestamp stops **strictly before** that event fires.

use broadcast_core::{
    AreaThreshold, CaptureConfig, ChurnKind, CounterThreshold, MobilitySpec, NeighborInfo,
    Scenario, SchemeSpec, SimConfig, World,
};
use manet_net::{DynamicHelloParams, HelloIntervalPolicy};
use manet_sim_engine::{SimDuration, SimTime};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn report_string(config: SimConfig) -> String {
    format!("{:?}", World::new(config).run())
}

#[test]
fn every_scheme_reproduces_the_linear_scan_run() {
    // Every scheme the paper evaluates, with its usual parameters.
    let pinned = [
        (SchemeSpec::Flooding, 0x5a4f_48d3_c50f_c404),
        (SchemeSpec::Counter(3), 0x89e2_8caf_12bf_e082),
        (
            SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
            0x0a5a_c07a_7566_329b,
        ),
        (SchemeSpec::Distance(250.0), 0xeb37_4d9a_56da_98e1),
        (SchemeSpec::Location(0.0134), 0xbc50_e417_1605_7cc2),
        (
            SchemeSpec::AdaptiveLocation(AreaThreshold::paper_recommended()),
            0x137e_bf63_299e_9cc5,
        ),
        (SchemeSpec::NeighborCoverage, 0xfed0_adb4_031a_4034),
    ];
    for (scheme, pin) in pinned {
        let label = scheme.label();
        let config = SimConfig::builder(3, scheme)
            .hosts(40)
            .broadcasts(10)
            .seed(7)
            .build();
        let hash = fnv1a64(report_string(config).as_bytes());
        assert_eq!(hash, pin, "scheme {label} drifted: got {hash:#018x}");
    }
}

#[test]
fn oracle_neighbor_info_reproduces_the_linear_scan_run() {
    // The oracle path answers neighbor queries from live geometry, so it
    // exercises the strip query on both the transmit and the assessment
    // side.
    let config = SimConfig::builder(
        3,
        SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
    )
    .hosts(40)
    .broadcasts(12)
    .neighbor_info(NeighborInfo::Oracle)
    .seed(11)
    .build();
    let hash = fnv1a64(report_string(config).as_bytes());
    assert_eq!(hash, 0x259f_cd70_9801_df71, "got {hash:#018x}");
}

/// Counter scheme under a fault script covering every scenario feature.
fn churn_config() -> SimConfig {
    let scenario = Scenario::new("sharded-churn")
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
        .seed(9)
        .build()
}

#[test]
fn churn_scenario_reproduces_the_linear_scan_run_and_snapshot() {
    let hash = fnv1a64(report_string(churn_config()).as_bytes());
    assert_eq!(hash, 0x2fe1_a2cb_67c8_0882, "report: got {hash:#018x}");

    let mut world = World::new(churn_config());
    world.advance(SimTime::from_secs(5));
    let bytes = world.snapshot();
    let hash = fnv1a64(&bytes);
    assert_eq!(hash, 0xa6b5_d28a_9f95_de0f, "snapshot: got {hash:#018x}");
    // The resumed world starts from time-zero strips; it must finish the
    // same run regardless.
    let resumed = World::resume(churn_config(), &bytes).expect("snapshot resumes");
    let hash = fnv1a64(format!("{:?}", resumed.run()).as_bytes());
    assert_eq!(hash, 0x2fe1_a2cb_67c8_0882, "resumed: got {hash:#018x}");

    // The `MTRC` bytes of the same run.
    let mut world = World::new(churn_config());
    world.enable_recording();
    world.advance(SimTime::MAX);
    let hash = fnv1a64(&world.take_trace().expect("recording was armed"));
    assert_eq!(hash, 0x83de_beae_3f4d_4246, "trace: got {hash:#018x}");

    // Snapshot branches the counter world never encodes: the pending-set
    // policy, neighbor tables with two-hop lists, waypoint mobility and
    // injected drops; then count-only tables, the coverage policy and
    // capture signals. Both run fixed 1 s HELLOs, so each host writes an
    // empty variation window; the `nc` run under the dynamic interval
    // writes the non-empty windows its hosts keep.
    let nc_with = |policy| {
        SimConfig::builder(3, SchemeSpec::NeighborCoverage)
            .hosts(40)
            .broadcasts(15)
            .neighbor_info(NeighborInfo::Hello(policy))
            .mobility(MobilitySpec::RandomWaypoint)
            .drop_probability(0.1)
            .seed(9)
            .build()
    };
    let nc = nc_with(HelloIntervalPolicy::Fixed(SimDuration::from_secs(1)));
    let nc_dhi = nc_with(HelloIntervalPolicy::Dynamic(DynamicHelloParams::paper()));
    let al = SimConfig::builder(
        3,
        SchemeSpec::AdaptiveLocation(AreaThreshold::paper_recommended()),
    )
    .hosts(40)
    .broadcasts(15)
    .capture(CaptureConfig::typical())
    .seed(9)
    .build();
    // Each pause falls in the middle of a flood, where the per-packet
    // policies are live and frames are on the air. None of the 48 default
    // cases of `tests/equivalence.rs` pauses on a live lattice (DESIGN.md
    // §5), so tier-1's round trip of one is here.
    for (label, config, pause_ms, pin) in [
        ("nc", nc, 11_407, 0x7102_5092_327b_6f75u64),
        ("al", al, 7_226, 0x7b4b_264a_21cf_02de),
        ("nc dynamic", nc_dhi, 11_407, 0xaae7_03a7_c6ad_72d4),
    ] {
        let mut world = World::new(config.clone());
        world.advance(SimTime::from_millis(pause_ms));
        let bytes = world.snapshot();
        let hash = fnv1a64(&bytes);
        assert_eq!(hash, pin, "{label} snapshot: got {hash:#018x}");
        let resumed = World::resume(config, &bytes).expect("snapshot resumes");
        assert_eq!(resumed.snapshot(), bytes, "{label}: re-snapshot");
        let (resumed, paused) = (resumed.run(), world.run());
        assert_eq!(format!("{resumed:?}"), format!("{paused:?}"), "{label}");
    }
}

/// `advance(t)` pauses **strictly before** any event queued at
/// exactly `t`. The scenario schedules a churn action at exactly 1 s, so
/// pausing at 1 s and pausing one nanosecond earlier must leave the world
/// in the same state — and resuming from either checkpoint must finish
/// bit-identically to the uninterrupted run.
#[test]
fn pause_exactly_at_event_time_excludes_the_event() {
    let exactly = SimTime::from_secs(1);
    let just_before = exactly - SimDuration::from_nanos(1);

    let mut at_event = World::new(churn_config());
    assert!(!at_event.advance(exactly), "run must pause, not finish");
    let mut before_event = World::new(churn_config());
    assert!(!before_event.advance(just_before));
    assert_eq!(
        at_event.snapshot(),
        before_event.snapshot(),
        "the 1 s churn action leaked into a pause at exactly 1 s"
    );

    let baseline = report_string(churn_config());
    let resumed = World::resume(churn_config(), &at_event.snapshot()).expect("snapshot resumes");
    assert_eq!(baseline, format!("{:?}", resumed.run()));
}
