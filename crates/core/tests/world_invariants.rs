//! Property-based invariants of whole simulation runs: for arbitrary
//! small configurations, the reported metrics must be internally
//! consistent and runs must be reproducible.

use broadcast_core::{
    AreaThreshold, ChurnKind, CounterThreshold, NeighborInfo, Region, Scenario, SchemeSpec,
    SimConfig, World,
};
use manet_net::HelloIntervalPolicy;
use manet_sim_engine::{SimDuration, SimTime};
use manet_testkit::{prop_check, Gen};

/// A random but always-valid churn-plus-faults scenario for `hosts` hosts
/// (hosts must be at least 8 so the churners stay a strict minority).
fn churn_scenario(g: &mut Gen, hosts: u32) -> Scenario {
    let mut s = Scenario::new("prop").with_hosts(hosts);
    for i in 0..g.u32_in(1..4) {
        // Distinct hosts so per-host down/up alternation always holds.
        let host = i * 2;
        let down = g.u64_in(1..8);
        let up = down + g.u64_in(1..6);
        let (down_kind, up_kind) = if g.bool() {
            (ChurnKind::Crash, ChurnKind::Recover)
        } else {
            (ChurnKind::Leave, ChurnKind::Join)
        };
        s = s.churn(SimTime::from_secs(down), down_kind, host).churn(
            SimTime::from_secs(up),
            up_kind,
            host,
        );
    }
    if g.bool() {
        let from = g.u64_in(1..6);
        s = s.blackout(
            SimTime::from_secs(from),
            SimTime::from_secs(from + g.u64_in(1..8)),
            hosts - 1,
            hosts - 2,
        );
    }
    if g.bool() {
        let from = g.u64_in(1..6);
        s = s.noise(
            SimTime::from_secs(from),
            SimTime::from_secs(from + g.u64_in(1..8)),
            g.f64_in(0.05..0.6),
        );
    }
    if g.bool() {
        let from = g.u64_in(1..6);
        s = s.partition(
            SimTime::from_secs(from),
            SimTime::from_secs(from + g.u64_in(1..8)),
            Region {
                x0: 0.0,
                y0: 0.0,
                x1: g.f64_in(100.0..600.0),
                y1: g.f64_in(100.0..600.0),
            },
        );
    }
    s
}

/// A blacked-out link drops deliveries and tallies them under its own
/// cause. Dense map (everyone in everyone's range) so the pair is in
/// contact for the whole window.
#[test]
fn blackout_drops_are_attributed() {
    let scenario = Scenario::new("blackout").with_hosts(10).blackout(
        SimTime::from_secs(0),
        SimTime::from_secs(3_600),
        0,
        1,
    );
    let config = SimConfig::builder(1, SchemeSpec::Flooding)
        .hosts(10)
        .broadcasts(8)
        .warmup(SimDuration::from_secs(1))
        .scenario(scenario)
        .seed(7)
        .build();
    let report = World::new(config).run();
    let counts = report.scenario.expect("scenario runs report their counts");
    assert!(
        counts.blackout_drops > 0,
        "hosts 0 and 1 exchanged frames on a 500 m map for the whole run: {counts:?}"
    );
    assert_eq!(report.losses.injected, counts.injected_drops());
}

/// Host 0 sends the first frame of a 4-host flooding run at 2 s, leaves
/// 1 µs later and is scripted to rejoin at 2.001 s, while that frame is
/// still on the air: the rejoin waits for it. `then` scripts what follows.
fn deferred_rejoin(then: impl FnOnce(Scenario) -> Scenario) -> SimConfig {
    let scenario = Scenario::new("deferred-rejoin")
        .with_hosts(4)
        .churn(SimTime::from_nanos(2_000_001_000), ChurnKind::Leave, 0)
        .churn(SimTime::from_millis(2_001), ChurnKind::Join, 0);
    SimConfig::builder(1, SchemeSpec::Flooding)
        .hosts(4)
        .broadcasts(40)
        .warmup(SimDuration::from_secs(2))
        .max_interarrival(SimDuration::from_millis(3))
        .scenario(then(scenario))
        .seed(5)
        .build()
}

/// While a rejoin waits for the host's last frame, later churn waits
/// behind it, so churn applies in script order. Host 0 leaving again at
/// 2.002 s used to meet its host still down (a debug assertion; release
/// builds ran on with a wrong membership count), and hosts 1–3 leaving
/// then used to leave no host up to source a broadcast (an empty draw
/// range in every build). Both scripts pass `Scenario::validate`.
#[test]
fn churn_behind_a_deferred_rejoin_applies_in_script_order() {
    let again = deferred_rejoin(|s| s.churn(SimTime::from_millis(2_002), ChurnKind::Leave, 0));
    let others = deferred_rejoin(|s| {
        (1..4).fold(s, |s, host| {
            s.churn(SimTime::from_millis(2_002), ChurnKind::Leave, host)
        })
    });
    for (name, config, leaves) in [("host 0 again", again, 2), ("hosts 1-3", others, 4)] {
        let scenario = config.scenario.clone().expect("a scenario");
        scenario.validate(4).expect("the script is valid");
        let report = World::new(config).run();
        let counts = report.scenario.expect("scenario runs report their counts");
        assert_eq!((counts.leaves, counts.joins), (leaves, 1), "{name}");
        assert_eq!(report.broadcasts, 40, "{name}");
    }
}

/// The run's backoff histogram counts every draw of every MAC, on every
/// path into one, and of the MACs churn powers off and reboots: it sums to `backoff_draws`, its
/// slots to `backoff_slots_total`, and a run paused, checkpointed and
/// resumed halfway reports what the uninterrupted one does. Each MAC kept
/// its own histogram before the world took it over.
#[test]
fn the_backoff_histogram_counts_every_draw() {
    let script = Scenario::parse(include_str!("../../../examples/scenarios/churn_quick.txt"))
        .expect("the committed script parses");
    let spellings = [
        "flooding",
        "counter:3",
        "ac",
        "distance:200",
        "location:0.0134",
        "al",
        "nc",
        "prob:0.7",
    ];
    let mut runs: Vec<(&str, SimConfig)> = spellings
        .iter()
        .map(|&spelling| {
            let scheme = SchemeSpec::parse(spelling).expect("a scheme spelling");
            let config = SimConfig::builder(3, scheme)
                .hosts(60)
                .broadcasts(6)
                .seed(3)
                .build();
            (spelling, config)
        })
        .collect();
    let churn = SimConfig::builder(3, SchemeSpec::Counter(3))
        .broadcasts(30)
        .scenario(script)
        .seed(5)
        .build();
    runs.push(("counter:3 + churn script", churn));
    // Beacons every 0.2 s land where a DIFS wait is cut short by a frame:
    // the one carrier report that draws a backoff.
    let frequent_hellos = SimConfig::builder(2, SchemeSpec::NeighborCoverage)
        .hosts(100)
        .broadcasts(10)
        .neighbor_info(NeighborInfo::Hello(HelloIntervalPolicy::Fixed(
            SimDuration::from_millis(200),
        )))
        .seed(3)
        .build();
    runs.push(("nc + 0.2 s HELLOs", frequent_hellos));
    for (label, config) in runs {
        let report = World::new(config.clone()).run();
        let mac = report.mac;
        assert!(mac.backoff_draws > 0, "{label}: no MAC drew a backoff");
        assert_eq!(
            mac.draw_counts.iter().sum::<u64>(),
            mac.backoff_draws,
            "{label}"
        );
        let slots: u64 = (0..).zip(&mac.draw_counts).map(|(s, &n)| s * n).sum();
        assert_eq!(slots, mac.backoff_slots_total, "{label}");

        let mut paused = World::new(config.clone());
        paused.advance(SimTime::from_nanos((report.sim_seconds * 0.5e9) as u64));
        let resumed = World::resume(config, &paused.snapshot()).expect("the checkpoint resumes");
        assert_eq!(
            format!("{:?}", resumed.run()),
            format!("{report:?}"),
            "{label}"
        );
    }
}

fn scheme(g: &mut Gen) -> SchemeSpec {
    match g.usize_in(0..7) {
        0 => SchemeSpec::Flooding,
        1 => SchemeSpec::Counter(g.u32_in(2..8)),
        2 => SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
        3 => SchemeSpec::Location(g.f64_in(0.0..0.3)),
        4 => SchemeSpec::AdaptiveLocation(AreaThreshold::paper_recommended()),
        5 => SchemeSpec::NeighborCoverage,
        _ => SchemeSpec::Distance(g.f64_in(0.0..200.0)),
    }
}

prop_check! {
    // Whole-simulation cases are costly; a couple dozen random configs
    // per run is plenty on top of the deterministic integration tests.

    /// Metrics are well-formed for arbitrary configurations.
    fn reports_are_internally_consistent(g, cases = 24) {
        let scheme = scheme(g);
        let map_units = g.u32_in(1..8);
        let hosts = g.u32_in(8..35);
        let seed = g.u64();
        let oracle = g.bool();
        let info = if oracle {
            NeighborInfo::Oracle
        } else {
            NeighborInfo::Hello(HelloIntervalPolicy::fixed_1s())
        };
        let config = SimConfig::builder(map_units, scheme)
            .hosts(hosts)
            .broadcasts(4)
            .neighbor_info(info)
            .warmup(SimDuration::from_secs(2))
            .seed(seed)
            .build();
        let report = World::new(config).run();

        assert_eq!(report.broadcasts, 4);
        assert_eq!(report.per_broadcast.len(), 4);
        assert!(report.reachability >= 0.0);
        assert!((0.0..=1.0).contains(&report.saved_rebroadcasts));
        assert!(report.avg_latency_s >= 0.0);
        assert!(
            report.data_frames >= u64::from(report.broadcasts),
            "every broadcast puts at least the source frame on the air"
        );
        for outcome in &report.per_broadcast {
            // r and t never exceed the host population.
            assert!(outcome.received < hosts);
            assert!(outcome.rebroadcast <= outcome.received);
            if let Some(srb) = outcome.saved_rebroadcasts {
                assert!((0.0..=1.0).contains(&srb));
            }
            // Latency cannot exceed the whole simulated span.
            assert!(outcome.latency.as_secs_f64() <= report.sim_seconds + 1e-9);
        }
    }

    /// Same seed, same report — across every scheme.
    fn runs_are_reproducible(g, cases = 24) {
        let scheme = scheme(g);
        let seed = g.u64();
        let build = || {
            SimConfig::builder(4, scheme.clone())
                .hosts(20)
                .broadcasts(3)
                .warmup(SimDuration::from_secs(2))
                .seed(seed)
                .build()
        };
        let a = World::new(build()).run();
        let b = World::new(build()).run();
        assert_eq!(a.reachability, b.reachability);
        assert_eq!(a.saved_rebroadcasts, b.saved_rebroadcasts);
        assert_eq!(a.avg_latency_s, b.avg_latency_s);
        assert_eq!(a.data_frames, b.data_frames);
        assert_eq!(a.hello_packets, b.hello_packets);
        assert_eq!(a.collisions, b.collisions);
    }

    /// Under arbitrary churn and fault injection, the reachability
    /// accounting stays sound (`delivered ⊆ reachable-at-send-time`),
    /// injected faults are attributed to their own loss cause, and runs
    /// remain reproducible.
    fn churn_preserves_invariants(g, cases = 16) {
        let scheme = scheme(g);
        let hosts = g.u32_in(10..24);
        let seed = g.u64();
        let scenario = churn_scenario(g, hosts);
        let build = || {
            SimConfig::builder(4, scheme.clone())
                .hosts(hosts)
                .broadcasts(4)
                .warmup(SimDuration::from_secs(2))
                .scenario(scenario.clone())
                .seed(seed)
                .build()
        };
        let report = World::new(build()).run();

        let counts = report.scenario.expect("scenario runs report their counts");
        // Every applied reactivation pairs with an earlier deactivation
        // (the tail of the timeline may fall past the end of the run).
        assert!(counts.joins + counts.recoveries <= counts.leaves + counts.crashes);
        // No drop_probability is configured, so every injected loss in the
        // medium's ledger came from the scenario, attributed by kind.
        assert_eq!(report.losses.injected, counts.injected_drops());
        assert!(report.collisions >= report.losses.overlap);
        for outcome in &report.per_broadcast {
            assert!(
                outcome.received <= outcome.reachable,
                "delivered ({}) must be within reach at send time ({})",
                outcome.received,
                outcome.reachable,
            );
            assert!(outcome.rebroadcast <= outcome.received);
        }

        let again = World::new(build()).run();
        assert_eq!(report.reachability, again.reachability);
        assert_eq!(report.saved_rebroadcasts, again.saved_rebroadcasts);
        assert_eq!(report.data_frames, again.data_frames);
        assert_eq!(report.losses, again.losses);
        assert_eq!(report.scenario, again.scenario);
    }

    /// Flooding never saves a rebroadcast, whatever the configuration.
    fn flooding_srb_is_always_zero(g, cases = 24) {
        let map_units = g.u32_in(1..8);
        let hosts = g.u32_in(8..30);
        let seed = g.u64();
        let config = SimConfig::builder(map_units, SchemeSpec::Flooding)
            .hosts(hosts)
            .broadcasts(3)
            .warmup(SimDuration::from_secs(1))
            .seed(seed)
            .build();
        let report = World::new(config).run();
        for outcome in &report.per_broadcast {
            if let Some(srb) = outcome.saved_rebroadcasts {
                // A host may still be "saved" if the run ends while its
                // frame sits in the MAC queue; with a generous grace
                // period that should never happen.
                assert!(srb <= 1e-9, "flooding saved {srb}");
            }
        }
    }
}
