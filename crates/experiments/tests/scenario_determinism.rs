//! End-to-end determinism of scenario runs: the committed example script
//! plus a fixed seed must reproduce the simulation bit for bit — run to
//! run, and across the harness's parallel fan-out — and the rendered
//! metrics document must be byte-identical.

use broadcast_core::{ChurnKind, Scenario, SchemeSpec, SimConfig, SimReport, World};
use manet_experiments::{metrics_record, parallel_map, render_metrics_json};
use manet_sim_engine::SimTime;

fn committed_script() -> Scenario {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/churn_quick.txt"
    );
    let text = std::fs::read_to_string(path).expect("committed scenario script exists");
    let scenario = Scenario::parse(&text).expect("script parses");
    scenario
        .validate(scenario.hosts.expect("script declares hosts"))
        .expect("script validates against its own host count");
    scenario
}

fn run_committed(seed: u64) -> SimReport {
    let scenario = committed_script();
    let config = SimConfig::builder(3, SchemeSpec::Counter(3))
        .hosts(scenario.hosts.unwrap())
        .broadcasts(30)
        .scenario(scenario)
        .seed(seed)
        .build();
    World::new(config).run()
}

#[test]
fn committed_scenario_runs_are_byte_identical() {
    let a = run_committed(9);
    let b = run_committed(9);
    // The Debug rendering covers every field of the report, including the
    // per-broadcast outcomes, loss counters, and scenario counts.
    assert_eq!(format!("{a:?}"), format!("{b:?}"));

    // The script's churn is applied in full, and every injected loss is
    // attributed to exactly one scripted fault kind.
    let counts = a.scenario.expect("scenario counters");
    assert_eq!(counts.leaves, 8);
    assert_eq!(counts.crashes, 4);
    assert_eq!(counts.injected_drops(), a.losses.injected);

    // The rendered metrics document is byte-stable too.
    let json_a = render_metrics_json("test", &[("churn".into(), vec![metrics_record(&[a])])]);
    let json_b = render_metrics_json("test", &[("churn".into(), vec![metrics_record(&[b])])]);
    assert_eq!(json_a, json_b);
    assert!(json_a.contains("scenario.noise_drops"));
}

#[test]
fn parallel_fan_out_matches_sequential_runs() {
    let seeds: Vec<u64> = vec![1, 2, 3, 4];
    let sequential: Vec<String> = seeds
        .iter()
        .map(|&s| format!("{:?}", run_committed(s)))
        .collect();
    let fanned: Vec<String> = parallel_map(seeds, |&s| format!("{:?}", run_committed(s)));
    assert_eq!(sequential, fanned);
}

/// The acceptance-scale run: 1000 hosts under churn still satisfy the
/// reachability accounting invariant (delivered ⊆ reachable-at-send-time)
/// and attribute every scripted drop to its own cause.
#[test]
fn thousand_host_churn_holds_reachability_invariant() {
    let mut scenario = Scenario::new("thousand").with_hosts(1_000);
    for i in 0..10u32 {
        let host = i * 97; // spread over the population
        scenario = scenario
            .churn(SimTime::from_secs(1 + u64::from(i)), ChurnKind::Crash, host)
            .churn(
                SimTime::from_secs(4 + u64::from(i)),
                ChurnKind::Recover,
                host,
            );
    }
    scenario = scenario.noise(SimTime::from_secs(2), SimTime::from_secs(6), 0.1);
    let config = SimConfig::builder(5, SchemeSpec::Counter(3))
        .hosts(1_000)
        .broadcasts(8)
        .neighbor_info(broadcast_core::NeighborInfo::Oracle)
        .scenario(scenario)
        .seed(33)
        .build();
    let report = World::new(config).run();
    assert_eq!(report.broadcasts, 8);
    for outcome in &report.per_broadcast {
        assert!(
            outcome.received <= outcome.reachable,
            "delivered ({}) beyond reach at send time ({})",
            outcome.received,
            outcome.reachable,
        );
        assert!(outcome.rebroadcast <= outcome.received);
    }
    let counts = report.scenario.expect("scenario counters");
    assert_eq!(counts.crashes, 10);
    assert_eq!(report.losses.injected, counts.injected_drops());
    assert!(counts.noise_drops > 0, "noise burst over a dense map bites");
}
