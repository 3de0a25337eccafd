//! Property tests: any generated scenario survives parse → serialize →
//! parse unchanged, and compiles to the same timeline afterwards.

use manet_scenario::{ChurnKind, Region, Scenario};
use manet_sim_engine::SimTime;
use manet_testkit::{prop_check, Gen};

/// Draws a random (but structurally plausible) scenario. Validity against
/// a host count is NOT guaranteed — round-tripping must work for any
/// parseable script, valid or not.
fn gen_scenario(g: &mut Gen) -> Scenario {
    let mut scenario = Scenario::new(format!("s{}", g.u32_in(0..1000)));
    if g.bool() {
        scenario.hosts = Some(g.u32_in(1..2000));
    }
    let time = |g: &mut Gen| SimTime::from_nanos(g.u64_in(0..120_000_000_000));
    for _ in 0..g.usize_in(0..6) {
        let kind = match g.u32_in(0..4) {
            0 => ChurnKind::Leave,
            1 => ChurnKind::Join,
            2 => ChurnKind::Crash,
            _ => ChurnKind::Recover,
        };
        scenario = scenario.churn(time(g), kind, g.u32_in(0..2000));
    }
    for _ in 0..g.usize_in(0..4) {
        let from = time(g);
        scenario = scenario.blackout(
            from,
            from + manet_sim_engine::SimDuration::from_nanos(g.u64_in(1..60_000_000_000)),
            g.u32_in(0..2000),
            g.u32_in(0..2000),
        );
    }
    for _ in 0..g.usize_in(0..4) {
        let from = time(g);
        scenario = scenario.noise(
            from,
            from + manet_sim_engine::SimDuration::from_nanos(g.u64_in(1..60_000_000_000)),
            g.f64_in_incl(0.001, 1.0),
        );
    }
    for _ in 0..g.usize_in(0..3) {
        let from = time(g);
        let x0 = g.f64_in(0.0..5000.0);
        let y0 = g.f64_in(0.0..5000.0);
        scenario = scenario.partition(
            from,
            from + manet_sim_engine::SimDuration::from_nanos(g.u64_in(1..60_000_000_000)),
            Region {
                x0,
                y0,
                x1: x0 + g.f64_in_incl(0.1, 3000.0),
                y1: y0 + g.f64_in_incl(0.1, 3000.0),
            },
        );
    }
    scenario
}

prop_check! {
    /// Text encoding: parse(to_text(s)) == s, bit for bit (times, floats,
    /// ordering), and the compiled timelines match.
    fn text_round_trip(g, cases = 200) {
        let scenario = gen_scenario(g);
        let text = scenario.to_text();
        let reparsed = Scenario::parse(&text).unwrap_or_else(|e| {
            panic!("canonical text failed to parse: {e}\n{text}")
        });
        assert_eq!(reparsed, scenario, "text round-trip changed the scenario:\n{text}");
        assert_eq!(reparsed.to_text(), text, "second serialization differs");
        assert_eq!(scenario.compile(), reparsed.compile(), "compiled timelines diverged");
    }
}
