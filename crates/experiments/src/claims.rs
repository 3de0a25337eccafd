//! Programmatic verification of the paper's qualitative claims.
//!
//! The reproduction is judged on *shape*, not absolute numbers: who wins,
//! by roughly what factor, and where the crossovers fall. This module
//! encodes those statements as executable checks and reports a
//! PASS/FAIL verdict for each, giving `EXPERIMENTS.md` a mechanically
//! verifiable backbone.

use broadcast_core::{
    AreaThreshold, CounterThreshold, NeighborInfo, SchemeSpec, SimConfig, SimConfigBuilder,
};
use manet_geom::{contention_free_distribution, expected_additional_coverage};
use manet_net::{DynamicHelloParams, HelloIntervalPolicy};
use manet_sim_engine::{SimDuration, SimRng};

use crate::runner::{sweep, Scale, BASE_SEED};
use crate::table::Table;

/// One verified claim.
#[derive(Debug, Clone)]
struct Claim {
    id: &'static str,
    statement: &'static str,
    expected: String,
    measured: String,
    pass: bool,
}

/// Every simulated data point the claims read, by id.
const POINTS: &str = "flood-1 c2-1 c2-7 c6-7 ac-1 ac-3 ac-7 ac-11 a1871-7 a1871-1 al-7 al-1 \
                      nc-dhi-9 nc-hi1-9 nc-hi30-9 nc-dhi-1";

/// The run behind data point `id`.
fn point(id: &str) -> SimConfigBuilder {
    let b = SimConfig::builder;
    let ac = || SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended());
    let al = || SchemeSpec::AdaptiveLocation(AreaThreshold::paper_recommended());
    let nc = |map| b(map, SchemeSpec::NeighborCoverage);
    let dhi = NeighborInfo::Hello(HelloIntervalPolicy::Dynamic(DynamicHelloParams::paper()));
    let hi_30 = NeighborInfo::Hello(HelloIntervalPolicy::Fixed(SimDuration::from_secs(30)));
    match id {
        "flood-1" => b(1, SchemeSpec::Flooding),
        "c2-1" => b(1, SchemeSpec::Counter(2)),
        "c2-7" => b(7, SchemeSpec::Counter(2)),
        "c6-7" => b(7, SchemeSpec::Counter(6)),
        "ac-1" => b(1, ac()),
        "ac-3" => b(3, ac()),
        "ac-7" => b(7, ac()),
        "ac-11" => b(11, ac()),
        "a1871-7" => b(7, SchemeSpec::Location(0.1871)),
        "a1871-1" => b(1, SchemeSpec::Location(0.1871)),
        "al-7" => b(7, al()),
        "al-1" => b(1, al()),
        "nc-dhi-9" => nc(9).neighbor_info(dhi).warmup(SimDuration::from_secs(12)),
        "nc-hi1-9" => nc(9).max_speed_kmh(60.0),
        "nc-hi30-9" => nc(9)
            .max_speed_kmh(60.0)
            .neighbor_info(hi_30)
            .warmup(SimDuration::from_secs(60)),
        // Fig. 13a's NC-DHI, as `figures/fig13.rs` runs it.
        "nc-dhi-1" => nc(1).neighbor_info(dhi).warmup(SimDuration::from_secs(12)),
        _ => panic!("no claim data point {id}"),
    }
}

/// Title of the `passed | total` table [`run`] ends with.
const SUMMARY_TITLE: &str = "Claim summary";

/// `false` when `tables`, as [`run`] returned them, record a failed
/// claim: the summary's `passed` differs from its `total`.
pub fn all_passed(tables: &[Table]) -> bool {
    tables
        .iter()
        .filter(|table| table.title() == SUMMARY_TITLE)
        .flat_map(Table::rows)
        .all(|row| row[0] == row[1])
}

/// Runs every encoded claim and renders the verdict table.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut claims = Vec::new();

    // ---- analytic claims (paper §2.2) -----------------------------------
    let mut rng = SimRng::seed_from(BASE_SEED);
    let eac = expected_additional_coverage(4, 3_000, 600, &mut rng);
    claims.push(Claim {
        id: "fig1-eac1",
        statement: "a random rebroadcast covers ~41% new area (EAC(1))",
        expected: "0.41 +/- 0.03".into(),
        measured: format!("{:.3}", eac[0]),
        pass: (eac[0] - 0.41).abs() < 0.03,
    });
    claims.push(Claim {
        id: "fig1-eac4",
        statement: "after 4 hearings the additional coverage is below ~5%",
        expected: "< 0.06".into(),
        measured: format!("{:.3}", eac[3]),
        pass: eac[3] < 0.06,
    });
    let cf2 = contention_free_distribution(2, 30_000, &mut rng);
    claims.push(Claim {
        id: "fig2-cf2",
        statement: "two random receivers contend with probability ~59%",
        expected: "0.59 +/- 0.03".into(),
        measured: format!("{:.3}", cf2[0]),
        pass: (cf2[0] - 0.59).abs() < 0.03,
    });
    let cf6 = contention_free_distribution(6, 10_000, &mut rng);
    claims.push(Claim {
        id: "fig2-cf6",
        statement: "with 6+ receivers, all contend with probability > 0.8",
        expected: "> 0.75".into(),
        measured: format!("{:.3}", cf6[0]),
        pass: cf6[0] > 0.75,
    });

    // ---- simulation claims ----------------------------------------------
    // One sweep of every run the claims need.
    let runs = sweep(POINTS.split_whitespace(), scale, point);
    let get = |id| runs.get(id);

    let flood1 = get("flood-1");
    let c2_1 = get("c2-1");
    claims.push(Claim {
        id: "storm-latency",
        statement: "on the dense map, flooding's latency dwarfs counter-based (storm)",
        expected: "flooding > 3x C=2".into(),
        measured: format!("{:.4}s vs {:.4}s", flood1.avg_latency_s, c2_1.avg_latency_s),
        pass: flood1.avg_latency_s > 3.0 * c2_1.avg_latency_s,
    });
    claims.push(Claim {
        id: "storm-collisions",
        statement: "flooding causes far more collisions than counter-based on 1x1",
        expected: "flooding > 3x C=2".into(),
        measured: format!("{:.0} vs {:.0}", flood1.collisions, c2_1.collisions),
        pass: flood1.collisions > 3.0 * c2_1.collisions,
    });
    claims.push(Claim {
        id: "flooding-srb",
        statement: "flooding never saves rebroadcasts",
        expected: "SRB = 0".into(),
        measured: format!("{:.4}", flood1.saved_rebroadcasts),
        pass: flood1.saved_rebroadcasts < 1e-9,
    });

    let c2_7 = get("c2-7");
    claims.push(Claim {
        id: "dilemma-c2",
        statement: "a small fixed threshold collapses on sparse maps (the dilemma)",
        expected: "C=2 RE < 85% on 7x7".into(),
        measured: format!("{:.1}%", c2_7.reachability * 100.0),
        pass: c2_7.reachability < 0.85,
    });
    let c6_7 = get("c6-7");
    claims.push(Claim {
        id: "dilemma-c6",
        statement: "a large fixed threshold saves almost nothing anywhere",
        expected: "C=6 SRB < 5% on 7x7".into(),
        measured: format!("{:.1}%", c6_7.saved_rebroadcasts * 100.0),
        pass: c6_7.saved_rebroadcasts < 0.05,
    });

    let ac_all = ["ac-1", "ac-3", "ac-7", "ac-11"].map(get);
    let ac_min_re = ac_all
        .iter()
        .map(|r| r.reachability)
        .fold(f64::INFINITY, f64::min);
    claims.push(Claim {
        id: "ac-re",
        statement: "AC keeps reachability high on every map density",
        expected: "min RE >= 93%".into(),
        measured: format!("{:.1}%", ac_min_re * 100.0),
        pass: ac_min_re >= 0.93,
    });
    claims.push(Claim {
        id: "ac-srb-dense",
        statement: "AC still saves most rebroadcasts on dense maps",
        expected: "SRB >= 60% on 1x1 and 3x3".into(),
        measured: format!(
            "{:.1}% / {:.1}%",
            get("ac-1").saved_rebroadcasts * 100.0,
            get("ac-3").saved_rebroadcasts * 100.0
        ),
        pass: get("ac-1").saved_rebroadcasts >= 0.6 && get("ac-3").saved_rebroadcasts >= 0.6,
    });
    claims.push(Claim {
        id: "ac-beats-c2",
        statement: "AC clearly beats C=2 reachability on sparse maps",
        expected: "AC - C=2 >= 10 points on 7x7".into(),
        measured: format!(
            "{:.1}% vs {:.1}%",
            get("ac-7").reachability * 100.0,
            c2_7.reachability * 100.0
        ),
        pass: get("ac-7").reachability - c2_7.reachability >= 0.10,
    });

    let a1871_7 = get("a1871-7");
    let al_7 = get("al-7");
    claims.push(Claim {
        id: "al-beats-fixed",
        statement: "AL beats the largest fixed location threshold on sparse maps",
        expected: "AL RE > A=0.1871 RE on 7x7".into(),
        measured: format!(
            "{:.1}% vs {:.1}%",
            al_7.reachability * 100.0,
            a1871_7.reachability * 100.0
        ),
        pass: al_7.reachability > a1871_7.reachability,
    });
    claims.push(Claim {
        id: "al-srb-dense",
        statement: "AL saves like the strictest fixed threshold on dense maps",
        expected: "AL SRB within 5 points of A=0.1871 on 1x1".into(),
        measured: format!(
            "{:.1}% vs {:.1}%",
            get("al-1").saved_rebroadcasts * 100.0,
            get("a1871-1").saved_rebroadcasts * 100.0
        ),
        pass: get("al-1").saved_rebroadcasts >= get("a1871-1").saved_rebroadcasts - 0.05,
    });

    let nc_fresh = get("nc-hi1-9");
    let nc_stale = get("nc-hi30-9");
    claims.push(Claim {
        id: "nc-staleness",
        statement: "long hello intervals cost NC reachability on sparse, fast maps",
        expected: "hi=1s RE - hi=30s RE >= 5 points (9x9, 60 km/h)".into(),
        measured: format!(
            "{:.1}% vs {:.1}%",
            nc_fresh.reachability * 100.0,
            nc_stale.reachability * 100.0
        ),
        pass: nc_fresh.reachability - nc_stale.reachability >= 0.05,
    });
    let nc_dhi = get("nc-dhi-9");
    claims.push(Claim {
        id: "nc-dhi-re",
        statement: "the dynamic hello interval keeps NC reachability high",
        expected: "RE >= 85% on 9x9".into(),
        measured: format!("{:.1}%", nc_dhi.reachability * 100.0),
        pass: nc_dhi.reachability >= 0.85,
    });
    claims.push(Claim {
        id: "nc-best-dense",
        statement: "NC is the strongest saver on the dense map (paper Fig. 13a)",
        expected: "NC SRB >= AC SRB on 1x1".into(),
        measured: format!(
            "{:.1}% vs {:.1}%",
            get("nc-dhi-1").saved_rebroadcasts * 100.0,
            get("ac-1").saved_rebroadcasts * 100.0
        ),
        pass: get("nc-dhi-1").saved_rebroadcasts >= get("ac-1").saved_rebroadcasts - 0.02,
    });

    // ---- render -----------------------------------------------------------
    let mut table = Table::new(
        "Paper-claim verification",
        vec![
            "id".into(),
            "claim".into(),
            "expected".into(),
            "measured".into(),
            "verdict".into(),
        ],
    );
    for claim in &claims {
        table.row(vec![
            claim.id.to_string(),
            claim.statement.to_string(),
            claim.expected.clone(),
            claim.measured.clone(),
            if claim.pass { "PASS" } else { "FAIL" }.to_string(),
        ]);
    }
    let passed = claims.iter().filter(|c| c.pass).count();
    let mut summary = Table::new(SUMMARY_TITLE, vec!["passed".into(), "total".into()]);
    summary.row(vec![passed.to_string(), claims.len().to_string()]);
    vec![table, summary]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_failed_claim_fails_the_table() {
        let summary = |passed: &str| {
            let mut table = Table::new(SUMMARY_TITLE, vec!["passed".into(), "total".into()]);
            table.row(vec![passed.into(), "17".into()]);
            vec![Table::new("Paper-claim verification", vec![]), table]
        };
        assert!(all_passed(&summary("17")));
        assert!(!all_passed(&summary("16")));
    }
}
