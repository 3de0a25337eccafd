//! Fig. 13 — the overall comparison: counter-based (`C = 2, 6`), adaptive
//! counter-based (AC), location-based (`A = 0.1871, 0.0134`), adaptive
//! location-based (AL), neighbor coverage with dynamic hello interval
//! (NC-DHI), and flooding, across all six maps.
//!
//! In the paper's scatter plots the upper-right corner wins (high RE,
//! high SRB). Expectations: flooding has SRB = 0 and loses RE on dense
//! maps; NC is strongest on dense maps; AC/AL are strongest on sparse
//! maps; the adaptive schemes hold RE ≈ 95 %+ everywhere.

use broadcast_core::{AreaThreshold, CounterThreshold, NeighborInfo, SchemeSpec, SimConfig};
use manet_net::{DynamicHelloParams, HelloIntervalPolicy};
use manet_sim_engine::SimDuration;

use crate::runner::{sweep, Scale, PAPER_MAPS};
use crate::table::{pct, secs, Table};

/// The compared schemes with their per-scheme neighbor-info policies.
fn roster() -> Vec<(SchemeSpec, NeighborInfo)> {
    let hello_1s = NeighborInfo::Hello(HelloIntervalPolicy::fixed_1s());
    let dhi = NeighborInfo::Hello(HelloIntervalPolicy::Dynamic(DynamicHelloParams::paper()));
    vec![
        (SchemeSpec::Flooding, hello_1s.clone()),
        (SchemeSpec::Counter(2), hello_1s.clone()),
        (SchemeSpec::Counter(6), hello_1s.clone()),
        (
            SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
            hello_1s.clone(),
        ),
        (SchemeSpec::Location(0.1871), hello_1s.clone()),
        (SchemeSpec::Location(0.0134), hello_1s.clone()),
        (
            SchemeSpec::AdaptiveLocation(AreaThreshold::paper_recommended()),
            hello_1s,
        ),
        (SchemeSpec::NeighborCoverage, dhi),
    ]
}

/// Regenerates Fig. 13: one RE/SRB/latency table per map.
pub fn run(scale: Scale) -> Vec<Table> {
    let roster = roster();
    let keys = (0..roster.len()).flat_map(|s| PAPER_MAPS.map(|m| (s, m)));
    let runs = sweep(keys, scale, |(s, map)| {
        let (scheme, info) = &roster[s];
        SimConfig::builder(map, scheme.clone())
            .neighbor_info(info.clone())
            .warmup(SimDuration::from_secs(12))
    });

    let mut tables = Vec::new();
    for &map in &PAPER_MAPS {
        let mut table = Table::new(
            format!("Fig. 13 - overall comparison, {map}x{map} map"),
            vec![
                "scheme".into(),
                "RE%".into(),
                "SRB%".into(),
                "latency(s)".into(),
            ],
        );
        for (s, (scheme, info)) in roster.iter().enumerate() {
            let r = runs.get((s, map));
            let label = if matches!(scheme, SchemeSpec::NeighborCoverage)
                && matches!(info, NeighborInfo::Hello(HelloIntervalPolicy::Dynamic(_)))
            {
                "NC-DHI".to_string()
            } else {
                scheme.label()
            };
            table.row(vec![
                label,
                pct(r.reachability),
                pct(r.saved_rebroadcasts),
                secs(r.avg_latency_s),
            ]);
        }
        tables.push(table);
    }
    tables
}
