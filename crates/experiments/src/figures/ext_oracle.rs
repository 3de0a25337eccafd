//! Extension — how much does imperfect (HELLO-derived) neighbor knowledge
//! cost the adaptive schemes, relative to a geometric oracle?
//!
//! The paper runs everything over real HELLO beacons. This ablation
//! quantifies the gap: the oracle bound shows how much of any RE loss is
//! due to stale tables rather than to the scheme's decision rule.

use broadcast_core::{AreaThreshold, CounterThreshold, NeighborInfo, SchemeSpec, SimConfig};

use crate::runner::{sweep, Scale, PAPER_MAPS};
use crate::table::{pct, Table};

/// Runs AC, AL, and NC under oracle and HELLO neighbor information.
pub fn run(scale: Scale) -> Vec<Table> {
    let schemes = [
        SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
        SchemeSpec::AdaptiveLocation(AreaThreshold::paper_recommended()),
        SchemeSpec::NeighborCoverage,
    ];
    let infos = [
        (
            "hello",
            NeighborInfo::Hello(manet_net::HelloIntervalPolicy::fixed_1s()),
        ),
        ("oracle", NeighborInfo::Oracle),
    ];
    let keys = (0..schemes.len())
        .flat_map(|s| (0..infos.len()).flat_map(move |i| PAPER_MAPS.map(|m| (s, i, m))));
    let runs = sweep(keys, scale, |(s, i, map)| {
        SimConfig::builder(map, schemes[s].clone()).neighbor_info(infos[i].1.clone())
    });

    let mut headers = vec!["map".to_string()];
    for scheme in &schemes {
        for (info_name, _) in &infos {
            headers.push(format!("RE% {} ({info_name})", scheme.label()));
        }
    }
    let mut table = Table::new(
        "Extension - oracle vs HELLO neighbor knowledge (reachability)",
        headers,
    );
    for &map in &PAPER_MAPS {
        let mut row = vec![format!("{map}x{map}")];
        for s in 0..schemes.len() {
            for i in 0..infos.len() {
                row.push(pct(runs.get((s, i, map)).reachability));
            }
        }
        table.row(row);
    }
    vec![table]
}
