//! Extension — mobility-model robustness: the paper's random-turn
//! roaming against the classic random-waypoint model.
//!
//! The adaptive schemes adapt to *local connectivity*, not to a
//! particular motion law, so their advantage over fixed thresholds should
//! survive a change of mobility model. Random waypoint concentrates
//! hosts toward the map center (the classic density bias), which tends to
//! raise connectivity on sparse maps.

use broadcast_core::{CounterThreshold, MobilitySpec, SchemeSpec, SimConfig};

use crate::runner::{sweep, Scale, PAPER_MAPS};
use crate::table::{pct, Table};

/// Runs `C = 2` and AC under both mobility models.
pub fn run(scale: Scale) -> Vec<Table> {
    let schemes = [
        SchemeSpec::Counter(2),
        SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
    ];
    let models = [
        ("turn", MobilitySpec::RandomTurn),
        ("waypoint", MobilitySpec::RandomWaypoint),
    ];
    let keys = (0..schemes.len())
        .flat_map(|s| (0..models.len()).flat_map(move |m| PAPER_MAPS.map(|map| (s, m, map))));
    let runs = sweep(keys, scale, |(s, m, map)| {
        SimConfig::builder(map, schemes[s].clone()).mobility(models[m].1)
    });

    let mut headers = vec!["map".to_string()];
    for scheme in &schemes {
        for (model, _) in &models {
            headers.push(format!("RE% {} ({model})", scheme.label()));
            headers.push(format!("SRB% {} ({model})", scheme.label()));
        }
    }
    let mut table = Table::new(
        "Extension - mobility-model robustness (random turn vs random waypoint)",
        headers,
    );
    for &map in &PAPER_MAPS {
        let mut row = vec![format!("{map}x{map}")];
        for s in 0..schemes.len() {
            for m in 0..models.len() {
                let r = runs.get((s, m, map));
                row.push(pct(r.reachability));
                row.push(pct(r.saved_rebroadcasts));
            }
        }
        table.row(row);
    }
    vec![table]
}
