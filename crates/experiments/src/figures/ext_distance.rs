//! Extension — the distance-based scheme of \[15\] alongside the paper's
//! adaptive schemes.
//!
//! The paper reviews the distance-based scheme but does not carry it into
//! the adaptive comparison. This extension table shows where it falls:
//! like the other fixed-threshold schemes, a distance threshold tuned for
//! dense maps (large `D`) surrenders reachability on sparse ones.

use broadcast_core::{AreaThreshold, CounterThreshold, SchemeSpec, SimConfig};

use crate::runner::{sweep, Scale, PAPER_MAPS};
use crate::table::{pct, Table};

/// Runs distance-based baselines against AC/AL on every map.
pub fn run(scale: Scale) -> Vec<Table> {
    let schemes = vec![
        SchemeSpec::Distance(100.0),
        SchemeSpec::Distance(250.0),
        SchemeSpec::Distance(400.0),
        SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
        SchemeSpec::AdaptiveLocation(AreaThreshold::paper_recommended()),
    ];
    let keys = schemes.iter().flat_map(|s| PAPER_MAPS.map(|m| (s, m)));
    let runs = sweep(keys, scale, |(s, map)| SimConfig::builder(map, s.clone()));
    let mut headers = vec!["map".to_string()];
    for s in &schemes {
        headers.push(format!("RE% {}", s.label()));
        headers.push(format!("SRB% {}", s.label()));
    }
    let mut table = Table::new(
        "Extension - distance-based baselines (D meters) vs adaptive schemes",
        headers,
    );
    for map in PAPER_MAPS {
        let mut row = vec![format!("{map}x{map}")];
        for scheme in &schemes {
            let r = runs.get((scheme, map));
            row.push(pct(r.reachability));
            row.push(pct(r.saved_rebroadcasts));
        }
        table.row(row);
    }
    vec![table]
}
