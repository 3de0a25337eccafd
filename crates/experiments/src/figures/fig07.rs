//! Fig. 7 — the adaptive counter-based scheme (AC) against the
//! fixed-threshold counter-based scheme (`C = 2, 4, 6`): RE and SRB (a),
//! average broadcast latency (b).

use broadcast_core::{CounterThreshold, SchemeSpec, SimConfig};

use crate::runner::{sweep, Scale, PAPER_MAPS};
use crate::table::{pct, secs, Table};

fn schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::Counter(2),
        SchemeSpec::Counter(4),
        SchemeSpec::Counter(6),
        SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
    ]
}

/// Regenerates Fig. 7a (RE/SRB) and Fig. 7b (latency).
pub fn run(scale: Scale) -> Vec<Table> {
    let schemes = schemes();
    let keys = schemes.iter().flat_map(|s| PAPER_MAPS.map(|m| (s, m)));
    let runs = sweep(keys, scale, |(s, map)| SimConfig::builder(map, s.clone()));

    let mut headers = vec!["map".to_string()];
    for s in &schemes {
        headers.push(format!("RE% {}", s.label()));
        headers.push(format!("SRB% {}", s.label()));
    }
    let mut a = Table::new(
        "Fig. 7a - adaptive (AC) vs fixed counter-based: RE and SRB",
        headers,
    );
    let mut headers_b = vec!["map".to_string()];
    headers_b.extend(schemes.iter().map(|s| format!("latency(s) {}", s.label())));
    let mut b = Table::new("Fig. 7b - average broadcast latency", headers_b);

    for map in PAPER_MAPS {
        let mut row_a = vec![format!("{map}x{map}")];
        let mut row_b = vec![format!("{map}x{map}")];
        for scheme in &schemes {
            let r = runs.get((scheme, map));
            row_a.push(pct(r.reachability));
            row_a.push(pct(r.saved_rebroadcasts));
            row_b.push(secs(r.avg_latency_s));
        }
        a.row(row_a);
        b.row(row_b);
    }
    vec![a, b]
}
