//! Extension — host-count (density) sweep.
//!
//! The paper fixes 100 hosts and varies the map. This sweep holds the
//! 5×5 map and scales the population 100 → 300 → 1000, an order of
//! magnitude past the paper: average neighbor counts climb from ~12 to
//! ~125, so the fixed-threshold counter scheme saturates (everyone hears
//! C copies almost immediately) while the adaptive and neighbor-coverage
//! schemes keep suppressing harder as density grows. Flooding is omitted:
//! at 1000 hosts its storm makes runs quadratically slow without adding
//! information.

use broadcast_core::{CounterThreshold, SchemeSpec, SimConfig};

use crate::runner::{sweep, Scale};
use crate::table::{pct, secs, Table};

/// Host populations swept on the 5×5 map.
const HOSTS: [u32; 3] = [100, 300, 1_000];

/// Runs C=3 vs AC vs NC on the 5x5 map across host populations.
pub fn run(scale: Scale) -> Vec<Table> {
    let schemes = [
        SchemeSpec::Counter(3),
        SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
        SchemeSpec::NeighborCoverage,
    ];
    let keys = schemes.iter().flat_map(|s| HOSTS.map(|h| (s, h)));
    let runs = sweep(keys, scale, |(s, hosts)| {
        SimConfig::builder(5, s.clone()).hosts(hosts)
    });

    let mut headers = vec!["hosts".to_string()];
    for scheme in &schemes {
        headers.push(format!("RE% {}", scheme.label()));
        headers.push(format!("SRB% {}", scheme.label()));
        headers.push(format!("latency(s) {}", scheme.label()));
    }
    let mut table = Table::new("Extension - host-count sweep on the 5x5 map", headers);
    for &hosts in &HOSTS {
        let mut row = vec![hosts.to_string()];
        for scheme in &schemes {
            let r = runs.get((scheme, hosts));
            row.push(pct(r.reachability));
            row.push(pct(r.saved_rebroadcasts));
            row.push(secs(r.avg_latency_s));
        }
        table.row(row);
    }
    vec![table]
}
