//! Extension — broadcast storms under host churn and injected faults.
//!
//! Every figure in the paper runs a fixed, fault-free population. This
//! extension replays one canonical fault script against each scheme: a
//! rolling wave of graceful leave/join churn, a burst of crashes (protocol
//! state lost), a band of links blacked out, a window of channel noise, and a
//! temporary partition of the map's west half. Because suppression schemes
//! lean on redundancy that churn erodes, the interesting question is how
//! much reachability each scheme gives back relative to flooding once the
//! network stops being static — and where the lost frames actually went,
//! which the per-cause loss split answers.
//!
//! The per-cause loss and scenario counters are read from the sweep's
//! summed metrics ([`Sweep::metrics`](crate::Sweep::metrics)), which an
//! averaged report leaves out.

use broadcast_core::{ChurnKind, CounterThreshold, Region, Scenario, SchemeSpec, SimConfig};
use manet_sim_engine::SimTime;

use crate::runner::{sweep, Scale};
use crate::table::{pct, secs, Table};

/// Host population of the churn runs (the paper's default).
const HOSTS: u32 = 100;

/// The canonical fault script: all windows sit inside the first ~60
/// simulated seconds so even quick-scale runs (~60 s) exercise every
/// fault kind. Times and host ids are fixed — the script is part of the
/// figure's definition, not a random input.
fn churn_script() -> Scenario {
    let mut s = Scenario::new("churn-storm").with_hosts(HOSTS);
    // A rolling wave of graceful departures, each host down for 10 s.
    for host in 0..8u32 {
        let down = 6 + u64::from(host);
        s = s
            .churn(SimTime::from_secs(down), ChurnKind::Leave, host)
            .churn(SimTime::from_secs(down + 10), ChurnKind::Join, host);
    }
    // Four crashes: these hosts come back with blank neighbor tables.
    for i in 0..4u32 {
        let host = 20 + i;
        let down = 9 + 2 * u64::from(i);
        s = s
            .churn(SimTime::from_secs(down), ChurnKind::Crash, host)
            .churn(SimTime::from_secs(down + 8), ChurnKind::Recover, host);
    }
    // Link, channel, and region faults overlapping the churn window.
    // Blackouts are per-link, and with uniform placement any one pair is
    // within radio range only ~20% of the time even on this map — so a
    // band of 16 pairs is blacked out for a whole minute to make the
    // fault's cost visible above the placement lottery.
    for host in (60..92u32).step_by(2) {
        s = s.blackout(
            SimTime::from_secs(0),
            SimTime::from_secs(60),
            host,
            host + 1,
        );
    }
    s.noise(SimTime::from_secs(8), SimTime::from_secs(20), 0.15)
        .partition(
            SimTime::from_secs(12),
            SimTime::from_secs(22),
            Region {
                x0: 0.0,
                y0: 0.0,
                x1: 750.0,
                y1: 1_500.0,
            },
        )
}

/// Runs the canonical churn script against four schemes on the 3x3 map.
pub fn run(scale: Scale) -> Vec<Table> {
    let schemes = [
        SchemeSpec::Flooding,
        SchemeSpec::Counter(3),
        SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
        SchemeSpec::NeighborCoverage,
    ];
    let scenario = churn_script();
    let runs = sweep(&schemes, scale, |s| {
        SimConfig::builder(3, s.clone())
            .hosts(HOSTS)
            .scenario(scenario.clone())
    });

    let mut headline = Table::new(
        "Extension - churn + fault injection on the 3x3 map, 100 hosts",
        vec![
            "scheme".into(),
            "RE%".into(),
            "SRB%".into(),
            "latency(s)".into(),
        ],
    );
    let mut split = Table::new(
        "Extension - churn run loss accounting (frames dropped, by cause; summed over repeats)",
        vec![
            "scheme".into(),
            "overlap".into(),
            "capture".into(),
            "half-duplex".into(),
            "blackout".into(),
            "partition".into(),
            "noise".into(),
            "churn applied".into(),
        ],
    );
    for scheme in &schemes {
        let r = runs.get(scheme);
        headline.row(vec![
            scheme.label(),
            pct(r.reachability),
            pct(r.saved_rebroadcasts),
            secs(r.avg_latency_s),
        ]);
        let metrics = runs.metrics(scheme);
        let c = metrics.scenario.expect("scenario run");
        split.row(vec![
            scheme.label(),
            metrics.losses.overlap.to_string(),
            metrics.losses.capture.to_string(),
            metrics.losses.half_duplex.to_string(),
            c.blackout_drops.to_string(),
            c.partition_drops.to_string(),
            c.noise_drops.to_string(),
            format!(
                "{} down / {} up",
                c.leaves + c.crashes,
                c.joins + c.recoveries
            ),
        ]);
    }
    vec![headline, split]
}
