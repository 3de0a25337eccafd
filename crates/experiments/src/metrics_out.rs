//! The `--metrics` JSON document.
//!
//! Schema `manet-broadcast-metrics/1` (stable; documented in DESIGN.md):
//!
//! ```json
//! {
//!   "schema": "manet-broadcast-metrics/1",
//!   "scale": "quick",
//!   "figures": [
//!     {
//!       "figure": "fig5a",
//!       "runs": [
//!         {
//!           "scheme": "flooding",
//!           "map": "1x1",
//!           "repeats": 1,
//!           "metrics": { "counters": {...}, "gauges": {...}, "histograms": {...} }
//!         }
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! Each run's `metrics` object holds dotted counter names
//! (`losses.overlap`, `mac.backoff_draws`, `suppression.cancelled`, …),
//! an always-empty `gauges` object, and the `latency_s` and
//! `backoff_slots` histograms. Keys are emitted in byte order from the
//! static [`COUNTERS`] table, so the document is byte-stable for a given
//! run set.

use std::fmt::Write;

use manet_sim_engine::json_escape;

use crate::runner::{MetricsRecord, RunMetricsSummary};

/// Reads one counter off a record; `None` omits the key.
type ReadCounter = fn(&RunMetricsSummary) -> Option<u64>;

/// Every counter key in byte order, which is the order the document
/// emits them in. The `scenario.*` keys appear only on scenario
/// (churn/fault) runs, so every other document is unchanged by them.
const COUNTERS: [(&str, ReadCounter); 31] = [
    ("losses.capture", |m| Some(m.losses.capture)),
    ("losses.half_duplex", |m| Some(m.losses.half_duplex)),
    ("losses.injected", |m| Some(m.losses.injected)),
    ("losses.overlap", |m| Some(m.losses.overlap)),
    ("losses.total", |m| Some(m.losses.total())),
    ("mac.backoff_draws", |m| Some(m.mac.backoff_draws)),
    ("mac.backoff_slots_total", |m| {
        Some(m.mac.backoff_slots_total)
    }),
    ("mac.cancelled", |m| Some(m.mac.cancelled)),
    ("mac.deferrals", |m| Some(m.mac.deferrals)),
    ("mac.enqueued", |m| Some(m.mac.enqueued)),
    ("mac.freezes", |m| Some(m.mac.freezes)),
    ("mac.max_queue_depth", |m| Some(m.mac.max_queue_depth)),
    ("net.hello_received", |m| Some(m.net.hello_received)),
    ("net.hello_sent", |m| Some(m.net.hello_sent)),
    ("net.neighbor_joins", |m| Some(m.net.neighbor_joins)),
    ("net.neighbor_leaves", |m| Some(m.net.neighbor_leaves)),
    ("scenario.blackout_drops", |m| {
        m.scenario.map(|s| s.blackout_drops)
    }),
    ("scenario.crashes", |m| m.scenario.map(|s| s.crashes)),
    ("scenario.injected_drops", |m| {
        m.scenario.map(|s| s.injected_drops())
    }),
    ("scenario.joins", |m| m.scenario.map(|s| s.joins)),
    ("scenario.leaves", |m| m.scenario.map(|s| s.leaves)),
    ("scenario.noise_drops", |m| {
        m.scenario.map(|s| s.noise_drops)
    }),
    ("scenario.partition_drops", |m| {
        m.scenario.map(|s| s.partition_drops)
    }),
    ("scenario.recoveries", |m| m.scenario.map(|s| s.recoveries)),
    ("suppression.cancelled", |m| Some(m.suppression.cancelled)),
    ("suppression.counter_threshold", |m| {
        Some(m.suppression.counter_threshold)
    }),
    ("suppression.coverage_threshold", |m| {
        Some(m.suppression.coverage_threshold)
    }),
    ("suppression.inhibited_first_hear", |m| {
        Some(m.suppression.inhibited_first_hear)
    }),
    ("suppression.neighbor_coverage", |m| {
        Some(m.suppression.neighbor_coverage)
    }),
    ("suppression.probabilistic", |m| {
        Some(m.suppression.probabilistic)
    }),
    ("suppression.scheduled", |m| Some(m.suppression.scheduled)),
];

/// One record's `metrics` object, exactly as the document embeds it.
pub(crate) fn render_record_metrics(record: &MetricsRecord) -> String {
    let m = &record.metrics;
    let mut out = String::from("{\"counters\":{");
    let mut comma = "";
    for (key, read) in COUNTERS {
        if let Some(value) = read(m) {
            write!(out, "{comma}\"{key}\":{value}").expect("writing to a String");
            comma = ",";
        }
    }
    out.push_str("},\"gauges\":{},\"histograms\":{\"backoff_slots\":");
    out.push_str(&m.backoff_slots.to_json());
    out.push_str(",\"latency_s\":");
    out.push_str(&m.latency_s.to_json());
    out.push_str("}}");
    out
}

/// Renders the full `--metrics` document for the figures that ran, in run
/// order. `figures` pairs each figure id with the records its runs
/// captured (already sorted by [`drain_metrics_capture`]).
///
/// [`drain_metrics_capture`]: crate::runner::drain_metrics_capture
pub fn render_metrics_json(scale: &str, figures: &[(String, Vec<MetricsRecord>)]) -> String {
    let mut out = String::new();
    out.push_str("{\"schema\":\"manet-broadcast-metrics/1\",\"scale\":\"");
    out.push_str(&json_escape(scale));
    out.push_str("\",\"figures\":[");
    for (i, (figure, records)) in figures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"figure\":\"");
        out.push_str(&json_escape(figure));
        out.push_str("\",\"runs\":[");
        for (j, record) in records.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"scheme\":\"");
            out.push_str(&json_escape(&record.scheme));
            out.push_str("\",\"map\":\"");
            out.push_str(&json_escape(&record.map));
            out.push_str("\",\"repeats\":");
            out.push_str(&record.repeats.to_string());
            out.push_str(",\"metrics\":");
            out.push_str(&render_record_metrics(record));
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{
        capture_test_guard, drain_metrics_capture, enable_metrics_capture, metrics_record, sweep,
        Scale,
    };
    use broadcast_core::{ChurnKind, Scenario, SchemeSpec, SimConfig, World};
    use manet_sim_engine::SimTime;

    #[test]
    fn document_contains_the_required_keys() {
        let _guard = capture_test_guard();
        enable_metrics_capture();
        let _ = sweep([20], Scale::Quick, |hosts| {
            SimConfig::builder(3, SchemeSpec::Counter(2)).hosts(hosts)
        });
        let records: Vec<_> = drain_metrics_capture()
            .into_iter()
            .filter(|r| r.scheme == "C=2" && r.map == "3x3" && r.repeats == 1)
            .collect();
        assert_eq!(records.len(), 1);
        let json = render_metrics_json("quick", &[("fig5a".to_string(), records)]);

        for key in [
            "\"schema\":\"manet-broadcast-metrics/1\"",
            "\"scale\":\"quick\"",
            "\"figure\":\"fig5a\"",
            "\"scheme\":\"C=2\"",
            "\"map\":\"3x3\"",
            "\"losses.overlap\"",
            "\"losses.half_duplex\"",
            "\"losses.injected\"",
            "\"losses.capture\"",
            "\"suppression.scheduled\"",
            "\"suppression.cancelled\"",
            "\"suppression.counter_threshold\"",
            "\"mac.backoff_draws\"",
            "\"net.hello_sent\"",
            "\"latency_s\"",
            "\"backoff_slots\"",
        ] {
            assert!(json.contains(key), "document misses {key}: {json}");
        }
        // Brackets and braces balance — a cheap structural sanity check
        // (string values here never contain brackets).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    /// The counter keys of one rendered `metrics` object, in order.
    fn counter_keys(json: &str) -> Vec<&str> {
        let counters = json
            .strip_prefix("{\"counters\":{")
            .and_then(|rest| rest.split_once("},\"gauges\":{},\"histograms\":{\"backoff_slots\":"))
            .expect("the three sections, in order")
            .0;
        counters
            .split(',')
            .map(|pair| pair.split_once(':').expect("key:value").0.trim_matches('"'))
            .collect()
    }

    #[test]
    fn key_table_is_byte_sorted_and_scenario_keys_are_optional() {
        assert!(
            COUNTERS
                .windows(2)
                .all(|w| w[0].0.as_bytes() < w[1].0.as_bytes()),
            "COUNTERS must be strictly byte-sorted"
        );
        let all: Vec<&str> = COUNTERS.iter().map(|(key, _)| *key).collect();
        let plain: Vec<&str> = all
            .iter()
            .copied()
            .filter(|key| !key.starts_with("scenario."))
            .collect();
        assert_eq!(all.len() - plain.len(), 8);

        let report = |scenario| {
            let mut builder = SimConfig::builder(1, SchemeSpec::Counter(2))
                .hosts(8)
                .broadcasts(2);
            if let Some(scenario) = scenario {
                builder = builder.scenario(scenario);
            }
            metrics_record(&[World::new(builder.build()).run()])
        };
        assert_eq!(counter_keys(&render_record_metrics(&report(None))), plain);
        let churn = Scenario::new("one-leave").with_hosts(8).churn(
            SimTime::from_secs(1),
            ChurnKind::Leave,
            3,
        );
        assert_eq!(
            counter_keys(&render_record_metrics(&report(Some(churn)))),
            all
        );
    }

    #[test]
    fn empty_figure_list_is_still_valid() {
        let json = render_metrics_json("default", &[]);
        assert_eq!(
            json,
            "{\"schema\":\"manet-broadcast-metrics/1\",\"scale\":\"default\",\"figures\":[]}\n"
        );
    }
}
