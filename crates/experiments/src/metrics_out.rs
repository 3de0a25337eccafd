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
//! Each run's `metrics` object is a [`MetricsRegistry`] snapshot: dotted
//! counter names (`losses.overlap`, `mac.backoff_draws`,
//! `suppression.cancelled`, …) plus the `latency_s` and `backoff_slots`
//! histograms. Keys are emitted in lexicographic order, so the document is
//! byte-stable for a given run set.

use manet_sim_engine::{json_escape, MetricsRegistry};

use crate::runner::MetricsRecord;

/// Builds the per-run registry out of one captured record.
fn registry_for(record: &MetricsRecord) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    let m = &record.metrics;

    reg.set_counter("losses.overlap", m.losses.overlap);
    reg.set_counter("losses.half_duplex", m.losses.half_duplex);
    reg.set_counter("losses.injected", m.losses.injected);
    reg.set_counter("losses.capture", m.losses.capture);
    reg.set_counter("losses.total", m.losses.total());

    reg.set_counter("mac.backoff_draws", m.mac.backoff_draws);
    reg.set_counter("mac.backoff_slots_total", m.mac.backoff_slots_total);
    reg.set_counter("mac.freezes", m.mac.freezes);
    reg.set_counter("mac.deferrals", m.mac.deferrals);
    reg.set_counter("mac.enqueued", m.mac.enqueued);
    reg.set_counter("mac.cancelled", m.mac.cancelled);
    reg.set_counter("mac.max_queue_depth", m.mac.max_queue_depth);

    reg.set_counter("net.hello_sent", m.net.hello_sent);
    reg.set_counter("net.hello_received", m.net.hello_received);
    reg.set_counter("net.neighbor_joins", m.net.neighbor_joins);
    reg.set_counter("net.neighbor_leaves", m.net.neighbor_leaves);

    reg.set_counter("suppression.scheduled", m.suppression.scheduled);
    reg.set_counter(
        "suppression.inhibited_first_hear",
        m.suppression.inhibited_first_hear,
    );
    reg.set_counter("suppression.cancelled", m.suppression.cancelled);
    reg.set_counter(
        "suppression.counter_threshold",
        m.suppression.counter_threshold,
    );
    reg.set_counter(
        "suppression.coverage_threshold",
        m.suppression.coverage_threshold,
    );
    reg.set_counter(
        "suppression.neighbor_coverage",
        m.suppression.neighbor_coverage,
    );
    reg.set_counter("suppression.probabilistic", m.suppression.probabilistic);

    // Scenario counters appear only on scenario (churn/fault) runs, so
    // non-scenario documents stay byte-identical to earlier versions.
    if let Some(sc) = &m.scenario {
        reg.set_counter("scenario.leaves", sc.leaves);
        reg.set_counter("scenario.joins", sc.joins);
        reg.set_counter("scenario.crashes", sc.crashes);
        reg.set_counter("scenario.recoveries", sc.recoveries);
        reg.set_counter("scenario.blackout_drops", sc.blackout_drops);
        reg.set_counter("scenario.partition_drops", sc.partition_drops);
        reg.set_counter("scenario.noise_drops", sc.noise_drops);
        reg.set_counter("scenario.injected_drops", sc.injected_drops());
    }

    reg.set_histogram("latency_s", m.latency_s.clone());
    reg.set_histogram("backoff_slots", m.backoff_slots.clone());
    reg
}

/// One record's `metrics` object, exactly as the document embeds it.
pub(crate) fn render_record_metrics(record: &MetricsRecord) -> String {
    registry_for(record).to_json()
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
        capture_test_guard, drain_metrics_capture, enable_metrics_capture, run_averaged,
    };
    use broadcast_core::{SchemeSpec, SimConfig};

    #[test]
    fn document_contains_the_required_keys() {
        let config = SimConfig::builder(3, SchemeSpec::Counter(2))
            .hosts(20)
            .broadcasts(4)
            .seed(11)
            .build();
        let _guard = capture_test_guard();
        enable_metrics_capture();
        let _ = run_averaged(&config, 1);
        let records: Vec<_> = drain_metrics_capture()
            .into_iter()
            .filter(|r| r.scheme == "C=2" && r.map == "3x3")
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

    #[test]
    fn empty_figure_list_is_still_valid() {
        let json = render_metrics_json("default", &[]);
        assert_eq!(
            json,
            "{\"schema\":\"manet-broadcast-metrics/1\",\"scale\":\"default\",\"figures\":[]}\n"
        );
    }
}
