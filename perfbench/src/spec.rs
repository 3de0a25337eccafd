//! The benchmark's fixed vocabulary: workloads, metrics, units, bounds.
//! `BENCHMARK.json` at the repository root states the same; a unit test
//! keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, with the share of the
/// parent's median by which it may worsen before a change is rejected.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "artifact_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// The figures `paper_figs` regenerates, in the harness's own order.
pub const PAPER_FIGURES: [&str; 15] = [
    "fig1", "fig2", "fig5a", "fig5b", "fig5c", "fig5d", "fig6", "fig7", "fig8", "fig9", "fig10",
    "fig11", "fig12", "fig13", "claims",
];

/// Event kinds of the world's loop profile, as `profile_events` labels
/// them.
pub const EVENT_KINDS: [&str; 7] = [
    "mac_timer",
    "tx_end",
    "assessment_done",
    "carrier_sense",
    "hello_timer",
    "issue_broadcast",
    "mobility_turn",
];

/// Per-layer metrics with a fixed name: `(name, unit, better)`. The
/// per-kind loop times and per-figure times are added by
/// [`per_layer_names`].
const PER_LAYER_FIXED: [(&str, &str, Better); 53] = [
    ("core.world.events", "count", Better::Lower),
    ("core.world.setup_ms", "ms", Better::Lower),
    ("core.world.trace_overhead_ratio", "ratio", Better::Lower),
    ("core.world.unattributed_share", "share", Better::Lower),
    ("sim-engine.queue.ns_per_op", "ns", Better::Lower),
    ("sim-engine.queue.est_share", "share", Better::Lower),
    ("mobility.refresh_ns_per_host", "ns", Better::Lower),
    ("mobility.turns", "count", Better::Lower),
    ("mobility.est_share", "share", Better::Lower),
    ("phy.grid.update_us", "us", Better::Lower),
    ("phy.grid.query_ns", "ns", Better::Lower),
    ("phy.grid.neighbors_per_query", "count", Better::Lower),
    ("phy.grid.est_share", "share", Better::Lower),
    ("phy.topology.scan_us", "us", Better::Lower),
    ("phy.topology.est_share", "share", Better::Lower),
    ("phy.medium.frames", "count", Better::Lower),
    ("phy.medium.lost_deliveries", "count", Better::Lower),
    ("phy.medium.begin_ns_per_frame", "ns", Better::Lower),
    ("phy.medium.end_ns_per_frame", "ns", Better::Lower),
    ("phy.medium.est_share", "share", Better::Lower),
    ("mac.dcf.backoff_draws", "count", Better::Lower),
    ("mac.dcf.freezes", "count", Better::Lower),
    ("mac.dcf.deferrals", "count", Better::Lower),
    ("mac.dcf.ns_per_cycle", "ns", Better::Lower),
    ("mac.dcf.est_share", "share", Better::Lower),
    ("net.hello.sent", "count", Better::Lower),
    ("net.hello.received", "count", Better::Lower),
    ("net.neighbor_table.record_hello_ns", "ns", Better::Lower),
    ("net.neighbor_table.expire_ns", "ns", Better::Lower),
    ("net.est_share", "share", Better::Lower),
    ("core.pure.actions", "count", Better::Lower),
    ("core.pure.step_ns_per_action", "ns", Better::Lower),
    ("core.pure.suppressed_ratio", "ratio", Better::Higher),
    ("core.pure.est_share", "share", Better::Lower),
    ("core.metrics.issue_ns_per_broadcast", "ns", Better::Lower),
    ("geom.coverage.additional_fraction_ns", "ns", Better::Lower),
    ("core.record.bytes_per_action", "count", Better::Lower),
    ("core.record.overhead_ratio", "ratio", Better::Lower),
    ("core.record.decode_ms", "ms", Better::Lower),
    ("core.snapshot.encode_ms", "ms", Better::Lower),
    ("core.snapshot.resume_ms", "ms", Better::Lower),
    ("core.snapshot.bytes", "count", Better::Lower),
    (
        "experiments.runner.parallel_efficiency",
        "ratio",
        Better::Higher,
    ),
    (
        "experiments.metrics_out.render_us_per_record",
        "us",
        Better::Lower,
    ),
    ("scenario.parse_us", "us", Better::Lower),
    ("scenario.campaign_parse_us_per_job", "us", Better::Lower),
    ("campaign.mcmp.encode_ns_per_frame", "ns", Better::Lower),
    ("campaign.mcmp.decode_ns_per_frame", "ns", Better::Lower),
    ("campaign.mcmp.bytes_per_job", "count", Better::Lower),
    ("campaign.queue.submit_us_per_kjob", "us", Better::Lower),
    (
        "campaign.scheduler.inproc_jobs_per_s",
        "1/s",
        Better::Higher,
    ),
    ("campaign.pipe_overhead_ratio", "ratio", Better::Lower),
    ("campaign.first_result_ms", "ms", Better::Lower),
];

/// Every per-layer metric as `(name, unit, better)`, in print order.
pub fn per_layer_names() -> Vec<(String, &'static str, Better)> {
    let mut all: Vec<(String, &'static str, Better)> = PER_LAYER_FIXED
        .iter()
        .map(|&(name, unit, better)| (name.to_string(), unit, better))
        .collect();
    for kind in EVENT_KINDS {
        all.push((format!("core.world.loop_s.{kind}"), "s", Better::Lower));
    }
    for figure in PAPER_FIGURES {
        all.push((format!("experiments.figure_s.{figure}"), "s", Better::Lower));
    }
    all
}

/// One benchmark workload and why it is in the set.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "storm10k",
        why: "10^4 hosts, 10x10 map, counter:3, oracle neighbours, 4 spaced broadcasts: queue, geometry, Medium and DCF do the work; HELLO/net none",
    },
    WorkloadSpec {
        name: "nc_dense1k",
        why: "1000 hosts on a grid, 5x5 map (~110 neighbours), nc with 1 s HELLO, 64 broadcasts: NeighborTable and PureModels dominate; queue and geometry are minor",
    },
    WorkloadSpec {
        name: "paper_figs",
        why: "fig1-13 + claims at quick scale via all_figures(): hundreds of 100-host worlds, so World::new, BFS metrics, coverage grid, parallel_map matter",
    },
    WorkloadSpec {
        name: "serve_sweep",
        why: "8000-job ac seed sweep over a real pipe to a serve() child: world set-up/teardown, metrics rendering, MCMP framing, queue and scheduler",
    },
    WorkloadSpec {
        name: "record_resume",
        why: "300 hosts, nc, 100 broadcasts: record + replay_decisions, then pause/snapshot/resume every 2 s: the core layers as codec and replayer",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(row: &'a Json, key: &str) -> &'a str {
        row.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {row:?}"))
    }

    #[test]
    fn benchmark_json_states_the_same_workloads_and_metrics() {
        let doc = benchmark_json();
        let workloads = doc.get("workloads").expect("workloads").as_arr();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (row, spec) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(row, "name"), spec.name);
            assert_eq!(field(row, "why"), spec.why);
            assert!(
                spec.why.len() <= 200 && !spec.why.contains('\n'),
                "{}",
                spec.name
            );
        }
        let end_to_end = doc.get("end_to_end").expect("end_to_end").as_arr();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (row, spec) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(field(row, "name"), spec.name);
            assert_eq!(field(row, "unit"), spec.unit);
            assert_eq!(field(row, "better"), spec.better.as_str());
            assert_eq!(row.get("bound").and_then(Json::as_f64), Some(spec.bound));
            assert!(spec.bound <= 0.25);
        }
        let per_layer = doc.get("per_layer").expect("per_layer").as_arr();
        let names = per_layer_names();
        assert!(names.len() <= 128);
        assert_eq!(per_layer.len(), names.len());
        for (row, (name, unit, better)) in per_layer.iter().zip(&names) {
            assert_eq!(field(row, "name"), name);
            assert_eq!(field(row, "unit"), *unit);
            assert_eq!(field(row, "better"), better.as_str());
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = per_layer_names().into_iter().map(|(n, _, _)| n);
        let all = names
            .chain(END_TO_END.iter().map(|m| m.name.to_string()))
            .chain(WORKLOADS.iter().map(|w| w.name.to_string()));
        for name in all {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
    }
}
