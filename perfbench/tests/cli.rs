//! Drives the built benchmark the way CI and the benchmark driver do.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::path::PathBuf;
use std::process::{Command, Output};

use json::Json;

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run perfbench")
}

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

fn names(rows: &Json) -> Vec<&str> {
    rows.as_arr()
        .iter()
        .map(|row| row.get("name").and_then(Json::as_str).expect("name"))
        .collect()
}

/// The checks are keyed to no seed: two different seeds both pass, on
/// different inputs.
#[test]
fn quick_mode_passes_its_own_checks_on_two_seeds() {
    let mut event_counts = Vec::new();
    for seed in ["11", "4242"] {
        let dir = out_dir(&format!("quick-{seed}"));
        let run = perfbench(&[
            "--quick",
            "--seed",
            seed,
            "--out",
            dir.to_str().expect("utf-8"),
        ]);
        assert!(
            run.status.success(),
            "seed {seed}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        let text = std::fs::read_to_string(dir.join("results.json")).expect("results.json");
        let results = Json::parse(&text).expect("results.json parses");
        assert_eq!(results.get("quick"), Some(&Json::Bool(true)));
        let workloads = results.get("workloads").expect("workloads");
        assert_eq!(
            names(workloads),
            [
                "storm10k",
                "nc_dense1k",
                "paper_figs",
                "serve_sweep",
                "record_resume"
            ]
        );
        for workload in workloads.as_arr() {
            assert_eq!(workload.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(workload.get("attempted").and_then(Json::as_f64) >= Some(1.0));
            assert_eq!(
                workload.get("end_to_end").map(|m| m.as_arr().len()),
                Some(7)
            );
            for metric in workload.get("end_to_end").expect("end_to_end").as_arr() {
                // Quick inputs can finish inside one 10 ms CPU tick.
                let ticks = metric.get("name").and_then(Json::as_str) == Some("cpu_s");
                let value = metric.get("value").and_then(Json::as_f64).expect("value");
                assert!(value > 0.0 || (ticks && value == 0.0), "{metric:?}");
            }
        }
        let storm = &workloads.as_arr()[0];
        let events = storm
            .get("per_layer")
            .expect("per_layer")
            .as_arr()
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some("core.world.events"))
            .and_then(|m| m.get("value")?.as_f64())
            .expect("core.world.events");
        event_counts.push(events);

        // Every workload's root span is in the trace, with its parent unset.
        let trace = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json");
        let trace = Json::parse(&trace).expect("trace.json parses");
        for workload in names(workloads) {
            let root = trace
                .get("spans")
                .expect("spans")
                .as_arr()
                .iter()
                .find(|span| {
                    span.get("name").and_then(Json::as_str) == Some(workload)
                        && span.get("workload").and_then(Json::as_str) == Some(workload)
                });
            assert_eq!(
                root.and_then(|r| r.get("parent")),
                Some(&Json::Null),
                "{workload}"
            );
        }
    }
    assert_ne!(
        event_counts[0], event_counts[1],
        "the seed did not reach the inputs"
    );
}

/// One workload, as the driver runs it: the last line is the result.
#[test]
fn the_driver_gets_its_result_line() {
    let benchmark = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let benchmark = Json::parse(&std::fs::read_to_string(benchmark).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let dir = out_dir("driver");
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let run = perfbench(&[
            "--workload",
            "record_resume",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--quick",
            "--out",
            dir.to_str().expect("utf-8"),
        ]);
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let stdout = String::from_utf8(run.stdout).expect("utf-8");
        let result = Json::parse(stdout.lines().last().expect("a last line")).expect("JSON");
        let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        let reported: Vec<&str> = result
            .get("metrics")
            .expect("metrics")
            .members()
            .iter()
            .map(|(name, reading)| {
                assert!(
                    reading.get("value").and_then(Json::as_f64).is_some(),
                    "{name}"
                );
                assert!(
                    reading.get("unit").and_then(Json::as_str).is_some(),
                    "{name}"
                );
                name.as_str()
            })
            .collect();
        assert_eq!(reported, names(benchmark.get(section).expect(section)));
    }
}

#[test]
fn a_bad_command_line_is_refused_without_a_result() {
    let run = perfbench(&["--workload", "no_such_workload"]);
    assert_eq!(run.status.code(), Some(2));
    assert!(run.stdout.is_empty());
    let run = perfbench(&["--check-repeat", "--quick"]);
    assert_eq!(run.status.code(), Some(2));
}
