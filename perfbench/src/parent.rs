//! The parent side: runs repetitions as child processes, folds what
//! they report into metrics, and decides what counts as failed.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::json::Json;
use crate::span::Span;
use crate::spec::{per_layer_names, Better, WorkloadSpec, END_TO_END};
use crate::stats::{summarize, Summary};
use crate::workloads::Outcome;

/// Children run for their set-up alone, so `setup_s` is a median of
/// several set-ups even when few repetitions fit the run.
const SETUP_ONLY_RUNS: usize = 5;
/// Repetitions a full run times at least, however long one takes.
const MIN_REPETITIONS: usize = 3;

/// How to run one workload.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub workload: &'static WorkloadSpec,
    pub seed: u64,
    /// Time budget of the timed repetitions.
    pub seconds: f64,
    /// One repetition on ten times smaller inputs.
    pub quick: bool,
}

/// What one child process did.
struct ChildRun {
    /// Spawn to `ready`, when the child got that far.
    setup_s: Option<f64>,
    outcome: Result<Outcome, String>,
}

fn spawn_child(options: &RunOptions, flags: &[&str]) -> ChildRun {
    let failed = |problem: String| ChildRun {
        setup_s: None,
        outcome: Err(problem),
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(problem) => return failed(format!("current_exe: {problem}")),
    };
    let mut command = Command::new(exe);
    command
        .args([
            "--child",
            options.workload.name,
            "--seed",
            &options.seed.to_string(),
        ])
        .args(flags)
        .stdout(Stdio::piped());
    if options.quick {
        command.arg("--quick");
    }
    let spawned_at = Instant::now();
    let mut child = match command.spawn() {
        Ok(child) => child,
        Err(problem) => return failed(format!("spawn: {problem}")),
    };
    let mut setup_s = None;
    let mut reported = None;
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    for line in stdout.lines().map_while(Result::ok) {
        if line == "ready" {
            setup_s.get_or_insert(spawned_at.elapsed().as_secs_f64());
        } else {
            reported = Some(line);
        }
    }
    // A child that panics or exits non-zero is a failed repetition, never
    // a missing one.
    let outcome = match child.wait() {
        Err(problem) => Err(format!("wait: {problem}")),
        Ok(status) if !status.success() => Err(format!("child exited with {status}")),
        Ok(_) if flags.contains(&"--setup-only") => Ok(Outcome::default()),
        Ok(_) => reported
            .as_deref()
            .ok_or_else(|| "child reported nothing".to_string())
            .and_then(Json::parse)
            .and_then(|doc| Outcome::from_json(&doc).ok_or_else(|| "incomplete report".into())),
    };
    ChildRun { setup_s, outcome }
}

/// Operation counts and failure notes folded over a run's repetitions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Verdict {
    /// Folds in one repetition. `ops_hint` is the operation count of a
    /// repetition that could not say (it crashed); `reference` is the
    /// digest every repetition of the same inputs must reproduce.
    fn add(&mut self, run: &ChildRun, ops_hint: u64, reference: &mut Option<u64>) {
        match &run.outcome {
            Err(problem) => {
                self.attempted += ops_hint;
                self.failed += ops_hint;
                self.failures.push(problem.clone());
            }
            Ok(outcome) => {
                self.attempted += outcome.ops;
                self.failures.extend(outcome.failures.iter().cloned());
                if *reference.get_or_insert(outcome.digest) == outcome.digest {
                    self.failed += outcome.failed_ops;
                } else {
                    self.failed += outcome.ops;
                    self.failures
                        .push("outputs differ between repetitions of the same inputs".into());
                }
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

/// One end-to-end metric of one run: the value reported and the spread
/// of the repetitions behind it.
///
/// The value is the best repetition's: the lowest of a lower-is-better
/// metric, the highest of a higher-is-better one. The box this runs on
/// shares its host, and what neighbours do to a repetition is one-sided —
/// it only ever gets slower — so the best repetition is the steadiest
/// estimate of what the program costs, where a median moves with how busy
/// the neighbours were.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub over: Summary,
}

/// An untraced run: every end-to-end metric.
#[derive(Debug, Clone)]
pub struct Untraced {
    pub readings: Vec<Reading>,
    pub verdict: Verdict,
}

/// What an untraced run has gathered so far.
#[derive(Default)]
struct Gathered {
    verdict: Verdict,
    reference: Option<u64>,
    setups: Vec<f64>,
    events: Option<f64>,
    /// Operations per repetition, for charging a crashed one.
    ops_hint: u64,
}

impl Gathered {
    /// Folds in one repetition and hands back what it measured.
    fn note(&mut self, run: ChildRun) -> Option<Outcome> {
        self.verdict
            .add(&run, self.ops_hint.max(1), &mut self.reference);
        self.setups.extend(run.setup_s);
        let outcome = run.outcome.ok()?;
        self.ops_hint = outcome.ops;
        if let Some(counted) = outcome.events {
            if *self.events.get_or_insert(counted) != counted {
                self.verdict
                    .failures
                    .push("event count differs between repetitions".into());
            }
        }
        Some(outcome)
    }
}

/// Runs the untraced repetitions of one workload.
pub fn untraced(options: &RunOptions) -> Untraced {
    let mut gathered = Gathered::default();
    let mut timed: Vec<Outcome> = Vec::new();
    if options.quick {
        // One repetition does everything; profiling it is the price of
        // counting events without a second run.
        timed.extend(gathered.note(spawn_child(options, &["--profile"])));
    } else {
        for _ in 0..SETUP_ONLY_RUNS {
            let run = spawn_child(options, &["--setup-only"]);
            gathered.setups.extend(run.setup_s);
            if let Err(problem) = run.outcome {
                gathered
                    .verdict
                    .failures
                    .push(format!("set-up only: {problem}"));
            }
        }
        // As many repetitions as finish inside the budget, judging the
        // next one by the slowest so far.
        let started = Instant::now();
        let mut slowest = 0.0f64;
        while timed.len() < MIN_REPETITIONS
            || started.elapsed().as_secs_f64() + slowest <= options.seconds
        {
            let before = started.elapsed().as_secs_f64();
            // A repetition that crashed is charged as failed above; more
            // of the same would measure nothing.
            let Some(outcome) = gathered.note(spawn_child(options, &[])) else {
                break;
            };
            slowest = slowest.max(started.elapsed().as_secs_f64() - before);
            timed.push(outcome);
        }
        // Counting engine events takes the loop profiler, which a timed
        // repetition must not carry: where none could count them, one more
        // repetition of the same inputs does (the count repeats exactly).
        if gathered.events.is_none() && !timed.is_empty() {
            gathered.note(spawn_child(options, &["--profile"]));
        }
    }

    let column = |of: fn(&Outcome) -> f64| -> Vec<f64> { timed.iter().map(of).collect() };
    // Throughputs divide an exact count by each repetition's wall time.
    let per_wall = |count: f64| -> Vec<f64> { timed.iter().map(|o| count / o.wall_s).collect() };
    let ops = timed.first().map_or(0.0, |o| o.ops as f64);
    let columns: [Vec<f64>; 7] = [
        std::mem::take(&mut gathered.setups),
        column(|o| o.wall_s),
        column(|o| o.cpu_s),
        column(|o| o.peak_rss_mb),
        per_wall(gathered.events.unwrap_or(0.0)),
        per_wall(ops),
        column(|o| o.artifact_bytes / (1024.0 * 1024.0)),
    ];
    let readings = END_TO_END
        .iter()
        .zip(&columns)
        .map(|(metric, values)| {
            // No sample at all (every repetition crashed) reads zero; the
            // verdict already says the run is not correct.
            let values: &[f64] = if values.is_empty() { &[0.0] } else { values };
            let best = match metric.better {
                Better::Lower => values.iter().copied().fold(f64::INFINITY, f64::min),
                Better::Higher => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            };
            Reading {
                name: metric.name,
                unit: metric.unit,
                value: best,
                over: summarize(values),
            }
        })
        .collect();
    Untraced {
        readings,
        verdict: gathered.verdict,
    }
}

/// A traced run: every per-layer metric and the spans behind them.
#[derive(Debug, Clone)]
pub struct Traced {
    /// `(name, unit, value)` for every per-layer metric, in print order.
    pub layers: Vec<(String, &'static str, f64)>,
    pub spans: Vec<Span>,
    pub verdict: Verdict,
}

/// Runs the traced pass of one workload: one plain repetition for the
/// base wall time, one profiled repetition with spans and replays.
pub fn traced(options: &RunOptions) -> Traced {
    let mut verdict = Verdict::default();
    let mut reference = None;
    let plain = spawn_child(options, &[]);
    verdict.add(&plain, 1, &mut reference);
    let ops_hint = plain.outcome.as_ref().map_or(1, |o| o.ops);
    let profiled = spawn_child(options, &["--traced"]);
    verdict.add(&profiled, ops_hint, &mut reference);

    let mut measured: Vec<(String, f64)> = Vec::new();
    let mut spans = Vec::new();
    if let Ok(outcome) = profiled.outcome {
        if let Ok(base) = &plain.outcome {
            measured.push((
                "core.world.trace_overhead_ratio".into(),
                outcome.wall_s / base.wall_s,
            ));
        }
        measured.extend(outcome.layers);
        spans = outcome.spans;
    }
    // A layer that does no work in this workload reads zero.
    let layers = per_layer_names()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = measured
                .iter()
                .find(|(known, _)| *known == name)
                .map_or(0.0, |m| m.1);
            (name, unit, value)
        })
        .collect();
    Traced {
        layers,
        spans,
        verdict,
    }
}

/// The last line of a run's standard output, as the driver reads it.
pub fn result_line<'a>(
    verdict: &Verdict,
    metrics: impl Iterator<Item = (&'a str, &'a str, f64)>,
) -> String {
    Json::obj([
        ("correct", Json::Bool(verdict.correct())),
        ("attempted", Json::Num(verdict.attempted.max(1) as f64)),
        ("failed", Json::Num(verdict.failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .map(|(name, unit, value)| {
                        let reading =
                            Json::obj([("value", Json::Num(value)), ("unit", Json::from(unit))]);
                        (name.to_string(), reading)
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(ops: u64, failed_ops: u64, digest: u64) -> ChildRun {
        ChildRun {
            setup_s: Some(0.01),
            outcome: Ok(Outcome {
                ops,
                failed_ops,
                digest,
                ..Outcome::default()
            }),
        }
    }

    #[test]
    fn a_crashed_child_counts_as_failed_not_missing() {
        let mut verdict = Verdict::default();
        let mut reference = None;
        verdict.add(&ok(15, 0, 7), 1, &mut reference);
        let crashed = ChildRun {
            setup_s: None,
            outcome: Err("child exited with signal 6".into()),
        };
        verdict.add(&crashed, 15, &mut reference);
        assert_eq!((verdict.attempted, verdict.failed), (30, 15));
        assert!(!verdict.correct());
    }

    #[test]
    fn differing_outputs_fail_the_whole_repetition() {
        let mut verdict = Verdict::default();
        let mut reference = None;
        verdict.add(&ok(3, 0, 7), 1, &mut reference);
        verdict.add(&ok(3, 0, 7), 3, &mut reference);
        assert!(verdict.correct());
        verdict.add(&ok(3, 0, 8), 3, &mut reference);
        assert_eq!((verdict.attempted, verdict.failed), (9, 3));
        verdict.add(&ok(3, 1, 7), 3, &mut reference);
        assert_eq!((verdict.attempted, verdict.failed), (12, 4));
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let verdict = Verdict {
            attempted: 1000,
            failed: 0,
            failures: Vec::new(),
        };
        let line = result_line(&verdict, [("latency_ms", "ms", 1.2034)].into_iter());
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":\
             {\"latency_ms\":{\"value\":1.2034,\"unit\":\"ms\"}}}"
        );
    }
}
