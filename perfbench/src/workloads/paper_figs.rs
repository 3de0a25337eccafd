//! `paper_figs`: the paper's figures and claim checks at quick scale,
//! through the same runners, renderers and metrics capture that
//! `manet-experiments <ids> --scale quick --csv DIR --metrics FILE` uses.

use std::panic::{catch_unwind, AssertUnwindSafe};

use broadcast_core::{SchemeSpec, SimConfig};
use manet_experiments::{
    all_figures, drain_metrics_capture, enable_metrics_capture, render_metrics_json, FigureRunner,
    MetricsRecord, Scale,
};

use super::{cpu_now, ready, world_setup_ms, ChildOptions, Outcome};
use crate::checks::{fnv1a, Counts, FNV_START};
use crate::inputs::figure_order;
use crate::layers::{self, Observed, Shape};
use crate::span::Tracer;

/// The claim checks the figure set must pass, all of them.
const CLAIMS: &str = "17,17";

/// One figure's outputs: its text tables and CSV, and the runs captured
/// for the metrics document. `None` when the runner panicked.
struct FigureOutput {
    id: &'static str,
    seconds: f64,
    rendered: Option<String>,
    records: Vec<MetricsRecord>,
}

fn run_figure(id: &'static str, runner: FigureRunner, tracer: &mut Tracer) -> FigureOutput {
    let ((rendered, records), seconds) = tracer.span(&format!("experiments.figure.{id}"), |_| {
        enable_metrics_capture();
        let tables = catch_unwind(AssertUnwindSafe(|| runner(Scale::Quick)));
        let records = drain_metrics_capture();
        let rendered = tables.ok().map(|tables| {
            let mut text = String::new();
            for table in &tables {
                text.push_str(&table.render());
                text.push_str(&table.to_csv());
            }
            text
        });
        (rendered, records)
    });
    FigureOutput {
        id,
        seconds,
        rendered,
        records,
    }
}

pub fn run(options: &ChildOptions, tracer: &mut Tracer) -> Option<Outcome> {
    let registry = all_figures();
    let order: Vec<(&'static str, FigureRunner)> = figure_order(options.seed, options.quick)
        .into_iter()
        .map(|id| {
            let (_, runner) = registry
                .iter()
                .find(|(known, _)| *known == id)
                .unwrap_or_else(|| panic!("the harness has no figure {id}"));
            (id, *runner)
        })
        .collect();
    if !ready(options) {
        return None;
    }

    let cpu_start = cpu_now();
    let ((mut figures, document, render_s), wall_s) = tracer.span(&options.workload, |t| {
        let figures: Vec<FigureOutput> = order
            .iter()
            .map(|&(id, runner)| run_figure(id, runner, t))
            .collect();
        let captured: Vec<(String, Vec<MetricsRecord>)> = figures
            .iter()
            .map(|f| (f.id.to_string(), f.records.clone()))
            .collect();
        let (document, render_s) = t.span("experiments.metrics_out.render", |_| {
            render_metrics_json("quick", &captured)
        });
        (figures, document, render_s)
    });
    let cpu_s = cpu_now() - cpu_start;

    // Outputs are digested in id order, so the digest does not depend on
    // the order the seed asked for the figures in.
    figures.sort_by_key(|f| f.id);
    let mut failures = Vec::new();
    let mut failed_ops = 0;
    let mut digest = FNV_START;
    let mut artifact_bytes = document.len();
    let mut records = 0;
    for figure in &figures {
        records += figure.records.len();
        match &figure.rendered {
            None => {
                failures.push(format!("{} panicked", figure.id));
                failed_ops += 1;
            }
            Some(text) => {
                digest = fnv1a(fnv1a(digest, figure.id.as_bytes()), text.as_bytes());
                artifact_bytes += text.len();
                if figure.id == "claims" && !text.lines().any(|line| line == CLAIMS) {
                    failures.push(format!("claims: not {CLAIMS} PASS"));
                    failed_ops += 1;
                }
            }
        }
        // Records that tie on (scheme, map) reach the capture in worker
        // scheduling order (fig11 sweeps speed under one such key), so
        // they are summed rather than chained.
        for record in &figure.records {
            let one =
                render_metrics_json("quick", &[(figure.id.to_string(), vec![record.clone()])]);
            digest = digest.wrapping_add(fnv1a(FNV_START, one.as_bytes()));
        }
    }
    let mut counts = Counts::default();
    if let Err(problem) = counts.add_document(&document) {
        failures.push(problem);
        failed_ops = (failed_ops + 1).min(figures.len() as u64);
    }

    let mut outcome = Outcome {
        wall_s,
        cpu_s,
        ops: figures.len() as u64,
        failed_ops,
        artifact_bytes: artifact_bytes as f64,
        // The figure runners build their own worlds, so engine events
        // cannot be counted from outside; frames put on the air are the
        // events the metrics capture does expose.
        events: Some(counts.frames()),
        digest,
        failures,
        ..Outcome::default()
    };

    if options.traced {
        let layers = &mut outcome.layers;
        for figure in &figures {
            layers.push((
                format!("experiments.figure_s.{}", figure.id),
                figure.seconds,
            ));
        }
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        layers.push((
            "experiments.runner.parallel_efficiency".into(),
            cpu_s / (wall_s * threads as f64),
        ));
        layers.push((
            "experiments.metrics_out.render_us_per_record".into(),
            render_s * 1e6 / records.max(1) as f64,
        ));
        let replays = format!("{}.replays", options.workload);
        tracer.span(&replays, |t| {
            // The paper's 100 hosts on its middle map.
            let ac = SchemeSpec::parse("ac").expect("ac parses");
            let paper_worlds =
                (0..50).map(|seed| SimConfig::builder(5, ac.clone()).seed(seed).build());
            let (world_setup_ms, _) = t.span("core.world.new", |_| world_setup_ms(paper_worlds));
            let observed = Observed {
                counts,
                events: 0.0,
                busy_s: cpu_s,
                worlds_built: counts.runs,
                world_setup_ms,
                pure_actions: 0.0,
                pure_step_ns: 0.0,
                broadcasts: counts.runs * f64::from(Scale::Quick.broadcasts()),
                rendered_s: render_s,
            };
            let shape = Shape {
                hosts: 100,
                map_units: 5,
            };
            layers.extend(layers::replay(shape, &observed, t));
        });
    }
    Some(outcome)
}
