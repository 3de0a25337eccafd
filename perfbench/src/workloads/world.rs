//! `storm10k` and `nc_dense1k`: one large world, run to completion the
//! way `manet-sim` runs it, metrics document included.

use broadcast_core::trace::NoopObserver;
use broadcast_core::{replay_decisions, SimConfig, SimReport, TraceFile, World};
use manet_sim_engine::SimTime;

use super::{cpu_now, ready, ChildOptions, Outcome};
use crate::checks::{check_report, fnv1a, metrics_document, report_text, Counts, FNV_START};
use crate::inputs::world_config;
use crate::layers::{self, Observed, Shape};
use crate::span::Tracer;
use crate::spec::EVENT_KINDS;

/// `core.world.events`, `mobility.turns` and the per-kind loop times of
/// profiled reports, summed and multiplied by `scale` (the reports may be
/// a sample of the runs they stand for).
pub fn profile_layers(reports: &[SimReport], scale: f64, layers: &mut Vec<(String, f64)>) {
    let profiles: Vec<_> = reports.iter().filter_map(|r| r.profile.as_ref()).collect();
    let events: u64 = profiles.iter().map(|p| p.events).sum();
    layers.push(("core.world.events".to_string(), events as f64 * scale));
    for kind in EVENT_KINDS {
        let of_kind = || {
            profiles
                .iter()
                .flat_map(|p| &p.kinds)
                .filter(|k| k.kind == kind)
        };
        let ns: u64 = of_kind().map(|k| k.total_ns).sum();
        layers.push((format!("core.world.loop_s.{kind}"), ns as f64 / 1e9 * scale));
        if kind == "mobility_turn" {
            let count: u64 = of_kind().map(|k| k.count).sum();
            layers.push(("mobility.turns".to_string(), count as f64 * scale));
        }
    }
}

/// What recording `config`'s run and replaying the trace through the pure
/// models alone costs: `(actions, ns per pure step, layer metrics)`.
pub fn record_and_replay(
    config: &SimConfig,
    tracer: &mut Tracer,
    layers: &mut Vec<(String, f64)>,
) -> (f64, f64) {
    let mut plain = World::new(config.clone());
    let (_, plain_s) = tracer.span("core.world.run.plain", |_| {
        plain.advance_until(SimTime::MAX, &mut NoopObserver)
    });
    drop(plain);
    let mut recorded = World::new(config.clone());
    recorded.enable_recording();
    let (_, recorded_s) = tracer.span("core.record.run", |_| {
        recorded.advance_until(SimTime::MAX, &mut NoopObserver)
    });
    let trace = recorded.take_trace().expect("recording was enabled");
    drop(recorded);
    let (decoded, decode_s) = tracer.span("core.record.decode", |_| TraceFile::decode(&trace));
    drop(decoded);
    let (summary, replay_s) =
        tracer.span("core.pure.replay_decisions", |_| replay_decisions(&trace));
    let actions = summary.map_or(0.0, |s| s.actions as f64);
    layers.push((
        "core.record.bytes_per_action".into(),
        trace.len() as f64 / actions.max(1.0),
    ));
    layers.push(("core.record.overhead_ratio".into(), recorded_s / plain_s));
    layers.push(("core.record.decode_ms".into(), decode_s * 1e3));
    // The replay decodes the trace first; what is left is the stepping.
    let step_ns = (replay_s - decode_s).max(0.0) * 1e9 / actions.max(1.0);
    (actions, step_ns)
}

pub fn run(options: &ChildOptions, tracer: &mut Tracer) -> Option<Outcome> {
    let config = world_config(
        &options.workload,
        options.seed,
        options.quick,
        options.profile,
    );
    let (world, setup_s) = tracer.span("core.world.new", |_| World::new(config.clone()));
    if !ready(options) {
        return None;
    }

    let cpu_start = cpu_now();
    let ((report, document, render_s), wall_s) = tracer.span(&options.workload, |t| {
        let (report, _) = t.span("core.world.run", |_| world.run());
        let (document, render_s) = t.span("experiments.metrics_out.render", |_| {
            metrics_document(std::slice::from_ref(&report))
        });
        (report, document, render_s)
    });
    let cpu_s = cpu_now() - cpu_start;

    let mut failures = Vec::new();
    check_report(&report, config.broadcasts, &mut failures);
    let mut counts = Counts::default();
    if let Err(problem) = counts.add_document(&document) {
        failures.push(problem);
    }
    let mut outcome = Outcome {
        wall_s,
        cpu_s,
        ops: 1,
        failed_ops: u64::from(!failures.is_empty()),
        artifact_bytes: document.len() as f64,
        events: report.profile.as_ref().map(|p| p.events as f64),
        digest: fnv1a(FNV_START, report_text(&report).as_bytes()),
        failures,
        ..Outcome::default()
    };

    if options.traced {
        let layers = &mut outcome.layers;
        profile_layers(std::slice::from_ref(&report), 1.0, layers);
        layers.push((
            "experiments.metrics_out.render_us_per_record".into(),
            render_s * 1e6,
        ));
        let replays = format!("{}.replays", options.workload);
        tracer.span(&replays, |t| {
            let (pure_actions, pure_step_ns) = record_and_replay(&config, t, layers);
            let observed = Observed {
                counts,
                events: outcome.events.unwrap_or(0.0),
                busy_s: cpu_s,
                worlds_built: 0.0,
                world_setup_ms: setup_s * 1e3,
                pure_actions,
                pure_step_ns,
                broadcasts: f64::from(config.broadcasts),
                rendered_s: render_s,
            };
            let shape = Shape {
                hosts: config.hosts as usize,
                map_units: config.map_units,
            };
            layers.extend(layers::replay(shape, &observed, t));
        });
    }
    Some(outcome)
}
