//! `record_resume`: the core layers used as codec and replayer. One run
//! is recorded and its trace replayed through the pure models alone; the
//! same run is then paused every [`RESUME_STEP`], snapshotted, dropped
//! and resumed from the bytes, and must end in the same report.

use broadcast_core::trace::NoopObserver;
use broadcast_core::{replay_decisions, SimConfig, SimReport, World};
use manet_sim_engine::{SimTime, WireError};

use super::world::{profile_layers, record_and_replay};
use super::{cpu_now, ready, ChildOptions, Outcome};
use crate::checks::{check_report, fnv1a, metrics_document, report_text, Counts, FNV_START};
use crate::inputs::{world_config, RESUME_STEP};
use crate::layers::{self, Observed, Shape};
use crate::span::Tracer;

/// What the pause/snapshot/resume run cost beside the simulation itself.
#[derive(Debug, Default)]
struct Pauses {
    count: u32,
    encode_s: f64,
    resume_s: f64,
    largest_snapshot: usize,
}

/// Runs `config` to completion through a snapshot and a resume at every
/// [`RESUME_STEP`] of simulated time.
fn paused_run(
    config: &SimConfig,
    pauses: &mut Pauses,
    tracer: &mut Tracer,
) -> Result<SimReport, WireError> {
    let mut world = World::new(config.clone());
    let mut pause_at = SimTime::ZERO + RESUME_STEP;
    while !world.advance_until(pause_at, &mut NoopObserver) {
        let (bytes, encode_s) = tracer.span("core.snapshot.encode", |_| world.snapshot());
        let (resumed, resume_s) = tracer.span("core.snapshot.resume", |_| {
            World::resume(config.clone(), &bytes)
        });
        world = resumed?;
        pauses.count += 1;
        pauses.encode_s += encode_s;
        pauses.resume_s += resume_s;
        pauses.largest_snapshot = pauses.largest_snapshot.max(bytes.len());
        pause_at += RESUME_STEP;
    }
    Ok(world.into_report())
}

pub fn run(options: &ChildOptions, tracer: &mut Tracer) -> Option<Outcome> {
    let config = world_config(
        &options.workload,
        options.seed,
        options.quick,
        options.profile,
    );
    let (mut world, setup_s) = tracer.span("core.world.new", |_| {
        let mut world = World::new(config.clone());
        world.enable_recording();
        world
    });
    if !ready(options) {
        return None;
    }

    let mut pauses = Pauses::default();
    let cpu_start = cpu_now();
    let ((straight, trace, replayed, resumed), wall_s) = tracer.span(&options.workload, |t| {
        let (trace, _) = t.span("core.record.run", |_| {
            world.advance_until(SimTime::MAX, &mut NoopObserver);
            world.take_trace().expect("recording was enabled")
        });
        let straight = world.into_report();
        let (replayed, _) = t.span("core.pure.replay_decisions", |_| replay_decisions(&trace));
        let (resumed, _) = t.span("core.snapshot.paused_run", |t| {
            paused_run(&config, &mut pauses, t)
        });
        (straight, trace, replayed, resumed)
    });
    let cpu_s = cpu_now() - cpu_start;

    // Three operations: the recorded run, the replay, the resumed run.
    let mut failed_ops = 0;
    let mut failures = Vec::new();
    check_report(&straight, config.broadcasts, &mut failures);
    // Both runs of the timed section did the counted work: add it twice.
    let document = metrics_document(std::slice::from_ref(&straight));
    let mut counts = Counts::default();
    if let Err(problem) = counts
        .add_document(&document)
        .and_then(|()| counts.add_document(&document))
    {
        failures.push(problem);
    }
    failed_ops += u64::from(!failures.is_empty());
    if let Err(problem) = &replayed {
        failures.push(format!("replay_decisions: {problem}"));
        failed_ops += 1;
    }
    let straight_text = report_text(&straight);
    match &resumed {
        Ok(report) if report_text(report) == straight_text => {}
        Ok(_) => {
            failures.push("the resumed run's report differs from the uninterrupted run's".into());
            failed_ops += 1;
        }
        Err(problem) => {
            failures.push(format!("World::resume: {problem}"));
            failed_ops += 1;
        }
    }

    let mut outcome = Outcome {
        wall_s,
        cpu_s,
        ops: 3,
        failed_ops,
        artifact_bytes: (trace.len() + pauses.largest_snapshot) as f64,
        // The resumed run delivers the recorded run's event stream over
        // again (its report is checked equal above), so the timed section
        // handles twice the one run's events.
        events: straight.profile.as_ref().map(|p| 2.0 * p.events as f64),
        digest: fnv1a(fnv1a(FNV_START, straight_text.as_bytes()), &trace),
        failures,
        ..Outcome::default()
    };
    drop(trace);

    if options.traced {
        let layers = &mut outcome.layers;
        profile_layers(std::slice::from_ref(&straight), 2.0, layers);
        let per_pause = 1e3 / f64::from(pauses.count.max(1));
        layers.push((
            "core.snapshot.encode_ms".into(),
            pauses.encode_s * per_pause,
        ));
        layers.push((
            "core.snapshot.resume_ms".into(),
            pauses.resume_s * per_pause,
        ));
        layers.push(("core.snapshot.bytes".into(), pauses.largest_snapshot as f64));
        let replays = format!("{}.replays", options.workload);
        tracer.span(&replays, |t| {
            let (pure_actions, pure_step_ns) = record_and_replay(&config, t, layers);
            let observed = Observed {
                counts,
                events: outcome.events.unwrap_or(0.0),
                busy_s: cpu_s,
                worlds_built: f64::from(pauses.count),
                world_setup_ms: setup_s * 1e3,
                // Stepped live by both runs and once more by the replay.
                pure_actions: 3.0 * pure_actions,
                pure_step_ns,
                broadcasts: 2.0 * f64::from(config.broadcasts),
                rendered_s: 0.0,
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
