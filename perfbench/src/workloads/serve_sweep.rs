//! `serve_sweep`: a seed sweep submitted over a real OS pipe to a child
//! process running `manet_campaign::serve` on its stdin and stdout — the
//! call `manet-sim serve --pipe` makes — with this process speaking MCMP
//! the way `manet-client` does.

use std::io;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::sync::Mutex;
use std::time::Instant;

use broadcast_core::{CancelToken, Scenario, World};
use manet_campaign::{
    run_campaign, CampaignQueue, Frame, FrameReader, FrameWriter, JobEnvelope, QueuedCampaign,
    ServerConfig,
};
use manet_scenario::CampaignSpec;
use manet_sim_engine::{WireEncoder, WorkerPool};

use super::world::profile_layers;
use super::{cpu_now, ready, world_setup_ms, ChildOptions, Outcome};
use crate::checks::{fnv1a, metrics_document, Counts, FNV_START};
use crate::inputs::{campaign_envelopes, campaign_text, job_config};
use crate::layers::{self, Observed, Shape};
use crate::procfs;
use crate::span::Tracer;

/// Job payloads compared byte for byte with an in-process run.
const COMPARED_JOBS: usize = 20;
/// One job in this many is re-run in-process with event profiling, to
/// estimate the campaign's engine events.
const PROFILED_EVERY: usize = 100;

/// The server side: one MCMP session on stdin/stdout with the default
/// configuration, exactly as `manet-sim serve --pipe` runs it.
pub fn serve() -> ExitCode {
    match manet_campaign::serve(io::stdin(), io::stdout(), &ServerConfig::default()) {
        Ok(_) => ExitCode::SUCCESS,
        Err(problem) => {
            eprintln!("perfbench --serve: {problem}");
            ExitCode::FAILURE
        }
    }
}

/// A running server and the two ends of its pipe.
struct Session {
    server: Child,
    writer: FrameWriter<ChildStdin>,
    stdout: ChildStdout,
}

impl Session {
    /// Spawns the server and opens the client's side of the session. The
    /// server's own stream header only arrives with its first frame (its
    /// stdout is buffered until then), so it is read after the submit, as
    /// `manet-client` does.
    fn open() -> io::Result<Session> {
        let mut server = Command::new(std::env::current_exe()?)
            .arg("--serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let writer = FrameWriter::new(server.stdin.take().expect("piped stdin"))?;
        let stdout = server.stdout.take().expect("piped stdout");
        Ok(Session {
            server,
            writer,
            stdout,
        })
    }

    /// Ends the session and waits for the server: it is never left
    /// running, whatever happened before.
    fn close(self) -> io::Result<()> {
        let Session {
            mut server,
            mut writer,
            mut stdout,
        } = self;
        let asked = writer.write(&Frame::Shutdown);
        // Closing our end is what stops a server the frame did not reach.
        drop(writer);
        let drained = io::copy(&mut stdout, &mut io::sink());
        let status = server.wait()?;
        asked?;
        drained?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("server exited with {status}")))
        }
    }
}

/// What the client saw between `Submit` and `Summary`.
#[derive(Default)]
struct Streamed {
    /// `(job index, label, payload)` in arrival order.
    results: Vec<(u64, String, Vec<u8>)>,
    completed: u64,
    failed: u64,
    first_result_s: Option<f64>,
    problem: Option<String>,
}

fn stream_campaign(session: &mut Session, submit: &Frame, tracer: &mut Tracer) -> Streamed {
    let mut seen = Streamed::default();
    let started = Instant::now();
    let (sent, _) = tracer.span("campaign.submit", |_| session.writer.write(submit));
    if let Err(problem) = sent {
        seen.problem = Some(format!("submit: {problem}"));
        return seen;
    }
    let mut reader = match FrameReader::new(&mut session.stdout) {
        Ok(reader) => reader,
        Err(problem) => {
            seen.problem = Some(format!("server stream header: {problem}"));
            return seen;
        }
    };
    tracer.span("campaign.stream", |_| loop {
        match reader.read() {
            Ok(Some(Frame::JobMetrics {
                job,
                label,
                payload,
                ..
            })) => {
                seen.first_result_s
                    .get_or_insert_with(|| started.elapsed().as_secs_f64());
                seen.results.push((job, label, payload));
            }
            Ok(Some(Frame::JobFailed { label, reason, .. })) => {
                seen.problem
                    .get_or_insert(format!("job {label} failed: {reason}"));
            }
            Ok(Some(Frame::Accepted { .. } | Frame::Progress { .. })) => {}
            Ok(Some(Frame::Summary { counts, .. })) => {
                seen.completed = counts.completed;
                seen.failed = counts.failed + counts.cancelled;
                return;
            }
            Ok(Some(other)) => {
                seen.problem = Some(format!("unexpected frame {other:?}"));
                return;
            }
            Ok(None) => {
                seen.problem = Some("server closed the session before the summary".into());
                return;
            }
            Err(problem) => {
                seen.problem = Some(format!("session: {problem}"));
                return;
            }
        }
    });
    seen
}

/// The document the one-shot pipeline writes for `job`.
fn in_process_document(job: &JobEnvelope) -> String {
    metrics_document(&[World::new(job_config(job, false)).run()])
}

pub fn run(options: &ChildOptions, tracer: &mut Tracer) -> Option<Outcome> {
    let text = campaign_text(options.seed, options.quick);
    let (name, jobs) = campaign_envelopes(&text);
    let mut session = Session::open().expect("spawn the campaign server");
    let server_pid = session.server.id();
    if !ready(options) {
        session.close().expect("server shuts down after set-up");
        return None;
    }

    let submit = Frame::Submit {
        name: name.clone(),
        jobs: jobs.clone(),
    };
    let server_cpu = || procfs::cpu_seconds(Some(server_pid), false);
    let cpu_start = cpu_now() + server_cpu();
    let (seen, wall_s) = tracer.span(&options.workload, |t| {
        stream_campaign(&mut session, &submit, t)
    });
    let cpu_s = cpu_now() + server_cpu() - cpu_start;
    let server_rss_mb = procfs::peak_rss_mb(Some(server_pid));
    drop(submit);

    let mut failures: Vec<String> = seen.problem.into_iter().collect();
    if let Err(problem) = session.close() {
        failures.push(format!("shutdown: {problem}"));
    }

    // Every payload is a consistent metrics document; sampled ones equal
    // the one-shot pipeline's bytes for the same job.
    let total = jobs.len();
    let mut bad_jobs = seen.failed;
    let mut counts = Counts::default();
    let mut digest = FNV_START;
    let mut artifact_bytes = 0usize;
    for (_, label, payload) in &seen.results {
        artifact_bytes += payload.len();
        // Jobs finish in any order: a wrapping sum ignores it.
        digest = digest.wrapping_add(fnv1a(fnv1a(FNV_START, label.as_bytes()), payload));
        let consistent = std::str::from_utf8(payload)
            .map_err(|e| e.to_string())
            .and_then(|text| counts.add_document(text));
        if let Err(problem) = consistent {
            failures.push(format!("job {label}: {problem}"));
            bad_jobs += 1;
        }
    }
    if seen.completed != total as u64 || seen.results.len() != total {
        failures.push(format!(
            "{} of {total} jobs completed, {} payloads received",
            seen.completed,
            seen.results.len()
        ));
        bad_jobs = bad_jobs.max((total - seen.results.len().min(total)) as u64);
    }
    let stride = (seen.results.len() / COMPARED_JOBS).max(1);
    for (job, label, payload) in seen.results.iter().step_by(stride).take(COMPARED_JOBS) {
        let expected = jobs.get(*job as usize).map(in_process_document);
        if expected.as_deref().map(str::as_bytes) != Some(payload) {
            failures.push(format!(
                "job {label}: payload differs from the in-process run"
            ));
            bad_jobs += 1;
        }
    }
    failures.truncate(20);

    // Engine events of the campaign, estimated from a profiled sample.
    let sampled: Vec<_> = jobs
        .iter()
        .step_by(PROFILED_EVERY)
        .map(|job| World::new(job_config(job, true)).run())
        .collect();
    let per_sample = total as f64 / sampled.len() as f64;
    let sampled_events: u64 = sampled
        .iter()
        .filter_map(|r| r.profile.as_ref())
        .map(|p| p.events)
        .sum();

    let mut outcome = Outcome {
        wall_s,
        cpu_s,
        peak_rss_mb: server_rss_mb,
        ops: total as u64,
        failed_ops: bad_jobs.min(total as u64),
        artifact_bytes: artifact_bytes as f64,
        events: Some(sampled_events as f64 * per_sample),
        digest,
        failures,
        ..Outcome::default()
    };

    if options.traced {
        let layers = &mut outcome.layers;
        profile_layers(&sampled, per_sample, layers);
        layers.push((
            "campaign.first_result_ms".into(),
            seen.first_result_s.unwrap_or(0.0) * 1e3,
        ));
        // What the server spends turning a finished job into its document.
        let started = Instant::now();
        for report in &sampled {
            std::hint::black_box(metrics_document(std::slice::from_ref(report)));
        }
        let render_us = started.elapsed().as_secs_f64() * 1e6 / sampled.len() as f64;
        layers.push((
            "experiments.metrics_out.render_us_per_record".into(),
            render_us,
        ));
        let pipe_jobs_per_s = total as f64 / wall_s;
        let replays = format!("{}.replays", options.workload);
        tracer.span(&replays, |t| {
            campaign_layers(
                &text,
                &name,
                &jobs,
                &seen.results,
                pipe_jobs_per_s,
                t,
                layers,
            );
            let job_worlds = jobs.iter().take(200).map(|job| job_config(job, false));
            let (world_setup_ms, _) = t.span("core.world.new", |_| world_setup_ms(job_worlds));
            let observed = Observed {
                counts,
                events: outcome.events.unwrap_or(0.0),
                busy_s: cpu_s,
                worlds_built: total as f64,
                world_setup_ms,
                pure_actions: 0.0,
                pure_step_ns: 0.0,
                broadcasts: jobs.iter().map(|job| f64::from(job.broadcasts)).sum(),
                rendered_s: render_us * 1e-6 * total as f64,
            };
            let shape = Shape {
                hosts: jobs[0].hosts as usize,
                map_units: jobs[0].map_units,
            };
            layers.extend(layers::replay(shape, &observed, t));
        });
    }
    Some(outcome)
}

/// A small churn script of the kind campaign jobs can carry.
const SCENARIO: &str = "manet-scenario/1\nname demo\nhosts 10\nat 4 crash 3\nat 9.5 recover 3\n\
                        from 2 until 6 noise 0.2\n";

/// Unit costs of the scenario parsers, MCMP framing, the campaign queue
/// and the in-process scheduler, on this campaign's own jobs.
fn campaign_layers(
    text: &str,
    name: &str,
    jobs: &[JobEnvelope],
    results: &[(u64, String, Vec<u8>)],
    pipe_jobs_per_s: f64,
    tracer: &mut Tracer,
    layers: &mut Vec<(String, f64)>,
) {
    let (_, parse_s) = tracer.span("scenario.parse", |_| {
        for _ in 0..1_000 {
            std::hint::black_box(Scenario::parse(SCENARIO).expect("script parses"));
        }
    });
    layers.push(("scenario.parse_us".into(), parse_s * 1e3));
    let (_, campaign_s) = tracer.span("scenario.campaign_parse", |_| {
        std::hint::black_box(CampaignSpec::parse(text).expect("campaign parses"));
    });
    layers.push((
        "scenario.campaign_parse_us_per_job".into(),
        campaign_s * 1e6 / jobs.len() as f64,
    ));

    // One job's result as it crosses the pipe: its metrics frame and the
    // progress tick behind it.
    let frames: Vec<Frame> = results
        .iter()
        .take(2_000)
        .map(|(job, label, payload)| Frame::JobMetrics {
            campaign: 1,
            job: *job,
            label: label.clone(),
            payload: payload.clone(),
        })
        .collect();
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(frames.len());
    let mut encoder = WireEncoder::new();
    let (_, encode_s) = tracer.span("campaign.mcmp.encode", |_| {
        for frame in &frames {
            encoder.clear();
            frame.encode(&mut encoder);
            encoded.push(encoder.as_slice().to_vec());
        }
    });
    let (_, decode_s) = tracer.span("campaign.mcmp.decode", |_| {
        for bytes in &encoded {
            std::hint::black_box(Frame::decode(bytes).expect("frame decodes"));
        }
    });
    let per_frame = 1e9 / frames.len().max(1) as f64;
    encoder.clear();
    Frame::Progress {
        campaign: 1,
        counts: Default::default(),
    }
    .encode(&mut encoder);
    let tick_bytes = encoder.as_slice().len() + 4;
    let frame_bytes: usize = encoded.iter().map(|bytes| bytes.len() + 4).sum();
    layers.push((
        "campaign.mcmp.encode_ns_per_frame".into(),
        encode_s * per_frame,
    ));
    layers.push((
        "campaign.mcmp.decode_ns_per_frame".into(),
        decode_s * per_frame,
    ));
    layers.push((
        "campaign.mcmp.bytes_per_job".into(),
        frame_bytes as f64 / frames.len().max(1) as f64 + tick_bytes as f64,
    ));

    let queue = CampaignQueue::new(ServerConfig::default().queue_capacity);
    let submitted = jobs.to_vec();
    let (_, submit_s) = tracer.span("campaign.queue.submit", |_| {
        queue
            .submit(name.to_string(), submitted)
            .expect("queue has room");
    });
    layers.push((
        "campaign.queue.submit_us_per_kjob".into(),
        submit_s * 1e6 / (jobs.len() as f64 / 1e3),
    ));

    // The scheduler alone, on a tenth of the campaign, into a sink, with
    // the pool `serve` would build.
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get().saturating_sub(1));
    let pool = WorkerPool::new(threads);
    let campaign = QueuedCampaign {
        id: 1,
        name: name.to_string(),
        jobs: jobs[..jobs.len().div_ceil(10)].to_vec(),
        cancel: CancelToken::new(),
    };
    let writer = Mutex::new(FrameWriter::new(io::sink()).expect("sink header"));
    let (done, inproc_s) = tracer.span("campaign.scheduler.inproc", |_| {
        run_campaign(&campaign, &pool, &writer).expect("sink write")
    });
    let inproc_jobs_per_s = done.completed as f64 / inproc_s;
    layers.push((
        "campaign.scheduler.inproc_jobs_per_s".into(),
        inproc_jobs_per_s,
    ));
    layers.push((
        "campaign.pipe_overhead_ratio".into(),
        inproc_jobs_per_s / pipe_jobs_per_s,
    ));
}
