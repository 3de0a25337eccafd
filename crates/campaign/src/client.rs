//! The scripted campaign client.
//!
//! Everything the `manet-client` binary does lives here so it can be
//! exercised in-process: load a `manet-campaign/1` file into wire
//! envelopes (inlining referenced scenario scripts), submit it over an
//! MCMP session, stream progress to stderr, write each job's metrics
//! document to `<out_dir>/<label>.json` as it arrives, and optionally
//! cancel the campaign after a fixed number of results — the CI hook
//! for proving that a mid-campaign cancel drains cleanly with partial
//! results flushed.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use manet_scenario::{is_job_label, CampaignSpec};

use crate::mcmp::{CampaignCounts, Frame, FrameReader, FrameWriter, JobEnvelope};
use crate::scheduler::job_configs;

/// Client-side session knobs.
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// Directory receiving one `<label>.json` per completed job.
    pub out_dir: PathBuf,
    /// Send a `Cancel` after this many job results have arrived.
    pub cancel_after: Option<u64>,
    /// Suppress per-frame progress on stderr.
    pub quiet: bool,
}

/// What a finished session saw, for exit codes and CI assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientReport {
    /// Server-assigned campaign id.
    pub campaign: u64,
    /// The server's final counters.
    pub counts: CampaignCounts,
    /// Metrics files written under `out_dir`.
    pub metrics_written: u64,
    /// `(label, reason)` for every job the server reported as failed.
    pub failed: Vec<(String, String)>,
}

fn invalid(err: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err.to_string())
}

/// Loads a campaign file and expands it into submit-ready envelopes.
///
/// Scenario paths are resolved relative to the campaign file's
/// directory and their *text* is inlined into the envelope — the server
/// never touches the client's filesystem. Every job is validated here
/// exactly as the server's scheduler validates it, so a bad campaign
/// fails before anything is queued.
///
/// # Errors
///
/// I/O errors reading the files, or [`io::ErrorKind::InvalidData`] for
/// parse/validation failures (with the offending label in the message).
pub fn load_campaign(path: &Path) -> io::Result<(String, Vec<JobEnvelope>)> {
    let text = fs::read_to_string(path)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    let spec = CampaignSpec::parse(&text).map_err(invalid)?;
    let base = path.parent().unwrap_or_else(|| Path::new("."));
    // Sweeps reference the same script hundreds of times; read it once.
    let mut scripts: BTreeMap<&str, String> = BTreeMap::new();
    let mut envelopes = Vec::with_capacity(spec.jobs.len());
    for job in &spec.jobs {
        let scenario = match job.scenario.as_deref() {
            Some(rel) => {
                if !scripts.contains_key(rel) {
                    let file = base.join(rel);
                    let script = fs::read_to_string(&file).map_err(|e| {
                        io::Error::new(e.kind(), format!("{}: {e}", file.display()))
                    })?;
                    scripts.insert(rel, script);
                }
                Some(scripts[rel].clone())
            }
            None => None,
        };
        let envelope = JobEnvelope {
            label: job.label.clone(),
            scheme: job.scheme.clone(),
            map_units: job.map_units,
            hosts: job.hosts,
            broadcasts: job.broadcasts,
            seed: job.seed,
            repeats: job.repeats,
            scenario,
        };
        // The server's own check, so nothing it would refuse is queued.
        if let Err(e) = job_configs(&envelope) {
            let script = match &job.scenario {
                Some(rel) if e.starts_with("scenario: ") => format!("{rel}: "),
                _ => String::new(),
            };
            return Err(invalid(format!("job {}: {script}{e}", job.label)));
        }
        envelopes.push(envelope);
    }
    Ok((spec.name.clone(), envelopes))
}

/// In-memory cap on retained failure reports: every failure is printed
/// as it streams in, but a server spraying `JobFailed` frames must not
/// grow the client's memory without bound.
const MAX_REPORTED_FAILURES: usize = 1024;

/// Submits one campaign over an MCMP session and streams it to
/// completion (or through a [`SessionOptions::cancel_after`] cancel).
/// Blocks until the server's `Summary` frame, then sends `Shutdown`.
///
/// # Errors
///
/// Transport errors, a `Rejected` reply, a protocol violation, or the
/// stream ending before the summary — all as `io::Error`.
pub fn run_session(
    input: impl Read,
    output: impl Write,
    name: &str,
    jobs: Vec<JobEnvelope>,
    options: &SessionOptions,
) -> io::Result<ClientReport> {
    fs::create_dir_all(&options.out_dir)?;
    let total = jobs.len() as u64;
    let mut writer = FrameWriter::new(output)?;
    writer.write(&Frame::Submit {
        name: name.to_string(),
        jobs,
    })?;
    let mut reader = FrameReader::new(input)?;

    let mut campaign_id = 0u64;
    let mut metrics_written = 0u64;
    let mut failed = Vec::new();
    let mut cancel_sent = false;
    loop {
        let Some(frame) = reader.read()? else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the session before the campaign summary",
            ));
        };
        match frame {
            Frame::Accepted { campaign, jobs } => {
                campaign_id = campaign;
                if !options.quiet {
                    eprintln!("manet-client: campaign #{campaign} accepted ({jobs} jobs)");
                }
            }
            Frame::Rejected { name, reason } => {
                return Err(invalid(format!("campaign '{name}' rejected: {reason}")));
            }
            Frame::JobMetrics { label, payload, .. } => {
                // `load_campaign` admitted its labels by this predicate;
                // this guards against a hostile or confused server.
                if !is_job_label(&label) {
                    return Err(invalid(format!("unsafe job label from server: {label:?}")));
                }
                fs::write(options.out_dir.join(format!("{label}.json")), &payload)?;
                metrics_written += 1;
                if !cancel_sent && options.cancel_after == Some(metrics_written) {
                    if !options.quiet {
                        eprintln!(
                            "manet-client: cancelling campaign #{campaign_id} after {metrics_written} results"
                        );
                    }
                    writer.write(&Frame::Cancel {
                        campaign: campaign_id,
                    })?;
                    cancel_sent = true;
                }
            }
            Frame::JobFailed { label, reason, .. } => {
                eprintln!("manet-client: job '{label}' failed: {reason}");
                if failed.len() < MAX_REPORTED_FAILURES {
                    failed.push((label, reason));
                }
            }
            Frame::Progress { counts, .. } => {
                if !options.quiet {
                    eprintln!(
                        "manet-client: {} / {} jobs done ({} failed, {} cancelled)",
                        counts.completed + counts.failed + counts.cancelled,
                        if counts.total != 0 {
                            counts.total
                        } else {
                            total
                        },
                        counts.failed,
                        counts.cancelled,
                    );
                }
            }
            Frame::Summary { campaign, counts } => {
                if !options.quiet {
                    eprintln!(
                        "manet-client: campaign #{campaign} done: {} completed, {} cancelled, {} failed",
                        counts.completed, counts.cancelled, counts.failed,
                    );
                }
                writer.write(&Frame::Shutdown)?;
                return Ok(ClientReport {
                    campaign,
                    counts,
                    metrics_written,
                    failed,
                });
            }
            other => {
                return Err(invalid(format!("unexpected server frame: {other:?}")));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServerConfig};
    use broadcast_core::SchemeSpec;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A unique scratch dir per test, no wall-clock involved.
    fn scratch(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "manet-campaign-client-{}-{tag}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn job(label: &str, seed: u64) -> JobEnvelope {
        JobEnvelope {
            label: label.into(),
            scheme: "counter:3".into(),
            map_units: 1,
            hosts: 6,
            broadcasts: 1,
            seed,
            repeats: 1,
            scenario: None,
        }
    }

    /// Runs a client session against an in-process server over a socket
    /// pair, returning the client's report.
    fn round_trip(
        jobs: Vec<JobEnvelope>,
        options: &SessionOptions,
    ) -> (ClientReport, crate::server::ServeSummary) {
        use std::os::unix::net::UnixStream;
        let (client_side, server_side) = UnixStream::pair().unwrap();
        let config = ServerConfig {
            workers: Some(2),
            queue_capacity: 4096,
        };
        std::thread::scope(|scope| {
            let server = scope.spawn(move || {
                let input = server_side.try_clone().unwrap();
                serve(input, server_side, &config).unwrap()
            });
            let input = client_side.try_clone().unwrap();
            let report = run_session(input, client_side, "trip", jobs, options).unwrap();
            (report, server.join().unwrap())
        })
    }

    #[test]
    fn session_round_trip_writes_one_file_per_job() {
        let out_dir = scratch("roundtrip");
        let options = SessionOptions {
            out_dir: out_dir.clone(),
            cancel_after: None,
            quiet: true,
        };
        let (report, summary) = round_trip(vec![job("alpha", 1), job("beta", 2)], &options);
        assert_eq!(report.counts.completed, 2);
        assert_eq!(report.metrics_written, 2);
        assert_eq!(summary.jobs.completed, 2);
        for label in ["alpha", "beta"] {
            let path = out_dir.join(format!("{label}.json"));
            let body = fs::read_to_string(&path).unwrap();
            assert!(body.contains("manet-broadcast-metrics/1"), "{path:?}");
        }
        fs::remove_dir_all(&out_dir).unwrap();
    }

    /// A fixed scheme and a tuning-family spelling, each streamed through
    /// a session, give the document the one-shot CLI metrics path writes.
    #[test]
    fn streamed_metrics_match_the_one_shot_pipeline_bytes() {
        for scheme in ["counter:3", "ac:4,12,convex"] {
            let out_dir = scratch("identity");
            let options = SessionOptions {
                out_dir: out_dir.clone(),
                cancel_after: None,
                quiet: true,
            };
            let job = JobEnvelope {
                scheme: scheme.into(),
                ..job("ident", 42)
            };
            let (report, _) = round_trip(vec![job], &options);
            assert_eq!(report.counts.completed, 1, "{scheme}");

            // The same document the one-shot CLI metrics path produces.
            let config = broadcast_core::SimConfig::builder(1, SchemeSpec::parse(scheme).unwrap())
                .hosts(6)
                .broadcasts(1)
                .seed(42)
                .build();
            let report_one_shot = broadcast_core::World::new(config).run();
            let record = manet_experiments::metrics_record(std::slice::from_ref(&report_one_shot));
            let expected = manet_experiments::render_metrics_json(
                "single",
                &[("manet-sim".to_string(), vec![record])],
            );
            let streamed = fs::read_to_string(out_dir.join("ident.json")).unwrap();
            assert_eq!(
                streamed, expected,
                "{scheme}: streamed metrics must be byte-identical"
            );
            fs::remove_dir_all(&out_dir).unwrap();
        }
    }

    #[test]
    fn cancel_after_flushes_partial_results_and_drains() {
        let out_dir = scratch("cancel");
        let options = SessionOptions {
            out_dir: out_dir.clone(),
            cancel_after: Some(1),
            quiet: true,
        };
        // Jobs heavy enough (tens of ms each) that the cancel — sent the
        // moment the first result lands, while the backlog is still
        // deep — always beats the remaining ~38 jobs to the scheduler.
        let jobs: Vec<_> = (0..40)
            .map(|i| JobEnvelope {
                label: format!("c{i:02}"),
                scheme: "counter:3".into(),
                map_units: 1,
                hosts: 40,
                broadcasts: 30,
                seed: i,
                repeats: 1,
                scenario: None,
            })
            .collect();
        let (report, _) = round_trip(jobs, &options);
        assert_eq!(report.counts.total, 40);
        assert!(report.counts.completed >= 1, "at least the trigger result");
        assert!(report.counts.cancelled > 0, "cancel reached pending jobs");
        assert_eq!(
            report.counts.completed + report.counts.cancelled + report.counts.failed,
            40,
            "every job is accounted for"
        );
        assert_eq!(report.metrics_written, report.counts.completed);
        assert_eq!(
            fs::read_dir(&out_dir).unwrap().count() as u64,
            report.metrics_written,
            "exactly the completed jobs were flushed to disk"
        );
        fs::remove_dir_all(&out_dir).unwrap();
    }

    #[test]
    fn unsafe_labels_never_touch_the_filesystem() {
        for bad in ["", "../escape", "a/b", ".hidden", "nul\0byte"] {
            assert!(!is_job_label(bad), "{bad:?}");
        }
        assert!(is_job_label("j0001_counter-3_s42.v2"));
    }

    #[test]
    fn campaign_files_load_into_envelopes() {
        let dir = scratch("load");
        let campaign = dir.join("c.txt");
        fs::write(
            &campaign,
            "manet-campaign/1\n\
             name demo\n\
             defaults scheme=counter:2 map=1 hosts=8 broadcasts=2\n\
             job label=first seed=5\n\
             sweep scheme=flooding seeds=1..=3\n",
        )
        .unwrap();
        let (name, envelopes) = load_campaign(&campaign).unwrap();
        assert_eq!(name, "demo");
        assert_eq!(envelopes.len(), 4);
        assert_eq!(envelopes[0].label, "first");
        assert_eq!(envelopes[0].seed, 5);
        assert!(envelopes[1..].iter().all(|e| e.scheme == "flooding"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_schemes_fail_at_load_time() {
        let dir = scratch("badscheme");
        let campaign = dir.join("c.txt");
        fs::write(
            dir.join("s.txt"),
            "manet-scenario/1\nname far\nat 1 leave 99\n",
        )
        .unwrap();
        // An unknown scheme, a known one with an out-of-range parameter, a
        // map the server refuses, and a script naming a host past `hosts`;
        // each after a good job, and each named by its job's label.
        for (job, names) in [
            ("scheme=warp9", "job b: unknown scheme"),
            ("scheme=counter:1", "job b: counter threshold 1"),
            ("map=1001", "job b: map must be at least 1x1"),
            ("scenario=s.txt hosts=8", "job b: s.txt: scenario:"),
        ] {
            let text = format!(
                "manet-campaign/1\ndefaults scheme=flooding\n\
                 job label=a seed=1\njob label=b {job} seed=2\n"
            );
            fs::write(&campaign, text).unwrap();
            let err = load_campaign(&campaign).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(names), "{job}: {err}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
