//! The child side: one repetition of one workload in a fresh process.
//!
//! A repetition builds its inputs (set-up), prints `ready`, runs the
//! timed section, checks what the program produced and prints one JSON
//! line describing the run. Peak memory and CPU time are therefore per
//! repetition, and a crash takes down one repetition, not the benchmark.

mod paper_figs;
mod record_resume;
mod serve_sweep;
mod world;

use std::io::Write as _;
use std::time::Instant;

use broadcast_core::{SimConfig, World};

use crate::json::Json;
use crate::procfs;
use crate::span::{self, Span, Tracer};
use crate::stats::median;

pub use serve_sweep::serve;

/// What the parent asked this repetition to do.
#[derive(Debug, Clone)]
pub struct ChildOptions {
    pub workload: String,
    pub seed: u64,
    /// Ten times smaller inputs (`--quick`).
    pub quick: bool,
    /// Count engine events with `SimConfig::profile_events`.
    pub profile: bool,
    /// Keep spans and run the isolated layer replays (implies `profile`).
    pub traced: bool,
    /// Stop after set-up.
    pub setup_only: bool,
}

/// What one repetition measured and found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Operations attempted: world runs, figures or jobs.
    pub ops: u64,
    pub failed_ops: u64,
    pub artifact_bytes: f64,
    /// Engine events of the timed section, when this repetition could
    /// count them.
    pub events: Option<f64>,
    /// Digest of every output byte the checks looked at.
    pub digest: u64,
    pub failures: Vec<String>,
    pub layers: Vec<(String, f64)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn to_json(&self, workload: &str) -> Json {
        Json::obj([
            ("wall_s", Json::Num(self.wall_s)),
            ("cpu_s", Json::Num(self.cpu_s)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("ops", Json::Num(self.ops as f64)),
            ("failed_ops", Json::Num(self.failed_ops as f64)),
            ("artifact_bytes", Json::Num(self.artifact_bytes)),
            ("events", self.events.map_or(Json::Null, Json::Num)),
            ("digest", Json::Str(format!("{:016x}", self.digest))),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| Json::from(f.as_str()))
                        .collect(),
                ),
            ),
            (
                "layers",
                Json::Obj(
                    self.layers
                        .iter()
                        .map(|(name, value)| (name.clone(), Json::Num(*value)))
                        .collect(),
                ),
            ),
            ("spans", Json::Arr(span::to_json(&self.spans, workload))),
        ])
    }

    pub fn from_json(doc: &Json) -> Option<Outcome> {
        let num = |key: &str| doc.get(key)?.as_f64();
        Some(Outcome {
            wall_s: num("wall_s")?,
            cpu_s: num("cpu_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            ops: num("ops")? as u64,
            failed_ops: num("failed_ops")? as u64,
            artifact_bytes: num("artifact_bytes")?,
            events: num("events"),
            digest: u64::from_str_radix(doc.get("digest")?.as_str()?, 16).ok()?,
            failures: doc
                .get("failures")?
                .as_arr()
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            layers: doc
                .get("layers")?
                .members()
                .iter()
                .filter_map(|(name, value)| Some((name.clone(), value.as_f64()?)))
                .collect(),
            spans: span::from_json(doc.get("spans")?.as_arr()),
        })
    }
}

/// CPU seconds this process (and children it has waited for) has used.
fn cpu_now() -> f64 {
    procfs::cpu_seconds(None, true)
}

/// Median time in milliseconds to build a world from each of `configs`.
fn world_setup_ms(configs: impl Iterator<Item = SimConfig>) -> f64 {
    let samples: Vec<f64> = configs
        .map(|config| {
            let started = Instant::now();
            std::hint::black_box(World::new(config));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Tells the parent that set-up is over. Returns `false` when the parent
/// only wanted the set-up timed and the repetition should stop here.
fn ready(options: &ChildOptions) -> bool {
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready")
        .and_then(|()| out.flush())
        .expect("stdout to the parent");
    !options.setup_only
}

/// Runs one repetition and prints its outcome line.
///
/// # Panics
///
/// Panics on an unknown workload name; the parent validates names first.
pub fn run(options: &ChildOptions) {
    let mut tracer = Tracer::new();
    let outcome = match options.workload.as_str() {
        "storm10k" | "nc_dense1k" => world::run(options, &mut tracer),
        "record_resume" => record_resume::run(options, &mut tracer),
        "paper_figs" => paper_figs::run(options, &mut tracer),
        "serve_sweep" => serve_sweep::run(options, &mut tracer),
        other => panic!("unknown workload {other}"),
    };
    let Some(mut outcome) = outcome else {
        return;
    };
    outcome.peak_rss_mb += procfs::peak_rss_mb(None);
    if options.traced {
        outcome.spans = tracer.into_spans();
    }
    println!("{}", outcome.to_json(&options.workload).render());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_survives_the_line_it_is_reported_on() {
        let outcome = Outcome {
            wall_s: 1.234_567_890_123,
            cpu_s: 1.25,
            peak_rss_mb: 87.5,
            ops: 20_000,
            failed_ops: 1,
            artifact_bytes: 31_457_280.0,
            events: Some(3_216_343.0),
            digest: 0xfeed_face_cafe_beef,
            failures: vec!["claims 16/17".to_string()],
            layers: vec![("phy.grid.query_ns".to_string(), 812.5)],
            spans: vec![Span {
                name: "root".to_string(),
                start_ns: 1,
                end_ns: 9,
                parent: None,
            }],
        };
        let line = outcome.to_json("storm10k").render();
        let back = Outcome::from_json(&Json::parse(&line).expect("parses")).expect("complete");
        assert_eq!(back, outcome);
        let uncounted = Outcome {
            events: None,
            ..Outcome::default()
        };
        let line = uncounted.to_json("w").render();
        assert_eq!(
            Outcome::from_json(&Json::parse(&line).expect("parses")),
            Some(uncounted)
        );
    }
}
