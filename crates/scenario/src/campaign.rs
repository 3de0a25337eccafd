//! The `manet-campaign/1` job-envelope format.
//!
//! A campaign file names a batch of simulation jobs for the campaign
//! server (`manet-sim serve`): every job is one simulator configuration —
//! scheme, map, population, workload, seed — optionally tied to a
//! `manet-scenario/1` churn script. The format follows the scenario
//! text conventions: one declaration per line, `#` comments, blank lines
//! ignored, schema header first. Directives:
//!
//! ```text
//! manet-campaign/1
//! name bakeoff_quick
//! defaults map=3 hosts=40 broadcasts=20
//! job scheme=flooding seed=1
//! job scheme=ac seed=1 label=ac_base
//! job scheme=counter:3 seed=2 scenario=scenarios/churn_quick.txt
//! sweep scheme=nc seeds=1..=25
//! ```
//!
//! `defaults` rebinds the per-job defaults for every *subsequent* line;
//! `job` emits one job; `sweep` expands `seeds=A..B` (half-open) or
//! `A..=B` (inclusive) into one job per seed — the compact spelling that
//! makes thousand-job campaigns a three-line file. Scheme strings use the
//! `manet-sim --scheme` grammar but are validated by the consumer (the
//! scenario crate sits below the scheme definitions), and `scenario=`
//! paths are resolved by whoever reads the file — the scripted client
//! inlines the referenced script before submitting, so the server never
//! touches the submitter's filesystem.

use crate::text::{fields_with_cols, quote, Field};
use crate::ScenarioError;

/// Schema identifier of the campaign format this module parses.
pub const CAMPAIGN_SCHEMA: &str = "manet-campaign/1";

/// Expansion cap: a single campaign file may not describe more jobs than
/// this, so a typo'd sweep bound fails the parse instead of an allocator.
pub const MAX_CAMPAIGN_JOBS: usize = 1_000_000;

/// One fully resolved simulation job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Unique, filename-safe label (given via `label=` or derived from
    /// the job index, scheme, and seed).
    pub label: String,
    /// Scheme string in the `manet-sim --scheme` grammar (`ac`,
    /// `counter:3`, …); validated by the consumer.
    pub scheme: String,
    /// Square map side in 500 m units.
    pub map_units: u32,
    /// Number of hosts.
    pub hosts: u32,
    /// Broadcast requests to issue.
    pub broadcasts: u32,
    /// Root RNG seed.
    pub seed: u64,
    /// Independent repetitions (seeds `seed..seed+repeats`) averaged into
    /// one metrics record, mirroring the experiment harness.
    pub repeats: u32,
    /// Optional `manet-scenario/1` script path, as written in the file.
    pub scenario: Option<String>,
}

/// A parsed campaign: an ordered batch of jobs under one name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Campaign name (default `campaign`).
    pub name: String,
    /// The jobs, in file order (sweeps expanded in seed order).
    pub jobs: Vec<JobSpec>,
}

/// The per-job knobs a `defaults` line can rebind. Seeded with the
/// `manet-sim` CLI defaults so a minimal campaign file means the same
/// thing as a bare `manet-sim` invocation.
#[derive(Clone)]
struct Defaults {
    scheme: String,
    map_units: u32,
    hosts: u32,
    broadcasts: u32,
    seed: u64,
    repeats: u32,
    scenario: Option<String>,
}

impl Default for Defaults {
    fn default() -> Self {
        Defaults {
            scheme: "ac".to_string(),
            map_units: 5,
            hosts: 100,
            broadcasts: 200,
            seed: 1,
            repeats: 1,
            scenario: None,
        }
    }
}

impl CampaignSpec {
    /// Parses the text encoding and validates the result (unique labels,
    /// at least one job, expansion under [`MAX_CAMPAIGN_JOBS`]).
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] carrying the offending line and column.
    pub fn parse(input: &str) -> Result<CampaignSpec, ScenarioError> {
        let mut name = "campaign".to_string();
        let mut defaults = Defaults::default();
        let mut jobs: Vec<JobSpec> = Vec::new();
        let mut saw_schema = false;
        for (index, raw) in input.lines().enumerate() {
            let line_no = index + 1;
            let code = match raw.find('#') {
                Some(at) => &raw[..at],
                None => raw,
            };
            let mut fields = fields_with_cols(code);
            let Some(first) = fields.next() else {
                continue;
            };
            if !saw_schema {
                let line = code.trim();
                if line != CAMPAIGN_SCHEMA {
                    let message = format!(
                        "expected schema header {CAMPAIGN_SCHEMA:?}, got {}",
                        quote(line)
                    );
                    return Err(ScenarioError::at(line_no, first.col, message));
                }
                saw_schema = true;
                continue;
            }
            match first.text {
                "name" => {
                    let (Some(value), None) = (fields.next(), fields.next()) else {
                        return Err(ScenarioError::at(line_no, first.col, "usage: name <token>"));
                    };
                    name = value.text.to_string();
                }
                "defaults" => {
                    for field in fields {
                        let (key, value) = split_binding(field, line_no)?;
                        apply_binding(&mut defaults, key, value, field, line_no)?;
                    }
                }
                "job" => {
                    let mut job = defaults.clone();
                    let mut label: Option<String> = None;
                    for field in fields {
                        let (key, value) = split_binding(field, line_no)?;
                        match key {
                            "label" => label = Some(parse_label(value, field, line_no)?),
                            "seeds" => {
                                return Err(ScenarioError::at(
                                    line_no,
                                    field.col,
                                    "seeds= belongs on a sweep line, not a job",
                                ));
                            }
                            _ => apply_binding(&mut job, key, value, field, line_no)?,
                        }
                    }
                    let label =
                        label.unwrap_or_else(|| derive_label(jobs.len(), &job.scheme, job.seed));
                    push_job(&mut jobs, &job, label, job.seed, line_no, first)?;
                }
                "sweep" => {
                    let mut job = defaults.clone();
                    let mut prefix: Option<String> = None;
                    let mut seeds: Option<(u64, u64)> = None;
                    for field in fields {
                        let (key, value) = split_binding(field, line_no)?;
                        match key {
                            "label" => prefix = Some(parse_label(value, field, line_no)?),
                            "seeds" => seeds = Some(parse_seed_range(value, field, line_no)?),
                            "seed" => {
                                return Err(ScenarioError::at(
                                    line_no,
                                    field.col,
                                    "a sweep takes seeds=A..B, not seed=",
                                ));
                            }
                            _ => apply_binding(&mut job, key, value, field, line_no)?,
                        }
                    }
                    let Some((lo, hi)) = seeds else {
                        return Err(ScenarioError::at(
                            line_no,
                            first.col,
                            "sweep requires seeds=A..B (or A..=B)",
                        ));
                    };
                    // Refused before a job is made, not after a million.
                    if hi - lo > (MAX_CAMPAIGN_JOBS - jobs.len()) as u64 {
                        return Err(too_many_jobs(line_no, first));
                    }
                    for seed in lo..hi {
                        let label = match &prefix {
                            Some(prefix) => format!("{prefix}_s{seed}"),
                            None => derive_label(jobs.len(), &job.scheme, seed),
                        };
                        push_job(&mut jobs, &job, label, seed, line_no, first)?;
                    }
                }
                directive => {
                    let message = format!("unknown directive {}", quote(directive));
                    return Err(ScenarioError::at(line_no, first.col, message));
                }
            }
        }
        if !saw_schema {
            return Err(ScenarioError::new(format!(
                "empty campaign: missing schema header {CAMPAIGN_SCHEMA:?}"
            )));
        }
        if jobs.is_empty() {
            return Err(ScenarioError::new("campaign declares no jobs"));
        }
        let spec = CampaignSpec { name, jobs };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks invariants the parser cannot enforce line-locally: labels
    /// unique and filename-safe, every job's knobs nonzero.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.jobs.is_empty() {
            return Err(ScenarioError::new("campaign declares no jobs"));
        }
        let mut seen = std::collections::BTreeSet::new();
        for job in &self.jobs {
            if !is_job_label(&job.label) {
                return Err(ScenarioError::new(bad_label(&job.label)));
            }
            if !seen.insert(job.label.as_str()) {
                return Err(ScenarioError::new(format!(
                    "duplicate job label {:?}",
                    job.label
                )));
            }
            if job.map_units == 0 || job.hosts == 0 || job.broadcasts == 0 || job.repeats == 0 {
                return Err(ScenarioError::new(format!(
                    "job {:?}: map, hosts, broadcasts, and repeats must be nonzero",
                    job.label
                )));
            }
        }
        Ok(())
    }
}

fn is_label_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.')
}

/// The one rule for job labels, shared by the campaign parser,
/// [`CampaignSpec::validate`] and the client that names a result file
/// `<label>.json`: 1–128 bytes of `[A-Za-z0-9._-]`, not starting with a
/// dot (so neither `..` nor a hidden file can be spelled).
pub fn is_job_label(label: &str) -> bool {
    !label.is_empty()
        && label.len() <= 128
        && !label.starts_with('.')
        && label.chars().all(is_label_char)
}

fn bad_label(label: &str) -> String {
    format!(
        "bad job label {} (want 1-128 of [A-Za-z0-9._-], no leading dot)",
        quote(label)
    )
}

/// Derives a unique default label from the job's position and identity:
/// `j0007_counter-3_s42`.
fn derive_label(index: usize, scheme: &str, seed: u64) -> String {
    let scheme: String = scheme
        .chars()
        .map(|c| if is_label_char(c) { c } else { '-' })
        .collect();
    format!("j{index:04}_{scheme}_s{seed}")
}

fn too_many_jobs(line_no: usize, first: Field<'_>) -> ScenarioError {
    let message = format!("campaign exceeds {MAX_CAMPAIGN_JOBS} jobs");
    ScenarioError::at(line_no, first.col, message)
}

fn push_job(
    jobs: &mut Vec<JobSpec>,
    job: &Defaults,
    label: String,
    seed: u64,
    line_no: usize,
    first: Field<'_>,
) -> Result<(), ScenarioError> {
    if jobs.len() >= MAX_CAMPAIGN_JOBS {
        return Err(too_many_jobs(line_no, first));
    }
    // A sweep's `<prefix>_s<seed>` or a derived label can outgrow the
    // length limit its parts respect.
    if !is_job_label(&label) {
        return Err(ScenarioError::at(line_no, first.col, bad_label(&label)));
    }
    jobs.push(JobSpec {
        label,
        scheme: job.scheme.clone(),
        map_units: job.map_units,
        hosts: job.hosts,
        broadcasts: job.broadcasts,
        seed,
        repeats: job.repeats,
        scenario: job.scenario.clone(),
    });
    Ok(())
}

/// Splits one `key=value` token, keeping the field's column for errors.
fn split_binding<'a>(
    field: Field<'a>,
    line_no: usize,
) -> Result<(&'a str, &'a str), ScenarioError> {
    field.text.split_once('=').ok_or_else(|| {
        ScenarioError::at(
            line_no,
            field.col,
            format!("expected key=value, got {}", quote(field.text)),
        )
    })
}

/// Applies one shared (non-`label`, non-`seeds`) binding to a job or the
/// running defaults.
fn apply_binding(
    job: &mut Defaults,
    key: &str,
    value: &str,
    field: Field<'_>,
    line_no: usize,
) -> Result<(), ScenarioError> {
    let bad = |what: &str| {
        ScenarioError::at(
            line_no,
            field.col,
            format!("bad {} value {}: {what}", quote(key), quote(value)),
        )
    };
    match key {
        "scheme" => {
            if value.is_empty() {
                return Err(bad("empty"));
            }
            job.scheme = value.to_string();
        }
        "map" => job.map_units = value.parse().map_err(|_| bad("want an integer"))?,
        "hosts" => job.hosts = value.parse().map_err(|_| bad("want an integer"))?,
        "broadcasts" => job.broadcasts = value.parse().map_err(|_| bad("want an integer"))?,
        "seed" => job.seed = value.parse().map_err(|_| bad("want an integer"))?,
        "repeats" => job.repeats = value.parse().map_err(|_| bad("want an integer"))?,
        "scenario" => {
            if value.is_empty() {
                return Err(bad("empty path"));
            }
            job.scenario = Some(value.to_string());
        }
        other => {
            let message = format!("unknown key {}", quote(other));
            return Err(ScenarioError::at(line_no, field.col, message));
        }
    }
    Ok(())
}

fn parse_label(value: &str, field: Field<'_>, line_no: usize) -> Result<String, ScenarioError> {
    if !is_job_label(value) {
        return Err(ScenarioError::at(line_no, field.col, bad_label(value)));
    }
    Ok(value.to_string())
}

/// Parses `A..B` (half-open) or `A..=B` (inclusive) into a half-open
/// `(lo, hi)` pair with `lo < hi`.
fn parse_seed_range(
    value: &str,
    field: Field<'_>,
    line_no: usize,
) -> Result<(u64, u64), ScenarioError> {
    let bad = |what: &str| {
        ScenarioError::at(
            line_no,
            field.col,
            format!("bad seed range {}: {what}", quote(value)),
        )
    };
    let (lo, rest) = value
        .split_once("..")
        .ok_or_else(|| bad("want A..B or A..=B"))?;
    let (inclusive, hi) = match rest.strip_prefix('=') {
        Some(hi) => (true, hi),
        None => (false, rest),
    };
    let lo: u64 = lo.parse().map_err(|_| bad("bad lower bound"))?;
    let hi: u64 = hi.parse().map_err(|_| bad("bad upper bound"))?;
    let hi = if inclusive {
        hi.checked_add(1)
            .ok_or_else(|| bad("upper bound overflow"))?
    } else {
        hi
    };
    if lo >= hi {
        return Err(bad("empty range"));
    }
    Ok((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_campaign_parses_with_cli_defaults() {
        let spec = CampaignSpec::parse("manet-campaign/1\njob scheme=flooding\n").unwrap();
        assert_eq!(spec.name, "campaign");
        assert_eq!(spec.jobs.len(), 1);
        let job = &spec.jobs[0];
        assert_eq!(
            (
                job.map_units,
                job.hosts,
                job.broadcasts,
                job.seed,
                job.repeats
            ),
            (5, 100, 200, 1, 1)
        );
        assert_eq!(job.label, "j0000_flooding_s1");
    }

    #[test]
    fn defaults_rebind_for_subsequent_lines_only() {
        let spec = CampaignSpec::parse(
            "manet-campaign/1\n\
             job scheme=ac\n\
             defaults map=3 hosts=40 broadcasts=20 repeats=2\n\
             job scheme=nc seed=9\n",
        )
        .unwrap();
        assert_eq!(spec.jobs[0].map_units, 5, "before the defaults line");
        let job = &spec.jobs[1];
        assert_eq!(
            (
                job.map_units,
                job.hosts,
                job.broadcasts,
                job.seed,
                job.repeats
            ),
            (3, 40, 20, 9, 2)
        );
    }

    #[test]
    fn sweep_expands_both_range_spellings() {
        let spec = CampaignSpec::parse(
            "manet-campaign/1\n\
             sweep scheme=ac seeds=1..4\n\
             sweep scheme=nc seeds=10..=12 label=nc\n",
        )
        .unwrap();
        assert_eq!(spec.jobs.len(), 3 + 3);
        assert_eq!(
            spec.jobs.iter().map(|j| j.seed).collect::<Vec<_>>(),
            [1, 2, 3, 10, 11, 12]
        );
        assert_eq!(spec.jobs[3].label, "nc_s10");
        assert_eq!(spec.jobs[0].label, "j0000_ac_s1");
    }

    #[test]
    fn labels_stay_unique_and_filename_safe() {
        let err =
            CampaignSpec::parse("manet-campaign/1\njob scheme=ac label=x\njob scheme=nc label=x\n")
                .unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
        let err = CampaignSpec::parse("manet-campaign/1\njob scheme=ac label=a/b\n").unwrap_err();
        assert!(err.message.contains("label"), "{err}");
        // A label is a file name at the client: no leading dot (hidden
        // files, `..`), at most 128 bytes — refused where it is written.
        let long = "x".repeat(129);
        for bad in [".x", "..", long.as_str()] {
            let text = format!("manet-campaign/1\njob scheme=ac label={bad}\n");
            let err = CampaignSpec::parse(&text).unwrap_err();
            assert_eq!((err.line, err.column), (Some(2), Some(15)), "{bad}");
            assert!(err.message.contains("bad job label"), "{err}");
        }
        assert!(is_job_label(&long[..128]) && is_job_label("a..b") && is_job_label("x."));
        // A sweep suffix can push a legal prefix over the limit.
        let text = format!(
            "manet-campaign/1\nsweep label={} seeds=1..3\n",
            &long[..127]
        );
        let err = CampaignSpec::parse(&text).unwrap_err();
        assert_eq!(err.line, Some(2), "{err}");
        // Derived labels sanitize scheme punctuation.
        let spec = CampaignSpec::parse("manet-campaign/1\njob scheme=counter:3 seed=42\n").unwrap();
        assert_eq!(spec.jobs[0].label, "j0000_counter-3_s42");
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = CampaignSpec::parse("manet-campaign/1\njob scheme=ac map=x\n").unwrap_err();
        assert_eq!((err.line, err.column), (Some(2), Some(15)));
        let err = CampaignSpec::parse("manet-campaign/1\nfrobnicate\n").unwrap_err();
        assert_eq!((err.line, err.column), (Some(2), Some(1)));
        let err = CampaignSpec::parse("manet-campaign/1\njob scheme\n").unwrap_err();
        assert!(err.message.contains("key=value"), "{err}");
    }

    #[test]
    fn misplaced_seed_keys_are_rejected() {
        assert!(CampaignSpec::parse("manet-campaign/1\njob scheme=ac seeds=1..9\n").is_err());
        assert!(CampaignSpec::parse("manet-campaign/1\nsweep scheme=ac seed=4\n").is_err());
        assert!(CampaignSpec::parse("manet-campaign/1\nsweep scheme=ac\n").is_err());
        assert!(CampaignSpec::parse("manet-campaign/1\nsweep scheme=ac seeds=9..9\n").is_err());
        assert!(CampaignSpec::parse("manet-campaign/1\nsweep scheme=ac seeds=9..=8\n").is_err());
    }

    #[test]
    fn header_and_emptiness_are_enforced() {
        assert!(CampaignSpec::parse("").is_err());
        assert!(CampaignSpec::parse("manet-scenario/1\n").is_err());
        let err = CampaignSpec::parse("manet-campaign/1\nname only\n").unwrap_err();
        assert!(err.message.contains("no jobs"), "{err}");
    }

    #[test]
    fn scenario_paths_and_comments_ride_along() {
        let spec = CampaignSpec::parse(
            "# bakeoff\nmanet-campaign/1\nname bake\n\
             job scheme=ac scenario=examples/scenarios/churn_quick.txt # churn\n",
        )
        .unwrap();
        assert_eq!(spec.name, "bake");
        assert_eq!(
            spec.jobs[0].scenario.as_deref(),
            Some("examples/scenarios/churn_quick.txt")
        );
    }
}
