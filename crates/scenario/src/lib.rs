//! # manet-scenario
//!
//! Deterministic scenario descriptions for the MANET broadcast simulator.
//!
//! A [`Scenario`] scripts how the world deviates from the paper's fixed,
//! fault-free runs: hosts leave and rejoin (gracefully or by crashing),
//! individual links black out for a window, bursts of packet errors raise
//! the channel loss rate, and a map region is partitioned off for a while.
//! Scenarios are plain data with one on-disk encoding — a line-based text
//! format under schema [`SCHEMA`] (`manet-scenario/1`), parsed by in-tree
//! code (the workspace has no third-party dependencies).
//!
//! The life cycle is parse → [`validate`] → [`compile`]:
//!
//! * [`Scenario::parse`] reads the text encoding and rejects malformed
//!   input with a line- and column-tagged error.
//! * [`validate`] checks the script against a concrete host count: ids in
//!   range, windows well-formed, per-host churn alternation (a host must
//!   be up to leave/crash and down to join/recover, and rejoins must match
//!   how the host went down), and that the active population never drops
//!   to zero (the workload needs a source to issue broadcasts from).
//! * [`compile`] flattens everything into a
//!   [`Timeline`] of [`WorldAction`]s — one
//!   entry per churn event, two (start/end) per fault window — that the
//!   world schedules onto its main event queue at start-up.
//!
//! Determinism: parsing, validation, and compilation are pure functions of
//! the input text, and times round-trip exactly (timestamps are decimal
//! seconds with at most nanosecond precision).
//!
//! [`validate`]: Scenario::validate
//! [`compile`]: Scenario::compile
//!
//! # Examples
//!
//! ```
//! use manet_scenario::Scenario;
//!
//! let text = "\
//! manet-scenario/1
//! name demo
//! hosts 10
//! at 4 crash 3
//! at 9.5 recover 3
//! from 2 until 6 noise 0.2
//! ";
//! let scenario = Scenario::parse(text).unwrap();
//! scenario.validate(10).unwrap();
//! assert_eq!(scenario.compile().len(), 4); // crash, recover, noise on/off
//! assert_eq!(Scenario::parse(&scenario.to_text()).unwrap(), scenario);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod campaign;
mod text;

use std::error::Error;
use std::fmt;

use manet_sim_engine::{SimTime, Timeline};

pub use campaign::{is_job_label, CampaignSpec, JobSpec, CAMPAIGN_SCHEMA, MAX_CAMPAIGN_JOBS};
pub use text::quote;

/// Schema identifier, the first line of the text format.
pub const SCHEMA: &str = "manet-scenario/1";

/// An axis-aligned map region in meters, used by partition faults.
///
/// Membership is inclusive on all four edges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Region {
    /// West edge (meters).
    pub x0: f64,
    /// South edge (meters).
    pub y0: f64,
    /// East edge (meters); must exceed `x0`.
    pub x1: f64,
    /// North edge (meters); must exceed `y0`.
    pub y1: f64,
}

impl Region {
    /// `true` when the point lies inside the region (edges inclusive).
    pub fn contains(&self, x: f64, y: f64) -> bool {
        self.x0 <= x && x <= self.x1 && self.y0 <= y && y <= self.y1
    }
}

/// How a host's membership changes at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// Graceful departure: the radio goes quiet but the host keeps its
    /// protocol state for a later [`Join`](ChurnKind::Join).
    Leave,
    /// Return from a [`Leave`](ChurnKind::Leave) with state intact.
    Join,
    /// Abrupt failure: the radio goes quiet and all protocol state
    /// (neighbor tables, packet memory) is lost.
    Crash,
    /// Reboot after a [`Crash`](ChurnKind::Crash) with blank state.
    Recover,
}

impl ChurnKind {
    /// The keyword used by both on-disk encodings.
    pub fn label(self) -> &'static str {
        match self {
            ChurnKind::Leave => "leave",
            ChurnKind::Join => "join",
            ChurnKind::Crash => "crash",
            ChurnKind::Recover => "recover",
        }
    }

    pub(crate) fn from_label(label: &str) -> Option<Self> {
        match label {
            "leave" => Some(ChurnKind::Leave),
            "join" => Some(ChurnKind::Join),
            "crash" => Some(ChurnKind::Crash),
            "recover" => Some(ChurnKind::Recover),
            _ => None,
        }
    }
}

/// One scripted membership change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnEvent {
    /// When the change takes effect.
    pub at: SimTime,
    /// What happens.
    pub kind: ChurnKind,
    /// The affected host id (index into the world's host array).
    pub host: u32,
}

/// A window during which one specific link delivers nothing.
///
/// Both directions of the `a`–`b` link are cut; frames still occupy the
/// medium (carrier sense is unaffected), they just arrive undecodable —
/// the semantics of a deep fade, not of increased range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBlackout {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive); must exceed `from`.
    pub until: SimTime,
    /// One endpoint host id.
    pub a: u32,
    /// The other endpoint host id.
    pub b: u32,
}

/// A window during which every reception is independently lost with the
/// given probability, on top of any configured base drop rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseBurst {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive); must exceed `from`.
    pub until: SimTime,
    /// Per-reception loss probability in `(0, 1]`.
    pub drop_probability: f64,
}

/// A window during which links crossing a region boundary are cut.
///
/// While active, a frame is lost at any listener on the opposite side of
/// the region edge from the sender (one endpoint inside, one outside,
/// judged by current positions). Traffic wholly inside or wholly outside
/// the region is unaffected, so the region keeps working internally — it
/// is partitioned off, not destroyed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Partition {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive); must exceed `from`.
    pub until: SimTime,
    /// The partitioned-off region.
    pub region: Region,
}

/// A parsed scenario: a name, an optional host count, and the scripted
/// events grouped by kind (each group in declaration order).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (a single token, free of whitespace and `#`).
    pub name: String,
    /// Host count the script was written for, if declared. Used as the
    /// default `--hosts` by runners; [`validate`] checks ids against the
    /// count actually simulated.
    ///
    /// [`validate`]: Scenario::validate
    pub hosts: Option<u32>,
    /// Membership changes.
    pub churn: Vec<ChurnEvent>,
    /// Per-link blackout windows.
    pub blackouts: Vec<LinkBlackout>,
    /// Packet-error bursts.
    pub noise: Vec<NoiseBurst>,
    /// Region partitions.
    pub partitions: Vec<Partition>,
}

/// One compiled world event: what the simulation applies at an instant.
///
/// Churn events compile one-to-one; each fault window compiles into a
/// start/end pair carrying enough payload for the world to match the end
/// against the start (faults of the same shape may overlap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorldAction {
    /// Host leaves gracefully.
    Leave {
        /// Affected host id.
        host: u32,
    },
    /// Host returns from a graceful leave.
    Join {
        /// Affected host id.
        host: u32,
    },
    /// Host crashes, losing protocol state.
    Crash {
        /// Affected host id.
        host: u32,
    },
    /// Host reboots after a crash.
    Recover {
        /// Affected host id.
        host: u32,
    },
    /// A link blackout window opens.
    BlackoutStart {
        /// One endpoint host id.
        a: u32,
        /// The other endpoint host id.
        b: u32,
    },
    /// A link blackout window closes.
    BlackoutEnd {
        /// One endpoint host id.
        a: u32,
        /// The other endpoint host id.
        b: u32,
    },
    /// A noise burst begins.
    NoiseStart {
        /// Per-reception loss probability.
        drop_probability: f64,
    },
    /// A noise burst ends.
    NoiseEnd {
        /// Per-reception loss probability (matches the start).
        drop_probability: f64,
    },
    /// A region partition begins.
    PartitionStart {
        /// The partitioned region.
        region: Region,
    },
    /// A region partition heals.
    PartitionEnd {
        /// The partitioned region (matches the start).
        region: Region,
    },
}

/// A parse or validation failure, tagged with where in the source it
/// happened: a 1-based line (and, for token-level errors, column) in the
/// text encoding. Validation errors describe the script as a whole and
/// carry no location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line of the offending text, when known.
    pub line: Option<usize>,
    /// 1-based character column of the offending token, when known.
    /// Always accompanied by [`line`](ScenarioError::line).
    pub column: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl ScenarioError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ScenarioError {
            line: None,
            column: None,
            message: message.into(),
        }
    }

    pub(crate) fn at(line: usize, column: usize, message: impl Into<String>) -> Self {
        ScenarioError {
            line: Some(line),
            column: Some(column),
            message: message.into(),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.line, self.column) {
            (Some(line), Some(column)) => {
                write!(f, "line {line}, column {column}: {}", self.message)
            }
            (Some(line), None) => write!(f, "line {line}: {}", self.message),
            _ => f.write_str(&self.message),
        }
    }
}

impl Error for ScenarioError {}

/// Per-host membership used by churn validation.
#[derive(Clone, Copy, PartialEq, Eq)]
enum HostState {
    Up,
    DownLeft,
    DownCrashed,
}

impl Scenario {
    /// An empty scenario with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            hosts: None,
            churn: Vec::new(),
            blackouts: Vec::new(),
            noise: Vec::new(),
            partitions: Vec::new(),
        }
    }

    /// Sets the declared host count (builder style).
    pub fn with_hosts(mut self, hosts: u32) -> Self {
        self.hosts = Some(hosts);
        self
    }

    /// Appends a membership change (builder style).
    pub fn churn(mut self, at: SimTime, kind: ChurnKind, host: u32) -> Self {
        self.churn.push(ChurnEvent { at, kind, host });
        self
    }

    /// Appends a link blackout window (builder style).
    pub fn blackout(mut self, from: SimTime, until: SimTime, a: u32, b: u32) -> Self {
        self.blackouts.push(LinkBlackout { from, until, a, b });
        self
    }

    /// Appends a noise burst (builder style).
    pub fn noise(mut self, from: SimTime, until: SimTime, drop_probability: f64) -> Self {
        self.noise.push(NoiseBurst {
            from,
            until,
            drop_probability,
        });
        self
    }

    /// Appends a region partition window (builder style).
    pub fn partition(mut self, from: SimTime, until: SimTime, region: Region) -> Self {
        self.partitions.push(Partition {
            from,
            until,
            region,
        });
        self
    }

    /// Parses the line-based text encoding.
    pub fn parse(input: &str) -> Result<Scenario, ScenarioError> {
        text::parse_scenario(input)
    }

    /// Renders the canonical text encoding. `parse(to_text(s)) == s` for
    /// every parseable scenario.
    pub fn to_text(&self) -> String {
        text::render_scenario(self)
    }

    /// Total scripted declarations (churn events plus fault windows).
    pub fn event_count(&self) -> usize {
        self.churn.len() + self.blackouts.len() + self.noise.len() + self.partitions.len()
    }

    /// Checks the script against a concrete host count.
    ///
    /// Rules enforced beyond basic field sanity: churn must alternate per
    /// host (`leave`/`crash` only while up, `join` only after a `leave`,
    /// `recover` only after a `crash`), evaluated in compiled time order;
    /// and the active population must never reach zero, so the workload
    /// always has a source to issue broadcasts from.
    pub fn validate(&self, hosts: u32) -> Result<(), ScenarioError> {
        if hosts == 0 {
            return Err(ScenarioError::new("scenario requires at least one host"));
        }
        // `#` opens a comment in the text encoding: a name holding one
        // would not survive `parse(to_text(s))`.
        if self.name.is_empty() || self.name.chars().any(|c| c.is_whitespace() || c == '#') {
            return Err(ScenarioError::new(format!(
                "scenario name {} must be a non-empty token without whitespace or '#'",
                quote(&self.name)
            )));
        }
        if let Some(declared) = self.hosts {
            if declared != hosts {
                return Err(ScenarioError::new(format!(
                    "scenario declares {declared} hosts but the run has {hosts}"
                )));
            }
        }
        for event in &self.churn {
            if event.host >= hosts {
                return Err(ScenarioError::new(format!(
                    "churn host {} out of range (run has {hosts} hosts)",
                    event.host
                )));
            }
        }
        for window in &self.blackouts {
            if window.a >= hosts || window.b >= hosts {
                return Err(ScenarioError::new(format!(
                    "blackout link {}-{} out of range (run has {hosts} hosts)",
                    window.a, window.b
                )));
            }
            if window.a == window.b {
                return Err(ScenarioError::new(format!(
                    "blackout link endpoints must differ (got {}-{})",
                    window.a, window.b
                )));
            }
            if window.from >= window.until {
                return Err(ScenarioError::new(format!(
                    "blackout window must start before it ends ({} >= {})",
                    window.from, window.until
                )));
            }
        }
        for burst in &self.noise {
            if burst.from >= burst.until {
                return Err(ScenarioError::new(format!(
                    "noise window must start before it ends ({} >= {})",
                    burst.from, burst.until
                )));
            }
            if !(burst.drop_probability > 0.0 && burst.drop_probability <= 1.0) {
                return Err(ScenarioError::new(format!(
                    "noise drop probability must lie in (0, 1], got {}",
                    burst.drop_probability
                )));
            }
        }
        for window in &self.partitions {
            if window.from >= window.until {
                return Err(ScenarioError::new(format!(
                    "partition window must start before it ends ({} >= {})",
                    window.from, window.until
                )));
            }
            let r = window.region;
            if !(r.x0.is_finite() && r.y0.is_finite() && r.x1.is_finite() && r.y1.is_finite()) {
                return Err(ScenarioError::new("partition region must be finite"));
            }
            if r.x0 >= r.x1 || r.y0 >= r.y1 {
                return Err(ScenarioError::new(format!(
                    "partition region must have positive extent (got {} {} {} {})",
                    r.x0, r.y0, r.x1, r.y1
                )));
            }
        }

        // Replay churn in compiled (time, declaration) order: alternation
        // per host, and at least one active host at every instant.
        let mut ordered: Vec<&ChurnEvent> = self.churn.iter().collect();
        ordered.sort_by_key(|event| event.at);
        let mut states: std::collections::BTreeMap<u32, HostState> =
            std::collections::BTreeMap::new();
        let mut down = 0u32;
        for event in ordered {
            let state = states.entry(event.host).or_insert(HostState::Up);
            match event.kind {
                ChurnKind::Leave | ChurnKind::Crash => {
                    if *state != HostState::Up {
                        return Err(ScenarioError::new(format!(
                            "host {} {}s at {} while already down",
                            event.host,
                            event.kind.label(),
                            event.at
                        )));
                    }
                    *state = if event.kind == ChurnKind::Leave {
                        HostState::DownLeft
                    } else {
                        HostState::DownCrashed
                    };
                    down += 1;
                    if down >= hosts {
                        return Err(ScenarioError::new(format!(
                            "all {hosts} hosts are down at {} — the workload needs a source",
                            event.at
                        )));
                    }
                }
                ChurnKind::Join => {
                    if *state != HostState::DownLeft {
                        return Err(ScenarioError::new(format!(
                            "host {} joins at {} without a prior leave",
                            event.host, event.at
                        )));
                    }
                    *state = HostState::Up;
                    down -= 1;
                }
                ChurnKind::Recover => {
                    if *state != HostState::DownCrashed {
                        return Err(ScenarioError::new(format!(
                            "host {} recovers at {} without a prior crash",
                            event.host, event.at
                        )));
                    }
                    *state = HostState::Up;
                    down -= 1;
                }
            }
        }
        Ok(())
    }

    /// Flattens the script into a time-sorted [`Timeline`] of
    /// [`WorldAction`]s: one entry per churn event, a start/end pair per
    /// fault window. Ties keep declaration order (churn first, then
    /// blackouts, noise, partitions).
    pub fn compile(&self) -> Timeline<WorldAction> {
        let mut entries: Vec<(SimTime, WorldAction)> =
            Vec::with_capacity(self.churn.len() + 2 * (self.event_count() - self.churn.len()));
        for event in &self.churn {
            let action = match event.kind {
                ChurnKind::Leave => WorldAction::Leave { host: event.host },
                ChurnKind::Join => WorldAction::Join { host: event.host },
                ChurnKind::Crash => WorldAction::Crash { host: event.host },
                ChurnKind::Recover => WorldAction::Recover { host: event.host },
            };
            entries.push((event.at, action));
        }
        for window in &self.blackouts {
            let (a, b) = (window.a, window.b);
            entries.push((window.from, WorldAction::BlackoutStart { a, b }));
            entries.push((window.until, WorldAction::BlackoutEnd { a, b }));
        }
        for burst in &self.noise {
            let drop_probability = burst.drop_probability;
            entries.push((burst.from, WorldAction::NoiseStart { drop_probability }));
            entries.push((burst.until, WorldAction::NoiseEnd { drop_probability }));
        }
        for window in &self.partitions {
            let region = window.region;
            entries.push((window.from, WorldAction::PartitionStart { region }));
            entries.push((window.until, WorldAction::PartitionEnd { region }));
        }
        Timeline::new(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sample() -> Scenario {
        Scenario::new("sample")
            .with_hosts(10)
            .churn(secs(4), ChurnKind::Crash, 3)
            .churn(secs(9), ChurnKind::Recover, 3)
            .churn(secs(5), ChurnKind::Leave, 7)
            .churn(secs(12), ChurnKind::Join, 7)
            .blackout(secs(2), secs(6), 0, 1)
            .noise(secs(3), secs(8), 0.25)
            .partition(
                secs(10),
                secs(11),
                Region {
                    x0: 0.0,
                    y0: 0.0,
                    x1: 100.0,
                    y1: 200.0,
                },
            )
    }

    #[test]
    fn sample_validates_and_compiles() {
        let s = sample();
        s.validate(10).unwrap();
        let timeline = s.compile();
        // 4 churn entries + 2 per window * 3 windows.
        assert_eq!(timeline.len(), 10);
        let times: Vec<SimTime> = timeline.iter().map(|(at, _)| at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "sorted: {times:?}");
        assert_eq!(
            timeline.get(0),
            (secs(2), &WorldAction::BlackoutStart { a: 0, b: 1 })
        );
    }

    #[test]
    fn validate_rejects_out_of_range_and_double_down() {
        let s = sample();
        assert!(s.validate(5).is_err(), "host 7 out of range for 5 hosts");
        let double = Scenario::new("x")
            .churn(secs(1), ChurnKind::Leave, 0)
            .churn(secs(2), ChurnKind::Crash, 0);
        assert!(double.validate(4).is_err());
    }

    #[test]
    fn validate_requires_matching_rejoin_kind() {
        let mismatch = Scenario::new("x")
            .churn(secs(1), ChurnKind::Crash, 0)
            .churn(secs(2), ChurnKind::Join, 0);
        let err = mismatch.validate(4).unwrap_err();
        assert!(err.message.contains("without a prior leave"), "{err}");
    }

    #[test]
    fn validate_rejects_extinction() {
        let s = Scenario::new("x")
            .churn(secs(1), ChurnKind::Leave, 0)
            .churn(secs(2), ChurnKind::Crash, 1);
        let err = s.validate(2).unwrap_err();
        assert!(err.message.contains("needs a source"), "{err}");
        // Same script is fine with a third host standing by.
        s.validate(3).unwrap();
    }

    #[test]
    fn validate_rejects_declared_host_mismatch() {
        let s = Scenario::new("x").with_hosts(10);
        assert!(s.validate(10).is_ok());
        assert!(s.validate(20).is_err());
    }

    #[test]
    fn validate_rejects_a_name_the_text_encoding_would_cut() {
        assert!(Scenario::new("run-1").validate(2).is_ok());
        for name in ["", "run 1", "run#1"] {
            assert!(Scenario::new(name).validate(2).is_err(), "{name:?}");
        }
    }

    #[test]
    fn validate_rejects_degenerate_windows() {
        let bad_window = Scenario::new("x").noise(secs(5), secs(5), 0.5);
        assert!(bad_window.validate(2).is_err());
        let bad_probability = Scenario::new("x").noise(secs(1), secs(2), 0.0);
        assert!(bad_probability.validate(2).is_err());
        let self_link = Scenario::new("x").blackout(secs(1), secs(2), 1, 1);
        assert!(self_link.validate(2).is_err());
        let thin_region = Scenario::new("x").partition(
            secs(1),
            secs(2),
            Region {
                x0: 5.0,
                y0: 0.0,
                x1: 5.0,
                y1: 10.0,
            },
        );
        assert!(thin_region.validate(2).is_err());
    }

    #[test]
    fn region_contains_is_edge_inclusive() {
        let r = Region {
            x0: 0.0,
            y0: 0.0,
            x1: 10.0,
            y1: 5.0,
        };
        assert!(r.contains(0.0, 0.0));
        assert!(r.contains(10.0, 5.0));
        assert!(!r.contains(10.1, 5.0));
    }
}
