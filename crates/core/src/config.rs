//! Simulation configuration.
//!
//! [`SimConfig`] captures one simulation run: the map, the host
//! population and mobility, the broadcast scheme, how neighborhood
//! information is obtained, and the workload. Defaults match the paper's
//! fixed parameters (§4); a builder makes the sweeps in the experiment
//! harness terse. [`SimConfig::to_text`] is the one spelling of a run:
//! `manet-sim`'s run flags are its keys ([`SimConfig::set`]), and
//! [`SimConfig::encode`] writes it as the header of every `MSNP`
//! checkpoint and `MTRC` trace.

use manet_mobility::Map;
use manet_net::{DynamicHelloParams, HelloIntervalPolicy};
use manet_scenario::{quote, Scenario};
use manet_sim_engine::{SimDuration, WireDecoder, WireEncoder, WireError};

use crate::schemes::SchemeSpec;
use crate::threshold::{number, split3};

// The paper's fixed parameters that no run varies. The transmission
// radius is the fourth: `manet_mobility::PAPER_RADIO_RADIUS_M`.

/// Broadcast payload size in bytes.
pub(crate) const PACKET_BYTES: usize = 280;
/// Grid resolution of the location schemes' coverage estimator.
pub(crate) const COVERAGE_RESOLUTION: usize = 48;
/// Carrier-sense latency: how long after a frame appears on the air
/// neighbors' clear-channel assessment reports busy (and how long after
/// it ends they report idle). The paper's collision analysis leans on
/// carriers not being sensed immediately ("RF delays"); 15 µs is the DSSS
/// CCA assessment time.
pub(crate) const CS_DELAY: SimDuration = SimDuration::from_micros(15);

/// Where the adaptive schemes get their neighborhood information.
#[derive(Debug, Clone, PartialEq)]
pub enum NeighborInfo {
    /// Real HELLO beacons over the simulated channel (the paper's setup):
    /// neighbor knowledge costs bandwidth and can go stale.
    Hello(HelloIntervalPolicy),
    /// Perfect instantaneous knowledge from the simulator's geometry.
    /// Not part of the paper — used by tests and the oracle-vs-hello
    /// ablation.
    Oracle,
}

/// The neighbour knowledge a scheme reads (§3–4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    /// None: flooding, the fixed thresholds and the coin.
    None,
    /// The neighbour count `n`: the adaptive counter and location schemes.
    Count,
    /// `N_x` and each neighbour's `N_{x,h}`: neighbour coverage.
    TwoHop,
}

/// What a run's hosts keep and its actions carry, decided once from its
/// scheme and neighbour information ([`SimConfig::reads`]). The world,
/// the pure models, a checkpoint and a trace all read this one value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reads {
    /// The neighbour knowledge the scheme reads.
    pub view: View,
    /// The beacon policy when the view comes from HELLO tables; `None`
    /// when the run sends no HELLOs, and then no host keeps HELLO state.
    pub hello: Option<HelloIntervalPolicy>,
    /// Whether the decisions read positions, the hearer's and the
    /// sender's (the distance and location schemes), so a hear carries them.
    pub positions: bool,
    /// Whether they read a hear's uniform sample (the probabilistic scheme).
    pub coin: bool,
}

impl Reads {
    /// Whether the view rides on each hear, computed from geometry, in
    /// place of HELLO tables.
    pub fn oracle(&self) -> bool {
        self.view != View::None && self.hello.is_none()
    }
}

/// Which mobility model hosts follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MobilitySpec {
    /// The paper's random-turn roaming (uniform direction, speed, and
    /// 1–100 s interval per turn).
    RandomTurn,
    /// The classic random-waypoint model (travel to a uniform destination,
    /// pause, repeat) — an extension for robustness checks.
    RandomWaypoint,
    /// Hosts never move (deterministic topologies for tests).
    Stationary,
}

/// Physical-layer capture configuration (an extension beyond the paper,
/// which assumes any overlap garbles all frames involved).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptureConfig {
    /// Required linear signal-to-interference ratio for a frame to
    /// survive overlap (e.g. 4.0 ≈ 6 dB).
    pub sir_threshold: f64,
    /// Path-loss exponent used to derive received signal strength
    /// `(r / d)^alpha` from the transmitter distance `d` (2 = free space,
    /// 4 = ground reflection).
    pub path_loss_exponent: f64,
}

impl CaptureConfig {
    /// A conventional 802.11-ish model: 10 dB SIR, path-loss exponent 4.
    pub fn typical() -> Self {
        CaptureConfig {
            sir_threshold: 10.0,
            path_loss_exponent: 4.0,
        }
    }
}

/// How hosts are initially placed on the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementSpec {
    /// Independent uniform positions (the paper's setup).
    Uniform,
    /// An evenly spaced grid covering the map — deterministic, fully
    /// connected on dense maps.
    Grid,
    /// A horizontal chain through the map center with the given spacing
    /// in meters. With spacing below the radio radius each host reaches
    /// exactly its chain neighbors — ideal for exact-propagation tests.
    Line {
        /// Distance between consecutive hosts, meters.
        spacing_m: u32,
    },
}

/// Full description of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Side of the square map in 500 m units (the paper uses 1–11).
    pub map_units: u32,
    /// Number of mobile hosts (paper: 100).
    pub hosts: u32,
    /// Maximum roaming speed in km/h; `None` uses the paper's default for
    /// the map size (10 km/h per map unit).
    pub max_speed_kmh: Option<f64>,
    /// The broadcast scheme under test.
    pub scheme: SchemeSpec,
    /// Source of neighborhood information.
    pub neighbor_info: NeighborInfo,
    /// Initial host placement.
    pub placement: PlacementSpec,
    /// Mobility model (default: the paper's random turns).
    pub mobility: MobilitySpec,
    /// Number of broadcast requests to issue (paper: 10 000).
    pub broadcasts: u32,
    /// Interarrival between broadcasts is uniform in `[0, this]`
    /// (paper: 2 s).
    pub max_interarrival: SimDuration,
    /// Root RNG seed; every component derives its stream from this.
    pub seed: u64,
    /// Extra simulated time after the last broadcast is issued, letting
    /// in-flight packets settle before metrics are read.
    pub grace: SimDuration,
    /// Simulated time before the first broadcast is issued, giving HELLO
    /// beacons a chance to populate neighbor tables.
    pub warmup: SimDuration,
    /// Independent per-delivery frame-loss probability (failure
    /// injection; 0 reproduces the paper).
    pub drop_probability: f64,
    /// Optional physical-layer capture model; `None` reproduces the
    /// paper's no-capture collisions.
    pub capture: Option<CaptureConfig>,
    /// When `true`, the event loop measures wall-clock time per event
    /// kind and attaches a [`LoopProfile`](manet_sim_engine::LoopProfile)
    /// to the report. Off by default: the disabled path costs a single
    /// branch per event.
    pub profile_events: bool,
    /// Optional scripted scenario: host churn and fault windows compiled
    /// into world events (see the `manet-scenario` crate). `None`
    /// reproduces the paper's fault-free fixed population.
    pub scenario: Option<Scenario>,
    /// Read by nothing (strips come from the map); the frozen `perfbench` test reads it.
    pub shards: u32,
    /// Read by nothing (one executor); the frozen `perfbench` test reads it.
    pub parallel_epochs: bool,
    /// Read by nothing (a world owns no threads); the frozen `perfbench` test reads it.
    pub workers: Option<u32>,
}

impl SimConfig {
    /// Longest HELLO interval a run may name, ≈ 11 days (the paper's
    /// longest is 30 s). The world computes `interval * 105 / 100` (re-arm
    /// jitter) and `interval * 2` (neighbor expiry) in u64 nanoseconds;
    /// this keeps both, added to any run's clock, far from overflow.
    pub const MAX_HELLO_INTERVAL: SimDuration = SimDuration::from_secs(1_000_000);

    /// Starts a builder for a run of `scheme` on a `map_units × map_units`
    /// map.
    pub fn builder(map_units: u32, scheme: SchemeSpec) -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig {
                map_units,
                hosts: 100,
                max_speed_kmh: None,
                scheme,
                neighbor_info: NeighborInfo::Hello(HelloIntervalPolicy::fixed_1s()),
                placement: PlacementSpec::Uniform,
                mobility: MobilitySpec::RandomTurn,
                broadcasts: 100,
                max_interarrival: SimDuration::from_secs(2),
                seed: 1,
                grace: SimDuration::from_secs(5),
                warmup: SimDuration::from_secs(5),
                drop_probability: 0.0,
                capture: None,
                profile_events: false,
                scenario: None,
                shards: 1,
                parallel_epochs: false,
                workers: None,
            },
        }
    }

    /// The map this configuration runs on.
    pub fn map(&self) -> Map {
        Map::square_units(self.map_units)
    }

    /// The effective maximum roaming speed in km/h.
    pub fn effective_max_speed_kmh(&self) -> f64 {
        self.max_speed_kmh
            .unwrap_or_else(|| self.map().paper_max_speed_kmh())
    }

    /// What this run's hosts keep and its actions carry: the one map
    /// from scheme and neighbour information to HELLO state and views.
    pub fn reads(&self) -> Reads {
        let view = self.scheme.view();
        Reads {
            view,
            hello: match self.neighbor_info {
                NeighborInfo::Hello(policy) if view != View::None => Some(policy),
                _ => None,
            },
            positions: matches!(
                self.scheme,
                SchemeSpec::Distance(_) | SchemeSpec::Location(_) | SchemeSpec::AdaptiveLocation(_)
            ),
            coin: matches!(self.scheme, SchemeSpec::Probabilistic(_)),
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        // The world keeps a host list per square radio radius of map: a
        // million of them at most, on a map 500 km across.
        if !(1..=1_000).contains(&self.map_units) {
            return Err("map must be at least 1x1 and at most 1000x1000".into());
        }
        if self.hosts == 0 {
            return Err("need at least one host".into());
        }
        if self.broadcasts == 0 {
            return Err("need at least one broadcast".into());
        }
        // Warm-up, every interarrival and grace within 2⁶² ns (≈ 146 years,
        // a quarter of the clock): no timer armed in the run overflows it.
        let nanos = |d: SimDuration| u128::from(d.as_nanos());
        let workload = nanos(self.warmup) + nanos(self.grace);
        if workload + u128::from(self.broadcasts) * nanos(self.max_interarrival) > 1 << 62 {
            return Err("warm-up, interarrivals and grace overrun the clock".into());
        }
        self.scheme.validate()?;
        if !(0.0..=1.0).contains(&self.drop_probability) {
            return Err(format!("bad drop probability {}", self.drop_probability));
        }
        let positive = |v: f64| v.is_finite() && v > 0.0;
        if let NeighborInfo::Hello(policy) = self.neighbor_info {
            // A zero interval re-arms the HELLO timer at the same instant
            // forever; the dynamic rule divides by `nv_max`.
            let (shortest, longest, nv_max) = match policy {
                HelloIntervalPolicy::Fixed(d) => (d, d, 1.0),
                HelloIntervalPolicy::Dynamic(p) => (p.hi_min, p.hi_min.max(p.hi_max), p.nv_max),
            };
            if shortest.is_zero() {
                return Err("hello interval must be longer than zero".into());
            }
            if longest > Self::MAX_HELLO_INTERVAL || !positive(nv_max) {
                let max = Self::MAX_HELLO_INTERVAL.decimal_secs();
                let why = if positive(nv_max) {
                    format!("an interval exceeds {max} s")
                } else {
                    "nv_max must be positive".into()
                };
                return Err(format!(
                    "bad hello={} ({why})",
                    hello_text(&self.neighbor_info)
                ));
            }
        }
        if let Some(speed) = self.max_speed_kmh {
            if !(speed.is_finite() && speed >= 0.0) {
                return Err(format!("bad max speed {speed}"));
            }
        }
        if let Some(c) = self.capture {
            if !(positive(c.sir_threshold) && positive(c.path_loss_exponent)) {
                return Err(format!(
                    "bad capture={} (SIR and exponent must be positive)",
                    capture_text(self.capture)
                ));
            }
        }
        if let Some(scenario) = &self.scenario {
            scenario
                .validate(self.hosts)
                .map_err(|e| format!("scenario: {e}"))?;
        }
        if let PlacementSpec::Line { spacing_m } = self.placement {
            let length = f64::from(spacing_m) * f64::from(self.hosts - 1);
            if length > self.map().bounds().width() {
                return Err(format!(
                    "line placement of {} hosts at {spacing_m} m does not fit the map",
                    self.hosts
                ));
            }
        }
        Ok(())
    }

    /// Sets the field `key` names from `value`, spelled as
    /// [`to_text`](Self::to_text) writes it (DESIGN.md §12 lists the
    /// keys); `manet-sim --KEY VALUE` is this call. Seconds are exact
    /// decimals. [`validate`](Self::validate) the config once every key is
    /// set.
    ///
    /// # Errors
    ///
    /// Names the key and quotes the value that does not parse, or the key
    /// that does not exist.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        use HelloIntervalPolicy::{Dynamic, Fixed};
        let bad = |what: &str, want: &str| format!("bad {what} {} ({want})", quote(value));
        let secs = |value: &str| {
            SimDuration::from_decimal_secs(value)
                .map_err(|why| format!("bad {key} {}: {why}", quote(value)))
        };
        match key {
            "map" => self.map_units = number(key, value)?,
            "hosts" => self.hosts = number(key, value)?,
            "scheme" => self.scheme = SchemeSpec::parse(value)?,
            "hello" if value == "oracle" => self.neighbor_info = NeighborInfo::Oracle,
            "hello" => {
                let want = "seconds | dynamic | oracle";
                let policy = match value.strip_prefix("dynamic:").and_then(split3) {
                    _ if value == "dynamic" => Dynamic(DynamicHelloParams::paper()),
                    Some([nv_max, lo, hi]) => Dynamic(DynamicHelloParams {
                        nv_max: number("nv_max", nv_max)?,
                        hi_min: secs(lo)?,
                        hi_max: secs(hi)?,
                    }),
                    None => Fixed(secs(value).map_err(|_| bad("hello policy", want))?),
                };
                self.neighbor_info = NeighborInfo::Hello(policy);
            }
            "mobility" => {
                let named = MOBILITY.iter().find(|m| m.1 == value).map(|m| m.0);
                self.mobility = named.ok_or_else(|| bad("mobility", "turn | waypoint | none"))?;
            }
            "speed" if value == "paper" => self.max_speed_kmh = None,
            "speed" => self.max_speed_kmh = Some(number(key, value)?),
            "placement" => {
                self.placement = match (value, value.strip_prefix("line:")) {
                    ("uniform", _) => PlacementSpec::Uniform,
                    ("grid", _) => PlacementSpec::Grid,
                    (_, Some(m)) => PlacementSpec::Line {
                        spacing_m: number("line spacing", m)?,
                    },
                    _ => return Err(bad("placement", "uniform | grid | line:METERS")),
                }
            }
            "capture" if value == "none" => self.capture = None,
            "capture" => {
                let split = value.split_once(',');
                let (sir, exponent) = split.ok_or_else(|| bad("capture", "none | SIR,EXPONENT"))?;
                self.capture = Some(CaptureConfig {
                    sir_threshold: number("capture SIR", sir)?,
                    path_loss_exponent: number("path-loss exponent", exponent)?,
                });
            }
            "drop" => self.drop_probability = number(key, value)?,
            "broadcasts" => self.broadcasts = number(key, value)?,
            "interarrival" => self.max_interarrival = secs(value)?,
            "warmup" => self.warmup = secs(value)?,
            "grace" => self.grace = secs(value)?,
            "seed" => self.seed = number(key, value)?,
            _ => return Err(format!("unknown key {}", quote(key))),
        }
        Ok(())
    }

    /// The run as text: a line of `key=value` tokens, every key of
    /// [`set`](Self::set) once in a fixed order, then the scenario's
    /// [`Scenario::to_text`] on the lines after it, if the run has one.
    /// `profile_events` and the dead fields are not written.
    pub fn to_text(&self) -> String {
        let hello = hello_text(&self.neighbor_info);
        let mobility = MOBILITY
            .iter()
            .find(|m| m.0 == self.mobility)
            .map_or("", |m| m.1);
        let speed = self
            .max_speed_kmh
            .map_or("paper".into(), |kmh| kmh.to_string());
        let placement = match self.placement {
            PlacementSpec::Uniform => "uniform".to_string(),
            PlacementSpec::Grid => "grid".to_string(),
            PlacementSpec::Line { spacing_m } => format!("line:{spacing_m}"),
        };
        let capture = capture_text(self.capture);
        let mut text = format!(
            "map={} hosts={} scheme={} hello={hello} mobility={mobility} speed={speed} \
             placement={placement} capture={capture} drop={} broadcasts={} interarrival={} \
             warmup={} grace={} seed={}\n",
            self.map_units,
            self.hosts,
            self.scheme,
            self.drop_probability,
            self.broadcasts,
            self.max_interarrival.decimal_secs(),
            self.warmup.decimal_secs(),
            self.grace.decimal_secs(),
            self.seed,
        );
        if let Some(scenario) = &self.scenario {
            text.push_str(&scenario.to_text());
        }
        text
    }

    /// Reads what [`to_text`](Self::to_text) wrote, validated once: each
    /// token of the first line through [`set`](Self::set) (a key not
    /// named keeps [`builder`](Self::builder)'s default), the lines after
    /// it as a scenario script. Total: any text gives a config or a
    /// [`WireError`] at the byte of the text that does not parse, naming
    /// its key (`bad hosts=`), or at byte 0 if the config fails validation.
    pub fn from_text(text: &str) -> Result<SimConfig, WireError> {
        let (line, script) = text.split_once('\n').unwrap_or((text, ""));
        let mut config = SimConfig::builder(1, SchemeSpec::Flooding).build();
        for token in line.split_whitespace() {
            let at = token.as_ptr() as usize - text.as_ptr() as usize;
            let (key, value) = token.split_once('=').unwrap_or(("", token));
            // The refusal naming the key, sliced out of `REFUSALS`.
            let refusal = format!("bad {key}=");
            let what =
                (REFUSALS.find(&refusal)).map_or(UNKNOWN, |i| &REFUSALS[i..i + refusal.len()]);
            config.set(key, value).map_err(|_| WireError { at, what })?;
        }
        if !script.is_empty() {
            let (at, what) = (line.len() + 1, "scenario text does not parse");
            config.scenario = Some(Scenario::parse(script).map_err(|_| WireError { at, what })?);
        }
        let what = INVALID;
        config.validate().map_err(|_| WireError { at: 0, what })?;
        Ok(config)
    }

    /// Writes [`to_text`](Self::to_text) as one wire string: the header of
    /// every `MSNP` checkpoint and `MTRC` trace (DESIGN.md §12).
    pub fn encode(&self, enc: &mut WireEncoder) {
        enc.str(&self.to_text());
    }

    /// Reads what [`encode`](Self::encode) wrote through
    /// [`from_text`](Self::from_text), refused at the token that does not
    /// parse or, when the config fails validation, at the header's first
    /// byte.
    pub fn decode(dec: &mut WireDecoder<'_>) -> Result<SimConfig, WireError> {
        let at = dec.position();
        let text = dec.str()?;
        let base = dec.position() - text.len();
        SimConfig::from_text(text).map_err(|e| {
            let at = if e.what == INVALID { at } else { base + e.at };
            WireError { at, ..e }
        })
    }
}

/// Each mobility model's spelling.
const MOBILITY: [(MobilitySpec, &str); 3] = [
    (MobilitySpec::RandomTurn, "turn"),
    (MobilitySpec::RandomWaypoint, "waypoint"),
    (MobilitySpec::Stationary, "none"),
];

/// The `hello=` value [`SimConfig::to_text`] writes.
fn hello_text(info: &NeighborInfo) -> String {
    match info {
        NeighborInfo::Oracle => "oracle".to_string(),
        NeighborInfo::Hello(HelloIntervalPolicy::Fixed(interval)) => interval.decimal_secs(),
        NeighborInfo::Hello(HelloIntervalPolicy::Dynamic(p))
            if *p == DynamicHelloParams::paper() =>
        {
            "dynamic".to_string()
        }
        NeighborInfo::Hello(HelloIntervalPolicy::Dynamic(p)) => {
            let (lo, hi) = (p.hi_min.decimal_secs(), p.hi_max.decimal_secs());
            format!("dynamic:{},{lo},{hi}", p.nv_max)
        }
    }
}

/// The `capture=` value [`SimConfig::to_text`] writes.
fn capture_text(capture: Option<CaptureConfig>) -> String {
    capture.map_or("none".into(), |c| {
        format!("{},{}", c.sir_threshold, c.path_loss_exponent)
    })
}

/// The refusal of each key's token, one after another.
const REFUSALS: &str = "bad map= bad hosts= bad scheme= bad hello= bad mobility= bad speed= \
    bad placement= bad capture= bad drop= bad broadcasts= bad interarrival= bad warmup= \
    bad grace= bad seed=";
/// The refusal of a token that is no key's.
const UNKNOWN: &str = "not a key=value token of a config";
/// The refusal of a config text whose every token parses.
const INVALID: &str = "config fails validation";

/// Builder for [`SimConfig`].
///
/// # Examples
///
/// ```
/// use broadcast_core::{SchemeSpec, SimConfig};
///
/// let config = SimConfig::builder(5, SchemeSpec::Counter(2))
///     .broadcasts(50)
///     .seed(7)
///     .build();
/// assert_eq!(config.map_units, 5);
/// assert_eq!(config.effective_max_speed_kmh(), 50.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Number of hosts (default 100, as in the paper).
    pub fn hosts(mut self, hosts: u32) -> Self {
        self.config.hosts = hosts;
        self
    }

    /// Maximum roaming speed in km/h (default: the paper's per-map value).
    pub fn max_speed_kmh(mut self, kmh: f64) -> Self {
        self.config.max_speed_kmh = Some(kmh);
        self
    }

    /// Number of broadcast requests (paper: 10 000; default here 100 for
    /// laptop-scale sweeps).
    pub fn broadcasts(mut self, broadcasts: u32) -> Self {
        self.config.broadcasts = broadcasts;
        self
    }

    /// Source of neighbor information (default: HELLO every 1 s).
    pub fn neighbor_info(mut self, info: NeighborInfo) -> Self {
        self.config.neighbor_info = info;
        self
    }

    /// Initial host placement (default: uniform, as in the paper).
    pub fn placement(mut self, placement: PlacementSpec) -> Self {
        self.config.placement = placement;
        self
    }

    /// Mobility model (default: the paper's random turns).
    pub fn mobility(mut self, mobility: MobilitySpec) -> Self {
        self.config.mobility = mobility;
        self
    }

    /// Root RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Broadcast interarrival upper bound (default 2 s).
    pub fn max_interarrival(mut self, d: SimDuration) -> Self {
        self.config.max_interarrival = d;
        self
    }

    /// Settle time after the last broadcast (default 5 s).
    pub fn grace(mut self, d: SimDuration) -> Self {
        self.config.grace = d;
        self
    }

    /// Warm-up time before the first broadcast (default 5 s).
    pub fn warmup(mut self, d: SimDuration) -> Self {
        self.config.warmup = d;
        self
    }

    /// Injected per-delivery loss probability (default 0).
    pub fn drop_probability(mut self, p: f64) -> Self {
        self.config.drop_probability = p;
        self
    }

    /// Enables physical-layer capture (default: off, as in the paper).
    pub fn capture(mut self, capture: CaptureConfig) -> Self {
        self.config.capture = Some(capture);
        self
    }

    /// Enables per-event-kind wall-clock profiling of the event loop
    /// (default: off).
    pub fn profile_events(mut self, enabled: bool) -> Self {
        self.config.profile_events = enabled;
        self
    }

    /// Attaches a scripted scenario (churn and fault windows); validated
    /// against the run's host count at [`build`](Self::build).
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.config.scenario = Some(scenario);
        self
    }

    /// Finalizes the configuration; the form for values that arrive from
    /// outside the program (a command line, a campaign file).
    ///
    /// # Errors
    ///
    /// Returns [`SimConfig::validate`]'s message if the configuration is
    /// inconsistent.
    pub fn try_build(self) -> Result<SimConfig, String> {
        self.config.validate()?;
        Ok(self.config)
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`SimConfig::validate`]).
    pub fn build(self) -> SimConfig {
        self.try_build()
            .unwrap_or_else(|msg| panic!("invalid simulation config: {msg}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_testkit::{prop_check, Gen};

    #[test]
    fn defaults_match_paper_constants() {
        let c = SimConfig::builder(3, SchemeSpec::Flooding).build();
        assert_eq!(c.hosts, 100);
        assert_eq!(c.max_interarrival, SimDuration::from_secs(2));
        assert_eq!(c.effective_max_speed_kmh(), 30.0);
    }

    #[test]
    fn speed_override_wins() {
        let c = SimConfig::builder(3, SchemeSpec::Flooding)
            .max_speed_kmh(80.0)
            .build();
        assert_eq!(c.effective_max_speed_kmh(), 80.0);
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = SimConfig::builder(3, SchemeSpec::Flooding).build();
        c.drop_probability = 1.5;
        assert!(c.validate().is_err());
        c.drop_probability = 0.0;
        c.hosts = 0;
        assert!(c.validate().is_err());
        c.hosts = 100;
        c.neighbor_info = NeighborInfo::Hello(HelloIntervalPolicy::Fixed(SimDuration::ZERO));
        assert_eq!(
            c.validate().unwrap_err(),
            "hello interval must be longer than zero"
        );
        // A refused policy or capture model is named as `to_text` spells it.
        c.set("hello", "dynamic:0,1,1").unwrap();
        assert_eq!(
            c.validate().unwrap_err(),
            "bad hello=dynamic:0,1,1 (nv_max must be positive)"
        );
        c.set("hello", "2000000").unwrap();
        assert_eq!(
            c.validate().unwrap_err(),
            "bad hello=2000000 (an interval exceeds 1000000 s)"
        );
        c.set("hello", "1").unwrap();
        c.set("capture", "0,4").unwrap();
        assert_eq!(
            c.validate().unwrap_err(),
            "bad capture=0,4 (SIR and exponent must be positive)"
        );
    }

    /// What every scheme family keeps and carries under fixed HELLO,
    /// dynamic HELLO and oracle information: HELLO state only where a
    /// view is read from tables, a view on each hear only where one is
    /// read without them.
    #[test]
    fn reads_follow_the_scheme_and_the_neighbor_info() {
        let fixed = HelloIntervalPolicy::fixed_1s();
        let dynamic = HelloIntervalPolicy::Dynamic(DynamicHelloParams::paper());
        for (spelling, view, positions, coin) in [
            ("flooding", View::None, false, false),
            ("counter:3", View::None, false, false),
            ("distance:120", View::None, true, false),
            ("location:0.0134", View::None, true, false),
            ("prob:0.6", View::None, false, true),
            ("ac", View::Count, false, false),
            ("al", View::Count, true, false),
            ("nc", View::TwoHop, false, false),
        ] {
            let scheme = SchemeSpec::parse(spelling).expect("a scheme spelling");
            let read = view != View::None;
            for (info, hello, oracle) in [
                (NeighborInfo::Hello(fixed), read.then_some(fixed), false),
                (NeighborInfo::Hello(dynamic), read.then_some(dynamic), false),
                (NeighborInfo::Oracle, None, read),
            ] {
                let config = SimConfig::builder(1, scheme.clone())
                    .neighbor_info(info.clone())
                    .build();
                let reads = config.reads();
                let want = Reads {
                    view,
                    hello,
                    positions,
                    coin,
                };
                assert_eq!(reads, want, "{spelling} under {info:?}");
                assert_eq!(reads.oracle(), oracle, "{spelling} under {info:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid simulation config")]
    fn builder_panics_on_invalid() {
        let _ = SimConfig::builder(3, SchemeSpec::Flooding)
            .drop_probability(2.0)
            .build();
    }

    /// A valid config drawing every field the codec writes, placement,
    /// warm-up, grace and interarrival included, and every scheme family.
    fn any_config(g: &mut Gen) -> SimConfig {
        use crate::threshold::{AreaThreshold, CounterThreshold, DescentShape};
        use manet_scenario::{ChurnKind, Region};
        use manet_sim_engine::SimTime;

        let millis = |g: &mut Gen| SimDuration::from_millis(g.u64_in(0..20_000));
        let shapes = [
            DescentShape::Convex,
            DescentShape::Linear,
            DescentShape::Concave,
        ];
        let scheme = match g.u32_in(0..15) {
            0 => SchemeSpec::Flooding,
            1 | 12 => SchemeSpec::Counter(g.u32_in(2..9)),
            2 => SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
            3 => SchemeSpec::AdaptiveCounter(CounterThreshold::ramp(g.u32_in(1..4))),
            4 => {
                let n1 = g.u32_in(1..6);
                let shape = shapes[g.usize_in(0..3)];
                SchemeSpec::AdaptiveCounter(CounterThreshold::with_descent(n1, n1 + 4, shape))
            }
            13 => SchemeSpec::AdaptiveCounter(CounterThreshold::ramp_to(g.u32_in(1..7))),
            5 => SchemeSpec::Distance(g.f64_in(0.0..500.0)),
            6 | 7 => SchemeSpec::Location(g.f64_in_incl(0.0, 1.0)),
            8 => SchemeSpec::AdaptiveLocation(AreaThreshold::adaptive(2, 2 + g.u32_in(1..9))),
            9 => SchemeSpec::AdaptiveLocation(AreaThreshold::paper_recommended()),
            10 => SchemeSpec::NeighborCoverage,
            _ => SchemeSpec::Probabilistic(g.f64_in_incl(0.0, 1.0)),
        };
        let (map_units, hosts) = (g.u32_in(1..12), g.u32_in(1..300));
        let mut c = SimConfig::builder(map_units, scheme)
            .hosts(hosts)
            .broadcasts(g.u32_in(1..1_000))
            .seed(g.u64())
            .max_interarrival(millis(g))
            .grace(millis(g))
            .warmup(millis(g))
            .drop_probability(g.f64_in_incl(0.0, 1.0))
            .build();
        c.neighbor_info = match g.u32_in(0..3) {
            0 => NeighborInfo::Hello(HelloIntervalPolicy::Fixed(
                millis(g) + SimDuration::from_millis(1),
            )),
            1 => NeighborInfo::Hello(HelloIntervalPolicy::Dynamic(DynamicHelloParams {
                nv_max: g.f64_in(0.0..1.0),
                hi_min: SimDuration::from_millis(g.u64_in(1..1_000)),
                hi_max: millis(g),
            })),
            _ => NeighborInfo::Oracle,
        };
        c.capture = g.bool().then(|| CaptureConfig {
            sir_threshold: g.f64_in(0.5..20.0),
            path_loss_exponent: g.f64_in(1.0..5.0),
        });
        let widest = (map_units * 500) / (hosts - 1).max(1);
        c.placement = match g.u32_in(0..3) {
            0 => PlacementSpec::Uniform,
            1 => PlacementSpec::Grid,
            _ => PlacementSpec::Line {
                spacing_m: g.u32_in(0..widest + 1),
            },
        };
        c.mobility = [
            MobilitySpec::RandomTurn,
            MobilitySpec::RandomWaypoint,
            MobilitySpec::Stationary,
        ][g.usize_in(0..3)];
        c.max_speed_kmh = g.bool().then(|| g.f64_in_incl(0.0, 120.0));
        c.scenario = (hosts > 1 && g.bool()).then(|| {
            let at = |g: &mut Gen| SimTime::from_nanos(g.u64_in(0..30_000_000_000));
            let (down, host) = (at(g), g.u32_in(0..hosts));
            // Any token the text encoding keeps whole: no whitespace, no `#`.
            let name: String = (0..g.usize_in(1..9))
                .map(|_| {
                    ['a', 'Z', '7', '-', '.', '/', '=', '"', '\\', 'é', '∆'][g.usize_in(0..11)]
                })
                .collect();
            let mut scenario = Scenario::new(name).churn(down, ChurnKind::Crash, host);
            if g.bool() {
                scenario = scenario.with_hosts(hosts);
            }
            let (from, span) = (at(g), SimDuration::from_nanos(g.u64_in(1..10_000_000_000)));
            let region = Region {
                x0: g.f64_in(0.0..100.0),
                y0: -g.f64_in(0.0..100.0),
                x1: g.f64_in(100.0..2_000.0),
                y1: g.f64_in(0.0..1e9),
            };
            scenario
                .churn(down + span, ChurnKind::Recover, host)
                .noise(from, from + span, g.f64_in_incl(1e-9, 1.0))
                .partition(from, from + span, region)
        });
        c.validate().expect("a generated config is valid");
        c
    }

    prop_check! {
        /// `from_text(to_text(c))` spells the same text and runs a scheme
        /// of the same label; `decode(encode(c))` re-encodes to the same
        /// bytes, and every cut and every xor-1 flip of a header decodes to
        /// `Ok` or `Err`.
        fn decode_inverts_encode_and_never_panics(g, cases = 64) {
            let config = any_config(g);
            let text = config.to_text();
            let back = SimConfig::from_text(&text).expect("a config's text reads back");
            assert_eq!(back.to_text(), text);
            assert_eq!(back.scheme.label(), config.scheme.label(), "{text}");
            let mut enc = WireEncoder::new();
            config.encode(&mut enc);
            let bytes = enc.into_bytes();
            let decode = |bytes: &[u8]| {
                let mut dec = WireDecoder::new(bytes);
                SimConfig::decode(&mut dec).and_then(|c| dec.finish().map(|()| c))
            };
            let mut again = WireEncoder::new();
            decode(&bytes).expect("a config decodes").encode(&mut again);
            assert_eq!(again.as_slice(), bytes, "{config:?}");
            for cut in 0..bytes.len() {
                assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} decoded");
            }
            for at in 0..bytes.len() {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1;
                let _ = decode(&flipped);
            }
        }

        /// A HELLO interval one nanosecond past the bound, fixed or as a
        /// dynamic policy's longest, is refused at the header's first byte:
        /// the world's first re-arm would overflow the clock.
        fn a_hello_interval_past_the_bound_is_refused(g, cases = 16) {
            let mut config = any_config(g);
            let past = SimConfig::MAX_HELLO_INTERVAL + SimDuration::from_nanos(1);
            let dynamic = DynamicHelloParams {
                hi_max: past,
                ..DynamicHelloParams::paper()
            };
            config.neighbor_info = NeighborInfo::Hello(if g.bool() {
                HelloIntervalPolicy::Fixed(past)
            } else {
                HelloIntervalPolicy::Dynamic(dynamic)
            });
            let mut enc = WireEncoder::new();
            config.encode(&mut enc);
            let err = SimConfig::decode(&mut WireDecoder::new(enc.as_slice()))
                .expect_err("past the bound");
            assert_eq!((err.at, err.what), (0, "config fails validation"));
        }
    }

    /// Every threshold constructor has a spelling, inside a config's text
    /// too, that reads back to the same thresholds under the same label.
    #[test]
    fn every_threshold_constructor_reads_back_from_its_spelling() {
        use crate::threshold::{AreaThreshold, CounterThreshold, DescentShape};
        let counter = |t: CounterThreshold| SchemeSpec::AdaptiveCounter(t);
        let area = |t: AreaThreshold| SchemeSpec::AdaptiveLocation(t);
        for (scheme, spelling, label) in [
            (counter(CounterThreshold::paper_recommended()), "ac", "AC"),
            (counter(CounterThreshold::ramp(2)), "ac:ramp2", "slope 1/2"),
            (counter(CounterThreshold::ramp_to(4)), "ac:to4", "n1=4"),
            (
                counter(CounterThreshold::with_descent(4, 12, DescentShape::Convex)),
                "ac:4,12,convex",
                "n1=4,n2=12,convex",
            ),
            (area(AreaThreshold::paper_recommended()), "al", "AL"),
            (area(AreaThreshold::adaptive(6, 12)), "al:6,12", "AL(6,12)"),
        ] {
            assert_eq!(
                (scheme.to_string(), scheme.label()),
                (spelling.into(), label.into())
            );
            let config = SimConfig::builder(3, scheme.clone()).build();
            let back = SimConfig::from_text(&config.to_text()).expect(spelling);
            assert_eq!(back.to_text(), config.to_text());
            assert_eq!(back.scheme.label(), label);
            match (&back.scheme, &scheme) {
                (SchemeSpec::AdaptiveCounter(a), SchemeSpec::AdaptiveCounter(b)) => {
                    assert_eq!(a, b)
                }
                (SchemeSpec::AdaptiveLocation(a), SchemeSpec::AdaptiveLocation(b)) => {
                    assert_eq!(a, b)
                }
                other => panic!("{spelling} read back as {other:?}"),
            }
        }
    }

    /// Each run flag's spelling sets its field, and a value that does not
    /// parse, or a key that does not exist, is refused by name.
    #[test]
    fn set_reads_every_key_and_names_a_refusal() {
        let mut c = SimConfig::builder(3, SchemeSpec::Flooding).build();
        for (key, value) in [
            ("hello", "dynamic:0.5,0.25,3"),
            ("speed", "12.5"),
            ("placement", "line:40"),
            ("capture", "10,4"),
            ("interarrival", "0.000000001"),
        ] {
            c.set(key, value).unwrap();
            assert!(c.to_text().contains(&format!(" {key}={value} ")), "{key}");
        }
        assert_eq!(c.capture, Some(CaptureConfig::typical()));
        for (key, value, names) in [
            ("map", "x", "bad map \"x\""),
            ("hello", "sometimes", "bad hello policy \"sometimes\""),
            ("hello", "1e-9", "bad hello policy"),
            ("mobility", "fly", "bad mobility \"fly\""),
            ("placement", "ring", "bad placement"),
            ("capture", "10", "bad capture"),
            ("grace", "1.", "bad grace \"1.\": expected decimal seconds"),
            ("shards", "4", "unknown key \"shards\""),
        ] {
            let err = c.set(key, value).unwrap_err();
            assert!(err.contains(names), "{key}={value}: {err}");
        }
    }

    /// A token of the text that does not parse is refused where it stands,
    /// naming its key; a 1 MiB token of control bytes is quoted in a
    /// bounded prefix.
    #[test]
    fn from_text_refuses_a_token_at_its_offset() {
        let text = SimConfig::builder(3, SchemeSpec::Flooding)
            .build()
            .to_text();
        let at = text.find("hello=").unwrap();
        let bad = text.replacen("hello=1", "hello=x", 1);
        let err = SimConfig::from_text(&bad).unwrap_err();
        assert_eq!((err.at, err.what), (at, "bad hello="));
        let err = SimConfig::from_text(&text.replacen("map=", "mop=", 1)).unwrap_err();
        assert_eq!(err.at, 0);
        let control = "\u{1}".repeat(1 << 20);
        let mut c = SimConfig::builder(3, SchemeSpec::Flooding).build();
        assert!(c.set("scheme", &control).unwrap_err().len() < 400);
        assert!(c.set(&control, "1").unwrap_err().len() < 400);
    }

    #[test]
    fn a_header_naming_a_world_too_wide_or_too_long_is_refused() {
        let base = SimConfig::builder(3, SchemeSpec::Flooding).build();
        let mut wide = base.clone();
        wide.map_units = u32::MAX;
        let mut long = base.clone();
        long.grace = SimDuration::from_nanos(u64::MAX);
        let mut dizzy = base;
        dizzy.neighbor_info =
            NeighborInfo::Hello(HelloIntervalPolicy::Dynamic(DynamicHelloParams {
                nv_max: f64::NAN,
                ..DynamicHelloParams::paper()
            }));
        for config in [wide, long, dizzy] {
            assert!(config.validate().is_err(), "{config:?}");
            let mut enc = WireEncoder::new();
            config.encode(&mut enc);
            assert!(SimConfig::decode(&mut WireDecoder::new(enc.as_slice())).is_err());
        }
    }
}
