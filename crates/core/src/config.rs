//! Simulation configuration.
//!
//! [`SimConfig`] captures one simulation run: the map, the host
//! population and mobility, the broadcast scheme, how neighborhood
//! information is obtained, and the workload. Defaults match the paper's
//! fixed parameters (§4); a builder makes the sweeps in the experiment
//! harness terse. [`SimConfig::encode`] is the one binary spelling of a
//! run, the header of every `MSNP` checkpoint and `MTRC` trace.

use manet_mobility::Map;
use manet_net::{DynamicHelloParams, HelloIntervalPolicy};
use manet_scenario::Scenario;
use manet_sim_engine::{SimDuration, WireDecoder, WireEncoder, WireError};

use crate::schemes::SchemeSpec;
use crate::threshold::{AreaThreshold, AreaThresholdKind, CounterThreshold};

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

    /// The interval policy the hosts beacon HELLOs under, or `None` when
    /// the run sends none: oracle neighbor information, or a scheme that
    /// reads no neighbor state. Only then does a host keep HELLO state.
    pub(crate) fn hello_policy(&self) -> Option<HelloIntervalPolicy> {
        let reads_neighbors =
            self.scheme.needs_neighbor_count() || self.scheme.needs_two_hop_hellos();
        match self.neighbor_info {
            NeighborInfo::Hello(policy) if reads_neighbors => Some(policy),
            _ => None,
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
                return Err(format!("bad hello policy {policy:?}"));
            }
        }
        if let Some(speed) = self.max_speed_kmh {
            if !(speed.is_finite() && speed >= 0.0) {
                return Err(format!("bad max speed {speed}"));
            }
        }
        if let Some(c) = self.capture {
            if !(positive(c.sir_threshold) && positive(c.path_loss_exponent)) {
                return Err(format!("bad capture model {c:?}"));
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

    /// Writes every field that affects the run, in the [`WireEncoder`]
    /// vocabulary (DESIGN.md §12): hosts, scheme, neighbor info; seed,
    /// map, broadcasts, interarrival, grace, warm-up, drop; capture,
    /// placement, mobility, max speed; the scenario as its
    /// [`Scenario::to_text`]. `profile_events` and the dead fields are
    /// not written.
    pub fn encode(&self, enc: &mut WireEncoder) {
        enc.u32(self.hosts);
        encode_scheme(enc, &self.scheme);
        match &self.neighbor_info {
            NeighborInfo::Hello(HelloIntervalPolicy::Fixed(d)) => {
                enc.u8(0);
                enc.duration(*d);
            }
            NeighborInfo::Hello(HelloIntervalPolicy::Dynamic(p)) => {
                enc.u8(1);
                enc.f64(p.nv_max);
                enc.duration(p.hi_min);
                enc.duration(p.hi_max);
            }
            NeighborInfo::Oracle => enc.u8(2),
        }
        enc.u64(self.seed);
        enc.u32(self.map_units);
        enc.u32(self.broadcasts);
        enc.duration(self.max_interarrival);
        enc.duration(self.grace);
        enc.duration(self.warmup);
        enc.f64(self.drop_probability);
        enc.option(self.capture, |enc, capture| {
            enc.f64(capture.sir_threshold);
            enc.f64(capture.path_loss_exponent);
        });
        match self.placement {
            PlacementSpec::Uniform => enc.u8(0),
            PlacementSpec::Grid => enc.u8(1),
            PlacementSpec::Line { spacing_m } => {
                enc.u8(2);
                enc.u32(spacing_m);
            }
        }
        enc.u8(match self.mobility {
            MobilitySpec::RandomTurn => 0,
            MobilitySpec::RandomWaypoint => 1,
            MobilitySpec::Stationary => 2,
        });
        enc.option(self.max_speed_kmh, WireEncoder::f64);
        enc.option(self.scenario.as_ref(), |enc, scenario| {
            enc.str(&scenario.to_text());
        });
    }

    /// Reads what [`encode`](Self::encode) wrote, validated once through
    /// [`SimConfigBuilder::try_build`]. Total: any bytes give a config or
    /// a positioned [`WireError`]; a config that fails validation is
    /// refused at its first byte.
    pub fn decode(dec: &mut WireDecoder<'_>) -> Result<SimConfig, WireError> {
        let at = dec.position();
        let hosts = dec.u32()?;
        let mut builder = SimConfig::builder(0, decode_scheme(dec)?).hosts(hosts);
        let c = &mut builder.config;
        c.neighbor_info = match dec.tag("invalid neighbor-info tag")? {
            (0, _) => NeighborInfo::Hello(HelloIntervalPolicy::Fixed(dec.duration()?)),
            (1, _) => NeighborInfo::Hello(HelloIntervalPolicy::Dynamic(DynamicHelloParams {
                nv_max: dec.f64()?,
                hi_min: dec.duration()?,
                hi_max: dec.duration()?,
            })),
            (2, _) => NeighborInfo::Oracle,
            (_, invalid) => return Err(invalid),
        };
        c.seed = dec.u64()?;
        c.map_units = dec.u32()?;
        c.broadcasts = dec.u32()?;
        c.max_interarrival = dec.duration()?;
        c.grace = dec.duration()?;
        c.warmup = dec.duration()?;
        c.drop_probability = dec.f64()?;
        c.capture = dec.option(|dec| {
            Ok(CaptureConfig {
                sir_threshold: dec.f64()?,
                path_loss_exponent: dec.f64()?,
            })
        })?;
        c.placement = match dec.tag("invalid placement tag")? {
            (0, _) => PlacementSpec::Uniform,
            (1, _) => PlacementSpec::Grid,
            (2, _) => PlacementSpec::Line {
                spacing_m: dec.u32()?,
            },
            (_, invalid) => return Err(invalid),
        };
        c.mobility = match dec.tag("invalid mobility tag")? {
            (0, _) => MobilitySpec::RandomTurn,
            (1, _) => MobilitySpec::RandomWaypoint,
            (2, _) => MobilitySpec::Stationary,
            (_, invalid) => return Err(invalid),
        };
        c.max_speed_kmh = dec.option(WireDecoder::f64)?;
        c.scenario = dec.option(|dec| {
            let at = dec.position();
            Scenario::parse(dec.str()?).map_err(|_| WireError {
                at,
                what: "scenario text does not parse",
            })
        })?;
        let what = "config fails validation";
        builder.try_build().map_err(|_| WireError { at, what })
    }
}

fn encode_scheme(enc: &mut WireEncoder, scheme: &SchemeSpec) {
    match scheme {
        SchemeSpec::Flooding => enc.u8(0),
        SchemeSpec::Counter(c) => {
            enc.u8(1);
            enc.u32(*c);
        }
        SchemeSpec::AdaptiveCounter(t) => {
            enc.u8(2);
            enc.seq(t.sequence().iter().copied(), WireEncoder::u32);
            enc.str(t.label());
        }
        SchemeSpec::Distance(d) => {
            enc.u8(3);
            enc.f64(*d);
        }
        SchemeSpec::Location(a) => {
            enc.u8(4);
            enc.f64(*a);
        }
        SchemeSpec::AdaptiveLocation(t) => {
            enc.u8(5);
            match t.kind() {
                AreaThresholdKind::Fixed(a) => {
                    enc.u8(0);
                    enc.f64(a);
                }
                AreaThresholdKind::Adaptive { n1, n2, ceiling } => {
                    enc.u8(1);
                    enc.u32(n1);
                    enc.u32(n2);
                    enc.f64(ceiling);
                }
            }
            enc.str(t.label());
        }
        SchemeSpec::NeighborCoverage => enc.u8(6),
        SchemeSpec::Probabilistic(p) => {
            enc.u8(7);
            enc.f64(*p);
        }
    }
}

/// Reads a scheme, refusing at its tag parameters the decision logic
/// would not accept.
fn decode_scheme(dec: &mut WireDecoder<'_>) -> Result<SchemeSpec, WireError> {
    let (tag, invalid) = dec.tag("invalid scheme tag")?;
    let scheme = match tag {
        0 => SchemeSpec::Flooding,
        1 => SchemeSpec::Counter(dec.u32()?),
        2 => {
            let at = dec.position();
            let sequence = dec.seq(4, WireDecoder::u32)?;
            let label = dec.str()?.to_string();
            if sequence.is_empty() || sequence.iter().any(|&c| c < 2) {
                return Err(WireError {
                    at,
                    what: "invalid counter threshold",
                });
            }
            SchemeSpec::AdaptiveCounter(CounterThreshold::from_sequence(sequence, label))
        }
        3 => SchemeSpec::Distance(dec.f64()?),
        4 => SchemeSpec::Location(dec.f64()?),
        5 => {
            let (tag, invalid) = dec.tag("invalid area threshold kind")?;
            let kind = match tag {
                0 => AreaThresholdKind::Fixed(dec.f64()?),
                1 => AreaThresholdKind::Adaptive {
                    n1: dec.u32()?,
                    n2: dec.u32()?,
                    ceiling: dec.f64()?,
                },
                _ => return Err(invalid),
            };
            let label = dec.str()?.to_string();
            SchemeSpec::AdaptiveLocation(AreaThreshold::from_parts(kind, label))
        }
        6 => SchemeSpec::NeighborCoverage,
        7 => SchemeSpec::Probabilistic(dec.f64()?),
        _ => return Err(invalid),
    };
    if scheme.validate().is_err() {
        let what = "scheme parameter out of range";
        return Err(WireError { what, ..invalid });
    }
    Ok(scheme)
}

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
        use crate::threshold::DescentShape;
        use manet_scenario::{ChurnKind, Region};
        use manet_sim_engine::SimTime;

        let millis = |g: &mut Gen| SimDuration::from_millis(g.u64_in(0..20_000));
        let scheme = match g.u32_in(0..13) {
            0 => SchemeSpec::Flooding,
            1 => SchemeSpec::Counter(g.u32_in(2..9)),
            2 => SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
            3 => SchemeSpec::AdaptiveCounter(CounterThreshold::ramp(g.u32_in(1..4))),
            4 => {
                let n1 = g.u32_in(1..6);
                let shape = [DescentShape::Convex, DescentShape::Concave][g.usize_in(0..2)];
                SchemeSpec::AdaptiveCounter(CounterThreshold::with_descent(n1, n1 + 4, shape))
            }
            5 => SchemeSpec::Distance(g.f64_in(0.0..500.0)),
            6 => SchemeSpec::Location(g.f64_in_incl(0.0, 1.0)),
            7 => SchemeSpec::AdaptiveLocation(AreaThreshold::fixed(g.f64_in(0.0..0.2))),
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
        /// `decode(encode(c))` re-encodes to the same bytes, and every cut
        /// and every xor-1 flip of a header decodes to `Ok` or `Err`.
        fn decode_inverts_encode_and_never_panics(g, cases = 64) {
            let config = any_config(g);
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
