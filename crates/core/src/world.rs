//! The effectful dispatcher: mobility + channel + MAC wired over the
//! engine's event queue, driving the pure protocol models.
//!
//! One [`World`] executes one [`SimConfig`]. Since the pure/effectful
//! split, the protocol state (neighbor tables, packet ledgers, scheme
//! decisions, suppression tallies) lives in [`PureModels`] and is
//! advanced exclusively through [`PureAction`]s; this module owns
//! everything *impure* — the event queue, the RNG streams, the
//! [`Medium`], the per-host MACs, and the metrics — and executes the
//! [`Effect`]s each pure step requests.
//!
//! Every action funnels through [`World::dispatch`], which is also the
//! single tap point for action-level recording (see [`crate::record`]):
//! a recorded trace replayed through [`PureModels`] alone reproduces
//! every scheme decision of the live run.

use manet_geom::Vec2;
use manet_mac::timing::SLOT;
use manet_mac::{frame_airtime, Dcf, FrameHandle, MacAction, MacStats};
use manet_mobility::{
    grid_placement, line_placement, uniform_placement, Mobility, RandomTurn, RandomTurnParams,
    RandomWaypoint, RandomWaypointParams, Segment, Stationary, PAPER_RADIO_RADIUS_M,
};
use manet_net::HelloPayload;
use manet_phy::{CarrierChange, Delivery, FrameId, Medium, NodeId};
use manet_scenario::{Region, WorldAction};
use manet_sim_engine::{
    EventKey, EventQueue, LoopProfiler, SimDuration, SimRng, SimTime, Slab, Timeline,
};

use crate::config::{NeighborInfo, SimConfig, CS_DELAY, PACKET_BYTES};
use crate::ids::PacketId;
use crate::metrics::{summarize, MetricsCollector, NetActivity, ScenarioCounts, SimReport};
use crate::pure::{Effect, OracleView, PureAction, PureModels};
use crate::record::TraceWriter;
use crate::trace::NoopObserver;

mod geometry;
pub mod snapshot;

use geometry::Geometry;

/// Events on the simulation queue.
#[derive(Debug)]
enum Event {
    /// A host's motion segment ended; take the next random turn.
    MobilityTurn { node: NodeId },
    /// Time for a host to emit its next HELLO beacon.
    HelloTimer { node: NodeId },
    /// A DCF timer (DIFS or backoff countdown) fired. `epoch` is the
    /// host's churn epoch at scheduling time: a timer armed by a MAC that
    /// has since been deactivated (and later replaced) must not reach the
    /// replacement, whose `generation` counter restarted from zero.
    MacTimer {
        node: NodeId,
        generation: u32,
        epoch: u32,
    },
    /// A frame's airtime ended.
    TxEnd { frame: FrameId },
    /// A host's scheme-level assessment delay (S2's 0–31 slots) elapsed.
    AssessmentDone { node: NodeId, packet: PacketId },
    /// The workload issues the next broadcast request.
    IssueBroadcast,
    /// A delayed carrier-sense report reaches the MACs of every host that
    /// heard one frame's carrier transition (models the CCA assessment
    /// latency). All of a frame's reports fire at the same instant with
    /// consecutive sequence numbers, so one event carrying the hearer
    /// list (parked in `World::carrier_batches`) delivers them in exactly
    /// the order the per-host events would have.
    CarrierBatch { slot: u32, busy: bool },
    /// The scenario timeline's next world action (host churn or a fault
    /// window edge) takes effect; `index` addresses the compiled timeline.
    Scenario { index: u32 },
}

// At most sixteen bytes, so a queue entry (time, sequence number, event)
// is 32.
const _: () = assert!(std::mem::size_of::<Event>() <= 16);

impl Event {
    /// Static label used to attribute event-loop wall time by kind.
    fn kind(&self) -> &'static str {
        match self {
            Event::MobilityTurn { .. } => "mobility_turn",
            Event::HelloTimer { .. } => "hello_timer",
            Event::MacTimer { .. } => "mac_timer",
            Event::TxEnd { .. } => "tx_end",
            Event::AssessmentDone { .. } => "assessment_done",
            Event::IssueBroadcast => "issue_broadcast",
            Event::CarrierBatch { .. } => "carrier_sense",
            Event::Scenario { .. } => "scenario",
        }
    }
}

/// What a queued MAC frame carries.
#[derive(Debug, Clone)]
enum Payload {
    Broadcast(PacketId),
    Hello(HelloPayload),
}

/// A frame currently on the air; the medium knows its sender.
#[derive(Debug)]
struct InFlight {
    payload: Payload,
    /// Sender position at transmission start (carried in the packet for
    /// the location-based schemes).
    sent_from: Vec2,
    /// Sender's churn epoch at transmission start. If the sender
    /// deactivated mid-flight, its (possibly replaced) MAC must not see
    /// the `on_tx_end` for this frame.
    sender_epoch: u32,
}

/// The configured mobility model for one host.
#[derive(Debug)]
enum HostMobility {
    Turn(RandomTurn),
    Waypoint(RandomWaypoint),
    Fixed(Stationary),
}

impl Mobility for HostMobility {
    fn position_at(&self, t: SimTime) -> Vec2 {
        match self {
            HostMobility::Turn(m) => m.position_at(t),
            HostMobility::Waypoint(m) => m.position_at(t),
            HostMobility::Fixed(m) => m.position_at(t),
        }
    }

    fn next_change(&self) -> Option<SimTime> {
        match self {
            HostMobility::Turn(m) => m.next_change(),
            HostMobility::Waypoint(m) => m.next_change(),
            HostMobility::Fixed(m) => m.next_change(),
        }
    }

    fn advance(&mut self, now: SimTime) {
        match self {
            HostMobility::Turn(m) => m.advance(now),
            HostMobility::Waypoint(m) => m.advance(now),
            HostMobility::Fixed(m) => m.advance(now),
        }
    }

    fn segment(&self) -> Segment {
        match self {
            HostMobility::Turn(m) => m.segment(),
            HostMobility::Waypoint(m) => m.segment(),
            HostMobility::Fixed(m) => m.segment(),
        }
    }
}

/// One mobile host's effectful machinery. Protocol state (neighbor
/// table, variation tracker, packet ledger) lives in [`PureModels`].
#[derive(Debug)]
struct Node {
    mobility: HostMobility,
    mac: Dcf,
    /// Payloads of frames sitting in the MAC queue. A [`FrameHandle`] is
    /// its slab slot: unique among queued frames (all the MAC compares
    /// against), recycled once dequeued or cancelled.
    outgoing: Slab<Payload>,
    /// The pending S2 assessment wakeups, by packet, so S5 and churn can
    /// cancel them.
    assessing: Vec<(PacketId, EventKey)>,
    /// The scheduled next HELLO (cancellation key and fire time), so a
    /// dynamic-interval host can pull its beacon forward when churn rises.
    hello_pending: Option<(EventKey, SimTime)>,
}

impl Node {
    /// Hands `payload` to this host's MAC queue, returning its handle.
    fn queue_payload(&mut self, payload: Payload) -> FrameHandle {
        FrameHandle(u64::from(self.outgoing.insert(payload)))
    }

    /// Forgets and returns the pending wakeup of `packet`'s assessment.
    fn take_assessment(&mut self, packet: PacketId) -> EventKey {
        let i = self.assessing.iter().position(|&(p, _)| p == packet);
        self.assessing
            .swap_remove(i.expect("no wakeup for the assessment"))
            .1
    }

    /// Releases and returns the payload queued under `handle`.
    fn take_payload(&mut self, handle: FrameHandle) -> Payload {
        self.outgoing.remove(handle.0 as u32)
    }
}

/// Runtime state of the configured scenario (churn + fault injection).
/// Absent on ordinary runs, which therefore pay nothing for the feature.
#[derive(Debug)]
struct ScenarioState {
    /// The compiled world-action timeline; `Event::Scenario { index }`
    /// addresses into it.
    timeline: Timeline<WorldAction>,
    /// Per-host membership: `false` while a host is left or crashed.
    active: Vec<bool>,
    /// Hosts currently active (validation guarantees it never hits zero).
    active_count: u32,
    /// Per-host churn epoch, bumped on every deactivation. Timers and
    /// in-flight frames carry the epoch they were created under; a
    /// mismatch at delivery time means the event outlived its MAC.
    node_epoch: Vec<u32>,
    /// Currently open link blackouts, as unordered host pairs.
    blackouts: Vec<(u32, u32)>,
    /// Drop probabilities of the currently open noise bursts.
    noise: Vec<f64>,
    /// Currently open partition regions.
    partitions: Vec<Region>,
    /// Scenario randomness: noise-burst drop draws, in delivery order.
    rng: SimRng,
    /// Base stream for per-respawn MACs and hello phases; never drawn
    /// from directly, only forked with `respawn_seq`.
    respawn_rng: SimRng,
    /// Fork counter so every respawned MAC gets a distinct stream.
    respawn_seq: u64,
    /// What the scenario did, reported in [`SimReport::scenario`].
    counts: ScenarioCounts,
    /// MAC stats of replaced (crashed/left) MAC instances, folded into
    /// the final report alongside the live MACs'.
    retired_mac: MacStats,
    /// Neighbor-table join/leave totals of tables reset by crashes.
    retired_joins: u64,
    retired_leaves: u64,
}

impl ScenarioState {
    /// `true` when any fault window is currently open.
    fn any_fault_open(&self) -> bool {
        !(self.blackouts.is_empty() && self.noise.is_empty() && self.partitions.is_empty())
    }
}

/// A complete simulation run.
///
/// # Examples
///
/// ```
/// use broadcast_core::{SchemeSpec, SimConfig, World};
///
/// let config = SimConfig::builder(3, SchemeSpec::Flooding)
///     .hosts(20)
///     .broadcasts(3)
///     .seed(7)
///     .build();
/// let report = World::new(config).run();
/// assert_eq!(report.broadcasts, 3);
/// assert!(report.reachability > 0.0);
/// ```
#[derive(Debug)]
pub struct World {
    cfg: SimConfig,
    queue: EventQueue<Event>,
    /// Host motion and the range-query index over it: the only place
    /// positions are evaluated or cached.
    geometry: Geometry,
    nodes: Vec<Node>,
    medium: Medium,
    metrics: MetricsCollector,
    /// All pure protocol state; advanced only via [`World::dispatch`].
    pure: PureModels,
    /// Effect buffer for [`World::dispatch`]. Dispatch never nests (no
    /// effect application dispatches a non-leaf action), so one buffer
    /// suffices; `mem::take` degrades accidental re-entry to a fresh
    /// allocation instead of corruption.
    fx: Vec<Effect>,
    /// Effect buffer for [`World::dispatch_leaf`]. Leaf actions
    /// (`FrameSent`, `Originate`) are dispatched from *inside* effect
    /// application (a MAC enqueue can immediately start transmitting), so
    /// they get a disjoint buffer; they must never produce effects.
    fx_leaf: Vec<Effect>,
    /// Action-level recorder; `Some` while [`World::enable_recording`]
    /// has armed a trace.
    recorder: Option<TraceWriter>,
    /// Workload randomness: interarrivals and source selection.
    workload_rng: SimRng,
    /// Scheme-level randomness: assessment-slot draws, hello jitter.
    proto_rng: SimRng,
    /// Frames on the air, indexed by [`FrameId`] slot (the medium recycles
    /// ids, so a slot is reused only after its frame ends).
    in_flight: Vec<Option<InFlight>>,
    // Reusable hot-path scratch buffers. Each is `mem::take`n for the
    // duration of the call that fills it and restored afterwards, so
    // accidental re-entry degrades to a fresh allocation instead of
    // corruption. `begin` and `finish` use disjoint buffers because a
    // finished transmission's post-backoff can immediately start the
    // next one.
    scratch_listeners: Vec<NodeId>,
    scratch_signals: Vec<manet_phy::Listener>,
    scratch_begin_carrier: Vec<CarrierChange>,
    scratch_deliveries: Vec<Delivery>,
    scratch_end_carrier: Vec<CarrierChange>,
    scratch_neighbors: Vec<NodeId>,
    scratch_sender_neighbors: Vec<NodeId>,
    scratch_reachable: Vec<NodeId>,
    /// Hearer lists of delayed carrier reports in flight, keyed by the
    /// slot in their [`Event::CarrierBatch`]; `carrier_pool` recycles the
    /// vectors so steady-state reports never allocate.
    carrier_batches: Slab<Vec<NodeId>>,
    carrier_pool: Vec<Vec<NodeId>>,
    /// Recycled HELLO neighbor-list buffers: a beacon's list is built on
    /// [`Effect::EmitHello`] and returned when its frame leaves the air,
    /// so steady-state beaconing does not allocate.
    hello_pool: Vec<Vec<NodeId>>,
    stop_at: SimTime,
    hello_frames: u64,
    data_frames: u64,
    /// HELLO beacons decoded by some listener.
    hello_rx: u64,
    /// Timestamp of the last handled event, reported as the run length.
    last_event_at: SimTime,
    /// Set once the run has drained (or passed `stop_at`); further
    /// [`advance`](Self::advance) calls return immediately.
    finished: bool,
    /// Event-loop profiler; enabled via `SimConfig::profile_events`.
    profiler: LoopProfiler,
    /// Churn and fault-injection state; `None` unless the config carries
    /// a scenario.
    scenario: Option<ScenarioState>,
}

/// The streams [`World::new`] forks off the root `SimRng` (seeded from
/// `SimConfig::seed`). Two subsystems on one stream would consume each
/// other's randomness and silently change every result, so each stream
/// is a variant here and a duplicated number is compile error E0081. A
/// subsystem that needs randomness gets a **new** variant; renumbering
/// an existing one re-pins every hash in the test suite.
///
/// Nothing else forks the root: the pure models draw no randomness,
/// the strip index draws none, and a snapshot stores every stream's
/// position verbatim instead of forking afresh on resume.
#[repr(u64)]
enum Stream {
    /// Initial host positions on the map.
    Placement = 0,
    /// Broadcast origination schedule: interarrivals and sources.
    Workload = 1,
    /// Scheme-level draws: assessment slots, HELLO jitter.
    Protocol = 2,
    /// Injected channel loss (`SimConfig::drop_probability`).
    ChannelLoss = 3,
    /// Scenario link-fault draws (blackout, noise, partition).
    ScenarioFaults = 4,
    /// Base of the DCF streams handed to hosts that join or recover.
    /// Never drawn from directly: each respawn takes the child
    /// `respawn_rng.fork(seq)` with a per-world monotone `seq`.
    ScenarioRespawn = 5,
    /// `+ host`: per-host mobility model.
    Mobility = 100,
    /// `+ host`: per-host DCF backoff. From host 9 900 up `Mobility +
    /// host` runs into this range (host 9 900's mobility stream is host
    /// 0's DCF stream), so worlds that large share streams between the
    /// two subsystems. Moving either base changes every pinned hash; it
    /// is a ROADMAP item, not a silent fix.
    Dcf = 10_000,
}

impl World {
    /// Builds the initial state for `config`: places the hosts, arms the
    /// mobility and HELLO timers, and schedules the first broadcast at the
    /// end of the warm-up period.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`SimConfig::validate`].
    pub fn new(config: SimConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid simulation config: {msg}");
        }
        let map = config.map();
        let root = SimRng::seed_from(config.seed);
        let mut placement_rng = root.fork(Stream::Placement as u64);
        let workload_rng = root.fork(Stream::Workload as u64);
        let mut proto_rng = root.fork(Stream::Protocol as u64);
        let hosts = config.hosts as usize;
        let positions = match config.placement {
            crate::config::PlacementSpec::Uniform => {
                uniform_placement(&map, hosts, &mut placement_rng)
            }
            crate::config::PlacementSpec::Grid => grid_placement(&map, hosts),
            crate::config::PlacementSpec::Line { spacing_m } => {
                let length = f64::from(spacing_m) * (hosts as f64 - 1.0);
                let x0 = (map.bounds().width() - length) / 2.0;
                line_placement(&map, hosts, x0, f64::from(spacing_m))
            }
        };
        let max_speed = config.effective_max_speed_kmh();

        let hellos_enabled = matches!(config.neighbor_info, NeighborInfo::Hello(_))
            && (config.scheme.needs_neighbor_count() || config.scheme.needs_two_hop_hellos());

        let mut queue = EventQueue::new();
        let mut nodes = Vec::with_capacity(hosts);
        for (i, &pos) in positions.iter().enumerate() {
            let id = NodeId::new(i as u32);
            let mobility = match config.mobility {
                crate::config::MobilitySpec::RandomTurn => HostMobility::Turn(RandomTurn::new(
                    map,
                    RandomTurnParams::paper(max_speed),
                    pos,
                    SimTime::ZERO,
                    root.fork(Stream::Mobility as u64 + i as u64),
                )),
                crate::config::MobilitySpec::RandomWaypoint => {
                    HostMobility::Waypoint(RandomWaypoint::new(
                        map,
                        RandomWaypointParams::conventional(max_speed.max(3.6)),
                        pos,
                        SimTime::ZERO,
                        root.fork(Stream::Mobility as u64 + i as u64),
                    ))
                }
                crate::config::MobilitySpec::Stationary => {
                    HostMobility::Fixed(Stationary::new(pos))
                }
            };
            if let Some(next) = mobility.next_change() {
                queue.schedule(next, Event::MobilityTurn { node: id });
            }
            let hello_pending = if hellos_enabled {
                // Random initial phase so beacons do not synchronize.
                let first =
                    proto_rng.gen_duration_up_to(manet_sim_engine::SimDuration::from_secs(1));
                let at = SimTime::ZERO + first;
                Some((queue.schedule(at, Event::HelloTimer { node: id }), at))
            } else {
                None
            };
            nodes.push(Node {
                mobility,
                mac: Dcf::new(root.fork(Stream::Dcf as u64 + i as u64)),
                outgoing: Slab::new(),
                assessing: Vec::new(),
                hello_pending,
            });
        }
        queue.schedule(SimTime::ZERO + config.warmup, Event::IssueBroadcast);
        let segments = nodes.iter().map(|n| n.mobility.segment()).collect();

        let scenario = config.scenario.as_ref().map(|scenario| {
            let timeline = scenario.compile();
            timeline.schedule_into(&mut queue, |index| Event::Scenario {
                index: u32::try_from(index).expect("scenario timeline too long"),
            });
            ScenarioState {
                timeline,
                active: vec![true; hosts],
                active_count: config.hosts,
                node_epoch: vec![0; hosts],
                blackouts: Vec::new(),
                noise: Vec::new(),
                partitions: Vec::new(),
                rng: root.fork(Stream::ScenarioFaults as u64),
                respawn_rng: root.fork(Stream::ScenarioRespawn as u64),
                respawn_seq: 0,
                counts: ScenarioCounts::default(),
                retired_mac: MacStats::default(),
                retired_joins: 0,
                retired_leaves: 0,
            }
        });

        let pure = PureModels::new(&config);

        let geometry = Geometry::new(
            &map,
            PAPER_RADIO_RADIUS_M,
            max_speed,
            positions,
            segments,
            config.capture.is_some() || config.scenario.is_some(),
        );

        World {
            queue,
            geometry,
            medium: {
                let mut medium = Medium::new(hosts);
                if config.drop_probability > 0.0 {
                    medium = medium.with_drop_probability(
                        config.drop_probability,
                        root.fork(Stream::ChannelLoss as u64),
                    );
                }
                if let Some(capture) = config.capture {
                    medium =
                        medium.with_capture(manet_phy::CaptureModel::new(capture.sir_threshold));
                }
                medium
            },
            metrics: MetricsCollector::new(hosts),
            pure,
            fx: Vec::new(),
            fx_leaf: Vec::new(),
            recorder: None,
            workload_rng,
            proto_rng,
            in_flight: Vec::new(),
            scratch_listeners: Vec::new(),
            scratch_signals: Vec::new(),
            scratch_begin_carrier: Vec::new(),
            scratch_deliveries: Vec::new(),
            scratch_end_carrier: Vec::new(),
            scratch_neighbors: Vec::new(),
            scratch_sender_neighbors: Vec::new(),
            scratch_reachable: Vec::new(),
            carrier_batches: Slab::new(),
            carrier_pool: Vec::new(),
            hello_pool: Vec::new(),
            stop_at: SimTime::MAX,
            hello_frames: 0,
            data_frames: 0,
            hello_rx: 0,
            last_event_at: SimTime::ZERO,
            finished: false,
            profiler: if config.profile_events {
                LoopProfiler::enabled()
            } else {
                LoopProfiler::disabled()
            },
            scenario,
            nodes,
            cfg: config,
        }
    }

    /// Arms action-level recording: every [`PureAction`] dispatched from
    /// now on (plus the scheme decisions its effects carry) is appended
    /// to an `MTRC` trace, retrievable via [`take_trace`](Self::take_trace).
    ///
    /// Call before the run starts; a trace begun mid-run replays against
    /// protocol state the recording does not contain.
    pub fn enable_recording(&mut self) {
        self.recorder = Some(TraceWriter::new(&self.cfg));
    }

    /// Finishes recording and returns the encoded trace, or `None` when
    /// [`enable_recording`](Self::enable_recording) was never called.
    pub fn take_trace(&mut self) -> Option<Vec<u8>> {
        self.recorder.take().map(TraceWriter::into_bytes)
    }

    /// `true` when `node` is currently part of the network. Always `true`
    /// without a scenario.
    fn is_active(&self, node: NodeId) -> bool {
        self.scenario
            .as_ref()
            .is_none_or(|st| st.active[node.index()])
    }

    /// The host's current churn epoch (0 without a scenario).
    fn current_epoch(&self, node: NodeId) -> u32 {
        self.scenario
            .as_ref()
            .map_or(0, |st| st.node_epoch[node.index()])
    }

    /// Runs the simulation to completion and returns the aggregated
    /// report.
    pub fn run(mut self) -> SimReport {
        self.advance(SimTime::MAX);
        self.into_report()
    }

    /// Runs the simulation to completion unless `token` is cancelled
    /// first, in which case the run is abandoned and `None` returned.
    ///
    /// The token is only observed at [`advance`](Self::advance)
    /// pause boundaries — the world advances in slices of `slice`
    /// simulated time and checks the flag between slices, so a cancelled
    /// run always stops between events (the same consistent states a
    /// snapshot may be taken at), never mid-dispatch. A token cancelled
    /// before the first slice abandons the run without dispatching any
    /// event. Cancellation latency is bounded by the wall-clock cost of
    /// one slice; campaign-style workloads use sub-second slices so a
    /// cancel drains within a few milliseconds of real time.
    pub fn run_cancellable(
        mut self,
        token: &crate::CancelToken,
        slice: SimDuration,
    ) -> Option<SimReport> {
        let slice = if slice.is_zero() {
            SimDuration::from_millis(250)
        } else {
            slice
        };
        let mut pause_at = SimTime::ZERO + slice;
        loop {
            if token.is_cancelled() {
                return None;
            }
            if self.advance(pause_at) {
                return Some(self.into_report());
            }
            // Skip idle gaps: resume one slice past the furthest point the
            // run has reached, not merely past the previous pause.
            pause_at = pause_at.max(self.last_event_at) + slice;
        }
    }

    /// Advances the run until the next pending event would fire at or
    /// after `pause_at`, or the run completes. Returns `true` when the
    /// run is finished (queue drained or stop time passed), `false` when
    /// it paused with the boundary event still queued — the natural point
    /// to take a [snapshot](crate::snapshot) before resuming.
    ///
    /// The boundary is exclusive and has exactly one documented winner: a
    /// `pause_at` equal to a queued event's timestamp pauses **strictly
    /// before** any event at that instant fires. Every event at
    /// `pause_at` stays queued and is delivered after the resume, so a
    /// snapshot taken exactly on an event timestamp resumes
    /// bit-identically.
    pub fn advance(&mut self, pause_at: SimTime) -> bool {
        if self.finished {
            return true;
        }
        // The profiler is moved out for the duration of the loop so the
        // event handlers can borrow `self` freely.
        let mut profiler = std::mem::replace(&mut self.profiler, LoopProfiler::disabled());
        let finished = loop {
            let Some(next) = self.queue.peek_time() else {
                break true;
            };
            if next >= pause_at {
                break false;
            }
            let (now, event) = self.queue.pop().expect("peeked event vanished");
            if now > self.stop_at {
                break true;
            }
            self.last_event_at = now;
            let kind = event.kind();
            let started = profiler.begin();
            self.handle(now, event);
            profiler.record(kind, started);
        };
        self.profiler = profiler;
        self.finished = finished;
        finished
    }

    /// [`advance`](Self::advance) under its old name and signature. Exists
    /// only because the frozen `perfbench/src/workloads/{world,record_resume}.rs`
    /// call it; ROADMAP 1(f) swaps those two calls and deletes this.
    #[doc(hidden)]
    pub fn advance_until(&mut self, pause_at: SimTime, _: &mut NoopObserver) -> bool {
        self.advance(pause_at)
    }

    /// Consumes the (finished or paused) world, harvesting the per-host
    /// stacks into the aggregated [`SimReport`].
    pub fn into_report(self) -> SimReport {
        let mut mac = MacStats::default();
        let (joins, leaves) = self.pure.net_totals();
        let mut net = NetActivity {
            hello_sent: self.hello_frames,
            hello_received: self.hello_rx,
            neighbor_joins: joins,
            neighbor_leaves: leaves,
        };
        for node in &self.nodes {
            mac.merge(node.mac.stats());
        }
        let scenario_counts = self.scenario.as_ref().map(|st| {
            mac.merge(&st.retired_mac);
            net.neighbor_joins += st.retired_joins;
            net.neighbor_leaves += st.retired_leaves;
            st.counts
        });

        let outcomes = self.metrics.outcomes();
        let (re, srb, latency) = summarize(&outcomes);
        SimReport {
            scheme: self.cfg.scheme.label(),
            map: self.cfg.map().label(),
            broadcasts: self.metrics.issued(),
            reachability: re,
            saved_rebroadcasts: srb,
            avg_latency_s: latency,
            hello_packets: self.hello_frames,
            data_frames: self.data_frames,
            collisions: self.medium.collision_count(),
            losses: self.medium.loss_counters(),
            mac,
            net,
            suppression: self.pure.suppression(),
            profile: self.profiler.is_enabled().then(|| self.profiler.profile()),
            sim_seconds: self.last_event_at.as_secs_f64(),
            per_broadcast: outcomes,
            scenario: scenario_counts,
        }
    }

    fn handle(&mut self, now: SimTime, event: Event) {
        match event {
            Event::MobilityTurn { node } => {
                let mobility = &mut self.nodes[node.index()].mobility;
                mobility.advance(now);
                // The host's trajectory changed; the geometry drops its
                // dense caches so a later query at this same timestamp
                // re-evaluates it.
                self.geometry.set_segment(node, mobility.segment());
                if let Some(next) = self.nodes[node.index()].mobility.next_change() {
                    self.queue.schedule(next, Event::MobilityTurn { node });
                }
            }
            Event::HelloTimer { node } => self.dispatch(now, PureAction::HelloPrepare { node }),
            Event::MacTimer {
                node,
                generation,
                epoch,
            } => {
                // A timer that outlived its MAC (host deactivated since it
                // was armed) must not reach the replacement MAC.
                if epoch != self.current_epoch(node) {
                    return;
                }
                let actions = self.nodes[node.index()].mac.on_timer(generation, now);
                self.process_mac_action(node, actions, now);
            }
            Event::TxEnd { frame } => self.finish_transmission(frame, now),
            Event::AssessmentDone { node, packet } => {
                self.nodes[node.index()].take_assessment(packet);
                self.dispatch(now, PureAction::AssessmentFired { node, packet });
            }
            Event::IssueBroadcast => self.issue_broadcast(now),
            Event::CarrierBatch { slot, busy } => {
                let hearers = self.carrier_batches.remove(slot);
                for &node in &hearers {
                    self.apply_carrier_change(node, busy, now);
                }
                // Recycle the hearer list (keeping its capacity) for the
                // next delayed report.
                self.carrier_pool.push(hearers);
            }
            Event::Scenario { index } => self.apply_scenario_action(index, now),
        }
    }

    // ---- the dispatcher ---------------------------------------------------

    /// Feeds one action through the pure models and executes the effects
    /// it requests, in order. The single entry point for protocol state
    /// changes — and therefore the single tap point for recording.
    fn dispatch(&mut self, now: SimTime, action: PureAction<'_>) {
        if let Some(rec) = &mut self.recorder {
            rec.action(now, &action);
        }
        let mut fx = std::mem::take(&mut self.fx);
        debug_assert!(fx.is_empty(), "dispatch re-entered through an effect");
        self.pure.step(now, &action, &mut fx);
        if let Some(rec) = &mut self.recorder {
            rec.decisions(now, &fx);
        }
        for effect in fx.drain(..) {
            self.apply_effect(now, effect);
        }
        self.fx = fx;
    }

    /// Dispatches an action that must not produce effects (`FrameSent`,
    /// `Originate`). Safe to call from inside effect application — it
    /// uses a buffer disjoint from [`dispatch`](Self::dispatch)'s.
    fn dispatch_leaf(&mut self, now: SimTime, action: PureAction<'_>) {
        if let Some(rec) = &mut self.recorder {
            rec.action(now, &action);
        }
        self.pure.step(now, &action, &mut self.fx_leaf);
        debug_assert!(self.fx_leaf.is_empty(), "leaf action produced effects");
        self.fx_leaf.clear();
    }

    /// Executes one effect requested by a pure step. This is where the
    /// queue, the RNG streams, the MACs, and the metrics are touched on
    /// the pure models' behalf.
    fn apply_effect(&mut self, now: SimTime, effect: Effect) {
        match effect {
            Effect::AccelerateHello { node, target } => {
                // Under the dynamic hello policy, membership churn may
                // shorten the host's hello interval; if the recomputed
                // interval would fire before the currently scheduled
                // beacon, pull the beacon forward. (The paper notes "each
                // host's hello interval may change dynamically".)
                let Some((key, at)) = self.nodes[node.index()].hello_pending else {
                    return;
                };
                if target < at {
                    self.queue.cancel(key);
                    let key = self.queue.schedule(target, Event::HelloTimer { node });
                    self.nodes[node.index()].hello_pending = Some((key, target));
                }
            }
            Effect::EmitHello { node, interval } => {
                let include_neighbors = self.cfg.scheme.needs_two_hop_hellos();
                let mut neighbors = self.hello_pool.pop().unwrap_or_default();
                neighbors.clear();
                if include_neighbors {
                    neighbors.extend_from_slice(self.pure.neighbor_ids(node));
                }
                let payload = HelloPayload {
                    sender: node,
                    interval,
                    neighbors,
                };
                let bytes = payload.air_bytes();
                let n = &mut self.nodes[node.index()];
                let handle = n.queue_payload(Payload::Hello(payload));
                let actions = n.mac.enqueue(handle, bytes, now);
                self.process_mac_action(node, actions, now);
                // Re-arm with a small jitter so beacons do not phase-lock.
                let jitter_num = self.proto_rng.gen_range_u32(95..106);
                let next = interval * u64::from(jitter_num) / 100;
                let at = now + next;
                let key = self.queue.schedule(at, Event::HelloTimer { node });
                self.nodes[node.index()].hello_pending = Some((key, at));
            }
            Effect::InhibitFirstHear { packet, .. } => {
                self.metrics.rebroadcast_inhibited(packet, now);
            }
            Effect::ScheduleAssessment { node, packet } => {
                // S2: random assessment delay of 0-31 slots. The slots
                // count after carrier sensing and DIFS (the standard
                // random-assessment-delay composition), so hosts that
                // drew different slot numbers access the medium at
                // distinct, carrier-separable instants, while same-slot
                // draws contend - the paper's Fig. 2 contention scenario.
                let slots = self.proto_rng.gen_range_u32(0..32);
                let delay = CS_DELAY + manet_mac::timing::DIFS + SLOT * u64::from(slots);
                let key = self
                    .queue
                    .schedule(now + delay, Event::AssessmentDone { node, packet });
                self.nodes[node.index()].assessing.push((packet, key));
            }
            Effect::CancelAssessment { node, packet, .. } => {
                let key = self.nodes[node.index()].take_assessment(packet);
                self.queue.cancel(key);
                self.metrics.rebroadcast_inhibited(packet, now);
            }
            Effect::CancelQueued { node, packet, .. } => {
                let n = &mut self.nodes[node.index()];
                let queued = n.outgoing.iter().find_map(|(slot, payload)| {
                    matches!(payload, Payload::Broadcast(p) if *p == packet).then_some(slot)
                });
                let handle = FrameHandle(u64::from(queued.expect("no frame for the packet")));
                let cancelled = n.mac.cancel(handle);
                debug_assert!(cancelled, "queued frame must still be cancellable");
                n.take_payload(handle);
                self.metrics.rebroadcast_inhibited(packet, now);
            }
            Effect::EnqueueRebroadcast { node, packet } => {
                // S2 continued: submit to the MAC. An immediate `BeginTx`
                // marks the packet done via `FrameSent`.
                let n = &mut self.nodes[node.index()];
                let handle = n.queue_payload(Payload::Broadcast(packet));
                let actions = n.mac.enqueue(handle, PACKET_BYTES, now);
                self.process_mac_action(node, actions, now);
            }
            Effect::RetireCounters { joins, leaves } => {
                let st = self.scenario_mut();
                st.retired_joins += joins;
                st.retired_leaves += leaves;
            }
        }
    }

    // ---- workload -------------------------------------------------------

    fn issue_broadcast(&mut self, now: SimTime) {
        // Under a scenario only active hosts can originate traffic: the
        // draw selects among them by rank so the workload stream stays
        // deterministic for a given membership history. Without a scenario
        // the original draw is preserved bit-for-bit.
        let source = if let Some(st) = &self.scenario {
            let rank = self.workload_rng.gen_range_u32(0..st.active_count);
            let id = st
                .active
                .iter()
                .enumerate()
                .filter(|(_, &up)| up)
                .nth(rank as usize)
                .expect("active_count matches the membership vector")
                .0;
            NodeId::new(id as u32)
        } else {
            NodeId::new(self.workload_rng.gen_range_u32(0..self.cfg.hosts))
        };
        let packet = PacketId::new(source, self.metrics.issued());

        let mut reachable_set = std::mem::take(&mut self.scratch_reachable);
        // Under a scenario, hosts that are down cannot relay or receive:
        // reachability (`e` in the RE metric) is over the live topology.
        let active = self.scenario.as_ref().map(|st| st.active.as_slice());
        self.geometry
            .reachable_into(now, source, active, &mut reachable_set);
        let reachable = reachable_set.len() as u32;
        if self.scenario.is_some() {
            self.metrics
                .broadcast_issued_scoped(packet, source, &reachable_set, now);
        } else {
            self.metrics
                .broadcast_issued(packet, source, reachable, now);
        }
        self.scratch_reachable = reachable_set;

        // The source transmits unconditionally: queue straight to its MAC.
        self.dispatch_leaf(
            now,
            PureAction::Originate {
                node: source,
                packet,
            },
        );
        let node = &mut self.nodes[source.index()];
        let handle = node.queue_payload(Payload::Broadcast(packet));
        let actions = node.mac.enqueue(handle, PACKET_BYTES, now);
        self.process_mac_action(source, actions, now);

        if self.metrics.issued() < self.cfg.broadcasts {
            let gap = self
                .workload_rng
                .gen_duration_up_to(self.cfg.max_interarrival);
            self.queue.schedule(now + gap, Event::IssueBroadcast);
        } else {
            self.stop_at = now + self.cfg.grace;
        }
    }

    // ---- HELLO beaconing ------------------------------------------------

    fn hello_received(&mut self, node: NodeId, payload: &HelloPayload, now: SimTime) {
        self.hello_rx += 1;
        self.dispatch(
            now,
            PureAction::HelloHeard {
                node,
                sender: payload.sender,
                interval: payload.interval,
                neighbors: &payload.neighbors,
            },
        );
    }

    // ---- MAC / channel wiring --------------------------------------------

    fn process_mac_action(&mut self, node: NodeId, action: Option<MacAction>, now: SimTime) {
        match action {
            Some(MacAction::StartTimer { delay, generation }) => {
                let epoch = self.current_epoch(node);
                self.queue.schedule(
                    now + delay,
                    Event::MacTimer {
                        node,
                        generation,
                        epoch,
                    },
                );
            }
            Some(MacAction::BeginTx {
                handle,
                payload_bytes,
            }) => self.begin_transmission(node, handle, payload_bytes, now),
            None => {}
        }
    }

    fn begin_transmission(
        &mut self,
        node: NodeId,
        handle: FrameHandle,
        payload_bytes: usize,
        now: SimTime,
    ) {
        let payload = self.nodes[node.index()].take_payload(handle);
        match &payload {
            Payload::Broadcast(packet) => {
                self.data_frames += 1;
                // On the air: no longer cancellable.
                self.dispatch_leaf(
                    now,
                    PureAction::FrameSent {
                        node,
                        packet: *packet,
                    },
                );
            }
            Payload::Hello(_) => self.hello_frames += 1,
        }
        let mut listeners = std::mem::take(&mut self.scratch_listeners);
        self.geometry.in_range(now, node, &mut listeners);
        if let Some(st) = &self.scenario {
            // Hosts that are down have no radio: they neither sense this
            // frame's carrier nor receive it.
            listeners.retain(|l| st.active[l.index()]);
        }
        let end = now + frame_airtime(payload_bytes);
        let own = self.geometry.cached_position(node);
        let mut carrier = std::mem::take(&mut self.scratch_begin_carrier);
        let frame = if let Some(capture) = self.cfg.capture {
            // Received power falls off as (r / d)^alpha, normalized so a
            // listener at the coverage edge receives strength 1.
            let mut signals = std::mem::take(&mut self.scratch_signals);
            signals.clear();
            signals.extend(listeners.iter().map(|&l| {
                let d = self.geometry.cached_position(l).distance_to(own).max(1.0);
                manet_phy::Listener {
                    node: l,
                    signal: (PAPER_RADIO_RADIUS_M / d).powf(capture.path_loss_exponent),
                }
            }));
            let frame = self.medium.begin_transmission_with_signals_into(
                node,
                now,
                end,
                &signals,
                &mut carrier,
            );
            self.scratch_signals = signals;
            frame
        } else {
            self.medium
                .begin_transmission_into(node, now, end, &listeners, &mut carrier)
        };
        // Scenario link faults destroy individual deliveries the moment
        // the frame starts (the loss is decided per-link, not per-frame).
        if self
            .scenario
            .as_ref()
            .is_some_and(ScenarioState::any_fault_open)
        {
            self.apply_link_faults(frame, node, &listeners);
        }
        self.scratch_listeners = listeners;
        self.queue.schedule(end, Event::TxEnd { frame });
        let slot = usize::try_from(frame.as_u64()).expect("frame slot out of range");
        if slot >= self.in_flight.len() {
            self.in_flight.resize_with(slot + 1, || None);
        }
        debug_assert!(self.in_flight[slot].is_none(), "frame slot still occupied");
        self.in_flight[slot] = Some(InFlight {
            payload,
            sent_from: own,
            sender_epoch: self.current_epoch(node),
        });
        // Busy-carrier fan-out cannot re-enter this function: a MAC that
        // senses carrier never starts a transmission in response (it only
        // freezes backoff), so the scratch buffers above are settled.
        self.deliver_carrier_changes(&carrier, true, now);
        self.scratch_begin_carrier = carrier;
    }

    /// Routes one frame's carrier-sense transitions to the hearers' MACs
    /// after the CCA latency. The whole fan-out rides a single
    /// [`Event::CarrierBatch`]: every per-host report would fire at the
    /// same instant with consecutive sequence numbers anyway, so one
    /// event delivering them in list order is indistinguishable from
    /// scheduling them individually — at a fraction of the event-queue
    /// traffic (carrier reports are over half of all events in a storm).
    fn deliver_carrier_changes(&mut self, changes: &[CarrierChange], busy: bool, now: SimTime) {
        if changes.is_empty() {
            return;
        }
        let mut hearers = self.carrier_pool.pop().unwrap_or_default();
        hearers.clear();
        hearers.extend(changes.iter().map(|c| c.node));
        let slot = self.carrier_batches.insert(hearers);
        self.queue
            .schedule(now + CS_DELAY, Event::CarrierBatch { slot, busy });
    }

    /// Feeds one carrier transition to a host's MAC.
    fn apply_carrier_change(&mut self, node: NodeId, busy: bool, now: SimTime) {
        // A host that deactivated after the report was scheduled has no
        // radio; its replacement MAC syncs its own carrier view on rejoin.
        if !self.is_active(node) {
            return;
        }
        let mac = &mut self.nodes[node.index()].mac;
        let action = if busy {
            mac.on_medium_busy(now)
        } else {
            mac.on_medium_idle(now)
        };
        self.process_mac_action(node, action, now);
    }

    fn finish_transmission(&mut self, frame: FrameId, now: SimTime) {
        let mut deliveries = std::mem::take(&mut self.scratch_deliveries);
        let mut carrier = std::mem::take(&mut self.scratch_end_carrier);
        let source = self
            .medium
            .end_transmission_into(frame, now, &mut deliveries, &mut carrier);
        let slot = usize::try_from(frame.as_u64()).expect("frame slot out of range");
        let in_flight = self.in_flight[slot].take().expect("unknown frame finished");

        // The transmitter's MAC enters post-backoff. This may immediately
        // start the host's next queued frame — which is why `begin` and
        // `finish` use disjoint scratch buffers. A sender that deactivated
        // mid-flight is skipped: its current MAC never started this frame.
        if in_flight.sender_epoch == self.current_epoch(source) {
            let actions = self.nodes[source.index()].mac.on_tx_end(now);
            self.process_mac_action(source, actions, now);
        }

        if let Payload::Broadcast(packet) = in_flight.payload {
            self.metrics.transmission_finished(packet, source, now);
        }

        // Deliver decoded copies to the upper layer. A listener that went
        // down while the frame was airing has no radio left to decode it.
        for delivery in &deliveries {
            if !delivery.decoded || !self.is_active(delivery.to) {
                continue;
            }
            match &in_flight.payload {
                Payload::Hello(h) => self.hello_received(delivery.to, h, now),
                Payload::Broadcast(packet) => {
                    self.packet_heard(delivery.to, *packet, source, in_flight.sent_from, now);
                }
            }
        }

        // A beacon's neighbor list goes back to the pool for the next one.
        if let Payload::Hello(hello) = in_flight.payload {
            self.hello_pool.push(hello.neighbors);
        }

        // Carrier-sense idle transitions may resume frozen backoffs.
        self.deliver_carrier_changes(&carrier, false, now);
        self.scratch_deliveries = deliveries;
        self.scratch_end_carrier = carrier;
    }

    // ---- scheme-level packet handling ------------------------------------

    fn packet_heard(
        &mut self,
        node: NodeId,
        packet: PacketId,
        sender: NodeId,
        sender_pos: Vec2,
        now: SimTime,
    ) {
        self.metrics.packet_received(packet, node);
        let own_position = self.geometry.position_at(node, now);

        // Oracle-mode neighbor views are geometry, which only the
        // dispatcher can evaluate; they ride into the pure step on the
        // action. HELLO-mode views come from the models' own tables.
        let needs_count = self.cfg.scheme.needs_neighbor_count();
        let needs_two_hop = self.cfg.scheme.needs_two_hop_hellos();
        let use_oracle = matches!(self.cfg.neighbor_info, NeighborInfo::Oracle)
            && (needs_count || needs_two_hop);
        let mut neighbors = std::mem::take(&mut self.scratch_neighbors);
        let mut sender_neighbors = std::mem::take(&mut self.scratch_sender_neighbors);
        neighbors.clear();
        sender_neighbors.clear();
        let oracle = if use_oracle {
            self.geometry.in_range(now, node, &mut neighbors);
            let neighbor_count = neighbors.len();
            if needs_two_hop {
                self.geometry.in_range(now, sender, &mut sender_neighbors);
            } else {
                neighbors.clear();
            }
            Some(OracleView {
                neighbor_count,
                neighbors: &neighbors,
                sender_neighbors: &sender_neighbors,
            })
        } else {
            None
        };

        // The random draw happens for every heard copy, decision or not,
        // to keep the protocol RNG stream independent of scheme choices.
        let random_unit = self.proto_rng.gen_unit_f64();
        self.dispatch(
            now,
            PureAction::PacketHeard {
                node,
                packet,
                sender,
                sender_position: sender_pos,
                own_position,
                random_unit,
                oracle,
            },
        );
        self.scratch_neighbors = neighbors;
        self.scratch_sender_neighbors = sender_neighbors;
    }

    // ---- scenario: host churn & fault injection --------------------------

    fn scenario_mut(&mut self) -> &mut ScenarioState {
        self.scenario
            .as_mut()
            .expect("scenario event without scenario state")
    }

    /// Whether this run beacons HELLOs at all (mirrors the construction-
    /// time decision in [`World::new`]).
    fn hellos_enabled(&self) -> bool {
        matches!(self.cfg.neighbor_info, NeighborInfo::Hello(_))
            && (self.cfg.scheme.needs_neighbor_count() || self.cfg.scheme.needs_two_hop_hellos())
    }

    /// Applies the scenario timeline entry at `index`.
    fn apply_scenario_action(&mut self, index: u32, now: SimTime) {
        let action = *self.scenario_mut().timeline.get(index as usize).1;
        match action {
            WorldAction::Leave { host } => self.deactivate_host(host, false, now),
            WorldAction::Crash { host } => self.deactivate_host(host, true, now),
            WorldAction::Join { host } => self.reactivate_host(index, host, false, now),
            WorldAction::Recover { host } => self.reactivate_host(index, host, true, now),
            WorldAction::BlackoutStart { a, b } => self.scenario_mut().blackouts.push((a, b)),
            WorldAction::BlackoutEnd { a, b } => {
                let st = self.scenario_mut();
                let pos = st
                    .blackouts
                    .iter()
                    .position(|&open| open == (a, b))
                    .expect("blackout end without a matching start");
                st.blackouts.remove(pos);
            }
            WorldAction::NoiseStart { drop_probability } => {
                self.scenario_mut().noise.push(drop_probability)
            }
            WorldAction::NoiseEnd { drop_probability } => {
                let st = self.scenario_mut();
                let pos = st
                    .noise
                    .iter()
                    .position(|open| open.to_bits() == drop_probability.to_bits())
                    .expect("noise end without a matching start");
                st.noise.remove(pos);
            }
            WorldAction::PartitionStart { region } => self.scenario_mut().partitions.push(region),
            WorldAction::PartitionEnd { region } => {
                let st = self.scenario_mut();
                let pos = st
                    .partitions
                    .iter()
                    .position(|open| *open == region)
                    .expect("partition end without a matching start");
                st.partitions.remove(pos);
            }
        }
    }

    /// Takes a host off the air: its radio stops hearing and sending, all
    /// of its cancellable protocol activity is abandoned, and (on a crash)
    /// its protocol state is wiped. Mobility continues — a parked radio
    /// still moves with its host.
    fn deactivate_host(&mut self, host: u32, crash: bool, now: SimTime) {
        let node = NodeId::new(host);
        let idx = node.index();
        {
            let st = self.scenario_mut();
            debug_assert!(st.active[idx], "deactivating a host that is already down");
            st.active[idx] = false;
            st.active_count -= 1;
            st.node_epoch[idx] += 1;
            if crash {
                st.counts.crashes += 1;
            } else {
                st.counts.leaves += 1;
            }
        }
        // Silence the beacon and the pending assessments.
        let n = &mut self.nodes[idx];
        let hello = n.hello_pending.take().map(|(key, _)| key);
        for key in hello
            .into_iter()
            .chain(n.assessing.drain(..).map(|(_, key)| key))
        {
            self.queue.cancel(key);
        }
        // Abandon per-packet scheme state; MAC-queued rebroadcasts are
        // handled by the queue sweep below (which also covers HELLO
        // frames). On a crash the models also wipe the host's memory,
        // retiring its counters.
        self.dispatch(now, PureAction::Deactivate { node, crash });
        // Sweep the MAC queue: every payload still in `outgoing` belongs
        // to a queued (not yet airing) frame — `begin_transmission` takes
        // the payload out the moment a frame hits the air.
        let slots: Vec<u32> = self.nodes[idx]
            .outgoing
            .iter()
            .map(|(slot, _)| slot)
            .collect();
        for slot in slots {
            let n = &mut self.nodes[idx];
            let cancelled = n.mac.cancel(FrameHandle(u64::from(slot)));
            debug_assert!(cancelled, "orphan payload was not queued in the MAC");
            if let Payload::Hello(hello) = n.outgoing.remove(slot) {
                self.hello_pool.push(hello.neighbors);
            }
        }
    }

    /// Puts a host back on the air with a factory-fresh radio/MAC, syncing
    /// its carrier view with whatever is currently airing around it.
    fn reactivate_host(&mut self, index: u32, host: u32, recover: bool, now: SimTime) {
        let node = NodeId::new(host);
        let idx = node.index();
        // The host's final frame may still be draining out of its old
        // radio (a transmission cannot be recalled once started). Let it
        // finish before the replacement radio powers up; the retry is
        // deterministic and terminates because the downed MAC cannot
        // start anything new.
        if self.medium.is_transmitting(node) {
            self.queue.schedule(
                now + manet_sim_engine::SimDuration::from_millis(5),
                Event::Scenario { index },
            );
            return;
        }
        let (mac_rng, phase) = {
            let st = self.scenario_mut();
            debug_assert!(!st.active[idx], "reactivating a host that is already up");
            st.active[idx] = true;
            st.active_count += 1;
            if recover {
                st.counts.recoveries += 1;
            } else {
                st.counts.joins += 1;
            }
            st.respawn_seq += 1;
            let mut rng = st.respawn_rng.fork(st.respawn_seq);
            let phase = rng.gen_duration_up_to(manet_sim_engine::SimDuration::from_secs(1));
            (rng, phase)
        };
        let old = std::mem::replace(&mut self.nodes[idx].mac, Dcf::new(mac_rng));
        self.scenario_mut().retired_mac.merge(old.stats());
        // The fresh MAC boots believing the medium is idle; correct that
        // if a neighbor's frame is airing over this host right now.
        if self.medium.is_carrier_busy(node) {
            let action = self.nodes[idx].mac.on_medium_busy(now);
            self.process_mac_action(node, action, now);
        }
        if self.hellos_enabled() {
            let at = now + phase;
            let key = self.queue.schedule(at, Event::HelloTimer { node });
            self.nodes[idx].hello_pending = Some((key, at));
        }
    }

    /// Destroys individual deliveries of the frame that just started, per
    /// the open fault windows: a link blackout beats a partition-boundary
    /// crossing beats an ambient-noise draw (the draw is only made when no
    /// deterministic fault already applies). Injection respects the
    /// medium's first-cause-wins rule, so a delivery already garbled by a
    /// collision stays a collision.
    fn apply_link_faults(&mut self, frame: FrameId, sender: NodeId, listeners: &[NodeId]) {
        enum FaultKind {
            Blackout,
            Partition,
            Noise,
        }
        let st = self.scenario.as_mut().expect("faults without a scenario");
        let s = sender.index() as u32;
        let sender_pos = self.geometry.cached_position(sender);
        // Independent overlapping bursts compose: survive all or drop.
        let noise_drop = 1.0 - st.noise.iter().fold(1.0, |acc, &p| acc * (1.0 - p));
        for (index, &listener) in listeners.iter().enumerate() {
            let l = listener.index() as u32;
            let kind = if st
                .blackouts
                .iter()
                .any(|&(a, b)| (a == s && b == l) || (a == l && b == s))
            {
                Some(FaultKind::Blackout)
            } else if st.partitions.iter().any(|region| {
                let lp = self.geometry.cached_position(listener);
                region.contains(sender_pos.x, sender_pos.y) != region.contains(lp.x, lp.y)
            }) {
                Some(FaultKind::Partition)
            } else if noise_drop > 0.0 && st.rng.gen_unit_f64() < noise_drop {
                Some(FaultKind::Noise)
            } else {
                None
            };
            if let Some(kind) = kind {
                if self.medium.inject_loss(frame, index) {
                    match kind {
                        FaultKind::Blackout => st.counts.blackout_drops += 1,
                        FaultKind::Partition => st.counts.partition_drops += 1,
                        FaultKind::Noise => st.counts.noise_drops += 1,
                    }
                }
            }
        }
    }
}
