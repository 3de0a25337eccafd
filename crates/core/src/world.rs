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
//! Every action funnels through `World::dispatch`, which is also the
//! single tap point for action-level recording (see [`crate::record`]):
//! a recorded trace replayed through [`PureModels`] alone reproduces
//! every scheme decision of the live run.

use manet_geom::Vec2;
use manet_mac::timing::SLOT;
use manet_mac::{frame_airtime, Dcf, FrameHandle, MacAction, MacCounters, MacStats, DRAW_VALUES};
use manet_mobility::{
    grid_placement, line_placement, uniform_placement, Mobility, RandomTurn, RandomTurnParams,
    RandomWaypoint, RandomWaypointParams, Segment, Stationary, PAPER_RADIO_RADIUS_M,
};
use manet_net::HelloPayload;
use manet_phy::{Delivery, FrameId, Medium, NodeId};
use manet_sim_engine::{EventKey, EventQueue, LoopProfiler, SimDuration, SimRng, SimTime, Slab};

use crate::config::{SimConfig, View, CS_DELAY, PACKET_BYTES};
use crate::ids::PacketId;
use crate::metrics::{summarize, MetricsCollector, NetActivity, SimReport};
use crate::pure::{Effect, OracleView, PureAction, PureModels};
use crate::record::TraceWriter;
use crate::trace::NoopObserver;

mod churn;
mod geometry;
pub mod snapshot;

use churn::ScenarioState;
use geometry::Geometry;

/// Events on the simulation queue.
#[derive(Debug)]
enum Event {
    /// A host's motion segment ended; take the next random turn.
    MobilityTurn { node: NodeId },
    /// Time for a host to emit its next HELLO beacon.
    HelloTimer { node: NodeId },
    /// A DCF timer (DIFS or backoff countdown) fired; the MAC ignores a
    /// stale `generation`.
    MacTimer { node: NodeId, generation: u32 },
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
}

/// The configured mobility model for one host.
#[derive(Debug)]
enum HostMobility {
    Turn(RandomTurn),
    Waypoint(RandomWaypoint),
    Fixed(Stationary),
}

impl Mobility for HostMobility {
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

    /// Remembers the pending wakeup of `packet`'s assessment. A host
    /// rarely assesses two packets at once: the first gets one slot, not
    /// the four a growing `Vec` starts with.
    fn push_assessment(&mut self, packet: PacketId, key: EventKey) {
        if self.assessing.capacity() == 0 {
            self.assessing.reserve_exact(1);
        }
        self.assessing.push((packet, key));
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
    /// positions are evaluated.
    geometry: Geometry,
    nodes: Vec<Node>,
    medium: Medium,
    metrics: MetricsCollector,
    /// How often every MAC of the run drew each backoff value (see
    /// [`World::drive_mac`]), reported as [`MacStats::draw_counts`].
    draw_counts: [u64; DRAW_VALUES],
    /// All pure protocol state; advanced only via [`World::dispatch`].
    pure: PureModels,
    /// Effect buffer for [`World::dispatch`], taken while its effects
    /// apply.
    fx: Vec<Effect>,
    /// `true` while [`World::dispatch`] applies effects: an action
    /// dispatched then (`FrameSent`, when a MAC enqueue starts a
    /// transmission at once) must produce none.
    applying_effects: bool,
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
    // corruption.
    scratch_listeners: Vec<NodeId>,
    scratch_signals: Vec<manet_phy::Listener>,
    scratch_deliveries: Vec<Delivery>,
    scratch_hearers: Vec<NodeId>,
    scratch_neighbors: Vec<NodeId>,
    scratch_sender_neighbors: Vec<NodeId>,
    scratch_reachable: Vec<NodeId>,
    /// Hearer lists of delayed carrier reports in flight, keyed by the
    /// slot in their [`Event::CarrierBatch`]. Each frame edge takes a list
    /// from `carrier_pool` for the medium to fill and parks that same list
    /// here, and the batch returns it, so steady-state reports never
    /// allocate.
    carrier_batches: Slab<Vec<NodeId>>,
    carrier_pool: Vec<Vec<NodeId>>,
    stop_at: SimTime,
    hello_frames: u64,
    data_frames: u64,
    /// HELLO beacons decoded by some listener.
    hello_rx: u64,
    /// Set once the run has drained (or passed `stop_at`); further
    /// [`advance`](Self::advance) calls return immediately.
    finished: bool,
    /// Event-loop profiler; enabled via `SimConfig::profile_events`.
    profiler: LoopProfiler,
    /// Churn and fault-injection state; `None` unless the config carries
    /// a scenario.
    scenario: Option<ScenarioState>,
}

/// The randomness of a run, by family. Two families on one number would
/// share draws, so a duplicated number is compile error E0081; a new
/// family gets a new variant, and renumbering one re-pins every hash in
/// the test suite.
///
/// Five families are streams [`World::new`] forks off the root `SimRng`
/// (seeded from `SimConfig::seed`) and draws from in order; a checkpoint
/// writes each one's position, and resume forks none afresh. The other
/// three are keyed: each draw is `SimRng::keyed(seed, &[family, key…])`,
/// a function of the seed and what the draw decides (the words its doc
/// names), so it has no position to write. The pure models and the strip
/// index draw nothing.
#[repr(u64)]
enum Stream {
    /// Initial host positions on the map.
    Placement = 0,
    /// Broadcast origination schedule: interarrivals and sources.
    Workload = 1,
    /// Scheme-level draws: assessment slots, HELLO phases and jitter, the
    /// probabilistic coin.
    Protocol = 2,
    /// Keyed `[]`: the seed `phy::Medium` keys injected channel loss
    /// (`SimConfig::drop_probability`) under, by `[frame serial, listener]`.
    ChannelDrop = 3,
    /// Keyed `[frame serial, listener]`: a scenario noise burst's drop.
    Noise = 4,
    /// Keyed `[host, instant in ns]`: a rejoining host's first HELLO phase.
    Rejoin = 5,
    /// `+ host`: per-host mobility model.
    Mobility = 100,
    /// `+ host`: per-host DCF backoff, kept over reboots. From host 9 900
    /// up `Mobility + host` runs into this range (host 9 900's mobility
    /// stream is host 0's DCF stream), so worlds that large share streams
    /// between the two subsystems. Moving either base changes every pinned
    /// hash; it is a ROADMAP item, not a silent fix.
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

        let hellos_enabled = config.reads().hello.is_some();

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

        let scenario = (config.scenario.as_ref())
            .map(|scenario| ScenarioState::new(scenario, hosts, &mut queue));

        let pure = PureModels::new(&config);

        let geometry = Geometry::new(&map, PAPER_RADIO_RADIUS_M, max_speed, positions, segments);

        World {
            queue,
            geometry,
            medium: {
                let mut medium = Medium::new(hosts);
                if config.drop_probability > 0.0 {
                    let key = [Stream::ChannelDrop as u64];
                    let seed = SimRng::keyed(config.seed, &key).next_u64();
                    medium = medium.with_drop_probability(config.drop_probability, seed);
                }
                if let Some(capture) = config.capture {
                    medium =
                        medium.with_capture(manet_phy::CaptureModel::new(capture.sir_threshold));
                }
                medium
            },
            metrics: MetricsCollector::new(hosts),
            draw_counts: [0; DRAW_VALUES],
            pure,
            fx: Vec::new(),
            applying_effects: false,
            recorder: None,
            workload_rng,
            proto_rng,
            in_flight: Vec::new(),
            scratch_listeners: Vec::new(),
            scratch_signals: Vec::new(),
            scratch_deliveries: Vec::new(),
            scratch_hearers: Vec::new(),
            scratch_neighbors: Vec::new(),
            scratch_sender_neighbors: Vec::new(),
            scratch_reachable: Vec::new(),
            carrier_batches: Slab::new(),
            carrier_pool: Vec::new(),
            stop_at: SimTime::MAX,
            hello_frames: 0,
            data_frames: 0,
            hello_rx: 0,
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
            pause_at = pause_at.max(self.queue.now()) + slice;
        }
    }

    /// Advances the run until the next pending event would fire at or
    /// after `pause_at`, or the run completes. Returns `true` when the
    /// run is finished (queue drained or stop time passed), `false` when
    /// it paused with the boundary event still queued — the natural point
    /// to take a [snapshot] before resuming.
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
            // The event past the stop time stays queued: a finished world
            // still names every scenario entry that has not fired.
            if next > self.stop_at {
                break true;
            }
            let (now, event) = self.queue.pop().expect("peeked event vanished");
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
        let mut mac = MacCounters::default();
        let (joins, leaves) = self.pure.net_totals();
        let net = NetActivity {
            hello_sent: self.hello_frames,
            hello_received: self.hello_rx,
            neighbor_joins: joins,
            neighbor_leaves: leaves,
        };
        for node in &self.nodes {
            mac.merge(node.mac.stats());
        }
        let mac = MacStats::new(mac, self.draw_counts);

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
            sim_seconds: self.queue.now().as_secs_f64(),
            per_broadcast: outcomes,
            scenario: self.scenario.as_ref().map(|st| st.counts),
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
            Event::MacTimer { node, generation } => {
                self.drive_mac(node, now, |mac| mac.on_timer(generation, now));
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
    ///
    /// A dispatch from inside effect application takes the empty
    /// placeholder `mem::take` left in `fx`, gets no effects from its
    /// step, and stores the placeholder back, so it allocates nothing.
    fn dispatch(&mut self, now: SimTime, action: PureAction<'_>) {
        if let Some(rec) = &mut self.recorder {
            rec.action(now, &action);
        }
        let mut fx = std::mem::take(&mut self.fx);
        self.pure.step(now, &action, &mut fx);
        debug_assert!(
            fx.is_empty() || !self.applying_effects,
            "an action dispatched while effects apply produced effects"
        );
        if let Some(rec) = &mut self.recorder {
            rec.decisions(now, &fx);
        }
        let outer = std::mem::replace(&mut self.applying_effects, true);
        for effect in fx.drain(..) {
            self.apply_effect(now, effect);
        }
        self.applying_effects = outer;
        self.fx = fx;
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
            Effect::EmitHello(hello) => {
                let (node, interval, bytes) = (hello.sender, hello.interval, hello.air_bytes());
                let handle = self.nodes[node.index()].queue_payload(Payload::Hello(hello));
                self.drive_mac(node, now, |mac| mac.enqueue(handle, bytes, now));
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
                self.nodes[node.index()].push_assessment(packet, key);
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
                let handle = self.nodes[node.index()].queue_payload(Payload::Broadcast(packet));
                self.drive_mac(node, now, |mac| mac.enqueue(handle, PACKET_BYTES, now));
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
            let mut up = (0..)
                .zip(&st.active)
                .filter_map(|(id, &up)| up.then_some(id));
            let rank = self
                .workload_rng
                .gen_range_u32(0..up.clone().count() as u32);
            NodeId::new(up.nth(rank as usize).expect("a rank below the hosts up"))
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
        self.dispatch(
            now,
            PureAction::Originate {
                node: source,
                packet,
            },
        );
        let handle = self.nodes[source.index()].queue_payload(Payload::Broadcast(packet));
        self.drive_mac(source, now, |mac| mac.enqueue(handle, PACKET_BYTES, now));

        if self.metrics.issued() < self.cfg.broadcasts {
            let gap = self
                .workload_rng
                .gen_duration_up_to(self.cfg.max_interarrival);
            self.queue.schedule(now + gap, Event::IssueBroadcast);
        } else {
            self.stop_at = now + self.cfg.grace;
        }
    }

    // ---- MAC / channel wiring --------------------------------------------

    /// Feeds one input to `node`'s MAC and executes the action it asks
    /// for. An input draws at most one backoff; a draw is folded into the
    /// run's histogram here, so a MAC keeps only its latest.
    fn drive_mac(
        &mut self,
        node: NodeId,
        now: SimTime,
        input: impl FnOnce(&mut Dcf) -> Option<MacAction>,
    ) {
        let mac = &mut self.nodes[node.index()].mac;
        let draws = mac.stats().backoff_draws;
        let action = input(mac);
        if mac.stats().backoff_draws != draws {
            self.draw_counts[mac.last_draw() as usize] += 1;
        }
        self.process_mac_action(node, action, now);
    }

    fn process_mac_action(&mut self, node: NodeId, action: Option<MacAction>, now: SimTime) {
        match action {
            Some(MacAction::StartTimer { delay, generation }) => {
                let timer = Event::MacTimer { node, generation };
                self.queue.schedule(now + delay, timer);
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
                self.dispatch(
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
        let own = self.geometry.position_at(node, now);
        let mut carrier = self.carrier_pool.pop().unwrap_or_default();
        let frame = if let Some(capture) = self.cfg.capture {
            // Received power falls off as (r / d)^alpha, normalized so a
            // listener at the coverage edge receives strength 1.
            let mut signals = std::mem::take(&mut self.scratch_signals);
            signals.clear();
            signals.extend(listeners.iter().map(|&l| {
                let d = self.geometry.position_at(l, now).distance_to(own).max(1.0);
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
            self.apply_link_faults(frame, node, &listeners, now);
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
        });
        self.deliver_carrier_changes(carrier, true, now);
    }

    /// Routes the hosts whose carrier one frame edge flipped to `busy` to
    /// their MACs after the CCA latency; an empty list goes back to the
    /// pool. The whole fan-out rides a single [`Event::CarrierBatch`]:
    /// every per-host report would fire at the same instant with
    /// consecutive sequence numbers anyway, so one event delivering them
    /// in list order is indistinguishable from scheduling them
    /// individually — at a fraction of the event-queue traffic (carrier
    /// reports are over half of all events in a storm).
    fn deliver_carrier_changes(&mut self, hearers: Vec<NodeId>, busy: bool, now: SimTime) {
        if hearers.is_empty() {
            self.carrier_pool.push(hearers);
            return;
        }
        let slot = self.carrier_batches.insert(hearers);
        self.queue
            .schedule(now + CS_DELAY, Event::CarrierBatch { slot, busy });
    }

    /// Feeds one carrier transition to a host's MAC.
    fn apply_carrier_change(&mut self, node: NodeId, busy: bool, now: SimTime) {
        // A host that went down after the report was scheduled has no
        // radio; its rebooted MAC syncs its own carrier view on rejoin.
        if !self.is_active(node) {
            return;
        }
        self.drive_mac(node, now, |mac| {
            if busy {
                mac.on_medium_busy(now)
            } else {
                mac.on_medium_idle(now)
            }
        });
    }

    fn finish_transmission(&mut self, frame: FrameId, now: SimTime) {
        let mut deliveries = std::mem::take(&mut self.scratch_deliveries);
        let mut carrier = self.carrier_pool.pop().unwrap_or_default();
        let source = self
            .medium
            .end_transmission_into(frame, now, &mut deliveries, &mut carrier);
        let slot = usize::try_from(frame.as_u64()).expect("frame slot out of range");
        let in_flight = self.in_flight[slot].take().expect("unknown frame finished");

        // The transmitter's MAC enters post-backoff. This may immediately
        // start the host's next queued frame, whose carrier list is its
        // own and whose batch is parked before this one. A sender that
        // went down mid-flight is skipped: its MAC is off, and it cannot
        // be back up yet, because a rejoin waits for the host's last frame
        // to end.
        if self.is_active(source) {
            self.drive_mac(source, now, |mac| mac.on_tx_end(now));
        }

        if let Payload::Broadcast(packet) = in_flight.payload {
            self.metrics.transmission_finished(packet, source, now);
        }

        // Deliver decoded copies to the upper layer. A listener that went
        // down while the frame was airing has no radio left to decode it.
        let decoded = |world: &Self, delivery: &Delivery| {
            delivery.cause.is_none() && world.is_active(delivery.to)
        };
        match &in_flight.payload {
            Payload::Hello(hello) => {
                // One action for the whole frame, its hearers in listener
                // order.
                let mut hearers = std::mem::take(&mut self.scratch_hearers);
                hearers.clear();
                let heard = deliveries.iter().filter(|d| decoded(self, d));
                hearers.extend(heard.map(|d| d.to));
                if !hearers.is_empty() {
                    self.hello_rx += hearers.len() as u64;
                    let action = PureAction::HelloHeard {
                        hearers: &hearers,
                        sender: hello.sender,
                        interval: hello.interval,
                        neighbors: &hello.neighbors,
                    };
                    self.dispatch(now, action);
                }
                self.scratch_hearers = hearers;
            }
            &Payload::Broadcast(packet) => {
                for delivery in &deliveries {
                    if decoded(self, delivery) {
                        self.packet_heard(delivery.to, packet, source, in_flight.sent_from, now);
                    }
                }
            }
        }

        // Carrier-sense idle transitions may resume frozen backoffs.
        self.deliver_carrier_changes(carrier, false, now);
        self.scratch_deliveries = deliveries;
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
        let reads = self.pure.reads;
        let mut neighbors = std::mem::take(&mut self.scratch_neighbors);
        let mut sender_neighbors = std::mem::take(&mut self.scratch_sender_neighbors);
        neighbors.clear();
        sender_neighbors.clear();
        let oracle = if reads.oracle() {
            self.geometry.in_range(now, node, &mut neighbors);
            let neighbor_count = neighbors.len();
            if reads.view == View::TwoHop {
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
}
