//! The pure protocol models: every piece of *decision-owning* state —
//! packet ledgers, neighbor tables, variation trackers, suppression
//! tallies — behind a single dispatchable state machine.
//!
//! The simulation is split openmina-style into a **pure** half and an
//! **effectful** half:
//!
//! * [`PureModels`] owns the protocol state and advances it exclusively
//!   through [`PureModels::step`]: one [`PureAction`] in, a list of
//!   [`Effect`]s out. A step never draws randomness, never touches the
//!   event queue, and never mutates the radio medium — randomness the
//!   protocol needs (the schemes' uniform sample) arrives *inside* the
//!   action, drawn by the dispatcher beforehand.
//! * The dispatcher ([`World`](crate::World)) owns the RNG streams, the
//!   event queue, the MACs and the medium. It translates simulation events
//!   into actions, feeds them through the pure models, and executes the
//!   returned effects (scheduling assessments, cancelling frames,
//!   re-arming beacons).
//!
//! Because every action is a plain value, the action stream can be
//! recorded ([`crate::record`]) and replayed through a fresh `PureModels`
//! with no queue, no medium and no RNG at all — the scheme logic re-derives
//! every decision from the actions alone.

use std::rc::Rc;

use manet_geom::Vec2;
use manet_net::{
    HelloIntervalPolicy, HelloPayload, MembershipChange, NeighborTable, VariationTracker,
};
use manet_phy::NodeId;
use manet_sim_engine::{SimDuration, SimTime};

use crate::config::{Reads, SimConfig, View};
use crate::ids::PacketId;
use crate::ledger::{ActivePacket, PacketLedger, PacketView};
use crate::metrics::SuppressionCounts;
use crate::policy::{DuplicateDecision, FirstDecision, HearContext};
use crate::schemes::SchemeSpec;
use crate::trace::SuppressReason;

/// Oracle-mode neighbor knowledge, computed by the dispatcher from the
/// spatial grid and handed to the pure models inside
/// [`PureAction::PacketHeard`].
///
/// In HELLO mode this is absent: the pure models derive the same view from
/// their own neighbor tables. Both slices are strictly ascending by id (the
/// [`HearContext`] contract).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleView<'a> {
    /// Hosts currently in radio range of the hearer.
    pub neighbor_count: usize,
    /// The hearer's one-hop set (empty unless the scheme needs two-hop
    /// knowledge).
    pub neighbors: &'a [NodeId],
    /// The sender's one-hop set (empty unless the scheme needs two-hop
    /// knowledge).
    pub sender_neighbors: &'a [NodeId],
}

/// One input to the pure protocol state machine.
///
/// Actions borrow bulk data (neighbor lists) from whoever produced them:
/// the dispatcher's buffers and frames live, the trace reader's
/// ([`TraceFile`](crate::TraceFile)) on replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PureAction<'a> {
    /// The workload issued a broadcast at `node`.
    Originate {
        /// The issuing host.
        node: NodeId,
        /// The new packet.
        packet: PacketId,
    },
    /// `node`'s HELLO timer fired: expire stale neighbors and compute the
    /// beacon interval.
    HelloPrepare {
        /// The beaconing host.
        node: NodeId,
    },
    /// One HELLO beacon frame ended: every host in `hearers` decoded it.
    HelloHeard {
        /// The hosts that decoded the frame, in the medium's listener
        /// order (ascending by id): at least one, never the sender.
        hearers: &'a [NodeId],
        /// The beaconing host.
        sender: NodeId,
        /// The interval advertised in the beacon.
        interval: SimDuration,
        /// The sender's advertised one-hop neighbor list, as its frame
        /// carries it: the hearer's table keeps a share, not a copy.
        neighbors: &'a Rc<[NodeId]>,
    },
    /// `node` decoded a copy of a broadcast packet.
    PacketHeard {
        /// The hearing host.
        node: NodeId,
        /// The packet heard.
        packet: PacketId,
        /// The host the copy was heard from.
        sender: NodeId,
        /// The sender's position as carried in the packet.
        sender_position: Vec2,
        /// The hearer's own position (GPS assumption).
        own_position: Vec2,
        /// A uniform `[0, 1)` sample drawn by the dispatcher for this hear
        /// event (randomized schemes consume it; others ignore it, and a
        /// trace of them reads it back as zero, as it does the positions
        /// of a scheme that reads none).
        random_unit: f64,
        /// Oracle-mode neighbor view; `None` in HELLO mode (the models use
        /// their own tables) and when the scheme needs no neighbor info.
        oracle: Option<OracleView<'a>>,
    },
    /// `node`'s scheme-level assessment delay for `packet` elapsed.
    AssessmentFired {
        /// The assessing host.
        node: NodeId,
        /// The packet whose rebroadcast is due.
        packet: PacketId,
    },
    /// `node`'s MAC put its copy of `packet` on the air (terminal:
    /// "rebroadcast at most once").
    FrameSent {
        /// The transmitting host.
        node: NodeId,
        /// The packet that went on the air.
        packet: PacketId,
    },
    /// `node` left the network (gracefully, or by crashing when `crash`).
    Deactivate {
        /// The departing host.
        node: NodeId,
        /// `true` wipes the host's protocol memory (crash semantics).
        crash: bool,
    },
}

impl PureAction<'_> {
    /// The one host the action happens at, whose state it steps; `None`
    /// for a `HelloHeard`, which steps each of its hearers.
    pub(crate) fn node_mut(&mut self) -> Option<&mut NodeId> {
        match self {
            PureAction::Originate { node, .. }
            | PureAction::HelloPrepare { node }
            | PureAction::PacketHeard { node, .. }
            | PureAction::AssessmentFired { node, .. }
            | PureAction::FrameSent { node, .. }
            | PureAction::Deactivate { node, .. } => Some(node),
            PureAction::HelloHeard { .. } => None,
        }
    }
}

/// A side effect requested by a pure step, executed by the dispatcher.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Dynamic-interval churn response: if the host's next beacon is
    /// currently scheduled later than `target`, pull it forward.
    AccelerateHello {
        /// The host whose beacon may move.
        node: NodeId,
        /// The earliest instant the recomputed interval calls for.
        target: SimTime,
    },
    /// Queue this HELLO beacon to its sender's MAC and re-arm the beacon
    /// timer from its interval (with the dispatcher's jitter draw). Its
    /// list is the host's table ids when the scheme needs two-hop
    /// knowledge, empty otherwise.
    EmitHello(HelloPayload),
    /// S1 declined immediately: record the inhibit decision.
    InhibitFirstHear {
        /// The deciding host.
        node: NodeId,
        /// The packet.
        packet: PacketId,
        /// The criterion that suppressed.
        reason: Option<SuppressReason>,
    },
    /// S1 scheduled a rebroadcast: draw the 0–31 slot assessment delay and
    /// schedule the wakeup.
    ScheduleAssessment {
        /// The deciding host.
        node: NodeId,
        /// The packet.
        packet: PacketId,
    },
    /// S5 cancelled a pending assessment: cancel the host's wakeup for
    /// the packet.
    CancelAssessment {
        /// The deciding host.
        node: NodeId,
        /// The packet.
        packet: PacketId,
        /// The criterion that suppressed.
        reason: Option<SuppressReason>,
    },
    /// S5 cancelled a MAC-queued rebroadcast: cancel the host's frame
    /// carrying the packet.
    CancelQueued {
        /// The deciding host.
        node: NodeId,
        /// The packet.
        packet: PacketId,
        /// The criterion that suppressed.
        reason: Option<SuppressReason>,
    },
    /// S2 completed: hand the packet to the host's MAC.
    EnqueueRebroadcast {
        /// The rebroadcasting host.
        node: NodeId,
        /// The packet.
        packet: PacketId,
    },
}

/// All pure protocol state, advanced exclusively by [`step`](Self::step).
#[derive(Debug)]
pub struct PureModels {
    scheme: SchemeSpec,
    /// What the run's hosts keep: no table, tracker or published list
    /// unless `reads.hello` is `Some`.
    pub(crate) reads: Reads,
    /// Per-host packet progress, host-indexed.
    ledgers: Vec<PacketLedger>,
    /// Per-host HELLO-derived neighbor tables, host-indexed (empty when
    /// the run sends no HELLOs): two-hop lists under a two-hop view,
    /// count-only under a count.
    tables: Vec<NeighborTable>,
    /// The neighbor list each host last emitted, host-indexed: a beacon
    /// reuses it while the host's table ids are unchanged, and its frame
    /// and every table that hears it share it. A cache, never encoded:
    /// reuse is decided on equal content, so what a slot holds only
    /// decides whether a list is allocated. A resume leaves in each slot
    /// the last list it restored for that sender
    /// ([`publish_restored`](Self::publish_restored)).
    published: Vec<Rc<[NodeId]>>,
    /// Per-host neighborhood-variation trackers, host-indexed: kept only
    /// under the dynamic hello interval, their one reader, and empty
    /// otherwise.
    trackers: Vec<VariationTracker>,
    /// Scheme decisions tallied as the pure transitions make them.
    suppression: SuppressionCounts,
    /// Scratch for expiry sweeps (reused across steps so the hot path
    /// does not allocate).
    scratch_changes: Vec<MembershipChange>,
}

impl PureModels {
    /// Fresh protocol state for every host in `cfg`.
    pub fn new(cfg: &SimConfig) -> Self {
        let mut models = Self::without_hosts(cfg);
        models.grow_to(cfg.hosts as usize);
        models
    }

    /// The models of `cfg` with no per-host state yet: replay adds it as
    /// hosts act ([`grow_to`](Self::grow_to)), never from a header's count.
    pub(crate) fn without_hosts(cfg: &SimConfig) -> Self {
        PureModels {
            scheme: cfg.scheme.clone(),
            reads: cfg.reads(),
            ledgers: Vec::new(),
            tables: Vec::new(),
            published: Vec::new(),
            trackers: Vec::new(),
            suppression: SuppressionCounts::default(),
            scratch_changes: Vec::new(),
        }
    }

    /// Gives hosts `0..hosts` fresh protocol state where they have none:
    /// a ledger, and the HELLO state its readers need when the run sends
    /// HELLOs.
    pub(crate) fn grow_to(&mut self, hosts: usize) {
        if hosts > self.ledgers.len() {
            self.ledgers.resize_with(hosts, PacketLedger::new);
            if let Some(policy) = self.reads.hello {
                let table: fn() -> NeighborTable = match self.reads.view {
                    View::TwoHop => NeighborTable::new,
                    _ => NeighborTable::count_only,
                };
                self.tables.resize_with(hosts, table);
                self.published.resize_with(hosts, Rc::default);
                if policy.reads_variation() {
                    self.trackers.resize_with(hosts, VariationTracker::new);
                }
            }
        }
    }

    /// Advances the protocol state by one action, appending the requested
    /// side effects to `fx` in execution order.
    ///
    /// This is the *only* mutator of the pure state, and it is effect-free
    /// itself: no RNG, no event queue, no medium.
    pub fn step(&mut self, now: SimTime, action: &PureAction<'_>, fx: &mut Vec<Effect>) {
        match *action {
            PureAction::Originate { node, packet } => {
                self.ledgers[node.index()].mark_source(packet.seq);
            }
            PureAction::HelloPrepare { node } => {
                self.expire_neighbors(node, now, fx);
                let policy = self.reads.hello.expect("hello timer fired without HELLOs");
                let i = node.index();
                let count = self.tables[i].neighbor_count();
                let interval = policy.current_interval(self.trackers.get_mut(i), count, now);
                // One allocation per changed list, shared by every hearer.
                let (ids, last) = (self.tables[i].neighbor_ids(), &mut self.published[i]);
                if self.reads.view == View::TwoHop && **last != *ids {
                    *last = ids.into();
                }
                fx.push(Effect::EmitHello(HelloPayload {
                    sender: node,
                    interval,
                    neighbors: Rc::clone(last),
                }));
            }
            PureAction::HelloHeard {
                hearers,
                sender,
                interval,
                neighbors,
            } => {
                // Each hearer in turn, as if its copy were an action.
                for &node in hearers {
                    self.expire_neighbors(node, now, fx);
                    let i = node.index();
                    if self.tables[i]
                        .record_shared(sender, now, interval, neighbors)
                        .is_some()
                    {
                        if let Some(tracker) = self.trackers.get_mut(i) {
                            tracker.record_change(now);
                        }
                        self.push_accelerate(node, now, fx);
                    }
                }
            }
            PureAction::PacketHeard {
                node,
                packet,
                sender,
                sender_position,
                own_position,
                random_unit,
                oracle,
            } => {
                self.packet_heard(
                    node,
                    packet,
                    sender,
                    sender_position,
                    own_position,
                    random_unit,
                    oracle,
                    now,
                    fx,
                );
            }
            PureAction::AssessmentFired { node, packet } => {
                let i = node.index();
                match self.ledgers[i].take_active(packet.seq) {
                    ActivePacket::Assessing(state) => {
                        // S2 continued: the dispatcher submits to the MAC.
                        self.ledgers[i].set_active(packet.seq, ActivePacket::Queued(state));
                        fx.push(Effect::EnqueueRebroadcast { node, packet });
                    }
                    other => unreachable!("assessment fired in state {other:?}"),
                }
            }
            PureAction::FrameSent { node, packet } => {
                // On the air: no longer cancellable.
                self.ledgers[node.index()].mark_done(packet.seq);
            }
            PureAction::Deactivate { node, crash } => {
                let i = node.index();
                // The dispatcher cancels the host's wakeups and sweeps its
                // MAC queue itself.
                self.ledgers[i].abandon_active();
                if crash {
                    // A crash loses everything above the radio, in place;
                    // the table keeps its lifetime totals. A graceful leave
                    // keeps the host's memory for its return.
                    if let Some(table) = self.tables.get_mut(i) {
                        table.clear();
                    }
                    if let Some(tracker) = self.trackers.get_mut(i) {
                        *tracker = VariationTracker::new();
                    }
                    self.ledgers[i] = PacketLedger::new();
                }
            }
        }
    }

    /// Why `action` cannot follow the state so far, or `None`: on these
    /// well-formed actions no world delivers, [`step`](Self::step) panics.
    /// (A second `Originate` of one packet never decodes: each issues the
    /// next `seq`.)
    pub(crate) fn illegal(&mut self, action: &PureAction<'_>) -> Option<&'static str> {
        let PureAction::AssessmentFired { node, packet } = *action else {
            return None;
        };
        match self.ledgers[node.index()].view(packet.seq) {
            PacketView::Active(ActivePacket::Assessing(_)) => None,
            _ => Some("AssessmentFired at a host not assessing the packet"),
        }
    }

    /// The handle a restored table keeps on `sender`'s two-hop list, shared
    /// as a live HELLO's is — except that a list `sender` did not publish
    /// last is looked up among `restored[sender]`, the lists of `sender`
    /// this resume restored so far (host-indexed like `published`, added
    /// to when new). Tables that missed a sender's latest HELLO interleave
    /// by host with those that heard it, so comparing against `published`
    /// alone would copy a list again at every switch. A table holds one
    /// list per sender, so a sender's lists number at most the hosts.
    pub(crate) fn publish_restored(
        &mut self,
        sender: NodeId,
        neighbors: &[NodeId],
        restored: &mut [Vec<Rc<[NodeId]>>],
    ) -> Rc<[NodeId]> {
        let i = sender.index();
        let (Some(last), Some(lists)) = (self.published.get_mut(i), restored.get_mut(i)) else {
            return neighbors.into();
        };
        if **last != *neighbors {
            *last = match lists.iter().find(|list| ***list == *neighbors) {
                Some(list) => Rc::clone(list),
                None => {
                    let list: Rc<[NodeId]> = neighbors.into();
                    lists.push(Rc::clone(&list));
                    list
                }
            };
        }
        Rc::clone(last)
    }

    /// The S1/S4/S5 decision pipeline for one heard copy of a packet.
    #[allow(clippy::too_many_arguments)]
    fn packet_heard(
        &mut self,
        node: NodeId,
        packet: PacketId,
        sender: NodeId,
        sender_position: Vec2,
        own_position: Vec2,
        random_unit: f64,
        oracle: Option<OracleView<'_>>,
        now: SimTime,
        fx: &mut Vec<Effect>,
    ) {
        let i = node.index();
        if self.reads.hello.is_some() {
            // HELLO mode: the models' own tables are the source of truth.
            // Expiry runs for every copy, wanted or not — its tracker
            // updates, beacon accelerations and leave counts are observable.
            self.expire_neighbors(node, now, fx);
        }
        // Ledger first: three copies in four reach a host that is the
        // source or already finished with the packet ("rebroadcast at most
        // once"), and those need no neighbor view at all.
        if let PacketView::Source | PacketView::Done = self.ledgers[i].view(packet.seq) {
            return;
        }
        let (neighbor_count, neighbors, sender_neighbors): (_, &[NodeId], &[NodeId]) =
            match (oracle, self.reads.view) {
                (_, View::None) => (0, &[], &[]),
                (Some(view), _) => (view.neighbor_count, view.neighbors, view.sender_neighbors),
                (None, View::Count) => (self.tables[i].neighbor_count(), &[], &[]),
                (None, View::TwoHop) => {
                    let (own, known) = self.tables[i].coverage_view(sender);
                    (own.len(), own, known.unwrap_or_default())
                }
            };
        let ascending = |ids: &[NodeId]| ids.is_sorted_by(|a, b| a < b);
        debug_assert!(ascending(neighbors) && ascending(sender_neighbors));

        let ctx = HearContext {
            neighbor_count,
            own_position,
            sender,
            sender_position,
            neighbors,
            sender_neighbors,
            random_unit,
        };

        /// What the duplicate-hear consultation decided, captured so the
        /// ledger borrow is released before the tallies are updated.
        enum Outcome {
            Ignore,
            FirstHear,
            Cancel { queued: bool },
        }
        let scheme = &self.scheme;
        let outcome = match self.ledgers[i].view(packet.seq) {
            PacketView::Unheard => Outcome::FirstHear,
            PacketView::Source | PacketView::Done => unreachable!("settled above"),
            PacketView::Active(active) => {
                let (state, queued) = match active {
                    ActivePacket::Assessing(state) => (state, false),
                    ActivePacket::Queued(state) => (state, true),
                };
                match scheme.duplicate_hear(state, &ctx) {
                    DuplicateDecision::Cancel => Outcome::Cancel { queued },
                    DuplicateDecision::Keep => Outcome::Ignore,
                }
            }
        };

        let reason = scheme.suppress_reason();
        match outcome {
            Outcome::Ignore => {}
            Outcome::FirstHear => {
                // S1: first copy.
                match scheme.first_hear(&ctx) {
                    (FirstDecision::Inhibit, _) => {
                        self.suppression.inhibited_first_hear += 1;
                        self.suppression.record_reason(reason);
                        self.ledgers[i].mark_done(packet.seq);
                        fx.push(Effect::InhibitFirstHear {
                            node,
                            packet,
                            reason,
                        });
                    }
                    (FirstDecision::Schedule, state) => {
                        // S2: the dispatcher draws the 0–31 slot delay and
                        // schedules the wakeup.
                        self.suppression.scheduled += 1;
                        self.ledgers[i].set_active(packet.seq, ActivePacket::Assessing(state));
                        fx.push(Effect::ScheduleAssessment { node, packet });
                    }
                }
            }
            Outcome::Cancel { queued } => {
                self.suppression.cancelled += 1;
                self.suppression.record_reason(reason);
                self.ledgers[i].mark_done(packet.seq);
                fx.push(if queued {
                    Effect::CancelQueued {
                        node,
                        packet,
                        reason,
                    }
                } else {
                    Effect::CancelAssessment {
                        node,
                        packet,
                        reason,
                    }
                });
            }
        }
    }

    /// Expires stale neighbors, feeding leave events to the variation
    /// tracker where the host keeps one; churn under the dynamic hello
    /// policy may accelerate the host's beacon.
    fn expire_neighbors(&mut self, node: NodeId, now: SimTime, fx: &mut Vec<Effect>) {
        let i = node.index();
        self.scratch_changes.clear();
        self.tables[i].expire_into(now, &mut self.scratch_changes);
        let leaves = self.scratch_changes.len();
        if let Some(tracker) = self.trackers.get_mut(i) {
            for _ in 0..leaves {
                tracker.record_change(now);
            }
        }
        if leaves > 0 {
            self.push_accelerate(node, now, fx);
        }
    }

    /// Under the dynamic hello policy, recomputes the host's interval from
    /// the live variation and asks the dispatcher to pull the beacon
    /// forward if it now fires too late. (The paper notes "each host's
    /// hello interval may change dynamically".)
    fn push_accelerate(&mut self, node: NodeId, now: SimTime, fx: &mut Vec<Effect>) {
        let Some(policy @ HelloIntervalPolicy::Dynamic(_)) = self.reads.hello else {
            return;
        };
        let i = node.index();
        let count = self.tables[i].neighbor_count();
        let interval = policy.current_interval(self.trackers.get_mut(i), count, now);
        fx.push(Effect::AccelerateHello {
            node,
            target: now + interval,
        });
    }

    /// Scheme decisions tallied so far.
    pub fn suppression(&self) -> SuppressionCounts {
        self.suppression
    }

    /// Lifetime neighbor-table `(joins, leaves)` summed over every host's
    /// table (a crash clears a table but keeps its totals).
    pub fn net_totals(&self) -> (u64, u64) {
        self.tables.iter().fold((0, 0), |(j, l), table| {
            (j + table.join_count(), l + table.leave_count())
        })
    }

    /// The mutable protocol state a world snapshot must carry: per-host
    /// ledgers, neighbor tables, variation trackers (none under a fixed
    /// hello interval), and the suppression tally. Everything else in
    /// `PureModels` is config-derived, scratch or the `published` cache.
    pub(crate) fn snapshot_parts(
        &self,
    ) -> (
        &[PacketLedger],
        &[NeighborTable],
        &[VariationTracker],
        SuppressionCounts,
    ) {
        (
            &self.ledgers,
            &self.tables,
            &self.trackers,
            self.suppression,
        )
    }

    /// Overwrites the mutable protocol state when restoring from a world
    /// snapshot. The receiver must have been built from the same config.
    pub(crate) fn restore_parts(
        &mut self,
        ledgers: Vec<PacketLedger>,
        tables: Vec<NeighborTable>,
        trackers: Vec<VariationTracker>,
        suppression: SuppressionCounts,
    ) {
        self.ledgers = ledgers;
        self.tables = tables;
        self.trackers = trackers;
        self.suppression = suppression;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use manet_testkit::prop_check;

    fn cfg(scheme: SchemeSpec) -> SimConfig {
        SimConfig::builder(1, scheme).hosts(4).broadcasts(1).build()
    }

    /// HELLO handling one hearer at a time, written against the public
    /// calls of `NeighborTable` and `VariationTracker` alone: each hearer
    /// expires its table, then records the beacon; a leave or a join
    /// feeds its tracker and, under the dynamic interval, asks for an
    /// earlier beacon.
    struct PerHearer {
        policy: HelloIntervalPolicy,
        two_hop: bool,
        tables: Vec<NeighborTable>,
        trackers: Vec<VariationTracker>,
        published: Vec<Vec<NodeId>>,
    }

    impl PerHearer {
        fn accelerate(&mut self, node: NodeId, now: SimTime, fx: &mut Vec<Effect>) {
            if let HelloIntervalPolicy::Dynamic(params) = self.policy {
                let i = node.index();
                let count = self.tables[i].neighbor_count();
                let target = now + params.interval_for(self.trackers[i].variation(now, count));
                fx.push(Effect::AccelerateHello { node, target });
            }
        }

        fn expire(&mut self, node: NodeId, now: SimTime, fx: &mut Vec<Effect>) {
            let mut leaves = Vec::new();
            self.tables[node.index()].expire_into(now, &mut leaves);
            if self.policy.reads_variation() {
                for _ in &leaves {
                    self.trackers[node.index()].record_change(now);
                }
            }
            if !leaves.is_empty() {
                self.accelerate(node, now, fx);
            }
        }

        fn hear(&mut self, node: NodeId, hello: &HelloPayload, now: SimTime, fx: &mut Vec<Effect>) {
            self.expire(node, now, fx);
            let table = &mut self.tables[node.index()];
            if table
                .record_hello(hello.sender, now, hello.interval, &hello.neighbors)
                .is_some()
            {
                if self.policy.reads_variation() {
                    self.trackers[node.index()].record_change(now);
                }
                self.accelerate(node, now, fx);
            }
        }

        fn prepare(&mut self, node: NodeId, now: SimTime, fx: &mut Vec<Effect>) {
            self.expire(node, now, fx);
            let i = node.index();
            let tracker = self.policy.reads_variation().then(|| &mut self.trackers[i]);
            let interval =
                self.policy
                    .current_interval(tracker, self.tables[i].neighbor_count(), now);
            if self.two_hop {
                self.published[i] = self.tables[i].neighbor_ids().to_vec();
            }
            fx.push(Effect::EmitHello(HelloPayload {
                sender: node,
                interval,
                neighbors: self.published[i].as_slice().into(),
            }));
        }
    }

    prop_check! {
        /// One `HelloHeard` per beacon frame is the per-hearer handling of
        /// its hearers in turn: random frames from random senders heard by
        /// random subsets of the rest (the others lost it), on gaps that
        /// make neighbors flap, with beacon preparations and crashes in
        /// between, under neighbor coverage (two-hop lists) and the
        /// adaptive counter (count-only tables), fixed and dynamic
        /// intervals. After every action the effects, every table, the
        /// join/leave totals and every published list agree.
        fn a_frame_is_its_hearers_one_by_one(g, cases = 96) {
            let hosts = g.u32_in(2..14);
            let scheme = if g.bool() {
                SchemeSpec::NeighborCoverage
            } else {
                SchemeSpec::parse("ac").expect("a scheme spelling")
            };
            let policy = if g.bool() {
                HelloIntervalPolicy::Fixed(SimDuration::from_millis(g.u64_in(1..9) * 250))
            } else {
                HelloIntervalPolicy::Dynamic(manet_net::DynamicHelloParams::paper())
            };
            let config = SimConfig::builder(1, scheme.clone())
                .hosts(hosts)
                .neighbor_info(crate::config::NeighborInfo::Hello(policy))
                .build();
            let mut pure = PureModels::new(&config);
            let two_hop = scheme.view() == View::TwoHop;
            let table: fn() -> NeighborTable = if two_hop { NeighborTable::new } else { NeighborTable::count_only };
            let mut reference = PerHearer {
                policy,
                two_hop,
                tables: (0..hosts).map(|_| table()).collect(),
                trackers: vec![VariationTracker::new(); hosts as usize],
                published: vec![Vec::new(); hosts as usize],
            };
            let (mut fx, mut expected) = (Vec::new(), Vec::new());
            let mut now = SimTime::ZERO;
            for _ in 0..g.usize_in(1..120) {
                now += SimDuration::from_millis(g.u64_in(0..1_500));
                let node = NodeId::new(g.u32_in(0..hosts));
                fx.clear();
                expected.clear();
                match g.u32_in(0..10) {
                    0..=6 => {
                        let others = (0..hosts).filter(|&h| h != node.index() as u32);
                        let hearers: Vec<NodeId> = others.filter(|_| g.bool()).map(NodeId::new).collect();
                        if hearers.is_empty() {
                            continue;
                        }
                        let listed = g.u32_set(0..hosts, 0..hosts as usize);
                        let listed = listed.into_iter().filter(|&h| h != node.index() as u32);
                        let hello = HelloPayload {
                            sender: node,
                            interval: match policy {
                                HelloIntervalPolicy::Fixed(interval) => interval,
                                HelloIntervalPolicy::Dynamic(_) => SimDuration::from_millis(g.u64_in(1..11) * 500),
                            },
                            neighbors: listed.map(NodeId::new).collect(),
                        };
                        let action = PureAction::HelloHeard {
                            hearers: &hearers,
                            sender: hello.sender,
                            interval: hello.interval,
                            neighbors: &hello.neighbors,
                        };
                        pure.step(now, &action, &mut fx);
                        for &hearer in &hearers {
                            reference.hear(hearer, &hello, now, &mut expected);
                        }
                    }
                    7 | 8 => {
                        pure.step(now, &PureAction::HelloPrepare { node }, &mut fx);
                        reference.prepare(node, now, &mut expected);
                    }
                    _ => {
                        pure.step(now, &PureAction::Deactivate { node, crash: true }, &mut fx);
                        reference.tables[node.index()].clear();
                        reference.trackers[node.index()] = VariationTracker::new();
                    }
                }
                assert_eq!(fx, expected, "effects at {now}");
                let bytes = |table: &NeighborTable| {
                    let mut enc = manet_sim_engine::WireEncoder::new();
                    table.snapshot_into(&mut enc);
                    enc.into_bytes()
                };
                let (mut joins, mut leaves) = (0, 0);
                for (i, (got, want)) in pure.tables.iter().zip(&reference.tables).enumerate() {
                    assert_eq!(bytes(got), bytes(want), "host {i}'s table at {now}");
                    joins += want.join_count();
                    leaves += want.leave_count();
                }
                assert_eq!(pure.net_totals(), (joins, leaves));
                for (got, want) in pure.published.iter().zip(&reference.published) {
                    assert_eq!(&got[..], &want[..], "published at {now}");
                }
            }
        }
    }

    #[test]
    fn first_hear_schedules_under_flooding() {
        let mut pure = PureModels::new(&cfg(SchemeSpec::Flooding));
        let mut fx = Vec::new();
        let packet = PacketId::new(NodeId::new(0), 0);
        pure.step(
            SimTime::from_millis(1),
            &PureAction::PacketHeard {
                node: NodeId::new(1),
                packet,
                sender: NodeId::new(0),
                sender_position: Vec2::ZERO,
                own_position: Vec2::new(100.0, 0.0),
                random_unit: 0.5,
                oracle: None,
            },
            &mut fx,
        );
        assert_eq!(
            fx,
            vec![Effect::ScheduleAssessment {
                node: NodeId::new(1),
                packet
            }]
        );
        assert_eq!(pure.suppression().scheduled, 1);
    }

    #[test]
    fn counter_threshold_cancels_on_duplicates() {
        let mut pure = PureModels::new(&cfg(SchemeSpec::Counter(2)));
        let mut fx = Vec::new();
        let packet = PacketId::new(NodeId::new(0), 0);
        let hear = |sender: u32| PureAction::PacketHeard {
            node: NodeId::new(1),
            packet,
            sender: NodeId::new(sender),
            sender_position: Vec2::ZERO,
            own_position: Vec2::new(100.0, 0.0),
            random_unit: 0.5,
            oracle: None,
        };
        pure.step(SimTime::from_millis(1), &hear(0), &mut fx);
        fx.clear();
        pure.step(SimTime::from_millis(2), &hear(2), &mut fx);
        assert_eq!(
            fx,
            vec![Effect::CancelAssessment {
                node: NodeId::new(1),
                packet,
                reason: Some(SuppressReason::CounterThreshold),
            }]
        );
        // Terminal: a third copy is ignored.
        fx.clear();
        pure.step(SimTime::from_millis(3), &hear(3), &mut fx);
        assert!(fx.is_empty());
        assert_eq!(pure.suppression().cancelled, 1);
    }

    #[test]
    fn source_copies_are_ignored() {
        let mut pure = PureModels::new(&cfg(SchemeSpec::Flooding));
        let mut fx = Vec::new();
        let packet = PacketId::new(NodeId::new(0), 0);
        pure.step(
            SimTime::ZERO,
            &PureAction::Originate {
                node: NodeId::new(0),
                packet,
            },
            &mut fx,
        );
        pure.step(
            SimTime::from_millis(1),
            &PureAction::PacketHeard {
                node: NodeId::new(0),
                packet,
                sender: NodeId::new(2),
                sender_position: Vec2::ZERO,
                own_position: Vec2::ZERO,
                random_unit: 0.0,
                oracle: None,
            },
            &mut fx,
        );
        assert!(fx.is_empty());
    }

    #[test]
    fn hearers_of_one_hello_share_one_list() {
        let mut pure = PureModels::new(&cfg(SchemeSpec::NeighborCoverage));
        let sender = NodeId::new(0);
        let at = SimTime::from_millis;
        fn hello<'a>(
            hearers: &'a [NodeId],
            from: u32,
            neighbors: &'a Rc<[NodeId]>,
        ) -> PureAction<'a> {
            PureAction::HelloHeard {
                hearers,
                sender: NodeId::new(from),
                interval: SimDuration::from_secs(1),
                neighbors,
            }
        }
        // Prepares the sender's beacon; the list its `EmitHello` carries.
        let emit = |pure: &mut PureModels, ms| {
            let mut fx = Vec::new();
            pure.step(at(ms), &PureAction::HelloPrepare { node: sender }, &mut fx);
            match fx.as_slice() {
                [Effect::EmitHello(hello)] => Rc::clone(&hello.neighbors),
                other => panic!("{other:?}"),
            }
        };
        // Hears `list` from the sender at `node`: the table keeps the
        // frame's list itself (its slice is the `Rc`'s, so pointer
        // equality is `Rc::ptr_eq`).
        let hear = |pure: &mut PureModels, node: u32, list: &Rc<[NodeId]>, ms| {
            pure.step(
                at(ms),
                &hello(&[NodeId::new(node)], 0, list),
                &mut Vec::new(),
            );
            let held = pure.tables[node as usize].neighbors_of(sender);
            std::ptr::eq(held.expect("the sender was heard"), &**list)
        };
        let none = Rc::default();
        for from in [1, 2] {
            pure.step(at(0), &hello(&[sender], from, &none), &mut Vec::new());
        }
        let first = emit(&mut pure, 100);
        assert_eq!(*first, [NodeId::new(1), NodeId::new(2)]);
        for node in 1..4 {
            assert!(hear(&mut pure, node, &first, 200), "hearer {node}");
        }
        let again = emit(&mut pure, 900);
        assert!(Rc::ptr_eq(&first, &again), "unchanged re-beacon");
        assert!(hear(&mut pure, 3, &again, 1_000));
        pure.step(at(1_000), &hello(&[sender], 3, &none), &mut Vec::new());
        let changed = emit(&mut pure, 1_100);
        assert_eq!(changed.len(), 3);
        assert!(!Rc::ptr_eq(&first, &changed));
        assert!(hear(&mut pure, 1, &changed, 1_200));
    }

    #[test]
    fn crash_wipes_state_and_keeps_counters() {
        let mut pure = PureModels::new(&cfg(SchemeSpec::NeighborCoverage));
        let mut fx = Vec::new();
        let packet = PacketId::new(NodeId::new(0), 0);
        let hello = PureAction::HelloHeard {
            hearers: &[NodeId::new(1)],
            sender: NodeId::new(2),
            interval: SimDuration::from_secs(1),
            neighbors: &Rc::default(),
        };
        pure.step(SimTime::ZERO, &hello, &mut fx);
        // Two intervals pass without a HELLO: one leave.
        let prepare = PureAction::HelloPrepare {
            node: NodeId::new(1),
        };
        pure.step(SimTime::from_millis(2_001), &prepare, &mut fx);
        pure.step(SimTime::from_millis(2_002), &hello, &mut fx);
        assert_eq!(
            (pure.net_totals(), pure.tables[1].neighbor_count()),
            ((2, 1), 1)
        );
        pure.step(
            SimTime::from_millis(2_003),
            &PureAction::PacketHeard {
                node: NodeId::new(1),
                packet,
                sender: NodeId::new(0),
                sender_position: Vec2::ZERO,
                own_position: Vec2::new(100.0, 0.0),
                random_unit: 0.5,
                oracle: None,
            },
            &mut fx,
        );
        fx.clear();
        pure.step(
            SimTime::from_millis(2_004),
            &PureAction::Deactivate {
                node: NodeId::new(1),
                crash: true,
            },
            &mut fx,
        );
        assert!(fx.is_empty(), "{fx:?}");
        // The table is empty and its totals survive the wipe.
        assert_eq!(pure.tables[1].neighbor_count(), 0);
        assert_eq!(pure.net_totals(), (2, 1));
        // The wiped ledger hears the packet for the first time again, and
        // the empty table leaves it nobody to cover.
        fx.clear();
        pure.step(
            SimTime::from_millis(2_005),
            &PureAction::PacketHeard {
                node: NodeId::new(1),
                packet,
                sender: NodeId::new(0),
                sender_position: Vec2::ZERO,
                own_position: Vec2::new(100.0, 0.0),
                random_unit: 0.5,
                oracle: None,
            },
            &mut fx,
        );
        assert!(
            matches!(fx[..], [Effect::InhibitFirstHear { .. }]),
            "{fx:?}"
        );
    }

    /// Variation windows only under the dynamic interval, their one
    /// reader; two-hop lists only under neighbor coverage, theirs; no
    /// table and no window under oracle information. An adaptive-counter
    /// table hears a list and keeps none.
    #[test]
    fn hello_state_is_kept_only_where_it_is_read() {
        use crate::config::NeighborInfo;
        use crate::threshold::CounterThreshold;
        use manet_net::DynamicHelloParams;

        let with = |scheme, info| {
            let cfg = SimConfig::builder(1, scheme)
                .hosts(4)
                .broadcasts(1)
                .neighbor_info(info)
                .build();
            PureModels::new(&cfg)
        };
        let ac = SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended());
        let fixed = NeighborInfo::Hello(HelloIntervalPolicy::fixed_1s());
        let dynamic =
            NeighborInfo::Hello(HelloIntervalPolicy::Dynamic(DynamicHelloParams::paper()));
        for (scheme, info, kept) in [
            (SchemeSpec::NeighborCoverage, fixed.clone(), (4, 0)),
            (SchemeSpec::NeighborCoverage, dynamic.clone(), (4, 4)),
            (SchemeSpec::NeighborCoverage, NeighborInfo::Oracle, (0, 0)),
            (ac.clone(), fixed.clone(), (4, 0)),
            (ac.clone(), dynamic, (4, 4)),
            (ac.clone(), NeighborInfo::Oracle, (0, 0)),
        ] {
            let pure = with(scheme.clone(), info.clone());
            let (_, tables, held, _) = pure.snapshot_parts();
            assert_eq!((tables.len(), held.len()), kept, "{scheme:?} {info:?}");
        }
        let listed: Rc<[NodeId]> = Rc::from([NodeId::new(3)]);
        let two_hop = [
            (ac, &[][..], 1),
            (SchemeSpec::NeighborCoverage, &listed[..], 2),
        ];
        for (scheme, kept, handles) in two_hop {
            let mut pure = with(scheme, fixed.clone());
            let hello = PureAction::HelloHeard {
                hearers: &[NodeId::new(1)],
                sender: NodeId::new(2),
                interval: SimDuration::from_secs(1),
                neighbors: &listed,
            };
            pure.step(SimTime::ZERO, &hello, &mut Vec::new());
            assert_eq!(pure.tables[1].neighbors_of(NodeId::new(2)), Some(kept));
            assert_eq!(Rc::strong_count(&listed), handles);
        }
    }
}
