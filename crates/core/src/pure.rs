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
use manet_net::{HelloIntervalPolicy, MembershipChange, NeighborTable, VariationTracker};
use manet_phy::NodeId;
use manet_sim_engine::{SimDuration, SimTime};

use crate::config::{NeighborInfo, SimConfig};
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
/// the dispatcher's buffers live, the trace reader's
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
    /// `node` decoded a HELLO beacon.
    HelloHeard {
        /// The hearing host.
        node: NodeId,
        /// The beaconing host.
        sender: NodeId,
        /// The interval advertised in the beacon.
        interval: SimDuration,
        /// The sender's advertised one-hop neighbor list.
        neighbors: &'a [NodeId],
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
        /// event (randomized schemes consume it; others ignore it).
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
    /// The host the action happens at: the one whose state it steps.
    pub(crate) fn node_mut(&mut self) -> &mut NodeId {
        match self {
            PureAction::Originate { node, .. }
            | PureAction::HelloPrepare { node }
            | PureAction::HelloHeard { node, .. }
            | PureAction::PacketHeard { node, .. }
            | PureAction::AssessmentFired { node, .. }
            | PureAction::FrameSent { node, .. }
            | PureAction::Deactivate { node, .. } => node,
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
    /// Queue a HELLO beacon with the given interval to the host's MAC and
    /// re-arm the beacon timer (with the dispatcher's jitter draw).
    EmitHello {
        /// The beaconing host.
        node: NodeId,
        /// The interval to advertise (and re-arm from).
        interval: SimDuration,
    },
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
    /// A crashed host's neighbor-table counters, to be folded into the
    /// run totals before the table was wiped.
    RetireCounters {
        /// Lifetime joins of the wiped table.
        joins: u64,
        /// Lifetime leaves of the wiped table.
        leaves: u64,
    },
}

/// All pure protocol state, advanced exclusively by [`step`](Self::step).
#[derive(Debug)]
pub struct PureModels {
    scheme: SchemeSpec,
    hello_policy: Option<HelloIntervalPolicy>,
    needs_count: bool,
    needs_two_hop: bool,
    /// Per-host packet progress, host-indexed.
    ledgers: Vec<PacketLedger>,
    /// Per-host HELLO-derived neighbor tables, host-indexed.
    tables: Vec<NeighborTable>,
    /// The neighbor list each host last advertised, sender-indexed and
    /// shared by every table that heard it. A cache, never encoded, sized
    /// with the tables and never by a sender id (replay's ids are not its
    /// slots). A share is made on equal content, so what a slot holds only
    /// decides whether a list is copied, and a sender beyond the store is
    /// never shared. A resume leaves in each slot the last list it
    /// restored for that sender ([`publish_restored`](Self::publish_restored)).
    published: Vec<Rc<[NodeId]>>,
    /// Per-host neighborhood-variation trackers, host-indexed.
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
            hello_policy: match cfg.neighbor_info {
                NeighborInfo::Hello(policy) => Some(policy),
                NeighborInfo::Oracle => None,
            },
            // (HelloIntervalPolicy is Copy, so the match above copies out
            // of the borrowed config.)
            needs_count: cfg.scheme.needs_neighbor_count(),
            needs_two_hop: cfg.scheme.needs_two_hop_hellos(),
            ledgers: Vec::new(),
            tables: Vec::new(),
            published: Vec::new(),
            trackers: Vec::new(),
            suppression: SuppressionCounts::default(),
            scratch_changes: Vec::new(),
        }
    }

    /// Gives hosts `0..hosts` fresh protocol state where they have none.
    pub(crate) fn grow_to(&mut self, hosts: usize) {
        if hosts > self.ledgers.len() {
            self.ledgers.resize_with(hosts, PacketLedger::new);
            self.tables.resize_with(hosts, NeighborTable::new);
            self.published.resize_with(hosts, Rc::default);
            self.trackers.resize_with(hosts, VariationTracker::new);
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
                let policy = self.hello_policy.expect("hello timer fired in oracle mode");
                let i = node.index();
                let count = self.tables[i].neighbor_count();
                let interval = policy.current_interval(&mut self.trackers[i], count, now);
                fx.push(Effect::EmitHello { node, interval });
            }
            PureAction::HelloHeard {
                node,
                sender,
                interval,
                neighbors,
            } => {
                self.expire_neighbors(node, now, fx);
                // One allocation per changed list, shared by every hearer.
                let list = match self.published.get_mut(sender.index()) {
                    Some(last) => {
                        if **last != *neighbors {
                            *last = neighbors.into();
                        }
                        Rc::clone(last)
                    }
                    None => neighbors.into(),
                };
                let i = node.index();
                if self.tables[i]
                    .record_shared(sender, now, interval, list)
                    .is_some()
                {
                    self.trackers[i].record_change(now);
                    self.push_accelerate(node, now, fx);
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
                    // A crash loses everything above the radio; a graceful
                    // leave keeps the host's memory for its return.
                    let joins = self.tables[i].join_count();
                    let leaves = self.tables[i].leave_count();
                    self.tables[i] = NeighborTable::new();
                    self.trackers[i] = VariationTracker::new();
                    self.ledgers[i] = PacketLedger::new();
                    fx.push(Effect::RetireCounters { joins, leaves });
                }
            }
        }
    }

    /// Why `action` cannot follow the state so far, or `None`: on these
    /// well-formed actions no world delivers, [`step`](Self::step) panics.
    pub(crate) fn illegal(&mut self, action: &PureAction<'_>) -> Option<&'static str> {
        match *action {
            PureAction::Originate { node, packet } => {
                match self.ledgers[node.index()].view(packet.seq) {
                    PacketView::Unheard => None,
                    _ => Some("Originate of a packet its source already knows"),
                }
            }
            PureAction::AssessmentFired { node, packet } => {
                match self.ledgers[node.index()].view(packet.seq) {
                    PacketView::Active(ActivePacket::Assessing(_)) => None,
                    _ => Some("AssessmentFired at a host not assessing the packet"),
                }
            }
            _ => None,
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
        let wants_view = self.needs_count || self.needs_two_hop;
        if wants_view && oracle.is_none() {
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
        let (neighbor_count, neighbors, sender_neighbors): (_, &[NodeId], &[NodeId]) = match oracle
        {
            _ if !wants_view => (0, &[], &[]),
            Some(view) => (view.neighbor_count, view.neighbors, view.sender_neighbors),
            None if self.needs_two_hop => {
                let (own, known) = self.tables[i].coverage_view(sender);
                (own.len(), own, known.unwrap_or_default())
            }
            None => (self.tables[i].neighbor_count(), &[], &[]),
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
    /// tracker; churn under the dynamic hello policy may accelerate the
    /// host's beacon.
    fn expire_neighbors(&mut self, node: NodeId, now: SimTime, fx: &mut Vec<Effect>) {
        let i = node.index();
        self.scratch_changes.clear();
        self.tables[i].expire_into(now, &mut self.scratch_changes);
        let leaves = self.scratch_changes.len();
        for _ in 0..leaves {
            self.trackers[i].record_change(now);
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
        let Some(HelloIntervalPolicy::Dynamic(params)) = self.hello_policy else {
            return;
        };
        let i = node.index();
        let count = self.tables[i].neighbor_count();
        let interval = params.interval_for(self.trackers[i].variation(now, count));
        fx.push(Effect::AccelerateHello {
            node,
            target: now + interval,
        });
    }

    /// The host's current one-hop neighbor ids `N_x`, strictly ascending.
    pub fn neighbor_ids(&self, node: NodeId) -> &[NodeId] {
        self.tables[node.index()].neighbor_ids()
    }

    /// Scheme decisions tallied so far.
    pub fn suppression(&self) -> SuppressionCounts {
        self.suppression
    }

    /// Lifetime neighbor-table `(joins, leaves)` summed over all live
    /// tables (crashed tables are reported via [`Effect::RetireCounters`]).
    pub fn net_totals(&self) -> (u64, u64) {
        self.tables.iter().fold((0, 0), |(j, l), table| {
            (j + table.join_count(), l + table.leave_count())
        })
    }

    /// The mutable protocol state a world snapshot must carry: per-host
    /// ledgers, neighbor tables, variation trackers, and the suppression
    /// tally. Everything else in `PureModels` is config-derived, scratch
    /// or the `published` cache.
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

    /// The per-host neighbor tables, for tests that read what they hold.
    #[cfg(test)]
    pub(crate) fn tables_mut(&mut self) -> &mut [NeighborTable] {
        &mut self.tables
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

    fn cfg(scheme: SchemeSpec) -> SimConfig {
        SimConfig::builder(1, scheme).hosts(4).broadcasts(1).build()
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
        // Steps one HELLO at `node`; the address and length of the list
        // that hearer now holds for the sender.
        let mut hear = |node: u32, listed: &[u32], at_ms: u64| {
            let neighbors: Vec<NodeId> = listed.iter().copied().map(NodeId::new).collect();
            let action = PureAction::HelloHeard {
                node: NodeId::new(node),
                sender,
                interval: SimDuration::from_secs(1),
                neighbors: &neighbors,
            };
            pure.step(SimTime::from_millis(at_ms), &action, &mut Vec::new());
            let held = pure.tables[node as usize].neighbors_of(sender);
            held.expect("the sender was heard") as *const [NodeId]
        };
        let first = hear(1, &[1, 2, 3], 0);
        assert!(std::ptr::eq(first, hear(2, &[1, 2, 3], 0)), "two hearers");
        assert!(
            std::ptr::eq(first, hear(3, &[1, 2, 3], 900)),
            "unchanged re-beacon"
        );
        let changed = hear(1, &[2, 3], 1_000);
        assert!(!std::ptr::eq(first, changed));
        assert!(std::ptr::eq(changed, hear(2, &[2, 3], 1_000)));
    }

    #[test]
    fn crash_wipes_state_and_retires_counters() {
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
        fx.clear();
        pure.step(
            SimTime::from_millis(2),
            &PureAction::Deactivate {
                node: NodeId::new(1),
                crash: true,
            },
            &mut fx,
        );
        assert_eq!(
            fx,
            vec![Effect::RetireCounters {
                joins: 0,
                leaves: 0
            }]
        );
        // The wiped ledger treats the packet as unheard again.
        fx.clear();
        pure.step(
            SimTime::from_millis(3),
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
        assert!(matches!(fx[0], Effect::ScheduleAssessment { .. }));
    }
}
