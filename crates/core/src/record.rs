//! Action-level record/replay: the `MTRC` binary trace format.
//!
//! While a world runs with recording enabled, every [`PureAction`]
//! dispatched into the pure models — and every scheme *decision* the
//! resulting effects carried — is appended to a [`TraceWriter`]. The
//! resulting byte stream is self-contained: it opens with the whole
//! [`SimConfig`] of the run ([`SimConfig::encode`]), so a trace can be
//! replayed through a fresh [`PureModels`] with **no event queue, no
//! radio medium and no RNG at all** (see [`replay_decisions`]) — ideal
//! for fuzzing scheme logic against recorded runs. [`TraceFile`] reads
//! it in one forward pass, one borrowed [`TraceRecord`] at a time.
//!
//! # Wire format
//!
//! All fields are written in the vocabulary of [`WireEncoder`]. The
//! file layout is:
//!
//! ```text
//! magic "MTRC" | version u32 (=4)
//! config (SimConfig::encode: its text as one string; DESIGN.md §12)
//! records until end of input, each:
//!     record tag u8: 0 = action, 1 = decision
//!     at u64 (nanoseconds)
//!     payload (tag-specific, below)
//! ```
//!
//! Action payloads (`record tag 0`) begin with an action tag `u8`:
//!
//! | tag | action            | fields |
//! |-----|-------------------|--------|
//! | 0   | `Originate`       | node `u32`, packet |
//! | 1   | `HelloPrepare`    | node `u32` |
//! | 2   | `HelloHeard`      | node `u32`, sender `u32`, advertisement tag `u8`: 0 = interval `u64` + neighbor list, 1 = the sender's previous advertisement repeated |
//! | 3   | `PacketHeard`     | node `u32`, packet, sender `u32`, sender pos `2×f64`, own pos `2×f64`, random unit `f64`, oracle flag `u8` (+ count `u64`, two neighbor lists) |
//! | 4   | `AssessmentFired` | node `u32`, packet |
//! | 5   | `FrameSent`       | node `u32`, packet |
//! | 6   | `Deactivate`      | node `u32`, crash `u8` |
//!
//! Tags 1 and 2 are refused at the tag when the header's run sends no
//! HELLOs (oracle neighbor info, or a scheme that reads no neighbors).
//! A packet is `source u32, seq u32`; a neighbor list is a `u64` count
//! followed by that many `u32` ids, strictly ascending. Every node id must
//! be below the config's `hosts`, and every packet `seq` below the
//! number of `Originate` records up to and including the one it appears
//! in (live runs number packets 0, 1, 2 …). A sender's *advertisement* is
//! the (interval, list) pair its last tag-0 `HelloHeard` carried: one
//! HELLO is heard by every host in range, and the writer spells it out
//! only when it differs from what the trace last carried for that sender,
//! so a tag 1 before the sender's first tag 0 is refused, as are a hear
//! whose sender is its node and an advertisement listing its sender. Decision
//! payloads (`record tag 1`) are `node u32, packet, kind u8 (0 scheduled /
//! 1 inhibited / 2 cancelled), reason u8 (0 none / 1 counter / 2 coverage
//! / 3 neighbor-coverage / 4 probabilistic)`.
//!
//! Version 1 wrote every `HelloHeard`'s interval and list in full, and
//! version 2 opened with a replay slice of the config; both are refused
//! by name at the version's offset.

use std::collections::BTreeMap;
use std::rc::Rc;

use manet_geom::Vec2;
use manet_phy::NodeId;
use manet_sim_engine::{SimDuration, SimTime, WireDecoder, WireEncoder, WireError};

use crate::config::SimConfig;
use crate::ids::{decode_packet, encode_packet, PacketId};
use crate::pure::{Effect, OracleView, PureAction, PureModels};
use crate::trace::{DecisionKind, SuppressReason};

/// Magic bytes opening a trace file.
pub const TRACE_MAGIC: &[u8; 4] = b"MTRC";
/// Current trace format version.
pub const TRACE_VERSION: u32 = 4;

/// The (interval, list) each sender last advertised in a trace, keyed by
/// id — never sized by one, since a header may claim 2³² − 1 hosts.
type Advertisements = BTreeMap<NodeId, (SimDuration, Rc<[NodeId]>)>;

/// One scheme decision as recorded (and as re-derived on replay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionRecord {
    /// When the decision was made.
    pub at: SimTime,
    /// The deciding host.
    pub node: NodeId,
    /// The packet decided about.
    pub packet: PacketId,
    /// What was decided.
    pub kind: DecisionKind,
    /// The suppression criterion that fired, if any.
    pub reason: Option<SuppressReason>,
}

/// One trace record as [`TraceFile::next_record`] hands it out: an
/// action's neighbor lists are borrowed from the reader until it reads the
/// next record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceRecord<'a> {
    /// An action dispatched into the pure models.
    Action {
        /// Dispatch time.
        at: SimTime,
        /// The action.
        action: PureAction<'a>,
    },
    /// A scheme decision one of the action's effects carried.
    Decision(DecisionRecord),
}

/// Appends actions and decisions to an `MTRC` byte stream.
#[derive(Debug)]
pub struct TraceWriter {
    enc: WireEncoder,
    /// What each sender's next `HelloHeard` is compared against.
    advertised: Advertisements,
}

impl TraceWriter {
    /// Starts a trace for a run of `cfg`, writing the header and the
    /// configuration.
    pub fn new(cfg: &SimConfig) -> Self {
        let mut enc = WireEncoder::with_magic(TRACE_MAGIC, TRACE_VERSION);
        cfg.encode(&mut enc);
        TraceWriter {
            enc,
            advertised: BTreeMap::new(),
        }
    }

    /// Records one dispatched action.
    pub fn action(&mut self, at: SimTime, action: &PureAction<'_>) {
        self.enc.u8(0);
        self.enc.time(at);
        encode_action(&mut self.enc, &mut self.advertised, action);
    }

    /// Records one scheme decision.
    pub fn decision(&mut self, record: DecisionRecord) {
        self.enc.u8(1);
        self.enc.time(record.at);
        record.node.encode(&mut self.enc);
        encode_packet(&mut self.enc, record.packet);
        self.enc.u8(match record.kind {
            DecisionKind::Scheduled => 0,
            DecisionKind::InhibitedOnFirstHear => 1,
            DecisionKind::Cancelled => 2,
        });
        self.enc.u8(match record.reason {
            None => 0,
            Some(SuppressReason::CounterThreshold) => 1,
            Some(SuppressReason::CoverageThreshold) => 2,
            Some(SuppressReason::NeighborCoverage) => 3,
            Some(SuppressReason::Probabilistic) => 4,
        });
    }

    /// Records, in order, the scheme decisions among `effects`: what the
    /// pure step of the action just recorded, at `at`, asked for.
    pub fn decisions(&mut self, at: SimTime, effects: &[Effect]) {
        for record in effects.iter().filter_map(|effect| decision_of(at, effect)) {
            self.decision(record);
        }
    }

    /// Finishes the trace, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.enc.into_bytes()
    }
}

/// An `MTRC` trace, read in one forward pass: the run's configuration,
/// then each record in recording order from
/// [`next_record`](Self::next_record). Nothing is collected but each
/// sender's current advertisement, whose list its `HelloHeard`s share;
/// neighbor lists are decoded into two buffers the reader reuses.
#[derive(Debug)]
pub struct TraceFile<'a> {
    /// The configuration of the recorded run.
    pub config: SimConfig,
    dec: WireDecoder<'a>,
    /// `Originate`s read so far: live runs number packets 0, 1, 2 … per
    /// `Originate`, and replay sizes each ledger by the largest `seq`.
    originated: u32,
    /// What a tag-1 `HelloHeard` from each sender repeats.
    advertised: Advertisements,
    neighbors: Vec<NodeId>,
    sender_neighbors: Vec<NodeId>,
}

impl<'a> TraceFile<'a> {
    /// Reads the header of an `MTRC` byte stream (a malformed one is a
    /// positioned [`WireError`]); the records follow from
    /// [`next_record`](Self::next_record).
    pub fn open(bytes: &'a [u8]) -> Result<Self, WireError> {
        let mut dec = WireDecoder::new(bytes);
        let what = match dec.expect_magic(TRACE_MAGIC)? {
            TRACE_VERSION => None,
            1 => Some("trace version 1 is retired (a list per hearer); record the run again"),
            2 => Some("trace version 2 is retired (a replay-slice header); record the run again"),
            3 => Some("trace version 3 is retired (a binary config header); record the run again"),
            _ => Some("unsupported trace version"),
        };
        if let Some(what) = what {
            return Err(WireError { at: 4, what });
        }
        Ok(TraceFile {
            config: SimConfig::decode(&mut dec)?,
            dec,
            originated: 0,
            advertised: BTreeMap::new(),
            neighbors: Vec::new(),
            sender_neighbors: Vec::new(),
        })
    }

    /// Checks a whole `MTRC` byte stream by walking it to the end — the
    /// first malformed byte is a positioned [`WireError`] — and returns it
    /// opened at its first record.
    pub fn decode(bytes: &'a [u8]) -> Result<Self, WireError> {
        let mut file = Self::open(bytes)?;
        while file.next_record()?.is_some() {}
        Self::open(bytes)
    }

    /// The next record, `None` at the end of the input, or the positioned
    /// [`WireError`] of a malformed one. A lending read: the record borrows
    /// the reader, so take what you need from it before the next.
    pub fn next_record(&mut self) -> Result<Option<TraceRecord<'_>>, WireError> {
        if self.dec.is_empty() {
            return Ok(None);
        }
        let (tag, invalid) = self.dec.tag("invalid record tag")?;
        let at = self.dec.time()?;
        let (dec, hosts) = (&mut self.dec, self.config.hosts);
        Ok(Some(match tag {
            0 => TraceRecord::Action {
                at,
                action: self.action()?,
            },
            1 => TraceRecord::Decision(DecisionRecord {
                at,
                node: decode_node(dec, hosts)?,
                packet: decode_issued_packet(dec, self.originated)?,
                kind: {
                    let (tag, invalid) = dec.tag("invalid decision kind")?;
                    match tag {
                        0 => DecisionKind::Scheduled,
                        1 => DecisionKind::InhibitedOnFirstHear,
                        2 => DecisionKind::Cancelled,
                        _ => return Err(invalid),
                    }
                },
                reason: {
                    let (tag, invalid) = dec.tag("invalid suppress reason")?;
                    match tag {
                        0 => None,
                        1 => Some(SuppressReason::CounterThreshold),
                        2 => Some(SuppressReason::CoverageThreshold),
                        3 => Some(SuppressReason::NeighborCoverage),
                        4 => Some(SuppressReason::Probabilistic),
                        _ => return Err(invalid),
                    }
                },
            }),
            _ => return Err(invalid),
        }))
    }

    /// Reads one action, its neighbor lists into the reader's buffers; an
    /// `Originate` counts itself before its `seq` is checked.
    fn action(&mut self) -> Result<PureAction<'_>, WireError> {
        let (dec, hosts, originated) = (&mut self.dec, self.config.hosts, &mut self.originated);
        let id = move |dec: &mut WireDecoder<'_>| decode_node(dec, hosts);
        let (tag, invalid) = dec.tag("invalid action tag")?;
        Ok(match tag {
            0 => {
                *originated = originated.saturating_add(1);
                PureAction::Originate {
                    node: decode_node(dec, hosts)?,
                    packet: decode_issued_packet(dec, *originated)?,
                }
            }
            // A run without HELLOs keeps no neighbor tables.
            1 | 2 if self.config.hello_policy().is_none() => {
                let what = "a HELLO action in a run that sends no HELLOs";
                return Err(WireError { what, ..invalid });
            }
            1 => PureAction::HelloPrepare {
                node: decode_node(dec, hosts)?,
            },
            2 => {
                let node = decode_node(dec, hosts)?;
                let sender = decode_sender(dec, hosts, node)?;
                let (tag, invalid) = dec.tag("invalid advertisement tag")?;
                let (interval, neighbors) = match tag {
                    0 => {
                        let interval = dec.duration()?;
                        let at = dec.position();
                        let list = NodeId::decode_ascending(dec, &mut self.neighbors, id)?;
                        if list.binary_search(&sender).is_ok() {
                            let what = "a HELLO lists its own sender";
                            return Err(WireError { at, what });
                        }
                        let advertised = self.advertised.entry(sender).or_default();
                        *advertised = (interval, list.into());
                        (interval, &advertised.1)
                    }
                    1 => match self.advertised.get(&sender) {
                        Some((interval, list)) => (*interval, list),
                        None => {
                            let what = "HELLO repeats an advertisement its sender has not made";
                            return Err(WireError { what, ..invalid });
                        }
                    },
                    _ => return Err(invalid),
                };
                PureAction::HelloHeard {
                    node,
                    sender,
                    interval,
                    neighbors,
                }
            }
            3 => {
                let node = decode_node(dec, hosts)?;
                PureAction::PacketHeard {
                    node,
                    packet: decode_issued_packet(dec, *originated)?,
                    sender: decode_sender(dec, hosts, node)?,
                    sender_position: Vec2::new(dec.f64()?, dec.f64()?),
                    own_position: Vec2::new(dec.f64()?, dec.f64()?),
                    random_unit: dec.f64()?,
                    // An option, read by hand so the view can borrow the buffers.
                    oracle: if dec.bool()? {
                        Some(OracleView {
                            neighbor_count: dec.usize()?,
                            neighbors: NodeId::decode_ascending(dec, &mut self.neighbors, id)?,
                            sender_neighbors: NodeId::decode_ascending(
                                dec,
                                &mut self.sender_neighbors,
                                id,
                            )?,
                        })
                    } else {
                        None
                    },
                }
            }
            4 => PureAction::AssessmentFired {
                node: decode_node(dec, hosts)?,
                packet: decode_issued_packet(dec, *originated)?,
            },
            5 => PureAction::FrameSent {
                node: decode_node(dec, hosts)?,
                packet: decode_issued_packet(dec, *originated)?,
            },
            6 => PureAction::Deactivate {
                node: decode_node(dec, hosts)?,
                crash: dec.bool()?,
            },
            _ => return Err(invalid),
        })
    }
}

/// Why a pure-model replay rejected a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The byte stream itself was malformed.
    Wire(WireError),
    /// Replay re-derived a different decision stream than the recording.
    Mismatch {
        /// Index of the offending record, from 0 in recording order.
        record: usize,
        /// Human-readable description of the divergence.
        detail: String,
    },
    /// A well-formed action no world could deliver in the state replay
    /// had reached, such as an `AssessmentFired` at a host not assessing
    /// the packet.
    Illegal {
        /// Index of the offending record, from 0 in recording order.
        record: usize,
        /// Why the action cannot happen there.
        what: &'static str,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Wire(e) => write!(f, "trace decode failed: {e}"),
            ReplayError::Mismatch { record, detail } => {
                write!(f, "replay diverged at record {record}: {detail}")
            }
            ReplayError::Illegal { record, what } => {
                write!(f, "replay refused record {record}: {what}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<WireError> for ReplayError {
    fn from(e: WireError) -> Self {
        ReplayError::Wire(e)
    }
}

/// Totals from a successful pure-model replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplaySummary {
    /// Actions stepped through the pure models.
    pub actions: u64,
    /// Decisions re-derived and matched against the recording.
    pub decisions: u64,
}

/// Replays a recorded trace through a fresh [`PureModels`] **alone** — no
/// event queue, no medium, no RNG — and checks that the pure transitions
/// re-derive exactly the decision stream that was recorded live.
///
/// # Errors
///
/// [`ReplayError::Wire`] on malformed input; [`ReplayError::Illegal`] on
/// an action the state reached cannot take; [`ReplayError::Mismatch`]
/// when the re-derived decisions diverge from the recording (a scheme
/// logic bug, or a trace from different code).
pub fn replay_decisions(bytes: &[u8]) -> Result<ReplaySummary, ReplayError> {
    // Only a trace that decodes whole reaches `step`.
    let mut file = TraceFile::decode(bytes)?;
    let mut pure = PureModels::without_hosts(&file.config);
    let mut slots = std::collections::BTreeMap::new();
    let mut fx = Vec::new();
    let mut expected = std::collections::VecDeque::new();
    let mut summary = ReplaySummary::default();
    let mut index = 0;
    while let Some(record) = file.next_record()? {
        match record {
            TraceRecord::Action { at, mut action } => {
                if let Some(stale) = expected.front() {
                    return Err(ReplayError::Mismatch {
                        record: index,
                        detail: format!("recording is missing re-derived decision {stale:?}"),
                    });
                }
                fx.clear();
                // A host's state is the next slot the first time it acts, so
                // the records size it, not their ids (a header may claim
                // 2³² − 1 hosts); what its step derives is at its own id.
                let host = action.node_mut();
                let (id, next) = (*host, NodeId::new(slots.len() as u32));
                *host = *slots.entry(id).or_insert(next);
                pure.grow_to(slots.len());
                if let Some(what) = pure.illegal(&action) {
                    return Err(ReplayError::Illegal {
                        record: index,
                        what,
                    });
                }
                pure.step(at, &action, &mut fx);
                let derived = fx.iter().filter_map(|effect| decision_of(at, effect));
                expected.extend(derived.map(|d| DecisionRecord { node: id, ..d }));
                summary.actions += 1;
            }
            TraceRecord::Decision(recorded) => match expected.pop_front() {
                Some(derived) if derived == recorded => summary.decisions += 1,
                Some(derived) => {
                    return Err(ReplayError::Mismatch {
                        record: index,
                        detail: format!("recorded {recorded:?} but re-derived {derived:?}"),
                    })
                }
                None => {
                    return Err(ReplayError::Mismatch {
                        record: index,
                        detail: format!("recorded {recorded:?} but replay derived no decision"),
                    })
                }
            },
        }
        index += 1;
    }
    if let Some(stale) = expected.front() {
        return Err(ReplayError::Mismatch {
            record: index,
            detail: format!("recording ended before re-derived decision {stale:?}"),
        });
    }
    Ok(summary)
}

/// The decision an effect of the step at `at` carries, if it carries one.
fn decision_of(at: SimTime, effect: &Effect) -> Option<DecisionRecord> {
    let (node, packet, kind, reason) = match *effect {
        Effect::ScheduleAssessment { node, packet } => {
            (node, packet, DecisionKind::Scheduled, None)
        }
        Effect::InhibitFirstHear {
            node,
            packet,
            reason,
        } => (node, packet, DecisionKind::InhibitedOnFirstHear, reason),
        Effect::CancelAssessment {
            node,
            packet,
            reason,
            ..
        }
        | Effect::CancelQueued {
            node,
            packet,
            reason,
            ..
        } => (node, packet, DecisionKind::Cancelled, reason),
        _ => return None,
    };
    Some(DecisionRecord {
        at,
        node,
        packet,
        kind,
        reason,
    })
}

/// Reads a host id, refusing one outside the recorded population:
/// replay indexes per-host protocol state with it.
fn decode_node(dec: &mut WireDecoder<'_>, hosts: u32) -> Result<NodeId, WireError> {
    let at = dec.position();
    let node = NodeId::decode(dec)?;
    if node.index() >= hosts as usize {
        let what = "node id outside the recorded population";
        return Err(WireError { at, what });
    }
    Ok(node)
}

/// Reads the sender of a frame `node` heard, refusing `node` itself: a
/// medium never delivers a frame to its own source.
fn decode_sender(dec: &mut WireDecoder<'_>, hosts: u32, node: NodeId) -> Result<NodeId, WireError> {
    let at = dec.position();
    let sender = decode_node(dec, hosts)?;
    if sender == node {
        let what = "a frame heard by its own sender";
        return Err(WireError { at, what });
    }
    Ok(sender)
}

/// Reads a packet id, refusing a `seq` no `Originate` so far has issued:
/// replay grows a host's ledger to `seq + 1` entries.
fn decode_issued_packet(dec: &mut WireDecoder<'_>, originated: u32) -> Result<PacketId, WireError> {
    let at = dec.position();
    let packet = decode_packet(dec)?;
    if packet.seq >= originated {
        let what = "packet seq not issued by an earlier Originate";
        return Err(WireError { at, what });
    }
    Ok(packet)
}

fn encode_action(enc: &mut WireEncoder, advertised: &mut Advertisements, action: &PureAction<'_>) {
    match *action {
        PureAction::Originate { node, packet } => {
            enc.u8(0);
            node.encode(enc);
            encode_packet(enc, packet);
        }
        PureAction::HelloPrepare { node } => {
            enc.u8(1);
            node.encode(enc);
        }
        PureAction::HelloHeard {
            node,
            sender,
            interval,
            neighbors,
        } => {
            enc.u8(2);
            node.encode(enc);
            sender.encode(enc);
            // One frame's hearers share its list: the pointer test first.
            let same = |list: &Rc<[NodeId]>| Rc::ptr_eq(list, neighbors) || list == neighbors;
            let last = advertised.get(&sender);
            if last.is_some_and(|(last, list)| *last == interval && same(list)) {
                enc.u8(1);
            } else {
                enc.u8(0);
                enc.duration(interval);
                NodeId::encode_seq(enc, neighbors.iter().copied());
                advertised.insert(sender, (interval, Rc::clone(neighbors)));
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
            enc.u8(3);
            node.encode(enc);
            encode_packet(enc, packet);
            sender.encode(enc);
            enc.f64(sender_position.x);
            enc.f64(sender_position.y);
            enc.f64(own_position.x);
            enc.f64(own_position.y);
            enc.f64(random_unit);
            enc.option(oracle, |enc, view| {
                enc.usize(view.neighbor_count);
                NodeId::encode_seq(enc, view.neighbors.iter().copied());
                NodeId::encode_seq(enc, view.sender_neighbors.iter().copied());
            });
        }
        PureAction::AssessmentFired { node, packet } => {
            enc.u8(4);
            node.encode(enc);
            encode_packet(enc, packet);
        }
        PureAction::FrameSent { node, packet } => {
            enc.u8(5);
            node.encode(enc);
            encode_packet(enc, packet);
        }
        PureAction::Deactivate { node, crash } => {
            enc.u8(6);
            node.encode(enc);
            enc.bool(crash);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::SchemeSpec;

    fn cfg(scheme: SchemeSpec) -> SimConfig {
        SimConfig::builder(1, scheme).hosts(8).broadcasts(1).build()
    }

    #[test]
    fn actions_round_trip_through_the_wire() {
        let config = cfg(SchemeSpec::NeighborCoverage);
        let mut writer = TraceWriter::new(&config);
        let packet = PacketId::new(NodeId::new(0), 0);
        let neighbors: Rc<[NodeId]> = [NodeId::new(3), NodeId::new(5)].into();
        let sender_neighbors: Rc<[NodeId]> = [NodeId::new(1)].into();
        // Equal content in an allocation of its own.
        let same_again: Rc<[NodeId]> = sender_neighbors.to_vec().into();
        let hello = |neighbors| PureAction::HelloHeard {
            node: NodeId::new(1),
            sender: NodeId::new(2),
            interval: SimDuration::from_secs(1),
            neighbors,
        };
        let actions = [
            PureAction::Originate {
                node: NodeId::new(0),
                packet,
            },
            PureAction::HelloPrepare {
                node: NodeId::new(2),
            },
            hello(&neighbors),
            PureAction::PacketHeard {
                node: NodeId::new(4),
                packet,
                sender: NodeId::new(0),
                sender_position: Vec2::new(1.5, -2.0),
                own_position: Vec2::new(250.0, 300.25),
                random_unit: 0.625,
                oracle: Some(OracleView {
                    neighbor_count: 2,
                    neighbors: &neighbors,
                    sender_neighbors: &sender_neighbors,
                }),
            },
            // The reader's buffers are reused: a shorter list after a
            // longer one must not keep the tail.
            hello(&sender_neighbors),
            // Unchanged, so written as a repeat (tag 1).
            hello(&sender_neighbors),
            // Unchanged content, not the same list: a repeat too.
            hello(&same_again),
            PureAction::AssessmentFired {
                node: NodeId::new(4),
                packet,
            },
            PureAction::FrameSent {
                node: NodeId::new(4),
                packet,
            },
            PureAction::Deactivate {
                node: NodeId::new(5),
                crash: true,
            },
        ];
        // Each HELLO after the first of its list ends its record with
        // advertisement tag 1.
        let repeats = [false, false, true, true];
        let hellos = actions.iter().enumerate();
        let hellos = hellos.filter(|(_, a)| matches!(a, PureAction::HelloHeard { .. }));
        for ((i, action), repeat) in hellos.zip(repeats) {
            let mut prefix = TraceWriter::new(&config);
            for (at, action) in actions[..=i].iter().enumerate() {
                prefix.action(SimTime::from_millis(at as u64), action);
            }
            let bytes = prefix.into_bytes();
            assert_eq!(bytes.last() == Some(&1), repeat, "{action:?}");
        }
        for (i, action) in actions.iter().enumerate() {
            writer.action(SimTime::from_millis(i as u64), action);
        }
        let decision = DecisionRecord {
            at: SimTime::from_millis(3),
            node: NodeId::new(4),
            packet,
            kind: DecisionKind::Cancelled,
            reason: Some(SuppressReason::NeighborCoverage),
        };
        writer.decision(decision);

        let bytes = writer.into_bytes();
        let mut file = TraceFile::decode(&bytes).expect("decode");
        assert_eq!(file.config.scheme.label(), config.scheme.label());
        assert_eq!(file.config.hosts, 8);
        let mut decoded = Vec::new();
        for (i, action) in actions.iter().enumerate() {
            let at = SimTime::from_millis(i as u64);
            let record = file.next_record().expect("well-formed");
            assert_eq!(
                record,
                Some(TraceRecord::Action {
                    at,
                    action: *action
                })
            );
            if let Some(TraceRecord::Action {
                action: PureAction::HelloHeard { neighbors, .. },
                ..
            }) = record
            {
                decoded.push(Rc::clone(neighbors));
            }
        }
        // Replayed hearers of one advertisement share its list, as live
        // ones share their frame's.
        assert!(!Rc::ptr_eq(&decoded[0], &decoded[1]));
        assert!(Rc::ptr_eq(&decoded[1], &decoded[2]));
        assert!(Rc::ptr_eq(&decoded[1], &decoded[3]));
        let record = file.next_record().expect("well-formed");
        assert_eq!(record, Some(TraceRecord::Decision(decision)));
        assert_eq!(file.next_record(), Ok(None));
    }

    #[test]
    fn decode_rejects_corruption() {
        let config = cfg(SchemeSpec::Flooding);
        let writer = TraceWriter::new(&config);
        let mut bytes = writer.into_bytes();
        assert!(TraceFile::decode(&bytes[..3]).is_err(), "truncated magic");
        bytes.push(9); // invalid record tag
        assert!(TraceFile::decode(&bytes).is_err());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(TraceFile::decode(&wrong_magic).is_err());
        // Versions 1 to 3 are refused by name; any other unknown one
        // generically.
        for (version, retired) in [(1u32, true), (2, true), (3, true), (5, false)] {
            let mut old = bytes.clone();
            old[4..8].copy_from_slice(&version.to_le_bytes());
            let err = TraceFile::decode(&old).unwrap_err();
            assert_eq!(
                (err.at, err.what.contains("retired")),
                (4, retired),
                "{err}"
            );
        }

        // Records no world produces, each refused at the field that says
        // so. All three used to decode and replay.
        let (zero, one) = (NodeId::new(0), NodeId::new(1));
        let packet = PacketId::new(zero, 0);
        let hello = |node, neighbors| PureAction::HelloHeard {
            node,
            sender: one,
            interval: SimDuration::from_secs(1),
            neighbors,
        };
        let copy = PureAction::PacketHeard {
            node: zero,
            packet,
            sender: zero,
            sender_position: Vec2::ZERO,
            own_position: Vec2::ZERO,
            random_unit: 0.5,
            oracle: None,
        };
        let originate = PureAction::Originate { node: zero, packet };
        let coverage = cfg(SchemeSpec::NeighborCoverage);
        // Record tag, time, action tag and node precede a sender; an
        // advertisement tag and interval follow it. An `Originate` record
        // is 22 bytes.
        let sender = 1 + 8 + 1 + 4;
        let (empty, listed): (Rc<[NodeId]>, Rc<[NodeId]>) = (Rc::default(), [one].into());
        let own = "a frame heard by its own sender";
        let cases = [
            (&coverage, &[hello(one, &empty)][..], sender, own),
            (
                &coverage,
                &[hello(zero, &listed)],
                sender + 13,
                "a HELLO lists its own sender",
            ),
            (&config, &[originate, copy], 22 + sender + 8, own),
        ];
        for (config, actions, at, what) in cases {
            let mut writer = TraceWriter::new(config);
            let at = at + TraceWriter::new(config).into_bytes().len();
            for action in actions {
                writer.action(SimTime::ZERO, action);
            }
            let err = TraceFile::decode(&writer.into_bytes()).unwrap_err();
            assert_eq!(err, WireError { at, what });
        }
    }

    #[test]
    fn replay_verifies_a_hand_built_trace() {
        // Flooding: a heard packet is always Scheduled.
        let config = cfg(SchemeSpec::Flooding);
        let packet = PacketId::new(NodeId::new(0), 0);
        let originate = PureAction::Originate {
            node: NodeId::new(0),
            packet,
        };
        let mut writer = TraceWriter::new(&config);
        writer.action(SimTime::ZERO, &originate);
        let hear = PureAction::PacketHeard {
            node: NodeId::new(1),
            packet,
            sender: NodeId::new(0),
            sender_position: Vec2::ZERO,
            own_position: Vec2::new(100.0, 0.0),
            random_unit: 0.5,
            oracle: None,
        };
        writer.action(SimTime::from_millis(1), &hear);
        writer.decision(DecisionRecord {
            at: SimTime::from_millis(1),
            node: NodeId::new(1),
            packet,
            kind: DecisionKind::Scheduled,
            reason: None,
        });
        let bytes = writer.into_bytes();
        let summary = replay_decisions(&bytes).expect("replay");
        assert_eq!(summary.actions, 2);
        assert_eq!(summary.decisions, 1);

        // Tampering with the recorded decision must be detected.
        let mut writer = TraceWriter::new(&config);
        writer.action(SimTime::ZERO, &originate);
        writer.action(SimTime::from_millis(1), &hear);
        writer.decision(DecisionRecord {
            at: SimTime::from_millis(1),
            node: NodeId::new(1),
            packet,
            kind: DecisionKind::InhibitedOnFirstHear,
            reason: None,
        });
        let tampered = writer.into_bytes();
        assert!(matches!(
            replay_decisions(&tampered),
            Err(ReplayError::Mismatch { .. })
        ));
    }

    /// A node id outside the recorded population used to reach
    /// `PureModels::step` and index its per-host state out of bounds.
    #[test]
    fn node_ids_outside_the_population_are_refused() {
        let config = cfg(SchemeSpec::Flooding);
        let header = TraceWriter::new(&config).into_bytes().len();
        let packet = PacketId::new(NodeId::new(0), 0);
        let stranger = NodeId::new(config.hosts);

        let mut writer = TraceWriter::new(&config);
        writer.action(
            SimTime::ZERO,
            &PureAction::Originate {
                node: stranger,
                packet,
            },
        );
        let err = replay_decisions(&writer.into_bytes()).expect_err("host 8 of 8");
        // Record tag, time, action tag, then the id.
        let at = header + 1 + 8 + 1;
        let what = "node id outside the recorded population";
        assert_eq!(err, ReplayError::Wire(WireError { at, what }));

        let mut writer = TraceWriter::new(&config);
        writer.decision(DecisionRecord {
            at: SimTime::ZERO,
            node: stranger,
            packet,
            kind: DecisionKind::Scheduled,
            reason: None,
        });
        let err = TraceFile::decode(&writer.into_bytes()).expect_err("host 8 of 8");
        assert_eq!(err.at, header + 1 + 8);
    }
}
