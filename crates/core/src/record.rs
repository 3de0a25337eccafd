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
//! it in one forward pass, one borrowed [`TraceRecord`] at a time, and
//! [`first_divergence`] walks two of them in lockstep.
//!
//! # Wire format
//!
//! A trace records what replay reads, and nothing else. The file layout
//! is:
//!
//! ```text
//! magic "MTRC" | version u32 (=6)
//! config (SimConfig::encode: its text as one string; DESIGN.md §12)
//! records, each a tag byte:
//!     an action: tag, Δt (uvarint ns since the previous action; the
//!                first since zero), then the tag's fields (below)
//!     a decision: tag 0x80 | kind << 3 | reason, nothing else
//! the end: tag 0x7f, then the number of records before it; nothing after
//! ```
//!
//! Every integer below is a canonical LEB128
//! [`uvarint`](WireEncoder::uvarint); a position or coin is an `f64` bit
//! pattern.
//!
//! | tag | action                         | fields |
//! |-----|--------------------------------|--------|
//! | 0   | `Originate`                    | node, seq |
//! | 1   | `HelloPrepare`                 | node |
//! | 2   | `HelloHeard`, new advertisement | sender, hearers, interval (ns), list |
//! | 3   | `HelloHeard`, a repeat         | sender, hearers |
//! | 4   | `PacketHeard`                  | node, seq, sender (+ positions) (+ coin) |
//! | 5   | `PacketHeard`, oracle view     | as 4, then neighbor count and two lists |
//! | 6   | `AssessmentFired`              | node, seq |
//! | 7   | `FrameSent`                    | node, seq |
//! | 8   | `Deactivate`, graceful         | node |
//! | 9   | `Deactivate`, a crash          | node |
//!
//! * **Packets.** A packet is its `seq`; its source is the node of the
//!   `Originate` that issued it. Each `Originate` issues the next `seq`
//!   (live runs number packets 0, 1, 2 …), and every other `seq` must be
//!   one already issued.
//! * **Hears.** A `PacketHeard` carries the sender's and its own position
//!   (`2×f64` each) only when the header's run
//!   [reads positions](crate::Reads::positions), and its uniform sample
//!   (`f64`) only when it [reads the coin](crate::Reads::coin). Where a
//!   field is not written the reader hands the pure models zero: the
//!   scheme decides the same whatever the field holds.
//! * **Decisions.** A decision's kind (0 scheduled / 1 inhibited / 2
//!   cancelled) and reason (0 none / 1 counter / 2 coverage / 3
//!   neighbor-coverage / 4 probabilistic) are its whole record: its
//!   host, packet and time are those of the `PacketHeard` just recorded,
//!   and a decision that does not directly follow one is refused.
//! * **Views.** Tag 5 is refused at the tag unless the header's run
//!   [reads an oracle view](crate::Reads::oracle) (a scheme that reads
//!   neighbors, under oracle neighbor info), and tag 4 where it does.
//! * **HELLOs.** Tags 1 to 3 are refused at the tag when the header's run
//!   sends no HELLOs ([`Reads::hello`](crate::Reads::hello) is `None`).
//!   A `HelloHeard` is one beacon frame: its hearers are a count, then
//!   the first id, then each next id as its gap from the one before; at
//!   least one, strictly ascending (no gap is zero), and never the
//!   sender. A sender's *advertisement* is the (interval, list) pair
//!   its last tag-2 `HelloHeard` carried: the writer spells it out only
//!   when it differs from what the trace last carried for that sender, so
//!   a tag 3 before the sender's first tag 2 is refused, as is an
//!   advertisement listing its sender.
//! * **Lists.** A neighbor list is a count followed by that many ids,
//!   strictly ascending.
//! * **Ids.** Every node id names one of the config's `hosts`, and not
//!   the host it belongs to: a hear's sender is not its node, a HELLO's
//!   hearers and list are not its sender, and an oracle view's lists are
//!   not their host ([`NodeId::decode_uvarint`] refuses both at the id).
//! * **The end.** A trace closes with its end record, which counts the
//!   records before it, so a trace cut anywhere, even between two records,
//!   is refused, as is anything after the end.
//!
//! Versions 1 to 5 are refused by name at the version's offset (DESIGN.md
//! §12 has their history).

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use manet_geom::Vec2;
use manet_phy::NodeId;
use manet_sim_engine::{SimDuration, SimTime, WireDecoder, WireEncoder, WireError};

use crate::config::{Reads, SimConfig};
use crate::ids::PacketId;
use crate::pure::{Effect, OracleView, PureAction, PureModels};
use crate::trace::{DecisionKind, SuppressReason};

/// Magic bytes opening a trace file.
pub const TRACE_MAGIC: &[u8; 4] = b"MTRC";
/// Current trace format version.
pub const TRACE_VERSION: u32 = 6;

/// The action tags (the module table).
const ORIGINATE: u8 = 0;
const HELLO_PREPARE: u8 = 1;
const HELLO_ADVERTISED: u8 = 2;
const HELLO_REPEATED: u8 = 3;
const HEARD: u8 = 4;
const HEARD_ORACLE: u8 = 5;
const ASSESSMENT_FIRED: u8 = 6;
const FRAME_SENT: u8 = 7;
const LEFT: u8 = 8;
const CRASHED: u8 = 9;
/// The tag of the end record.
const END: u8 = 0x7f;
/// The high bit of a tag marks a decision.
const DECISION: u8 = 0x80;

/// The (interval, list) each sender last advertised in a trace, keyed by
/// id — never sized by one, since a header may claim 2³² − 1 hosts.
type Advertisements = BTreeMap<NodeId, (SimDuration, Rc<[NodeId]>)>;

/// A hear a decision may follow: its time, host and packet.
type Hear = (SimTime, NodeId, PacketId);

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
    reads: Reads,
    /// The previous action's time, which the next one's delta counts from.
    last: SimTime,
    /// The `PacketHeard` just written, which a decision may follow.
    hear: Option<Hear>,
    /// What each sender's next `HelloHeard` is compared against.
    advertised: Advertisements,
    /// Records written so far, which the end record counts.
    records: u64,
}

impl TraceWriter {
    /// Starts a trace for a run of `cfg`, writing the header and the
    /// configuration.
    pub fn new(cfg: &SimConfig) -> Self {
        let mut enc = WireEncoder::with_magic(TRACE_MAGIC, TRACE_VERSION);
        cfg.encode(&mut enc);
        TraceWriter {
            enc,
            reads: cfg.reads(),
            last: SimTime::ZERO,
            hear: None,
            advertised: BTreeMap::new(),
            records: 0,
        }
    }

    /// Records one dispatched action.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the previous action's time (a trace runs
    /// forward, as the event loop does), and on a `HelloHeard` whose
    /// hearers are none, out of order or include its sender.
    pub fn action(&mut self, at: SimTime, action: &PureAction<'_>) {
        assert!(
            at >= self.last,
            "MTRC action at {at} after one at {}",
            self.last
        );
        let delta = at.as_nanos() - self.last.as_nanos();
        self.last = at;
        self.hear = None;
        self.records += 1;
        let enc = &mut self.enc;
        // Tag, Δt and the acting host open every action.
        let head = |enc: &mut WireEncoder, tag, node: NodeId| {
            enc.u8(tag);
            enc.uvarint(delta);
            encode_id(enc, node);
        };
        match *action {
            PureAction::Originate { node, packet } => {
                head(enc, ORIGINATE, node);
                enc.uvarint(packet.seq.into());
            }
            PureAction::HelloPrepare { node } => head(enc, HELLO_PREPARE, node),
            PureAction::HelloHeard {
                hearers,
                sender,
                interval,
                neighbors,
            } => {
                assert!(
                    !hearers.is_empty()
                        && hearers.is_sorted_by(|a, b| a < b)
                        && !hearers.contains(&sender),
                    "an MTRC HELLO is heard by hosts ascending, not its sender: {hearers:?}"
                );
                // A frame's list is the one its sender last beaconed: the
                // pointer test first.
                let same = |list: &Rc<[NodeId]>| Rc::ptr_eq(list, neighbors) || list == neighbors;
                let last = self.advertised.get(&sender);
                let repeat = last.is_some_and(|(last, list)| *last == interval && same(list));
                head(
                    enc,
                    if repeat {
                        HELLO_REPEATED
                    } else {
                        HELLO_ADVERTISED
                    },
                    sender,
                );
                enc.uvarint(hearers.len() as u64);
                let mut previous = 0;
                for &hearer in hearers {
                    enc.uvarint(hearer.index() as u64 - previous);
                    previous = hearer.index() as u64;
                }
                if !repeat {
                    enc.uvarint(interval.as_nanos());
                    encode_list(enc, neighbors);
                    let advertisement = (interval, Rc::clone(neighbors));
                    self.advertised.insert(sender, advertisement);
                }
            }
            PureAction::PacketHeard {
                node,
                packet,
                sender,
                sender_position: from,
                own_position: to,
                random_unit,
                oracle,
            } => {
                head(
                    enc,
                    if oracle.is_some() {
                        HEARD_ORACLE
                    } else {
                        HEARD
                    },
                    node,
                );
                enc.uvarint(packet.seq.into());
                encode_id(enc, sender);
                if self.reads.positions {
                    for x in [from.x, from.y, to.x, to.y] {
                        enc.f64(x);
                    }
                }
                if self.reads.coin {
                    enc.f64(random_unit);
                }
                if let Some(view) = oracle {
                    enc.uvarint(view.neighbor_count as u64);
                    encode_list(enc, view.neighbors);
                    encode_list(enc, view.sender_neighbors);
                }
                self.hear = Some((at, node, packet));
            }
            PureAction::AssessmentFired { node, packet } => {
                head(enc, ASSESSMENT_FIRED, node);
                enc.uvarint(packet.seq.into());
            }
            PureAction::FrameSent { node, packet } => {
                head(enc, FRAME_SENT, node);
                enc.uvarint(packet.seq.into());
            }
            PureAction::Deactivate { node, crash } => {
                head(enc, if crash { CRASHED } else { LEFT }, node);
            }
        }
    }

    /// Records one scheme decision, a tag byte alone.
    ///
    /// # Panics
    ///
    /// Panics unless `record` decides about the `PacketHeard` just
    /// recorded, at its time, host and packet: the trace spells no other.
    pub fn decision(&mut self, record: DecisionRecord) {
        assert_eq!(
            self.hear.take(),
            Some((record.at, record.node, record.packet)),
            "an MTRC decision follows the PacketHeard it decides"
        );
        self.enc.u8(decision_tag(record.kind, record.reason));
        self.records += 1;
    }

    /// Records, in order, the scheme decisions among `effects`: what the
    /// pure step of the action just recorded, at `at`, asked for.
    pub fn decisions(&mut self, at: SimTime, effects: &[Effect]) {
        for record in effects.iter().filter_map(|effect| decision_of(at, effect)) {
            self.decision(record);
        }
    }

    /// Finishes the trace with its end record, returning the encoded
    /// bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.enc.u8(END);
        self.enc.uvarint(self.records);
        self.enc.into_bytes()
    }
}

/// An `MTRC` trace, read in one forward pass: the run's configuration,
/// then each record in recording order from
/// [`next_record`](Self::next_record). Nothing is collected but each
/// issued packet's source and each sender's current advertisement, whose
/// list its `HelloHeard`s share; hearers and neighbor lists are decoded
/// into buffers the reader reuses.
#[derive(Debug)]
pub struct TraceFile<'a> {
    /// The configuration of the recorded run.
    pub config: SimConfig,
    dec: WireDecoder<'a>,
    reads: Reads,
    /// The previous action's time.
    last: SimTime,
    /// The source of each packet issued so far, by `seq`: live runs number
    /// packets 0, 1, 2 … per `Originate`, and replay sizes each ledger by
    /// the largest `seq`.
    sources: Vec<NodeId>,
    /// The `PacketHeard` just read, which a decision may follow.
    hear: Option<Hear>,
    /// What a tag-3 `HelloHeard` from each sender repeats.
    advertised: Advertisements,
    /// Records read so far, which the end record must count.
    records: u64,
    /// Whether the end record has been read.
    ended: bool,
    hearers: Vec<NodeId>,
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
            4 => Some("trace version 4 is retired (fixed-width records); record the run again"),
            5 => Some("trace version 5 is retired (a record per hearer); record the run again"),
            _ => Some("unsupported trace version"),
        };
        if let Some(what) = what {
            return Err(WireError { at: 4, what });
        }
        let config = SimConfig::decode(&mut dec)?;
        Ok(TraceFile {
            reads: config.reads(),
            config,
            dec,
            last: SimTime::ZERO,
            sources: Vec::new(),
            hear: None,
            advertised: BTreeMap::new(),
            records: 0,
            ended: false,
            hearers: Vec::new(),
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

    /// The next record, `None` after the end record, or the positioned
    /// [`WireError`] of a malformed one. A lending read: the record borrows
    /// the reader, so take what you need from it before the next.
    pub fn next_record(&mut self) -> Result<Option<TraceRecord<'_>>, WireError> {
        if self.ended {
            return Ok(None);
        }
        if self.dec.is_empty() {
            let at = self.dec.position();
            let what = "a trace that ends without its end record";
            return Err(WireError { at, what });
        }
        let (tag, invalid) = self.dec.tag("invalid record tag")?;
        if tag == END {
            let at = self.dec.position();
            if self.dec.uvarint()? != self.records {
                let what = "an end record that miscounts the records before it";
                return Err(WireError { at, what });
            }
            let at = self.dec.position();
            if !self.dec.is_empty() {
                let what = "bytes after the end record";
                return Err(WireError { at, what });
            }
            self.ended = true;
            return Ok(None);
        }
        self.records += 1;
        let hear = self.hear.take();
        if tag & DECISION != 0 {
            let Some((at, node, packet)) = hear else {
                let what = "a decision that does not follow a PacketHeard";
                return Err(WireError { what, ..invalid });
            };
            let (kind, reason) =
                decision_of_tag(tag).map_err(|what| WireError { what, ..invalid })?;
            return Ok(Some(TraceRecord::Decision(DecisionRecord {
                at,
                node,
                packet,
                kind,
                reason,
            })));
        }
        match tag {
            HELLO_PREPARE..=HELLO_REPEATED if self.reads.hello.is_none() => {
                // A run without HELLOs keeps no neighbor tables.
                let what = "a HELLO action in a run that sends no HELLOs";
                return Err(WireError { what, ..invalid });
            }
            // A view rides on every hear of an oracle run, and on no other.
            HEARD if self.reads.oracle() => {
                let what = "a hear without the oracle view its run reads";
                return Err(WireError { what, ..invalid });
            }
            HEARD_ORACLE if !self.reads.oracle() => {
                let what = "an oracle view in a run that reads none";
                return Err(WireError { what, ..invalid });
            }
            ORIGINATE..=CRASHED => {}
            _ => return Err(invalid),
        }
        let at = self.dec.position();
        let delta = self.dec.uvarint()?;
        let Some(now) = self.last.as_nanos().checked_add(delta) else {
            let what = "a time delta past the end of the clock";
            return Err(WireError { at, what });
        };
        self.last = SimTime::from_nanos(now);
        let at = self.last;
        let action = self.action(tag)?;
        Ok(Some(TraceRecord::Action { at, action }))
    }

    /// Reads the fields of one action whose tag is known good, its
    /// hearers and neighbor lists into the reader's buffers; an
    /// `Originate` issues its `seq` before a `seq` is checked.
    fn action(&mut self, tag: u8) -> Result<PureAction<'_>, WireError> {
        let (dec, hosts, sources) = (&mut self.dec, self.config.hosts as usize, &mut self.sources);
        // The acting host: a HELLO's sender.
        let node_at = dec.position();
        let node = NodeId::decode_uvarint(dec, None, hosts, None)?;
        Ok(match tag {
            ORIGINATE => {
                let at = dec.position();
                let seq = dec.uvarint()?;
                let next = u32::try_from(sources.len()).ok();
                let Some(seq) = next.filter(|&next| u64::from(next) == seq) else {
                    let what = "an Originate that does not issue the next seq";
                    return Err(WireError { at, what });
                };
                sources.push(node);
                PureAction::Originate {
                    node,
                    packet: PacketId::new(node, seq),
                }
            }
            HELLO_PREPARE => PureAction::HelloPrepare { node },
            HELLO_ADVERTISED => {
                let sender = node;
                let hearers = decode_hearers(dec, hosts, sender, &mut self.hearers)?;
                let interval = SimDuration::from_nanos(dec.uvarint()?);
                let list = decode_list(dec, hosts, sender, &mut self.neighbors)?;
                let advertised = self.advertised.entry(sender).or_default();
                *advertised = (interval, list.into());
                PureAction::HelloHeard {
                    hearers,
                    sender,
                    interval,
                    neighbors: &advertised.1,
                }
            }
            HELLO_REPEATED => {
                let sender = node;
                let hearers = decode_hearers(dec, hosts, sender, &mut self.hearers)?;
                let Some((interval, neighbors)) = self.advertised.get(&sender) else {
                    let what = "HELLO repeats an advertisement its sender has not made";
                    return Err(WireError { at: node_at, what });
                };
                PureAction::HelloHeard {
                    hearers,
                    sender,
                    interval: *interval,
                    neighbors,
                }
            }
            HEARD | HEARD_ORACLE => {
                let packet = decode_issued_packet(dec, sources)?;
                let sender = NodeId::decode_uvarint(dec, None, hosts, Some(node))?;
                // What the scheme does not read is not written: zero.
                let (mut sender_position, mut own_position) = (Vec2::ZERO, Vec2::ZERO);
                if self.reads.positions {
                    sender_position = Vec2::new(dec.f64()?, dec.f64()?);
                    own_position = Vec2::new(dec.f64()?, dec.f64()?);
                }
                let random_unit = if self.reads.coin { dec.f64()? } else { 0.0 };
                let oracle = if tag == HEARD_ORACLE {
                    let at = dec.position();
                    let neighbor_count = usize::try_from(dec.uvarint()?).map_err(|_| {
                        let what = "usize overflow";
                        WireError { at, what }
                    })?;
                    let neighbors = decode_list(dec, hosts, node, &mut self.neighbors)?;
                    let theirs = decode_list(dec, hosts, sender, &mut self.sender_neighbors)?;
                    Some(OracleView {
                        neighbor_count,
                        neighbors,
                        sender_neighbors: theirs,
                    })
                } else {
                    None
                };
                self.hear = Some((self.last, node, packet));
                PureAction::PacketHeard {
                    node,
                    packet,
                    sender,
                    sender_position,
                    own_position,
                    random_unit,
                    oracle,
                }
            }
            ASSESSMENT_FIRED => PureAction::AssessmentFired {
                node,
                packet: decode_issued_packet(dec, sources)?,
            },
            FRAME_SENT => PureAction::FrameSent {
                node,
                packet: decode_issued_packet(dec, sources)?,
            },
            _ => PureAction::Deactivate {
                node,
                crash: tag == CRASHED,
            },
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

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
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
    let mut slots = BTreeMap::new();
    let mut hearers = Vec::new();
    let mut fx = Vec::new();
    let mut expected = VecDeque::new();
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
                let mut slot = |id: NodeId| {
                    let next = NodeId::new(slots.len() as u32);
                    *slots.entry(id).or_insert(next)
                };
                let id = action.node_mut().map(|host| {
                    let id = *host;
                    *host = slot(id);
                    id
                });
                if let PureAction::HelloHeard { hearers: heard, .. } = &mut action {
                    hearers.clear();
                    hearers.extend(heard.iter().map(|&hearer| slot(hearer)));
                    *heard = &hearers;
                }
                pure.grow_to(slots.len());
                if let Some(what) = pure.illegal(&action) {
                    return Err(ReplayError::Illegal {
                        record: index,
                        what,
                    });
                }
                pure.step(at, &action, &mut fx);
                // Only a hear decides, and it has one host.
                let derived = fx.iter().filter_map(|effect| decision_of(at, effect));
                expected.extend(derived.map(|d| DecisionRecord {
                    node: id.unwrap_or(d.node),
                    ..d
                }));
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

/// A hear or a decision two traces agree on; see
/// [`Divergence::last_agreed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agreed {
    /// Record `record` heard `packet` at `node` from `sender`.
    Heard {
        /// Index of the record, from 0 in recording order.
        record: usize,
        /// When the copy was heard.
        at: SimTime,
        /// The hearing host.
        node: NodeId,
        /// The packet heard.
        packet: PacketId,
        /// The host the copy was heard from.
        sender: NodeId,
    },
    /// Record `record` is `decision`.
    Decided {
        /// Index of the record, from 0 in recording order.
        record: usize,
        /// The decision.
        decision: DecisionRecord,
    },
}

/// Where two traces first part; see [`first_divergence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the first record that differs, from 0 in recording order.
    pub record: usize,
    /// Its time, in the first trace (in the second where the first ended).
    pub at: SimTime,
    /// The host it happens at; for a HELLO frame, the first hearer one
    /// trace lists and the other does not (its first, if they agree).
    pub node: NodeId,
    /// The packet it names, if it names one.
    pub packet: Option<PacketId>,
    /// The last hear or decision both traces hold at that host about that
    /// packet, if the record names one and there is any.
    pub last_agreed: Option<Agreed>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "record {} ({}, {}", self.record, self.at, self.node)?;
        if let Some(packet) = self.packet {
            write!(f, ", packet {packet}")?;
        }
        write!(f, ")")?;
        match self.last_agreed {
            None => write!(f, "; nothing agreed there before"),
            Some(Agreed::Heard {
                record, at, sender, ..
            }) => write!(
                f,
                "; last agreed: record {record}, heard from {sender} ({at})"
            ),
            Some(Agreed::Decided { record, decision }) => write!(
                f,
                "; last agreed: record {record}, {:?} ({:?})",
                decision.kind, decision.reason
            ),
        }
    }
}

/// Walks the records of two `MTRC` traces in lockstep and returns where
/// they first differ, or `None` when both hold the same records. Only the
/// records are compared: two runs of one seed under different headers (a
/// scheme each, say) part where their decisions do.
///
/// # Errors
///
/// The positioned [`WireError`] of the first trace that is malformed, the
/// first one's before the second's.
pub fn first_divergence(a: &[u8], b: &[u8]) -> Result<Option<Divergence>, WireError> {
    let (mut a, mut b) = (TraceFile::decode(a)?, TraceFile::decode(b)?);
    // The last agreed hear or decision per host and packet.
    let mut agreed = BTreeMap::new();
    let mut record = 0;
    loop {
        let (x, y) = (a.next_record()?, b.next_record()?);
        if x == y {
            match x {
                None => return Ok(None),
                Some(TraceRecord::Action {
                    at,
                    action:
                        PureAction::PacketHeard {
                            node,
                            packet,
                            sender,
                            ..
                        },
                }) => {
                    let heard = Agreed::Heard {
                        record,
                        at,
                        node,
                        packet,
                        sender,
                    };
                    agreed.insert((node, packet), heard);
                }
                Some(TraceRecord::Decision(decision)) => {
                    let decided = Agreed::Decided { record, decision };
                    agreed.insert((decision.node, decision.packet), decided);
                }
                Some(TraceRecord::Action { .. }) => {}
            }
            record += 1;
            continue;
        }
        let (this, other) = match x {
            Some(x) => (x, hearers_of(y)),
            None => (y.expect("unequal records are not both absent"), &[][..]),
        };
        let (at, node, packet) = match this {
            TraceRecord::Action { at, mut action } => {
                let node = match action.node_mut() {
                    Some(node) => *node,
                    None => parted_hearer(hearers_of(Some(this)), other),
                };
                (at, node, packet_of(&action))
            }
            TraceRecord::Decision(d) => (d.at, d.node, Some(d.packet)),
        };
        return Ok(Some(Divergence {
            record,
            at,
            node,
            packet,
            last_agreed: packet.and_then(|packet| agreed.get(&(node, packet)).copied()),
        }));
    }
}

/// The hearers of `record` if it is a `HelloHeard`, else none.
fn hearers_of<'r>(record: Option<TraceRecord<'r>>) -> &'r [NodeId] {
    match record {
        Some(TraceRecord::Action {
            action: PureAction::HelloHeard { hearers, .. },
            ..
        }) => hearers,
        _ => &[],
    }
}

/// Where hearers `a` part from `other`: the first host one frame lists
/// and the other does not (both ascend, so it is the smaller at the first
/// place they differ), or `a`'s first when they agree.
fn parted_hearer(a: &[NodeId], other: &[NodeId]) -> NodeId {
    let agreed = a.iter().zip(other).take_while(|(x, y)| x == y).count();
    match (a.get(agreed), other.get(agreed)) {
        (Some(&x), Some(&y)) => x.min(y),
        (Some(&x), None) => x,
        (None, Some(&y)) => y,
        (None, None) => a[0],
    }
}

/// The packet an action names, if it names one.
fn packet_of(action: &PureAction<'_>) -> Option<PacketId> {
    match *action {
        PureAction::Originate { packet, .. }
        | PureAction::PacketHeard { packet, .. }
        | PureAction::AssessmentFired { packet, .. }
        | PureAction::FrameSent { packet, .. } => Some(packet),
        PureAction::HelloPrepare { .. }
        | PureAction::HelloHeard { .. }
        | PureAction::Deactivate { .. } => None,
    }
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

/// A decision's record: the decision bit, its kind and its reason.
fn decision_tag(kind: DecisionKind, reason: Option<SuppressReason>) -> u8 {
    let kind = match kind {
        DecisionKind::Scheduled => 0,
        DecisionKind::InhibitedOnFirstHear => 1,
        DecisionKind::Cancelled => 2,
    };
    let reason = match reason {
        None => 0,
        Some(SuppressReason::CounterThreshold) => 1,
        Some(SuppressReason::CoverageThreshold) => 2,
        Some(SuppressReason::NeighborCoverage) => 3,
        Some(SuppressReason::Probabilistic) => 4,
    };
    DECISION | kind << 3 | reason
}

/// The kind and reason a [`decision_tag`] spells, or what it gets wrong.
fn decision_of_tag(tag: u8) -> Result<(DecisionKind, Option<SuppressReason>), &'static str> {
    let kind = match tag >> 3 & 0xf {
        0 => DecisionKind::Scheduled,
        1 => DecisionKind::InhibitedOnFirstHear,
        2 => DecisionKind::Cancelled,
        _ => return Err("invalid decision kind"),
    };
    let reason = match tag & 7 {
        0 => None,
        1 => Some(SuppressReason::CounterThreshold),
        2 => Some(SuppressReason::CoverageThreshold),
        3 => Some(SuppressReason::NeighborCoverage),
        4 => Some(SuppressReason::Probabilistic),
        _ => return Err("invalid suppress reason"),
    };
    Ok((kind, reason))
}

fn encode_id(enc: &mut WireEncoder, id: NodeId) {
    enc.uvarint(id.index() as u64);
}

fn encode_list(enc: &mut WireEncoder, ids: &[NodeId]) {
    enc.uvarint(ids.len() as u64);
    for &id in ids {
        encode_id(enc, id);
    }
}

/// Reads the hearers of a HELLO from `sender` into `buf`: a count, the
/// first id, then each next id as its gap from the one before. Refuses,
/// each at its own offset, no hearers or a count the input cannot hold
/// (each takes a byte at least), a zero gap (hearers strictly ascend, as
/// a medium lists its listeners) and an id [`NodeId::decode_uvarint`]
/// refuses, the sender's too. The buffer grows by pushes, never by the
/// count.
fn decode_hearers<'v>(
    dec: &mut WireDecoder<'_>,
    hosts: usize,
    sender: NodeId,
    buf: &'v mut Vec<NodeId>,
) -> Result<&'v [NodeId], WireError> {
    let at = dec.position();
    let count = dec.uvarint()?;
    if count == 0 {
        let what = "a HELLO heard by no host";
        return Err(WireError { at, what });
    }
    if count > dec.remaining() as u64 {
        let what = "sequence longer than the remaining input";
        return Err(WireError { at, what });
    }
    buf.clear();
    for _ in 0..count {
        let (at, last) = (dec.position(), buf.last().copied());
        let hearer = NodeId::decode_uvarint(dec, last, hosts, Some(sender))?;
        if last == Some(hearer) {
            let what = "HELLO hearers are not strictly ascending";
            return Err(WireError { at, what });
        }
        buf.push(hearer);
    }
    Ok(buf)
}

/// Reads a packet's `seq`, refusing one no `Originate` so far has issued
/// (replay grows a host's ledger to `seq + 1` entries); its source is the
/// issuing `Originate`'s node.
fn decode_issued_packet(
    dec: &mut WireDecoder<'_>,
    sources: &[NodeId],
) -> Result<PacketId, WireError> {
    let at = dec.position();
    let seq = dec.uvarint()?;
    match usize::try_from(seq).ok().and_then(|seq| sources.get(seq)) {
        Some(&source) => Ok(PacketId::new(source, seq as u32)),
        None => {
            let what = "packet seq not issued by an earlier Originate";
            Err(WireError { at, what })
        }
    }
}

/// Reads `owner`'s neighbor list into `buf`, refusing at the list's
/// offset a count the input cannot hold (an id takes a byte at least) and
/// a list that is not strictly ascending: every reader of a neighbor list
/// merges or searches it by id. The buffer grows by pushes, never by the
/// count.
fn decode_list<'v>(
    dec: &mut WireDecoder<'_>,
    hosts: usize,
    owner: NodeId,
    buf: &'v mut Vec<NodeId>,
) -> Result<&'v [NodeId], WireError> {
    let at = dec.position();
    let count = dec.uvarint()?;
    if count > dec.remaining() as u64 {
        let what = "sequence longer than the remaining input";
        return Err(WireError { at, what });
    }
    buf.clear();
    for _ in 0..count {
        let id = NodeId::decode_uvarint(dec, None, hosts, Some(owner))?;
        if buf.last().is_some_and(|&last| last >= id) {
            let what = "neighbor list is not strictly ascending";
            return Err(WireError { at, what });
        }
        buf.push(id);
    }
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::SchemeSpec;
    use manet_sim_engine::SimRng;

    fn cfg(scheme: SchemeSpec) -> SimConfig {
        SimConfig::builder(1, scheme).hosts(8).broadcasts(1).build()
    }

    /// `action` as a trace of a run that `reads` reads it back: positions
    /// and coin zero where the run does not read them.
    fn as_read<'a>(reads: &Reads, action: PureAction<'a>) -> PureAction<'a> {
        match action {
            PureAction::PacketHeard {
                node,
                packet,
                sender,
                sender_position,
                own_position,
                random_unit,
                oracle,
            } => {
                let positions = reads.positions;
                PureAction::PacketHeard {
                    node,
                    packet,
                    sender,
                    sender_position: if positions {
                        sender_position
                    } else {
                        Vec2::ZERO
                    },
                    own_position: if positions { own_position } else { Vec2::ZERO },
                    random_unit: if reads.coin { random_unit } else { 0.0 },
                    oracle,
                }
            }
            other => other,
        }
    }

    #[test]
    fn actions_round_trip_through_the_wire() {
        let packet = PacketId::new(NodeId::new(0), 0);
        let neighbors: Rc<[NodeId]> = [NodeId::new(3), NodeId::new(5)].into();
        let sender_neighbors: Rc<[NodeId]> = [NodeId::new(1)].into();
        // Equal content in an allocation of its own.
        let same_again: Rc<[NodeId]> = sender_neighbors.to_vec().into();
        let hearers = [NodeId::new(1), NodeId::new(3), NodeId::new(7)];
        let hello = |neighbors| PureAction::HelloHeard {
            hearers: &hearers,
            sender: NodeId::new(2),
            interval: SimDuration::from_secs(1),
            neighbors,
        };
        let heard = |oracle| PureAction::PacketHeard {
            node: NodeId::new(4),
            packet,
            sender: NodeId::new(0),
            sender_position: Vec2::new(1.5, -2.0),
            own_position: Vec2::new(250.0, 300.25),
            random_unit: 0.625,
            oracle,
        };
        let view = OracleView {
            neighbor_count: 2,
            neighbors: &neighbors,
            sender_neighbors: &sender_neighbors,
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
            heard(Some(view)),
            heard(None),
            // The reader's buffers are reused: a shorter list after a
            // longer one must not keep the tail.
            hello(&sender_neighbors),
            // Unchanged, so written as a repeat (tag 3).
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
            PureAction::Deactivate {
                node: NodeId::new(6),
                crash: false,
            },
        ];
        let decision = DecisionRecord {
            at: SimTime::ZERO,
            node: NodeId::new(4),
            packet,
            kind: DecisionKind::Cancelled,
            reason: Some(SuppressReason::NeighborCoverage),
        };
        // A scheme that reads neither positions nor the coin, one that
        // reads positions, one that reads the coin (and no neighbors, so
        // its run sends no HELLOs), and an oracle run, whose hears carry
        // a view.
        let oracle = SimConfig::builder(1, SchemeSpec::NeighborCoverage)
            .hosts(8)
            .broadcasts(1)
            .neighbor_info(crate::NeighborInfo::Oracle)
            .build();
        for config in [
            cfg(SchemeSpec::NeighborCoverage),
            cfg(SchemeSpec::AdaptiveLocation(
                crate::AreaThreshold::paper_recommended(),
            )),
            cfg(SchemeSpec::Probabilistic(0.5)),
            oracle,
        ] {
            let reads = config.reads();
            let hellos = reads.hello.is_some();
            let actions: Vec<_> = actions
                .iter()
                .filter(|a| match a {
                    PureAction::HelloHeard { .. } | PureAction::HelloPrepare { .. } => hellos,
                    PureAction::PacketHeard { oracle, .. } => oracle.is_some() == reads.oracle(),
                    _ => true,
                })
                .copied()
                .collect();
            // Each HELLO after the first of its list is a repeat: tag 3,
            // its record's first byte.
            let repeats = [false, false, true, true];
            let indexed = actions.iter().enumerate();
            let indexed = indexed.filter(|(_, a)| matches!(a, PureAction::HelloHeard { .. }));
            for ((i, action), repeat) in indexed.zip(repeats) {
                let mut prefix = TraceWriter::new(&config);
                for (at, action) in actions[..i].iter().enumerate() {
                    prefix.action(SimTime::from_millis(at as u64), action);
                }
                let start = prefix.enc.as_slice().len();
                prefix.action(SimTime::from_millis(i as u64), action);
                let tag = prefix.into_bytes()[start];
                assert_eq!(tag == HELLO_REPEATED, repeat, "{action:?}");
            }
            let mut writer = TraceWriter::new(&config);
            for (i, action) in actions.iter().enumerate() {
                writer.action(SimTime::from_millis(i as u64), action);
                if matches!(action, PureAction::PacketHeard { .. }) {
                    writer.decision(DecisionRecord {
                        at: SimTime::from_millis(i as u64),
                        ..decision
                    });
                }
            }

            let bytes = writer.into_bytes();
            let mut file = TraceFile::decode(&bytes).expect("decode");
            assert_eq!(file.config.scheme.label(), config.scheme.label());
            assert_eq!(file.config.hosts, 8);
            let mut decoded = Vec::new();
            for (i, action) in actions.iter().enumerate() {
                let at = SimTime::from_millis(i as u64);
                let record = file.next_record().expect("well-formed");
                let action = as_read(&reads, *action);
                assert_eq!(record, Some(TraceRecord::Action { at, action }));
                if let Some(TraceRecord::Action {
                    action: PureAction::HelloHeard { neighbors, .. },
                    ..
                }) = record
                {
                    decoded.push(Rc::clone(neighbors));
                }
                if matches!(action, PureAction::PacketHeard { .. }) {
                    let record = file.next_record().expect("well-formed");
                    let decision = DecisionRecord { at, ..decision };
                    assert_eq!(record, Some(TraceRecord::Decision(decision)));
                }
            }
            // Replayed hearers of one advertisement share its list, as live
            // ones share their frame's.
            if hellos {
                assert!(!Rc::ptr_eq(&decoded[0], &decoded[1]));
                assert!(Rc::ptr_eq(&decoded[1], &decoded[2]));
                assert!(Rc::ptr_eq(&decoded[1], &decoded[3]));
            }
            assert_eq!(file.next_record(), Ok(None));
        }
    }

    /// A hear costs what its scheme reads: six bytes of tag, Δt and ids
    /// here, 32 more for positions, 8 for the coin.
    #[test]
    fn a_hear_writes_only_what_its_scheme_reads() {
        let packet = PacketId::new(NodeId::new(0), 0);
        let heard = PureAction::PacketHeard {
            node: NodeId::new(1),
            packet,
            sender: NodeId::new(0),
            sender_position: Vec2::new(1.0, 2.0),
            own_position: Vec2::new(3.0, 4.0),
            random_unit: 0.25,
            oracle: None,
        };
        for (scheme, bytes) in [
            (SchemeSpec::Flooding, 6),
            (SchemeSpec::Counter(3), 6),
            (SchemeSpec::NeighborCoverage, 6),
            (SchemeSpec::Distance(10.0), 6 + 32),
            (SchemeSpec::Location(0.5), 6 + 32),
            (SchemeSpec::Probabilistic(0.5), 6 + 8),
        ] {
            let mut writer = TraceWriter::new(&cfg(scheme.clone()));
            writer.action(
                SimTime::ZERO,
                &PureAction::Originate {
                    node: NodeId::new(0),
                    packet,
                },
            );
            let start = writer.enc.as_slice().len();
            // Tag, Δt (1 µs: two bytes), node, seq, sender.
            writer.action(SimTime::from_micros(1), &heard);
            let written = writer.enc.as_slice().len() - start;
            assert_eq!(written, bytes, "{scheme:?}");
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let config = cfg(SchemeSpec::Flooding);
        let empty = TraceWriter::new(&config).into_bytes();
        assert!(TraceFile::decode(&empty).is_ok());
        assert!(TraceFile::decode(&empty[..3]).is_err(), "truncated magic");
        // An invalid record tag where the end record stood.
        let (header, end) = empty.split_at(empty.len() - 2);
        assert_eq!(end, [END, 0]);
        let bytes = [header, &[10]].concat();
        let err = TraceFile::decode(&bytes).unwrap_err();
        assert_eq!((err.at, err.what), (header.len(), "invalid record tag"));
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(TraceFile::decode(&wrong_magic).is_err());
        // Versions 1 to 5 are refused by name; any other unknown one
        // generically.
        let versions = [
            (1u32, true),
            (2, true),
            (3, true),
            (4, true),
            (5, true),
            (7, false),
        ];
        for (version, retired) in versions {
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
        let hello = |hearers, neighbors| PureAction::HelloHeard {
            hearers,
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
        // A HELLO's tag, Δt, sender, hearer count and one hearer take a
        // byte each here; an interval (five bytes for 1 s) follows them.
        // An `Originate` record is four bytes, and a hear's tag, Δt, node
        // and `seq` precede its sender.
        let listed: Rc<[NodeId]> = [one].into();
        let own = "host id names its owner";
        let body = |config: &SimConfig, actions: &[PureAction<'_>]| {
            let mut writer = TraceWriter::new(config);
            for action in actions {
                writer.action(SimTime::ZERO, action);
            }
            writer.into_bytes()[TraceWriter::new(config).into_bytes().len() - 2..].to_vec()
        };
        let cases = [
            // Host 1's HELLO heard by host 1: no writer spells it.
            (&coverage, vec![HELLO_REPEATED, 0, 1, 1, 1], 4, own),
            // The list's count precedes its one id.
            (
                &coverage,
                body(&coverage, &[hello(&[zero], &listed)]),
                5 + 5 + 1,
                own,
            ),
            (&config, body(&config, &[originate, copy]), 4 + 4, own),
        ];
        for (config, records, at, what) in cases {
            let header = TraceWriter::new(config).into_bytes();
            let header = &header[..header.len() - 2];
            let at = at + header.len();
            let err = TraceFile::decode(&[header, &records].concat()).unwrap_err();
            assert_eq!(err, WireError { at, what });
        }
    }

    /// Decision tags no writer spells: a second decision after one hear,
    /// and a kind or reason past the table (`hostile_bytes.rs` has the
    /// varint, clock and first-decision refusals).
    #[test]
    fn decision_tags_the_writer_never_spells_are_refused() {
        let config = cfg(SchemeSpec::Counter(3));
        let (zero, one) = (NodeId::new(0), NodeId::new(1));
        let packet = PacketId::new(zero, 0);
        let mut writer = TraceWriter::new(&config);
        writer.action(SimTime::ZERO, &PureAction::Originate { node: zero, packet });
        let heard = PureAction::PacketHeard {
            node: one,
            packet,
            sender: zero,
            sender_position: Vec2::ZERO,
            own_position: Vec2::ZERO,
            random_unit: 0.0,
            oracle: None,
        };
        writer.action(SimTime::ZERO, &heard);
        let heard = writer.into_bytes();
        // The two records, without their end.
        let heard = &heard[..heard.len() - 2];
        let scheduled = decision_tag(DecisionKind::Scheduled, None);
        assert!(TraceFile::decode(&[heard, &[scheduled, END, 3]].concat()).is_ok());
        let at = heard.len();
        for (tail, at, what) in [
            (
                &[scheduled, scheduled][..],
                at + 1,
                "a decision that does not follow a PacketHeard",
            ),
            (&[DECISION | 3 << 3], at, "invalid decision kind"),
            (&[DECISION | 5], at, "invalid suppress reason"),
        ] {
            let err = TraceFile::decode(&[heard, tail].concat()).unwrap_err();
            assert_eq!(err, WireError { at, what }, "{tail:x?}");
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
        let hear = PureAction::PacketHeard {
            node: NodeId::new(1),
            packet,
            sender: NodeId::new(0),
            sender_position: Vec2::ZERO,
            own_position: Vec2::new(100.0, 0.0),
            random_unit: 0.5,
            oracle: None,
        };
        let recorded = |kind| {
            let mut writer = TraceWriter::new(&config);
            writer.action(SimTime::ZERO, &originate);
            writer.action(SimTime::from_millis(1), &hear);
            writer.decision(DecisionRecord {
                at: SimTime::from_millis(1),
                node: NodeId::new(1),
                packet,
                kind,
                reason: None,
            });
            writer.into_bytes()
        };
        let summary = replay_decisions(&recorded(DecisionKind::Scheduled)).expect("replay");
        assert_eq!(summary.actions, 2);
        assert_eq!(summary.decisions, 1);

        // Tampering with the recorded decision must be detected.
        let tampered = recorded(DecisionKind::InhibitedOnFirstHear);
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
        // The header, without the end record.
        let header = TraceWriter::new(&config).into_bytes().len() - 2;
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
        // The tag and Δt, then the id.
        let at = header + 2;
        let what = "host id outside the run";
        assert_eq!(err, ReplayError::Wire(WireError { at, what }));

        // A hear's sender, past the population and past `u32`.
        let originate = PureAction::Originate {
            node: NodeId::new(0),
            packet,
        };
        let mut writer = TraceWriter::new(&config);
        writer.action(SimTime::ZERO, &originate);
        let bytes = writer.into_bytes();
        let bytes = &bytes[..bytes.len() - 2];
        for sender in [u64::from(config.hosts), 1 << 40] {
            let mut enc = WireEncoder::new();
            enc.u8(HEARD);
            enc.uvarint(0);
            enc.uvarint(1);
            enc.uvarint(0);
            let at = bytes.len() + enc.as_slice().len();
            enc.uvarint(sender);
            let err = TraceFile::decode(&[bytes, enc.as_slice()].concat()).unwrap_err();
            assert_eq!(err, WireError { at, what }, "sender {sender}");
        }
    }

    /// The first `until` records of `bytes`, each handed with its index
    /// to `write`, which writes it (or what it makes of it) to a fresh
    /// writer; then the end.
    fn rewritten(
        bytes: &[u8],
        until: usize,
        mut write: impl FnMut(&mut TraceWriter, usize, TraceRecord<'_>),
    ) -> Vec<u8> {
        let mut file = TraceFile::open(bytes).expect("a trace opens");
        let mut writer = TraceWriter::new(&file.config);
        for index in 0..until {
            match file.next_record().expect("a trace reads") {
                Some(record) => write(&mut writer, index, record),
                None => break,
            }
        }
        writer.into_bytes()
    }

    /// Writes `record` as it is.
    fn verbatim(writer: &mut TraceWriter, _: usize, record: TraceRecord<'_>) {
        match record {
            TraceRecord::Action { at, action } => writer.action(at, &action),
            TraceRecord::Decision(d) => writer.decision(d),
        }
    }

    /// A run of `config`'s trace.
    fn live_trace(config: SimConfig) -> Vec<u8> {
        let mut world = crate::World::new(config);
        world.enable_recording();
        world.advance(SimTime::MAX);
        world.take_trace().expect("recording was armed")
    }

    #[test]
    fn first_divergence_names_the_changed_record_and_what_came_before() {
        let config = SimConfig::builder(3, SchemeSpec::Counter(3))
            .hosts(30)
            .broadcasts(4)
            .seed(21)
            .build();
        let live = live_trace(config);
        // A trace read and written again is the same bytes.
        assert_eq!(rewritten(&live, usize::MAX, verbatim), live);
        assert_eq!(first_divergence(&live, &live), Ok(None));

        // One decision, chosen by a seeded draw, decided the other way;
        // each directly follows the hear it decides, the last agreement.
        let mut decisions = Vec::new();
        let mut file = TraceFile::open(&live).expect("a live trace opens");
        let (mut index, mut heard) = (0, None);
        while let Some(record) = file.next_record().expect("a live trace reads") {
            match record {
                TraceRecord::Action {
                    at,
                    action:
                        PureAction::PacketHeard {
                            node,
                            packet,
                            sender,
                            ..
                        },
                } => {
                    heard = Some(Agreed::Heard {
                        record: index,
                        at,
                        node,
                        packet,
                        sender,
                    })
                }
                TraceRecord::Decision(d) => decisions.push((index, d, heard)),
                TraceRecord::Action { .. } => {}
            }
            index += 1;
        }
        let mut rng = SimRng::seed_from(0x6469_7665);
        let (index, changed, heard) =
            decisions[rng.gen_range_u32(0..decisions.len() as u32) as usize];
        let forked = rewritten(&live, usize::MAX, |writer, at, record| match record {
            TraceRecord::Decision(mut d) if at == index => {
                d.kind = match d.kind {
                    DecisionKind::Cancelled => DecisionKind::Scheduled,
                    _ => DecisionKind::Cancelled,
                };
                writer.decision(d);
            }
            record => verbatim(writer, at, record),
        });
        let divergence = first_divergence(&live, &forked)
            .expect("both traces decode")
            .expect("the traces differ");
        assert_eq!(
            divergence,
            Divergence {
                record: index,
                at: changed.at,
                node: changed.node,
                packet: Some(changed.packet),
                last_agreed: heard,
            }
        );
        assert!(divergence
            .to_string()
            .starts_with(&format!("record {index} (")));
        assert!(matches!(heard, Some(Agreed::Heard { record, .. }) if record == index - 1));
        // Symmetric, and a trace that ends just before the changed record
        // parts from the whole one there.
        assert_eq!(first_divergence(&forked, &live), Ok(Some(divergence)));
        let cut = rewritten(&live, index, verbatim);
        let ended = first_divergence(&live, &cut).expect("both decode");
        assert_eq!(ended, Some(divergence));
    }

    /// A beacon frame is one record for all its hearers: when one host
    /// drops out of a frame's hearers, or one is added, the divergence is
    /// that record, named at that host.
    #[test]
    fn first_divergence_names_the_hearer_a_frame_gained_or_lost() {
        let config = SimConfig::builder(3, SchemeSpec::parse("ac").expect("a scheme spelling"))
            .hosts(30)
            .broadcasts(2)
            .seed(21)
            .build();
        let hosts = config.hosts;
        let live = live_trace(config);
        // The HELLO frames with at least three hearers, and one drawn.
        let mut frames = Vec::new();
        let mut file = TraceFile::open(&live).expect("a live trace opens");
        let mut index = 0;
        while let Some(record) = file.next_record().expect("a live trace reads") {
            if let TraceRecord::Action {
                at,
                action: PureAction::HelloHeard { hearers, .. },
            } = record
            {
                if hearers.len() >= 3 {
                    frames.push((index, at, hearers.to_vec()));
                }
            }
            index += 1;
        }
        let mut rng = SimRng::seed_from(0x6865_6172);
        let (index, at, hearers) = &frames[rng.gen_range_u32(0..frames.len() as u32) as usize];
        let lost = hearers[rng.gen_range_u32(0..hearers.len() as u32) as usize];
        let gained = (0..hosts)
            .map(NodeId::new)
            .find(|h| !hearers.contains(h) && hearers.iter().any(|x| x > h))
            .unwrap_or_else(|| NodeId::new(hosts - 1));
        for changed in [lost, gained] {
            let mut edited: Vec<NodeId> =
                hearers.iter().copied().filter(|&h| h != changed).collect();
            if changed == gained {
                edited.push(gained);
                edited.sort_unstable();
            }
            let forked = rewritten(&live, usize::MAX, |writer, k, record| match record {
                TraceRecord::Action {
                    at,
                    action:
                        PureAction::HelloHeard {
                            sender,
                            interval,
                            neighbors,
                            ..
                        },
                } if k == *index => {
                    let action = PureAction::HelloHeard {
                        hearers: &edited,
                        sender,
                        interval,
                        neighbors,
                    };
                    writer.action(at, &action);
                }
                record => verbatim(writer, k, record),
            });
            for (a, b) in [(&live, &forked), (&forked, &live)] {
                let divergence = first_divergence(a, b).expect("both decode");
                let expected = Divergence {
                    record: *index,
                    at: *at,
                    node: changed,
                    packet: None,
                    last_agreed: None,
                };
                assert_eq!(divergence, Some(expected), "{changed} of {hearers:?}");
            }
        }
    }
}
