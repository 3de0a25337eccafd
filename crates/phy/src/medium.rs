//! The shared radio medium.
//!
//! [`Medium`] tracks every frame currently on the air and each host's
//! transceiver state. It is deliberately ignorant of *positions*: the
//! caller decides who is in range of a transmission (unit-disk or
//! otherwise) and passes the listener set to
//! [`begin_transmission_into`](Medium::begin_transmission_into). That
//! keeps this crate a pure, exhaustively testable state machine and
//! confines geometry to one place in the simulator.
//!
//! ## Reception model (paper §2.2.3)
//!
//! A frame is decoded by a listener iff, for its **entire airtime**:
//!
//! * no other in-range frame overlaps it at that listener (no capture
//!   effect — overlapping frames garble each other), and
//! * the listener itself never transmits (half-duplex).
//!
//! There is no collision detection: a garbled frame still occupies the
//! medium until its scheduled end, exactly as in the paper ("a host will
//! keep transmitting the packet even if some of its foregoing bits have
//! been garbled").
//!
//! Carrier sense reports whether any *foreign* signal is in the air at a
//! host; a host's own transmission is not carrier (the MAC knows about its
//! own frames).
//!
//! ## State: at most one decodable frame per radio
//!
//! Without capture a frame stays decodable at a listener only if the
//! listener was idle and not transmitting when it arrived, and nothing
//! else arrives and the listener does not transmit before it ends: the
//! moment a second frame arrives, both are lost. So at any instant a radio
//! holds **at most one** decodable frame, and all that begin and end need
//! at a listener is one 16-byte record: the foreign frames on the air
//! there (carrier sense), whether the host is transmitting, and which
//! frame, if any, is still decodable. Each delivery's verdict lives on its
//! frame, in a cause list parallel to the frame's listeners: begin writes
//! the first cause to strike, [`inject_loss`](Medium::inject_loss) names
//! the delivery by the listener's position in the frame, and end reads the
//! list back. Begin and end are O(1) per listener.
//!
//! Capture breaks the argument: a strong frame survives a weak one, and at
//! a threshold of 1 or less two equal frames both survive. A medium built
//! [`with_capture`](Medium::with_capture) therefore also keeps, per radio,
//! every frame on the air there with its signal, in arrival order (an
//! ended frame is swap-removed), and garbles through that list; each SIR
//! sum adds its terms in that order.

use manet_sim_engine::{SimRng, SimTime, Slab, WireDecoder, WireEncoder, WireError};

use crate::id::{FrameId, NodeId};

/// Why a frame delivery failed at one listener.
///
/// The first cause to strike a frame wins and is never overwritten: a
/// half-duplex miss stays a half-duplex miss even if another frame later
/// overlaps it, so the per-cause counters partition the losses exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossCause {
    /// Garbled by an overlapping in-range frame under the paper's
    /// no-capture assumption (§2.2.3) — a true collision.
    Overlap,
    /// The listener was itself transmitting during (part of) the frame's
    /// airtime, so its half-duplex transceiver never saw it.
    HalfDuplex,
    /// Injected random channel loss ([`Medium::with_drop_probability`]) —
    /// failure injection, not contention.
    Injected,
    /// Lost the capture arbitration: the frame's signal failed the SIR
    /// test against summed interference under a [`CaptureModel`].
    Capture,
}

/// Running totals of frame-delivery losses, split by [`LossCause`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LossCounters {
    /// Losses to overlapping frames without capture (true collisions).
    pub overlap: u64,
    /// Losses because the listener was transmitting (half-duplex misses).
    pub half_duplex: u64,
    /// Losses injected by [`Medium::with_drop_probability`].
    pub injected: u64,
    /// Losses to capture arbitration (SIR below threshold under overlap).
    pub capture: u64,
}

impl LossCounters {
    /// Sum over all causes: every delivery lost.
    pub fn total(&self) -> u64 {
        self.overlap + self.half_duplex + self.injected + self.capture
    }

    /// Adds another set of counters into this one.
    pub fn merge(&mut self, other: &LossCounters) {
        self.overlap += other.overlap;
        self.half_duplex += other.half_duplex;
        self.injected += other.injected;
        self.capture += other.capture;
    }

    fn tally(&mut self, cause: LossCause) {
        match cause {
            LossCause::Overlap => self.overlap += 1,
            LossCause::HalfDuplex => self.half_duplex += 1,
            LossCause::Injected => self.injected += 1,
            LossCause::Capture => self.capture += 1,
        }
    }
}

/// One delivery of a frame on the air: the frame's slab slot and the
/// listener's index among the frame's listeners.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct At {
    slot: u32,
    index: u32,
}

impl At {
    /// No delivery. The slab never hands out slot `u32::MAX` (its free-list
    /// sentinel).
    const NONE: At = At {
        slot: u32::MAX,
        index: 0,
    };
}

/// Per-host transceiver state: all that begin and end consult at a
/// listener, in 16 bytes.
#[derive(Debug, Clone, Copy)]
struct Radio {
    /// Foreign frames on the air here; carrier is busy while non-zero.
    on_air: u32,
    /// This host's own frame is on the air.
    transmitting: bool,
    /// Without capture, the one frame still decodable here, or
    /// [`At::NONE`]. Unused under capture.
    decodable: At,
}

impl Radio {
    const IDLE: Radio = Radio {
        on_air: 0,
        transmitting: false,
        decodable: At::NONE,
    };

    fn take_decodable(&mut self) -> Option<At> {
        let at = std::mem::replace(&mut self.decodable, At::NONE);
        (at != At::NONE).then_some(at)
    }
}

/// A listener of a transmission, with the signal strength it receives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Listener {
    /// The receiving host.
    pub node: NodeId,
    /// Received signal strength, linear units (e.g. `1 / d^alpha`).
    pub signal: f64,
}

/// Physical-layer capture: a frame survives overlap when its signal
/// exceeds the sum of all interfering signals by `threshold` (a linear
/// SIR requirement). Without a capture model any overlap garbles all
/// involved frames — the paper's §2.2.3 assumption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptureModel {
    /// Required signal-to-interference ratio, linear (e.g. 4.0 ≈ 6 dB).
    pub threshold: f64,
}

impl CaptureModel {
    /// Creates a capture model.
    ///
    /// # Panics
    ///
    /// Panics unless `threshold > 0` and finite.
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "capture threshold must be positive and finite, got {threshold}"
        );
        CaptureModel { threshold }
    }
}

/// A frame on the air at one radio, as the SIR test sees it.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: At,
    /// Received signal strength at this radio.
    signal: f64,
}

/// What only a capture medium keeps: the model, and per radio every
/// foreign frame on the air there in arrival order (an ended frame is
/// `swap_remove`d), so each interference sum adds the same terms in the
/// same order.
#[derive(Debug)]
struct Capture {
    model: CaptureModel,
    arrivals: Vec<Vec<Arrival>>,
}

/// Record of one active transmission.
#[derive(Debug, Clone)]
struct ActiveTx {
    source: NodeId,
    end: SimTime,
    listeners: Vec<NodeId>,
    /// Parallel to `listeners`: why the frame is already lost at each one,
    /// `None` while it is still decodable there. First cause wins (see
    /// [`LossCause`]).
    causes: Vec<Option<LossCause>>,
}

impl ActiveTx {
    /// Marks the delivery at `index` lost for `cause` unless an earlier
    /// cause already struck it.
    fn garble(&mut self, index: u32, cause: LossCause) {
        self.causes[index as usize].get_or_insert(cause);
    }
}

/// One listener's outcome for a finished frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The listener.
    pub to: NodeId,
    /// Why the frame was lost; `None` when it was decoded.
    pub cause: Option<LossCause>,
}

/// The shared medium: all transceivers plus every frame on the air.
///
/// # Examples
///
/// ```
/// use manet_phy::{Medium, NodeId};
/// use manet_sim_engine::{SimDuration, SimTime};
///
/// let mut medium = Medium::new(3);
/// let a = NodeId::new(0);
/// let b = NodeId::new(1);
/// let t0 = SimTime::ZERO;
/// let end = t0 + SimDuration::from_micros(2432);
/// let (mut carrier, mut deliveries) = (Vec::new(), Vec::new());
/// let frame = medium.begin_transmission_into(a, t0, end, &[b], &mut carrier);
/// assert_eq!(carrier, [b]);
/// medium.end_transmission_into(frame, end, &mut deliveries, &mut carrier);
/// assert_eq!(deliveries[0].cause, None);
/// ```
#[derive(Debug)]
pub struct Medium {
    radios: Vec<Radio>,
    /// Frames on the air, keyed by slot: a [`FrameId`] *is* its slab slot,
    /// so ids are recycled once a frame ends. Uniqueness holds among live
    /// frames — all any caller may key on — while lookup and removal stay
    /// hash-free.
    active: Slab<ActiveTx>,
    /// Listener and cause vectors recycled between frames: ended frames
    /// return theirs here and starting frames take a pair back, so
    /// steady-state frame turnover performs no allocation.
    pool: Vec<(Vec<NodeId>, Vec<Option<LossCause>>)>,
    /// Independent per-delivery loss probability (failure injection),
    /// and the seed its draws are keyed under.
    drop_probability: f64,
    drop_seed: u64,
    capture: Option<Capture>,
    losses: LossCounters,
    frames_sent: u64,
}

impl Medium {
    /// Creates a medium for `hosts` transceivers, all idle.
    pub fn new(hosts: usize) -> Self {
        Medium {
            radios: vec![Radio::IDLE; hosts],
            active: Slab::new(),
            pool: Vec::new(),
            drop_probability: 0.0,
            drop_seed: 0,
            capture: None,
            losses: LossCounters::default(),
            frames_sent: 0,
        }
    }

    /// Adds independent random frame loss with probability `p` per
    /// delivery — a failure-injection hook for robustness experiments.
    /// The delivery of the n-th frame sent (counting from 1, as
    /// [`frames_sent`](Self::frames_sent) does) to `listener` drops when
    /// `SimRng::keyed(seed, &[n, listener])` says so: the decision
    /// depends on nothing else the medium did.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_drop_probability(mut self, p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.drop_probability = p;
        self.drop_seed = seed;
        self
    }

    /// Enables physical-layer capture with the given linear SIR
    /// threshold. Off by default (the paper's no-capture assumption).
    pub fn with_capture(mut self, model: CaptureModel) -> Self {
        self.capture = Some(Capture {
            model,
            arrivals: vec![Vec::new(); self.radios.len()],
        });
        self
    }

    /// `true` when a foreign signal is in the air at `node`.
    pub fn is_carrier_busy(&self, node: NodeId) -> bool {
        self.radios[node.index()].on_air > 0
    }

    /// `true` when `node` is currently transmitting.
    pub fn is_transmitting(&self, node: NodeId) -> bool {
        self.radios[node.index()].transmitting
    }

    /// Every frame on the air as `(frame, source, scheduled end)`, in
    /// frame-slot order.
    pub fn frames_on_air(&self) -> impl Iterator<Item = (FrameId, NodeId, SimTime)> + '_ {
        self.active
            .iter()
            .map(|(slot, tx)| (FrameId::new(u64::from(slot)), tx.source, tx.end))
    }

    /// Total frames put on the air so far.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Total frame deliveries lost to *overlapping transmissions* so far:
    /// no-capture overlap garbles plus capture-arbitration losses. This is
    /// the paper-comparable contention figure; half-duplex misses and
    /// injected drops are counted separately (see
    /// [`loss_counters`](Self::loss_counters)).
    pub fn collision_count(&self) -> u64 {
        self.losses.overlap + self.losses.capture
    }

    /// Per-cause loss totals across all deliveries so far.
    pub fn loss_counters(&self) -> LossCounters {
        self.losses
    }

    /// Scripted fault injection: marks `frame` as lost at its listener
    /// number `index` (in the order the listeners were passed to begin)
    /// with [`LossCause::Injected`] unless an earlier cause already struck
    /// it.
    ///
    /// This is the hook the scenario subsystem drives for link blackouts,
    /// region partitions, and noise bursts. The frame stays on the air —
    /// carrier sense and overlap accounting are unaffected (deep-fade
    /// semantics) — it just arrives undecodable. Returns whether the
    /// injection applied: `false` means an earlier cause (overlap,
    /// half-duplex miss, channel drop) already claimed the frame, and the
    /// usual first-cause-wins accounting stands.
    ///
    /// # Panics
    ///
    /// Panics when `frame` is not on the air or has no listener `index`.
    pub fn inject_loss(&mut self, frame: FrameId, index: usize) -> bool {
        let slot = u32::try_from(frame.as_u64()).expect("frame slot out of range");
        let tx = self
            .active
            .get_mut(slot)
            .expect("inject_loss: frame is not on the air");
        let cause = &mut tx.causes[index];
        if cause.is_some() {
            return false;
        }
        *cause = Some(LossCause::Injected);
        let radio = &mut self.radios[tx.listeners[index].index()];
        let at = At {
            slot,
            index: index as u32,
        };
        if radio.decodable == at {
            radio.decodable = At::NONE;
        }
        true
    }

    /// Puts a frame on the air from `source`, heard by `listeners`,
    /// lasting until `end`, and returns its id. `carrier` is cleared, then
    /// receives the listeners whose carrier sense went from idle to busy.
    ///
    /// The listener set is captured now (receivers moving in or out of
    /// range mid-frame are not re-evaluated; at the paper's speeds a host
    /// moves millimeters per frame). The source must not appear in
    /// `listeners`, and no listener may appear twice.
    ///
    /// # Panics
    ///
    /// Panics if the source is already transmitting, if `end <= now`, or
    /// if `listeners` contains `source`.
    pub fn begin_transmission_into(
        &mut self,
        source: NodeId,
        now: SimTime,
        end: SimTime,
        listeners: &[NodeId],
        carrier: &mut Vec<NodeId>,
    ) -> FrameId {
        self.begin_tx_inner(
            source,
            now,
            end,
            listeners.iter().map(|&node| Listener { node, signal: 1.0 }),
            carrier,
        )
    }

    /// Like [`begin_transmission_into`](Self::begin_transmission_into),
    /// but with a per-listener received signal strength so a
    /// [`CaptureModel`] can arbitrate overlaps.
    ///
    /// # Panics
    ///
    /// Same conditions as `begin_transmission_into`, plus non-positive
    /// signal strengths.
    pub fn begin_transmission_with_signals_into(
        &mut self,
        source: NodeId,
        now: SimTime,
        end: SimTime,
        listeners: &[Listener],
        carrier: &mut Vec<NodeId>,
    ) -> FrameId {
        self.begin_tx_inner(source, now, end, listeners.iter().copied(), carrier)
    }

    /// Shared transmission-start path. Generic over the listener iterator
    /// so the plain-`NodeId` entry point can adapt on the fly instead of
    /// materializing a `Vec<Listener>`. Single pass, in listener order:
    /// each listener is validated before its state is touched.
    fn begin_tx_inner(
        &mut self,
        source: NodeId,
        now: SimTime,
        end: SimTime,
        listeners: impl Iterator<Item = Listener>,
        carrier: &mut Vec<NodeId>,
    ) -> FrameId {
        assert!(end > now, "transmission must have positive duration");
        assert!(
            !self.is_transmitting(source),
            "{source} is already transmitting"
        );
        self.frames_sent += 1;

        // Reserve the frame's slot up front so each delivery can be named
        // by it as it is processed; the listener and cause lists are filled
        // in below, reusing a pooled pair.
        let (mut tx_listeners, mut causes) = self.pool.pop().unwrap_or_default();
        tx_listeners.clear();
        causes.clear();
        let slot = self.active.insert(ActiveTx {
            source,
            end,
            listeners: tx_listeners,
            causes,
        });

        // Half-duplex: starting to transmit garbles whatever the source
        // was in the middle of receiving.
        let src_radio = &mut self.radios[source.index()];
        src_radio.transmitting = true;
        match &self.capture {
            None => {
                if let Some(at) = src_radio.take_decodable() {
                    self.active[at.slot].garble(at.index, LossCause::HalfDuplex);
                }
            }
            Some(capture) => {
                for arrival in &capture.arrivals[source.index()] {
                    self.active[arrival.at.slot].garble(arrival.at.index, LossCause::HalfDuplex);
                }
            }
        }

        carrier.clear();
        for (index, listener) in (0u32..).zip(listeners) {
            assert!(
                listener.node != source,
                "source {source} cannot listen to itself"
            );
            assert!(
                listener.signal.is_finite() && listener.signal > 0.0,
                "signal strengths must be positive and finite"
            );
            let radio = &mut self.radios[listener.node.index()];
            let was_busy = radio.on_air > 0;

            // A listener that is itself transmitting misses the frame
            // outright (half-duplex). This takes precedence over any
            // overlap: the transceiver could not have received the frame
            // even on a clear channel.
            let mut cause = radio.transmitting.then_some(LossCause::HalfDuplex);
            match &mut self.capture {
                // No capture: any overlap garbles everything involved
                // (paper §2.2.3) — the new frame and the one frame still
                // decodable here, if any.
                None => {
                    if was_busy {
                        if let Some(at) = radio.take_decodable() {
                            self.active[at.slot].garble(at.index, LossCause::Overlap);
                        }
                        cause.get_or_insert(LossCause::Overlap);
                    }
                }
                // SIR test: each frame survives only if its signal beats
                // the sum of all others by the threshold.
                Some(capture) => {
                    let arrivals = &mut capture.arrivals[listener.node.index()];
                    if !arrivals.is_empty() {
                        let threshold = capture.model.threshold;
                        let total: f64 =
                            arrivals.iter().map(|a| a.signal).sum::<f64>() + listener.signal;
                        for other in arrivals.iter() {
                            if other.signal < threshold * (total - other.signal) {
                                self.active[other.at.slot]
                                    .garble(other.at.index, LossCause::Capture);
                            }
                        }
                        if listener.signal < threshold * (total - listener.signal) {
                            cause.get_or_insert(LossCause::Capture);
                        }
                    }
                    arrivals.push(Arrival {
                        at: At { slot, index },
                        signal: listener.signal,
                    });
                }
            }
            // Injected channel loss (failure injection, not a collision).
            if cause.is_none() && self.drop_probability > 0.0 {
                let key = [self.frames_sent, listener.node.index() as u64];
                if SimRng::keyed(self.drop_seed, &key).gen_bool(self.drop_probability) {
                    cause = Some(LossCause::Injected);
                }
            }
            radio.on_air += 1;
            if cause.is_none() && self.capture.is_none() {
                radio.decodable = At { slot, index };
            }
            if !was_busy {
                carrier.push(listener.node);
            }
            let tx = &mut self.active[slot];
            tx.listeners.push(listener.node);
            tx.causes.push(cause);
        }
        FrameId::new(u64::from(slot))
    }

    /// Takes a frame off the air at its scheduled end time and returns
    /// its source. `deliveries` is cleared, then receives each listener's
    /// outcome in listener order; `carrier` is cleared, then receives the
    /// listeners whose carrier sense went idle. The frame's listener and
    /// cause vectors go back into the internal pool for the next
    /// transmission.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is unknown (already ended or never started) or if
    /// `now` differs from the end passed to begin.
    pub fn end_transmission_into(
        &mut self,
        frame: FrameId,
        now: SimTime,
        deliveries: &mut Vec<Delivery>,
        carrier: &mut Vec<NodeId>,
    ) -> NodeId {
        let slot = u32::try_from(frame.as_u64()).expect("frame slot out of range");
        assert!(
            self.active.contains(slot),
            "ending a frame that is not on the air"
        );
        let tx = self.active.remove(slot);
        assert_eq!(tx.end, now, "frame ended at the wrong time");
        self.radios[tx.source.index()].transmitting = false;

        deliveries.clear();
        carrier.clear();
        for (index, (&listener, &cause)) in (0u32..).zip(tx.listeners.iter().zip(&tx.causes)) {
            let radio = &mut self.radios[listener.index()];
            radio.on_air -= 1;
            let at = At { slot, index };
            match &mut self.capture {
                None => {
                    if radio.decodable == at {
                        radio.decodable = At::NONE;
                    }
                }
                Some(capture) => {
                    let arrivals = &mut capture.arrivals[listener.index()];
                    let here = arrivals
                        .iter()
                        .position(|a| a.at == at)
                        .expect("listener lost an incoming frame");
                    arrivals.swap_remove(here);
                }
            }
            if let Some(cause) = cause {
                self.losses.tally(cause);
            }
            deliveries.push(Delivery {
                to: listener,
                cause,
            });
            if radio.on_air == 0 {
                carrier.push(listener);
            }
        }
        self.pool.push((tx.listeners, tx.causes));
        tx.source
    }

    /// Serializes the medium's mutable state — frames on the air,
    /// injected-drop RNG position, and loss counters — for a world
    /// snapshot. Configuration (host count, drop probability, capture
    /// model) is *not* written:
    /// [`restore_snapshot`](Self::restore_snapshot) targets a medium
    /// already built with the same configuration.
    ///
    /// The section is frame-major: the host count, then the frame slab
    /// with its slot layout, each frame as source, end and its listeners
    /// with their causes; under capture, each radio's arrivals in order.
    /// The per-radio counts, flags and decodable frames are derived on
    /// restore.
    pub fn snapshot_into(&self, enc: &mut WireEncoder) {
        enc.len(self.radios.len());
        self.active.encode(enc, |enc, tx| {
            tx.source.encode(enc);
            enc.time(tx.end);
            enc.seq(tx.listeners.iter().zip(&tx.causes), |enc, (id, &cause)| {
                id.encode(enc);
                enc.u8(match cause {
                    None => 0,
                    Some(LossCause::Overlap) => 1,
                    Some(LossCause::HalfDuplex) => 2,
                    Some(LossCause::Injected) => 3,
                    Some(LossCause::Capture) => 4,
                });
            });
        });
        if let Some(capture) = &self.capture {
            for arrivals in &capture.arrivals {
                enc.seq(arrivals, |enc, arrival| {
                    enc.u32(arrival.at.slot);
                    enc.u32(arrival.at.index);
                    enc.f64(arrival.signal);
                });
            }
        }
        enc.u64(self.losses.overlap);
        enc.u64(self.losses.half_duplex);
        enc.u64(self.losses.injected);
        enc.u64(self.losses.capture);
        enc.u64(self.frames_sent);
    }

    /// Overwrites this medium's mutable state from
    /// [`snapshot_into`](Self::snapshot_into) output. The medium must
    /// have been built with the same configuration (host count, drop
    /// probability, capture model) as the snapshotted one; mismatches in
    /// the parts the snapshot can see are reported as errors.
    ///
    /// Frames no run could put on the air are refused at the frame: a host
    /// id outside the run or a listener that is the source (at the id), a
    /// listener listed twice, a host sending two frames, a frame decodable
    /// at a transmitting listener, two decodable at one radio without
    /// capture, and capture arrivals that are not exactly the deliveries.
    pub fn restore_snapshot(&mut self, dec: &mut WireDecoder<'_>) -> Result<(), WireError> {
        let hosts = self.radios.len();
        let count_at = dec.position();
        if dec.len()? != hosts {
            return Err(WireError {
                at: count_at,
                what: "medium host count mismatch",
            });
        }
        // The frame each host was last listed by, to refuse a repeat.
        let mut listed_by = vec![u32::MAX; hosts];
        let mut frame_at = Vec::new();
        self.active = Slab::decode(dec, 20, |dec| {
            frame_at.push(dec.position());
            let frame = frame_at.len() as u32;
            let source = NodeId::decode(dec, hosts, None)?;
            let end = dec.time()?;
            let mut causes = Vec::new();
            let listeners = dec.seq(5, |dec| {
                let at = dec.position();
                let id = NodeId::decode(dec, hosts, Some(source))?;
                if std::mem::replace(&mut listed_by[id.index()], frame) == frame {
                    let what = "a frame lists one listener twice";
                    return Err(WireError { at, what });
                }
                let (tag, invalid) = dec.tag("loss cause tag")?;
                causes.push(match tag {
                    0 => None,
                    1 => Some(LossCause::Overlap),
                    2 => Some(LossCause::HalfDuplex),
                    3 => Some(LossCause::Injected),
                    4 => Some(LossCause::Capture),
                    _ => return Err(invalid),
                });
                Ok(id)
            })?;
            Ok(ActiveTx {
                source,
                end,
                listeners,
                causes,
            })
        })?;

        // Derive the radios. Occupied slots decode in slot order, so the
        // n-th frame of `iter` started at `frame_at[n]`.
        self.radios.fill(Radio::IDLE);
        for (&at, (_, tx)) in frame_at.iter().zip(self.active.iter()) {
            let radio = &mut self.radios[tx.source.index()];
            if radio.transmitting {
                let what = "a host is the source of two frames on the air";
                return Err(WireError { at, what });
            }
            radio.transmitting = true;
        }
        for (&at, (slot, tx)) in frame_at.iter().zip(self.active.iter()) {
            for (index, (&listener, cause)) in (0u32..).zip(tx.listeners.iter().zip(&tx.causes)) {
                let radio = &mut self.radios[listener.index()];
                radio.on_air += 1;
                if cause.is_some() {
                    continue;
                }
                if radio.transmitting {
                    let what = "a frame is decodable at a listener that is transmitting";
                    return Err(WireError { at, what });
                }
                if self.capture.is_none() {
                    if radio.decodable != At::NONE {
                        let what = "two frames are decodable at one radio without capture";
                        return Err(WireError { at, what });
                    }
                    radio.decodable = At { slot, index };
                }
            }
        }
        if let Some(capture) = &mut self.capture {
            // The radio each frame was last heard at, to refuse a repeat.
            let mut heard_at = Vec::new();
            for (host, arrivals) in capture.arrivals.iter_mut().enumerate() {
                let at = dec.position();
                *arrivals = dec.seq(16, |dec| {
                    let at = dec.position();
                    let (slot, index, signal) = (dec.u32()?, dec.u32()?, dec.f64()?);
                    let listener =
                        (self.active.get(slot)).and_then(|tx| tx.listeners.get(index as usize));
                    if listener.is_none_or(|id| id.index() != host)
                        || !(signal.is_finite() && signal > 0.0)
                    {
                        let what = "a capture arrival names no delivery at its radio";
                        return Err(WireError { at, what });
                    }
                    let slot_index = slot as usize;
                    if heard_at.len() <= slot_index {
                        heard_at.resize(slot_index + 1, usize::MAX);
                    }
                    if std::mem::replace(&mut heard_at[slot_index], host) == host {
                        let what = "a capture arrival repeats a delivery";
                        return Err(WireError { at, what });
                    }
                    Ok(Arrival {
                        at: At { slot, index },
                        signal,
                    })
                })?;
                if arrivals.len() != self.radios[host].on_air as usize {
                    let what = "a radio's capture arrivals differ from its frames on the air";
                    return Err(WireError { at, what });
                }
            }
        }
        self.losses = LossCounters {
            overlap: dec.u64()?,
            half_duplex: dec.u64()?,
            injected: dec.u64()?,
            capture: dec.u64()?,
        };
        self.frames_sent = dec.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim_engine::SimDuration;

    const AIRTIME: SimDuration = SimDuration::from_micros(2_432);

    fn ids(range: std::ops::Range<u32>) -> Vec<NodeId> {
        range.map(NodeId::new).collect()
    }

    /// Puts a frame from `source` on the air at `t` for one [`AIRTIME`],
    /// returning it and the hosts whose carrier went busy.
    fn send(m: &mut Medium, source: NodeId, t: SimTime, to: &[NodeId]) -> (FrameId, Vec<NodeId>) {
        let mut carrier = Vec::new();
        let frame = m.begin_transmission_into(source, t, t + AIRTIME, to, &mut carrier);
        (frame, carrier)
    }

    /// [`send`] with a received signal strength per listener.
    fn send_signals(m: &mut Medium, source: NodeId, t: SimTime, to: &[Listener]) -> FrameId {
        m.begin_transmission_with_signals_into(source, t, t + AIRTIME, to, &mut Vec::new())
    }

    /// Ends `frame` at `now`: why each delivery was lost (`None`: decoded),
    /// and the hosts whose carrier went idle.
    fn finish(
        m: &mut Medium,
        frame: FrameId,
        now: SimTime,
    ) -> (Vec<Option<LossCause>>, Vec<NodeId>) {
        let (mut deliveries, mut carrier) = (Vec::new(), Vec::new());
        m.end_transmission_into(frame, now, &mut deliveries, &mut carrier);
        (deliveries.iter().map(|d| d.cause).collect(), carrier)
    }

    /// The first delivery's loss cause.
    fn first_cause(m: &mut Medium, frame: FrameId, now: SimTime) -> Option<LossCause> {
        finish(m, frame, now).0[0]
    }

    #[test]
    fn clean_frame_is_decoded_by_all_listeners() {
        let mut m = Medium::new(4);
        let t0 = SimTime::ZERO;
        let (frame, _) = send(&mut m, NodeId::new(0), t0, &ids(1..4));
        assert_eq!(finish(&mut m, frame, t0 + AIRTIME).0, [None; 3]);
        assert_eq!(m.collision_count(), 0);
    }

    #[test]
    fn injected_loss_garbles_one_listener_without_touching_carrier() {
        let mut m = Medium::new(4);
        let t0 = SimTime::ZERO;
        let (frame, _) = send(&mut m, NodeId::new(0), t0, &ids(1..4));
        // Host 2 is the frame's listener number 1.
        assert!(m.inject_loss(frame, 1), "first cause wins");
        assert!(
            !m.inject_loss(frame, 1),
            "already garbled: injection must report not-applied"
        );
        assert!(
            m.is_carrier_busy(NodeId::new(2)),
            "fault is a deep fade, not silence"
        );
        assert_eq!(
            finish(&mut m, frame, t0 + AIRTIME).0,
            [None, Some(LossCause::Injected), None]
        );
        assert_eq!(m.loss_counters().injected, 1);
        assert_eq!(m.collision_count(), 0, "injected loss is not a collision");
    }

    #[test]
    fn overlapping_frames_garble_each_other() {
        // a and c both reach b; their frames overlap -> b decodes neither.
        let mut m = Medium::new(3);
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let t0 = SimTime::ZERO;
        let (f1, _) = send(&mut m, a, t0, &[b]);
        let mid = t0 + AIRTIME / 2;
        let (f2, _) = send(&mut m, c, mid, &[b]);
        let e1 = first_cause(&mut m, f1, t0 + AIRTIME);
        assert!(e1.is_some(), "first frame garbled");
        let e2 = first_cause(&mut m, f2, mid + AIRTIME);
        assert!(e2.is_some(), "second frame garbled");
        assert!(m.collision_count() >= 2);
    }

    #[test]
    fn hidden_terminal_collision() {
        // a -- b -- c: a and c cannot hear each other, both reach b.
        // Simultaneous transmissions collide at b only.
        let mut m = Medium::new(3);
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let t0 = SimTime::ZERO;
        let (f1, _) = send(&mut m, a, t0, &[b]);
        let (f2, _) = send(&mut m, c, t0, &[b]);
        assert!(first_cause(&mut m, f1, t0 + AIRTIME).is_some());
        assert!(first_cause(&mut m, f2, t0 + AIRTIME).is_some());
    }

    #[test]
    fn half_duplex_listener_misses_frame() {
        // b is transmitting (to nobody in range) while a transmits to b.
        let mut m = Medium::new(2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let t0 = SimTime::ZERO;
        let (fb, _) = send(&mut m, b, t0, &[]);
        let (fa, _) = send(&mut m, a, t0, &[b]);
        let cause = first_cause(&mut m, fa, t0 + AIRTIME);
        assert_eq!(cause, Some(LossCause::HalfDuplex));
        finish(&mut m, fb, t0 + AIRTIME);
        // A half-duplex miss is not a collision: it is counted separately.
        assert_eq!(m.collision_count(), 0);
        assert_eq!(m.loss_counters().half_duplex, 1);
    }

    #[test]
    fn loss_causes_partition_total_losses() {
        // One half-duplex miss (b transmitting) and one overlap pair at d.
        let mut m = Medium::new(5);
        let (a, b, c, d, e) = (
            NodeId::new(0),
            NodeId::new(1),
            NodeId::new(2),
            NodeId::new(3),
            NodeId::new(4),
        );
        let t0 = SimTime::ZERO;
        let (fb, _) = send(&mut m, b, t0, &[]);
        let (fa, _) = send(&mut m, a, t0, &[b]);
        let (fc, _) = send(&mut m, c, t0, &[d]);
        let (fe, _) = send(&mut m, e, t0, &[d]);
        for f in [fb, fa, fc, fe] {
            finish(&mut m, f, t0 + AIRTIME);
        }
        let losses = m.loss_counters();
        assert_eq!(losses.half_duplex, 1);
        assert_eq!(losses.overlap, 2);
        assert_eq!(losses.injected, 0);
        assert_eq!(losses.capture, 0);
        assert_eq!(losses.total(), 3);
        assert_eq!(m.collision_count(), 2, "collisions are overlap-only");
    }

    #[test]
    fn first_loss_cause_wins() {
        // b starts receiving from a, then starts its own transmission
        // (half-duplex), and a third frame later overlaps. The recorded
        // cause stays HalfDuplex.
        let mut m = Medium::new(3);
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let t0 = SimTime::ZERO;
        let (fa, _) = send(&mut m, a, t0, &[b]);
        let quarter = t0 + AIRTIME / 4;
        let (fb, _) = send(&mut m, b, quarter, &[]);
        let mid = t0 + AIRTIME / 2;
        let (fc, _) = send(&mut m, c, mid, &[b]);
        let cause = first_cause(&mut m, fa, t0 + AIRTIME);
        assert_eq!(cause, Some(LossCause::HalfDuplex));
        finish(&mut m, fb, quarter + AIRTIME);
        let late = first_cause(&mut m, fc, mid + AIRTIME);
        // The late frame arrived while b was transmitting: half-duplex too.
        assert_eq!(late, Some(LossCause::HalfDuplex));
        assert_eq!(m.loss_counters().half_duplex, 2);
        assert_eq!(m.collision_count(), 0);
    }

    #[test]
    fn injected_drop_is_keyed_by_frame_serial_and_listener() {
        // A delivery's drop decision is `keyed(seed, [serial, listener])`,
        // whether or not other deliveries were garbled. In one medium the
        // second frame garbles in a capture episode at listener 1; in the
        // other it lands clear at listener 3. Every clean delivery of both
        // media, then and on the 64 frames after, drops exactly when its
        // key says so.
        let (drop_p, seed) = (0.4, 77);
        let run = |overlap: bool| -> Vec<Option<LossCause>> {
            let mut m = Medium::new(4)
                .with_capture(CaptureModel::new(4.0))
                .with_drop_probability(drop_p, seed);
            let (a, c) = (NodeId::new(0), NodeId::new(2));
            let mut t = SimTime::ZERO;
            let f1 = send_signals(&mut m, a, t, &[listener(1, 100.0)]);
            let f2 = send_signals(&mut m, c, t, &[listener(if overlap { 1 } else { 3 }, 1.0)]);
            let mut causes = vec![first_cause(&mut m, f1, t + AIRTIME)];
            causes.push(first_cause(&mut m, f2, t + AIRTIME));
            assert_eq!(causes[1] == Some(LossCause::Capture), overlap);
            for _ in 0..64 {
                t += AIRTIME;
                let (frame, _) = send(&mut m, a, t, &[NodeId::new(1)]);
                causes.push(first_cause(&mut m, frame, t + AIRTIME));
            }
            causes
        };
        let (garbled, clear) = (run(true), run(false));
        for (causes, second_listener) in [(&garbled, 1), (&clear, 3)] {
            for (serial, &cause) in (1u64..).zip(causes.iter()) {
                let listener = if serial == 2 { second_listener } else { 1 };
                if cause != Some(LossCause::Capture) {
                    let drop = SimRng::keyed(seed, &[serial, listener]).gen_bool(drop_p);
                    assert_eq!(cause == Some(LossCause::Injected), drop, "frame {serial}");
                }
            }
        }
        assert_eq!(garbled[2..], clear[2..]);
        assert!(
            garbled.contains(&Some(LossCause::Injected)),
            "some injected drops expected at p = {drop_p}"
        );
    }

    #[test]
    fn injected_loss_is_reported_as_injected() {
        // p = 1: every otherwise-clean delivery is an injected drop.
        let mut m = Medium::new(2).with_drop_probability(1.0, 3);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let t0 = SimTime::ZERO;
        let (s, _) = send(&mut m, a, t0, &[b]);
        assert_eq!(
            first_cause(&mut m, s, t0 + AIRTIME),
            Some(LossCause::Injected)
        );
        assert_eq!(m.loss_counters().injected, 1);
        assert_eq!(m.collision_count(), 0);
    }

    #[test]
    fn starting_tx_garbles_reception_in_progress() {
        let mut m = Medium::new(2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let t0 = SimTime::ZERO;
        let (fa, _) = send(&mut m, a, t0, &[b]);
        // b starts transmitting mid-reception.
        let mid = t0 + AIRTIME / 2;
        let (fb, _) = send(&mut m, b, mid, &[]);
        assert!(first_cause(&mut m, fa, t0 + AIRTIME).is_some());
        finish(&mut m, fb, mid + AIRTIME);
    }

    #[test]
    fn carrier_sense_transitions() {
        let mut m = Medium::new(3);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let t0 = SimTime::ZERO;
        assert!(!m.is_carrier_busy(b));
        let (frame, busy) = send(&mut m, a, t0, &[b]);
        assert_eq!(busy, [b]);
        assert!(m.is_carrier_busy(b));
        let (_, idle) = finish(&mut m, frame, t0 + AIRTIME);
        assert_eq!(idle, [b]);
        assert!(!m.is_carrier_busy(b));
    }

    #[test]
    fn carrier_stays_busy_under_overlap() {
        let mut m = Medium::new(3);
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let t0 = SimTime::ZERO;
        let (f1, _) = send(&mut m, a, t0, &[b]);
        let mid = t0 + AIRTIME / 2;
        let (f2, busy) = send(&mut m, c, mid, &[b]);
        // No new busy transition for b on the second frame.
        assert!(busy.is_empty());
        // First frame ends: b still hears the second -> no idle transition.
        let (_, idle) = finish(&mut m, f1, t0 + AIRTIME);
        assert!(idle.is_empty());
        assert!(m.is_carrier_busy(b));
        let (_, idle) = finish(&mut m, f2, mid + AIRTIME);
        assert_eq!(idle, [b]);
        assert!(!m.is_carrier_busy(b));
    }

    #[test]
    fn injected_loss_drops_roughly_p() {
        let mut m = Medium::new(2).with_drop_probability(0.3, 9);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let mut t = SimTime::ZERO;
        let mut decoded = 0;
        let trials = 2_000;
        for _ in 0..trials {
            let (s, _) = send(&mut m, a, t, &[b]);
            if first_cause(&mut m, s, t + AIRTIME).is_none() {
                decoded += 1;
            }
            t += AIRTIME;
        }
        let rate = decoded as f64 / trials as f64;
        assert!((rate - 0.7).abs() < 0.05, "decode rate {rate}");
    }

    #[test]
    fn frame_counters() {
        let mut m = Medium::new(2);
        let t0 = SimTime::ZERO;
        let (s, _) = send(&mut m, NodeId::new(0), t0, &[NodeId::new(1)]);
        finish(&mut m, s, t0 + AIRTIME);
        assert_eq!(m.frames_sent(), 1);
    }

    #[test]
    fn capture_lets_strong_frame_survive() {
        // b hears a strong frame from a and a weak one from c; with a
        // 4x SIR capture threshold the strong frame decodes.
        let mut m = Medium::new(3).with_capture(CaptureModel::new(4.0));
        let (a, c) = (NodeId::new(0), NodeId::new(2));
        let t0 = SimTime::ZERO;
        let strong = send_signals(&mut m, a, t0, &[listener(1, 100.0)]);
        let weak = send_signals(&mut m, c, t0, &[listener(1, 1.0)]);
        assert!(
            first_cause(&mut m, strong, t0 + AIRTIME).is_none(),
            "strong frame captures the receiver"
        );
        assert!(
            first_cause(&mut m, weak, t0 + AIRTIME).is_some(),
            "weak frame is lost"
        );
    }

    #[test]
    fn capture_garbles_comparable_frames() {
        let mut m = Medium::new(3).with_capture(CaptureModel::new(4.0));
        let (a, c) = (NodeId::new(0), NodeId::new(2));
        let t0 = SimTime::ZERO;
        let f1 = send_signals(&mut m, a, t0, &[listener(1, 2.0)]);
        let f2 = send_signals(&mut m, c, t0, &[listener(1, 1.5)]);
        assert!(first_cause(&mut m, f1, t0 + AIRTIME).is_some());
        assert!(first_cause(&mut m, f2, t0 + AIRTIME).is_some());
    }

    #[test]
    fn capture_sums_interference() {
        // One 10x frame against three 3x interferers: 10 < 4 * 9, so even
        // the strongest frame is garbled under summed interference.
        let mut m = Medium::new(5).with_capture(CaptureModel::new(4.0));
        let t0 = SimTime::ZERO;
        let strong = send_signals(&mut m, NodeId::new(1), t0, &[listener(0, 10.0)]);
        let others: Vec<FrameId> = (2..5u32)
            .map(|i| send_signals(&mut m, NodeId::new(i), t0, &[listener(0, 3.0)]))
            .collect();
        assert!(first_cause(&mut m, strong, t0 + AIRTIME).is_some());
        for tx in others {
            assert!(first_cause(&mut m, tx, t0 + AIRTIME).is_some());
        }
    }

    #[test]
    fn capture_does_not_help_half_duplex() {
        let mut m = Medium::new(2).with_capture(CaptureModel::new(1.0));
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let t0 = SimTime::ZERO;
        let (fb, _) = send(&mut m, b, t0, &[]);
        let fa = send_signals(&mut m, a, t0, &[listener(1, 1_000.0)]);
        assert!(first_cause(&mut m, fa, t0 + AIRTIME).is_some());
        finish(&mut m, fb, t0 + AIRTIME);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_signal_panics() {
        let mut m = Medium::new(2);
        send_signals(&mut m, NodeId::new(0), SimTime::ZERO, &[listener(1, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "already transmitting")]
    fn double_tx_panics() {
        let mut m = Medium::new(1);
        let t0 = SimTime::ZERO;
        send(&mut m, NodeId::new(0), t0, &[]);
        send(&mut m, NodeId::new(0), t0, &[]);
    }

    #[test]
    #[should_panic(expected = "cannot listen to itself")]
    fn self_listener_panics() {
        let mut m = Medium::new(1);
        send(&mut m, NodeId::new(0), SimTime::ZERO, &[NodeId::new(0)]);
    }

    #[test]
    fn a_radio_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Radio>(), 16);
    }

    fn listener(node: u32, signal: f64) -> Listener {
        Listener {
            node: NodeId::new(node),
            signal,
        }
    }

    /// Host 0 sends to 1 and 2, then host 3 to 2: the frames overlap at 2,
    /// and the first is still decodable at 1. Capture uses threshold 1.
    fn overlapped(capture: bool) -> Medium {
        let mut m = Medium::new(4);
        if capture {
            m = m.with_capture(CaptureModel::new(1.0));
        }
        let t0 = SimTime::ZERO;
        let (a, b) = (NodeId::new(0), NodeId::new(3));
        let to_both = [listener(1, 2.0), listener(2, 3.0)];
        send_signals(&mut m, a, t0, &to_both);
        send_signals(&mut m, b, t0, &[listener(2, 1.0)]);
        m
    }

    fn image(m: &Medium) -> Vec<u8> {
        let mut enc = WireEncoder::new();
        m.snapshot_into(&mut enc);
        enc.into_bytes()
    }

    /// A restored medium re-encodes to the same bytes, derives the same
    /// carrier and transmit state, and treats later frames alike: host 2
    /// starts sending to host 1, garbling what each of them still holds.
    #[test]
    fn a_restored_medium_derives_its_radios_and_continues_alike() {
        for capture in [false, true] {
            let mut live = overlapped(capture);
            let bytes = image(&live);
            let mut restored = Medium::new(4);
            if capture {
                restored = restored.with_capture(CaptureModel::new(1.0));
            }
            restored
                .restore_snapshot(&mut WireDecoder::new(&bytes))
                .expect("restores");
            assert_eq!(image(&restored), bytes);
            let t0 = SimTime::ZERO;
            let outcome = |m: &mut Medium| {
                let late = t0 + AIRTIME / 2;
                let c = send_signals(m, NodeId::new(2), late, &[listener(1, 1.0)]);
                let state: Vec<_> = (0..4)
                    .map(|h| {
                        (
                            m.is_carrier_busy(NodeId::new(h)),
                            m.is_transmitting(NodeId::new(h)),
                        )
                    })
                    .collect();
                let mut ended: Vec<_> = [(0, t0 + AIRTIME), (1, t0 + AIRTIME)]
                    .into_iter()
                    .map(|(slot, at)| finish(m, FrameId::new(slot), at))
                    .collect();
                ended.push(finish(m, c, late + AIRTIME));
                (state, ended, m.loss_counters())
            };
            assert_eq!(
                outcome(&mut live),
                outcome(&mut restored),
                "capture {capture}"
            );
        }
    }

    /// Frames no run could put on the air are refused at the field or the
    /// frame. Layout: host count (8), free-list head (4), slot count (8);
    /// slot 0 at 20 (tag, source 21, end 25, listener count 33, then id
    /// and cause at 41/45 and 46/50); slot 1 at 51 (source 52, its one
    /// listener at 72/76). Under capture each radio's arrivals follow:
    /// radio 1's one at 93 (slot, index, signal at 101), radio 2's two at
    /// 117 and 133 after their count at 109.
    #[test]
    fn restore_refuses_frames_no_run_could_put_on_the_air() {
        let id = |v: u32| v.to_le_bytes().to_vec();
        for (capture, what, patches, at) in [
            (false, "host id outside the run", vec![(41, id(9))], 41),
            (false, "host id names its owner", vec![(41, id(0))], 41),
            (
                false,
                "a frame lists one listener twice",
                vec![(46, id(1))],
                46,
            ),
            (false, "loss cause tag", vec![(45, vec![5])], 45),
            (
                false,
                "a host is the source of two frames on the air",
                vec![(52, id(0))],
                52,
            ),
            (
                false,
                "a frame is decodable at a listener that is transmitting",
                vec![(41, id(3))],
                21,
            ),
            (
                false,
                "two frames are decodable at one radio without capture",
                vec![(50, vec![0]), (76, vec![0])],
                52,
            ),
            (
                true,
                "a capture arrival names no delivery at its radio",
                vec![(97, id(1))],
                93,
            ),
            (
                true,
                "a capture arrival names no delivery at its radio",
                vec![(101, 0f64.to_le_bytes().to_vec())],
                93,
            ),
            (
                true,
                "a capture arrival repeats a delivery",
                vec![(133, id(0)), (137, id(1))],
                133,
            ),
        ] {
            let mut bytes = image(&overlapped(capture));
            for (offset, patch) in &patches {
                bytes[*offset..offset + patch.len()].copy_from_slice(patch);
            }
            let mut fresh = Medium::new(4);
            if capture {
                fresh = fresh.with_capture(CaptureModel::new(1.0));
            }
            let err = fresh.restore_snapshot(&mut WireDecoder::new(&bytes));
            assert_eq!(err, Err(WireError { at, what }), "{what}");
        }
        // Radio 2 keeps only the first of its two arrivals.
        let mut bytes = image(&overlapped(true));
        bytes.drain(133..149);
        bytes[109..117].copy_from_slice(&1u64.to_le_bytes());
        let mut fresh = Medium::new(4).with_capture(CaptureModel::new(1.0));
        let what = "a radio's capture arrivals differ from its frames on the air";
        let err = fresh.restore_snapshot(&mut WireDecoder::new(&bytes));
        assert_eq!(err, Err(WireError { at: 109, what }));
    }
}
