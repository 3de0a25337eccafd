//! The shared radio medium.
//!
//! [`Medium`] tracks every frame currently on the air and each host's
//! transceiver state. It is deliberately ignorant of *positions*: the
//! caller decides who is in range of a transmission (unit-disk or
//! otherwise) and passes the listener set to
//! [`begin_transmission`](Medium::begin_transmission). That keeps this
//! crate a pure, exhaustively testable state machine and confines geometry
//! to one place in the simulator.
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
    /// Sum over all causes: every delivery with `decoded == false`.
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

/// A frame currently being received (or jammed) at one listener.
#[derive(Debug, Clone)]
struct IncomingFrame {
    frame: FrameId,
    /// Received signal strength at this listener (arbitrary linear units;
    /// only ratios matter). 1.0 when the wiring does not model power.
    signal: f64,
    /// Why this frame is already lost at this listener; `None` while it is
    /// still decodable. First cause wins (see [`LossCause`]).
    cause: Option<LossCause>,
}

impl IncomingFrame {
    /// Marks the frame lost for `cause` unless an earlier cause already
    /// struck it.
    fn garble(&mut self, cause: LossCause) {
        self.cause.get_or_insert(cause);
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

/// Per-host transceiver state.
#[derive(Debug, Clone, Default)]
struct Radio {
    /// End of this host's own transmission, if it is transmitting.
    tx_end: Option<SimTime>,
    /// Foreign frames currently on the air at this host.
    incoming: Vec<IncomingFrame>,
}

impl Radio {
    fn carrier_busy(&self) -> bool {
        !self.incoming.is_empty()
    }
}

/// Record of one active transmission.
#[derive(Debug, Clone)]
struct ActiveTx {
    source: NodeId,
    listeners: Vec<NodeId>,
    end: SimTime,
}

/// Carrier-sense transition at one host caused by a transmission starting
/// or ending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CarrierChange {
    /// The host whose carrier-sense state flipped.
    pub node: NodeId,
    /// `true`: medium went busy; `false`: medium went idle.
    pub busy: bool,
}

/// Result of starting a transmission.
#[derive(Debug, Clone)]
pub struct TxStart {
    /// Identifier of the new frame.
    pub frame: FrameId,
    /// Hosts whose carrier sense flipped from idle to busy.
    pub carrier_changes: Vec<CarrierChange>,
}

/// One listener's outcome for a finished frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The listener.
    pub to: NodeId,
    /// `true` when the frame was decoded; `false` when it was lost (see
    /// [`cause`](Self::cause) for why).
    pub decoded: bool,
    /// Why the frame was lost; `None` exactly when `decoded` is `true`.
    pub cause: Option<LossCause>,
}

/// Result of a transmission ending.
#[derive(Debug, Clone)]
pub struct TxEnd {
    /// The transmitting host (now free to transmit again).
    pub source: NodeId,
    /// Per-listener outcomes, in listener order.
    pub deliveries: Vec<Delivery>,
    /// Hosts whose carrier sense flipped from busy to idle.
    pub carrier_changes: Vec<CarrierChange>,
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
/// let start = medium.begin_transmission(a, t0, t0 + SimDuration::from_micros(2432), &[b]);
/// let end = medium.end_transmission(start.frame, t0 + SimDuration::from_micros(2432));
/// assert!(end.deliveries[0].decoded);
/// ```
#[derive(Debug)]
pub struct Medium {
    radios: Vec<Radio>,
    /// Frames on the air, keyed by slot: a [`FrameId`] *is* its slab slot,
    /// so ids are recycled once a frame ends. Uniqueness holds among live
    /// frames — all any caller may key on — while lookup and removal stay
    /// hash-free.
    active: Slab<ActiveTx>,
    /// Listener vectors recycled between frames: ended frames return
    /// theirs here and starting frames take one back, so steady-state
    /// frame turnover performs no allocation.
    listener_pool: Vec<Vec<NodeId>>,
    /// Independent per-delivery loss probability (failure injection).
    drop_probability: f64,
    drop_rng: Option<SimRng>,
    capture: Option<CaptureModel>,
    losses: LossCounters,
    frames_sent: u64,
}

impl Medium {
    /// Creates a medium for `hosts` transceivers, all idle.
    pub fn new(hosts: usize) -> Self {
        Medium {
            radios: vec![Radio::default(); hosts],
            active: Slab::new(),
            listener_pool: Vec::new(),
            drop_probability: 0.0,
            drop_rng: None,
            capture: None,
            losses: LossCounters::default(),
            frames_sent: 0,
        }
    }

    /// Adds independent random frame loss with probability `p` per
    /// delivery — a failure-injection hook for robustness experiments.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_drop_probability(mut self, p: f64, rng: SimRng) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.drop_probability = p;
        self.drop_rng = Some(rng);
        self
    }

    /// Enables physical-layer capture with the given linear SIR
    /// threshold. Off by default (the paper's no-capture assumption).
    pub fn with_capture(mut self, model: CaptureModel) -> Self {
        self.capture = Some(model);
        self
    }

    /// `true` when a foreign signal is in the air at `node`.
    pub fn is_carrier_busy(&self, node: NodeId) -> bool {
        self.radios[node.index()].carrier_busy()
    }

    /// `true` when `node` is currently transmitting.
    pub fn is_transmitting(&self, node: NodeId) -> bool {
        self.radios[node.index()].tx_end.is_some()
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

    /// Scripted fault injection: marks `frame` as lost at `listener` with
    /// [`LossCause::Injected`] unless an earlier cause already struck it.
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
    /// Panics when `frame` is not on the air at `listener`.
    pub fn inject_loss(&mut self, frame: FrameId, listener: NodeId) -> bool {
        let incoming = self.radios[listener.index()]
            .incoming
            .iter_mut()
            .find(|inc| inc.frame == frame)
            .expect("inject_loss: frame is not on the air at listener");
        if incoming.cause.is_none() {
            incoming.cause = Some(LossCause::Injected);
            true
        } else {
            false
        }
    }

    /// Puts a frame on the air from `source`, heard by `listeners`,
    /// lasting until `end`.
    ///
    /// The listener set is captured now (receivers moving in or out of
    /// range mid-frame are not re-evaluated; at the paper's speeds a host
    /// moves millimeters per frame). The source must not appear in
    /// `listeners`.
    ///
    /// # Panics
    ///
    /// Panics if the source is already transmitting, if `end <= now`, or
    /// if `listeners` contains `source`.
    pub fn begin_transmission(
        &mut self,
        source: NodeId,
        now: SimTime,
        end: SimTime,
        listeners: &[NodeId],
    ) -> TxStart {
        let mut carrier_changes = Vec::new();
        let frame = self.begin_transmission_into(source, now, end, listeners, &mut carrier_changes);
        TxStart {
            frame,
            carrier_changes,
        }
    }

    /// Allocation-free variant of
    /// [`begin_transmission`](Self::begin_transmission): carrier-sense
    /// transitions are appended to the caller's reusable `carrier_changes`
    /// buffer (cleared first) and only the new [`FrameId`] is returned.
    pub fn begin_transmission_into(
        &mut self,
        source: NodeId,
        now: SimTime,
        end: SimTime,
        listeners: &[NodeId],
        carrier_changes: &mut Vec<CarrierChange>,
    ) -> FrameId {
        self.begin_tx_inner(
            source,
            now,
            end,
            listeners.iter().map(|&node| Listener { node, signal: 1.0 }),
            carrier_changes,
        )
    }

    /// Like [`begin_transmission`](Self::begin_transmission), but with a
    /// per-listener received signal strength so a [`CaptureModel`] can
    /// arbitrate overlaps.
    ///
    /// # Panics
    ///
    /// Same conditions as `begin_transmission`, plus non-positive signal
    /// strengths.
    pub fn begin_transmission_with_signals(
        &mut self,
        source: NodeId,
        now: SimTime,
        end: SimTime,
        listeners: &[Listener],
    ) -> TxStart {
        let mut carrier_changes = Vec::new();
        let frame = self.begin_transmission_with_signals_into(
            source,
            now,
            end,
            listeners,
            &mut carrier_changes,
        );
        TxStart {
            frame,
            carrier_changes,
        }
    }

    /// Allocation-free variant of
    /// [`begin_transmission_with_signals`](Self::begin_transmission_with_signals);
    /// see [`begin_transmission_into`](Self::begin_transmission_into).
    pub fn begin_transmission_with_signals_into(
        &mut self,
        source: NodeId,
        now: SimTime,
        end: SimTime,
        listeners: &[Listener],
        carrier_changes: &mut Vec<CarrierChange>,
    ) -> FrameId {
        self.begin_tx_inner(source, now, end, listeners.iter().copied(), carrier_changes)
    }

    /// Shared transmission-start path. Generic over the listener iterator
    /// so the plain-`NodeId` entry point can adapt on the fly instead of
    /// materializing a `Vec<Listener>`. Single pass: per-listener
    /// validation happens inline, in listener order, before any state for
    /// that listener is touched — and crucially before any drop-RNG draw,
    /// keeping the injected-loss stream identical to the old two-pass
    /// implementation.
    fn begin_tx_inner(
        &mut self,
        source: NodeId,
        now: SimTime,
        end: SimTime,
        listeners: impl Iterator<Item = Listener>,
        carrier_changes: &mut Vec<CarrierChange>,
    ) -> FrameId {
        assert!(end > now, "transmission must have positive duration");
        assert!(
            !self.is_transmitting(source),
            "{source} is already transmitting"
        );
        self.frames_sent += 1;

        // Reserve the frame's slot up front so listeners can be tagged
        // with it as they are processed; the listener list is filled in
        // below, reusing a pooled vector.
        let mut tx_listeners = self.listener_pool.pop().unwrap_or_default();
        tx_listeners.clear();
        let slot = self.active.insert(ActiveTx {
            source,
            listeners: tx_listeners,
            end,
        });
        let frame = FrameId::new(u64::from(slot));

        // Half-duplex: starting to transmit garbles everything the source
        // was in the middle of receiving.
        let src_radio = &mut self.radios[source.index()];
        src_radio.tx_end = Some(end);
        for inc in &mut src_radio.incoming {
            inc.garble(LossCause::HalfDuplex);
        }

        carrier_changes.clear();
        for listener in listeners {
            assert!(
                listener.node != source,
                "source {source} cannot listen to itself"
            );
            assert!(
                listener.signal.is_finite() && listener.signal > 0.0,
                "signal strengths must be positive and finite"
            );
            let radio = &mut self.radios[listener.node.index()];
            let was_busy = radio.carrier_busy();

            // A listener that is itself transmitting misses the frame
            // outright (half-duplex). This takes precedence over any
            // overlap: the transceiver could not have received the frame
            // even on a clear channel.
            let mut cause = radio.tx_end.is_some().then_some(LossCause::HalfDuplex);
            if !radio.incoming.is_empty() {
                match self.capture {
                    None => {
                        // No capture: any overlap garbles everything
                        // involved (paper §2.2.3).
                        for other in &mut radio.incoming {
                            other.garble(LossCause::Overlap);
                        }
                        cause.get_or_insert(LossCause::Overlap);
                    }
                    Some(model) => {
                        // SIR test: each frame survives only if its signal
                        // beats the sum of all others by the threshold.
                        let total: f64 =
                            radio.incoming.iter().map(|f| f.signal).sum::<f64>() + listener.signal;
                        for other in &mut radio.incoming {
                            if other.signal < model.threshold * (total - other.signal) {
                                other.garble(LossCause::Capture);
                            }
                        }
                        if listener.signal < model.threshold * (total - listener.signal) {
                            cause.get_or_insert(LossCause::Capture);
                        }
                    }
                }
            }
            // Injected channel loss (failure injection, not a collision).
            // The RNG is consulted only for frames still decodable, so the
            // injected-loss stream is independent of how much garbling the
            // contention model produced.
            if cause.is_none() && self.drop_probability > 0.0 {
                let rng = self
                    .drop_rng
                    .as_mut()
                    .expect("drop probability set without rng");
                if rng.gen_bool(self.drop_probability) {
                    cause = Some(LossCause::Injected);
                }
            }
            radio.incoming.push(IncomingFrame {
                frame,
                signal: listener.signal,
                cause,
            });
            if !was_busy {
                carrier_changes.push(CarrierChange {
                    node: listener.node,
                    busy: true,
                });
            }
            self.active[slot].listeners.push(listener.node);
        }
        frame
    }

    /// Takes a frame off the air at its scheduled end time, reporting
    /// which listeners decoded it and whose carrier sense went idle.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is unknown (already ended or never started) or if
    /// `now` differs from the end passed to `begin_transmission`.
    pub fn end_transmission(&mut self, frame: FrameId, now: SimTime) -> TxEnd {
        let mut deliveries = Vec::new();
        let mut carrier_changes = Vec::new();
        let source = self.end_transmission_into(frame, now, &mut deliveries, &mut carrier_changes);
        TxEnd {
            source,
            deliveries,
            carrier_changes,
        }
    }

    /// Allocation-free variant of
    /// [`end_transmission`](Self::end_transmission): per-listener outcomes
    /// and idle carrier-sense transitions are appended to the caller's
    /// reusable buffers (cleared first) and the transmitting host is
    /// returned. The frame's listener vector goes back into the internal
    /// pool for the next transmission.
    pub fn end_transmission_into(
        &mut self,
        frame: FrameId,
        now: SimTime,
        deliveries: &mut Vec<Delivery>,
        carrier_changes: &mut Vec<CarrierChange>,
    ) -> NodeId {
        let slot = u32::try_from(frame.as_u64()).expect("frame slot out of range");
        assert!(
            self.active.contains(slot),
            "ending a frame that is not on the air"
        );
        let tx = self.active.remove(slot);
        assert_eq!(tx.end, now, "frame ended at the wrong time");

        let src_radio = &mut self.radios[tx.source.index()];
        debug_assert_eq!(src_radio.tx_end, Some(now), "source lost its tx state");
        src_radio.tx_end = None;

        deliveries.clear();
        carrier_changes.clear();
        for &listener in &tx.listeners {
            let radio = &mut self.radios[listener.index()];
            let idx = radio
                .incoming
                .iter()
                .position(|inc| inc.frame == frame)
                .expect("listener lost an incoming frame");
            let inc = radio.incoming.swap_remove(idx);
            if let Some(cause) = inc.cause {
                self.losses.tally(cause);
            }
            deliveries.push(Delivery {
                to: listener,
                decoded: inc.cause.is_none(),
                cause: inc.cause,
            });
            if !radio.carrier_busy() {
                carrier_changes.push(CarrierChange {
                    node: listener,
                    busy: false,
                });
            }
        }
        let source = tx.source;
        self.listener_pool.push(tx.listeners);
        source
    }

    /// Serializes the medium's mutable state — transceivers, frames on
    /// the air, injected-drop RNG position, and loss counters — for a
    /// world snapshot. Configuration (host count, drop probability,
    /// capture model) is *not* written:
    /// [`restore_snapshot`](Self::restore_snapshot) targets a medium
    /// already built with the same configuration.
    pub fn snapshot_into(&self, enc: &mut WireEncoder) {
        enc.len(self.radios.len());
        for radio in &self.radios {
            enc.option(radio.tx_end, WireEncoder::time);
            enc.seq(&radio.incoming, |enc, inc| {
                enc.u64(inc.frame.as_u64());
                enc.f64(inc.signal);
                enc.u8(match inc.cause {
                    None => 0,
                    Some(LossCause::Overlap) => 1,
                    Some(LossCause::HalfDuplex) => 2,
                    Some(LossCause::Injected) => 3,
                    Some(LossCause::Capture) => 4,
                });
            });
        }
        self.active.encode(enc, |enc, tx| {
            tx.source.encode(enc);
            NodeId::encode_seq(enc, tx.listeners.iter().copied());
            enc.time(tx.end);
        });
        enc.option(self.drop_rng.as_ref(), WireEncoder::rng);
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
    pub fn restore_snapshot(&mut self, dec: &mut WireDecoder<'_>) -> Result<(), WireError> {
        let count_at = dec.position();
        if dec.len()? != self.radios.len() {
            return Err(WireError {
                at: count_at,
                what: "medium host count mismatch",
            });
        }
        for radio in &mut self.radios {
            radio.tx_end = dec.option(WireDecoder::time)?;
            radio.incoming = dec.seq(17, |dec| {
                let frame = FrameId::new(dec.u64()?);
                let signal = dec.f64()?;
                let (tag, invalid) = dec.tag("loss cause tag")?;
                let cause = match tag {
                    0 => None,
                    1 => Some(LossCause::Overlap),
                    2 => Some(LossCause::HalfDuplex),
                    3 => Some(LossCause::Injected),
                    4 => Some(LossCause::Capture),
                    _ => return Err(invalid),
                };
                Ok(IncomingFrame {
                    frame,
                    signal,
                    cause,
                })
            })?;
        }
        self.active = Slab::decode(dec, 20, |dec| {
            Ok(ActiveTx {
                source: NodeId::decode(dec)?,
                listeners: NodeId::decode_seq(dec)?,
                end: dec.time()?,
            })
        })?;
        let rng_at = dec.position();
        let drop_rng = dec.option(WireDecoder::rng)?;
        if drop_rng.is_some() != self.drop_rng.is_some() {
            return Err(WireError {
                at: rng_at,
                what: "drop RNG presence mismatch",
            });
        }
        self.drop_rng = drop_rng;
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

    #[test]
    fn clean_frame_is_decoded_by_all_listeners() {
        let mut m = Medium::new(4);
        let t0 = SimTime::ZERO;
        let start = m.begin_transmission(NodeId::new(0), t0, t0 + AIRTIME, &ids(1..4));
        let end = m.end_transmission(start.frame, t0 + AIRTIME);
        assert_eq!(end.deliveries.len(), 3);
        assert!(end.deliveries.iter().all(|d| d.decoded));
        assert_eq!(m.collision_count(), 0);
    }

    #[test]
    fn injected_loss_garbles_one_listener_without_touching_carrier() {
        let mut m = Medium::new(4);
        let t0 = SimTime::ZERO;
        let start = m.begin_transmission(NodeId::new(0), t0, t0 + AIRTIME, &ids(1..4));
        assert!(
            m.inject_loss(start.frame, NodeId::new(2)),
            "first cause wins"
        );
        assert!(
            !m.inject_loss(start.frame, NodeId::new(2)),
            "already garbled: injection must report not-applied"
        );
        assert!(
            m.is_carrier_busy(NodeId::new(2)),
            "fault is a deep fade, not silence"
        );
        let end = m.end_transmission(start.frame, t0 + AIRTIME);
        let outcomes: Vec<(bool, Option<LossCause>)> = end
            .deliveries
            .iter()
            .map(|d| (d.decoded, d.cause))
            .collect();
        assert_eq!(
            outcomes,
            vec![
                (true, None),
                (false, Some(LossCause::Injected)),
                (true, None)
            ]
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
        let f1 = m.begin_transmission(a, t0, t0 + AIRTIME, &[b]);
        let mid = t0 + AIRTIME / 2;
        let f2 = m.begin_transmission(c, mid, mid + AIRTIME, &[b]);
        let e1 = m.end_transmission(f1.frame, t0 + AIRTIME);
        assert!(!e1.deliveries[0].decoded, "first frame garbled");
        let e2 = m.end_transmission(f2.frame, mid + AIRTIME);
        assert!(!e2.deliveries[0].decoded, "second frame garbled");
        assert!(m.collision_count() >= 2);
    }

    #[test]
    fn hidden_terminal_collision() {
        // a -- b -- c: a and c cannot hear each other, both reach b.
        // Simultaneous transmissions collide at b only.
        let mut m = Medium::new(3);
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let t0 = SimTime::ZERO;
        let f1 = m.begin_transmission(a, t0, t0 + AIRTIME, &[b]);
        let f2 = m.begin_transmission(c, t0, t0 + AIRTIME, &[b]);
        assert!(!m.end_transmission(f1.frame, t0 + AIRTIME).deliveries[0].decoded);
        assert!(!m.end_transmission(f2.frame, t0 + AIRTIME).deliveries[0].decoded);
    }

    #[test]
    fn half_duplex_listener_misses_frame() {
        // b is transmitting (to nobody in range) while a transmits to b.
        let mut m = Medium::new(2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let t0 = SimTime::ZERO;
        let fb = m.begin_transmission(b, t0, t0 + AIRTIME, &[]);
        let fa = m.begin_transmission(a, t0, t0 + AIRTIME, &[b]);
        let delivery = m.end_transmission(fa.frame, t0 + AIRTIME).deliveries[0];
        assert!(!delivery.decoded);
        assert_eq!(delivery.cause, Some(LossCause::HalfDuplex));
        m.end_transmission(fb.frame, t0 + AIRTIME);
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
        let fb = m.begin_transmission(b, t0, t0 + AIRTIME, &[]);
        let fa = m.begin_transmission(a, t0, t0 + AIRTIME, &[b]);
        let fc = m.begin_transmission(c, t0, t0 + AIRTIME, &[d]);
        let fe = m.begin_transmission(e, t0, t0 + AIRTIME, &[d]);
        for f in [fb.frame, fa.frame, fc.frame, fe.frame] {
            m.end_transmission(f, t0 + AIRTIME);
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
        let fa = m.begin_transmission(a, t0, t0 + AIRTIME, &[b]);
        let quarter = t0 + AIRTIME / 4;
        let fb = m.begin_transmission(b, quarter, quarter + AIRTIME, &[]);
        let mid = t0 + AIRTIME / 2;
        let fc = m.begin_transmission(c, mid, mid + AIRTIME, &[b]);
        let delivery = m.end_transmission(fa.frame, t0 + AIRTIME).deliveries[0];
        assert_eq!(delivery.cause, Some(LossCause::HalfDuplex));
        m.end_transmission(fb.frame, quarter + AIRTIME);
        let late = m.end_transmission(fc.frame, mid + AIRTIME).deliveries[0];
        // The late frame arrived while b was transmitting: half-duplex too.
        assert_eq!(late.cause, Some(LossCause::HalfDuplex));
        assert_eq!(m.loss_counters().half_duplex, 2);
        assert_eq!(m.collision_count(), 0);
    }

    #[test]
    fn injected_drop_rng_not_consumed_for_garbled_frames() {
        // Two media share drop seed and probability. Medium `noisy` first
        // suffers a capture episode in which BOTH overlapping frames are
        // garbled (comparable signals), medium `clean` does not. The
        // injected-loss RNG must not be consumed for the garbled frames,
        // so the decode pattern of the subsequent clean frames is
        // identical on both media.
        let drop_p = 0.4;
        let run = |with_weak_frame: bool| -> Vec<bool> {
            let mut m = Medium::new(3)
                .with_capture(CaptureModel::new(4.0))
                .with_drop_probability(drop_p, SimRng::seed_from(77));
            let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
            let mut t = SimTime::ZERO;
            // The strong frame arrives on a clear channel, so it consumes
            // one drop-RNG draw in BOTH runs.
            let f1 = m.begin_transmission_with_signals(
                a,
                t,
                t + AIRTIME,
                &[Listener {
                    node: b,
                    signal: 100.0,
                }],
            );
            let f2 = with_weak_frame.then(|| {
                // The weak frame fails the SIR test the moment it arrives:
                // already garbled, so it must NOT consume a draw.
                m.begin_transmission_with_signals(
                    c,
                    t,
                    t + AIRTIME,
                    &[Listener {
                        node: b,
                        signal: 1.0,
                    }],
                )
            });
            m.end_transmission(f1.frame, t + AIRTIME);
            if let Some(f2) = f2 {
                let d2 = m.end_transmission(f2.frame, t + AIRTIME).deliveries[0];
                assert_eq!(d2.cause, Some(LossCause::Capture));
            }
            t += AIRTIME;
            (0..64)
                .map(|_| {
                    let s = m.begin_transmission(a, t, t + AIRTIME, &[b]);
                    let d = m.end_transmission(s.frame, t + AIRTIME).deliveries[0];
                    t += AIRTIME;
                    d.decoded
                })
                .collect()
        };
        let with_weak_frame = run(true);
        let without_weak_frame = run(false);
        assert_eq!(
            with_weak_frame, without_weak_frame,
            "garbled frames must not consume the injected-drop RNG"
        );
        assert!(
            with_weak_frame.iter().any(|&d| !d),
            "some injected drops expected at p = {drop_p}"
        );
    }

    #[test]
    fn injected_loss_is_reported_as_injected() {
        // p = 1: every otherwise-clean delivery is an injected drop.
        let mut m = Medium::new(2).with_drop_probability(1.0, SimRng::seed_from(3));
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let t0 = SimTime::ZERO;
        let s = m.begin_transmission(a, t0, t0 + AIRTIME, &[b]);
        let d = m.end_transmission(s.frame, t0 + AIRTIME).deliveries[0];
        assert_eq!(d.cause, Some(LossCause::Injected));
        assert_eq!(m.loss_counters().injected, 1);
        assert_eq!(m.collision_count(), 0);
    }

    #[test]
    fn starting_tx_garbles_reception_in_progress() {
        let mut m = Medium::new(2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let t0 = SimTime::ZERO;
        let fa = m.begin_transmission(a, t0, t0 + AIRTIME, &[b]);
        // b starts transmitting mid-reception.
        let mid = t0 + AIRTIME / 2;
        let fb = m.begin_transmission(b, mid, mid + AIRTIME, &[]);
        assert!(!m.end_transmission(fa.frame, t0 + AIRTIME).deliveries[0].decoded);
        m.end_transmission(fb.frame, mid + AIRTIME);
    }

    #[test]
    fn carrier_sense_transitions() {
        let mut m = Medium::new(3);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let t0 = SimTime::ZERO;
        assert!(!m.is_carrier_busy(b));
        let start = m.begin_transmission(a, t0, t0 + AIRTIME, &[b]);
        assert_eq!(
            start.carrier_changes,
            vec![CarrierChange {
                node: b,
                busy: true
            }]
        );
        assert!(m.is_carrier_busy(b));
        let end = m.end_transmission(start.frame, t0 + AIRTIME);
        assert_eq!(
            end.carrier_changes,
            vec![CarrierChange {
                node: b,
                busy: false
            }]
        );
        assert!(!m.is_carrier_busy(b));
    }

    #[test]
    fn carrier_stays_busy_under_overlap() {
        let mut m = Medium::new(3);
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let t0 = SimTime::ZERO;
        let f1 = m.begin_transmission(a, t0, t0 + AIRTIME, &[b]);
        let mid = t0 + AIRTIME / 2;
        let f2 = m.begin_transmission(c, mid, mid + AIRTIME, &[b]);
        // No new busy transition for b on the second frame.
        assert!(f2.carrier_changes.is_empty());
        // First frame ends: b still hears the second -> no idle transition.
        let e1 = m.end_transmission(f1.frame, t0 + AIRTIME);
        assert!(e1.carrier_changes.is_empty());
        assert!(m.is_carrier_busy(b));
        let e2 = m.end_transmission(f2.frame, mid + AIRTIME);
        assert_eq!(e2.carrier_changes.len(), 1);
        assert!(!m.is_carrier_busy(b));
    }

    #[test]
    fn injected_loss_drops_roughly_p() {
        let mut m = Medium::new(2).with_drop_probability(0.3, SimRng::seed_from(9));
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let mut t = SimTime::ZERO;
        let mut decoded = 0;
        let trials = 2_000;
        for _ in 0..trials {
            let s = m.begin_transmission(a, t, t + AIRTIME, &[b]);
            let e = m.end_transmission(s.frame, t + AIRTIME);
            if e.deliveries[0].decoded {
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
        let s = m.begin_transmission(NodeId::new(0), t0, t0 + AIRTIME, &[NodeId::new(1)]);
        m.end_transmission(s.frame, t0 + AIRTIME);
        assert_eq!(m.frames_sent(), 1);
    }

    #[test]
    fn capture_lets_strong_frame_survive() {
        // b hears a strong frame from a and a weak one from c; with a
        // 4x SIR capture threshold the strong frame decodes.
        let mut m = Medium::new(3).with_capture(CaptureModel::new(4.0));
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let t0 = SimTime::ZERO;
        let strong = m.begin_transmission_with_signals(
            a,
            t0,
            t0 + AIRTIME,
            &[Listener {
                node: b,
                signal: 100.0,
            }],
        );
        let weak = m.begin_transmission_with_signals(
            c,
            t0,
            t0 + AIRTIME,
            &[Listener {
                node: b,
                signal: 1.0,
            }],
        );
        assert!(
            m.end_transmission(strong.frame, t0 + AIRTIME).deliveries[0].decoded,
            "strong frame captures the receiver"
        );
        assert!(
            !m.end_transmission(weak.frame, t0 + AIRTIME).deliveries[0].decoded,
            "weak frame is lost"
        );
    }

    #[test]
    fn capture_garbles_comparable_frames() {
        let mut m = Medium::new(3).with_capture(CaptureModel::new(4.0));
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let t0 = SimTime::ZERO;
        let f1 = m.begin_transmission_with_signals(
            a,
            t0,
            t0 + AIRTIME,
            &[Listener {
                node: b,
                signal: 2.0,
            }],
        );
        let f2 = m.begin_transmission_with_signals(
            c,
            t0,
            t0 + AIRTIME,
            &[Listener {
                node: b,
                signal: 1.5,
            }],
        );
        assert!(!m.end_transmission(f1.frame, t0 + AIRTIME).deliveries[0].decoded);
        assert!(!m.end_transmission(f2.frame, t0 + AIRTIME).deliveries[0].decoded);
    }

    #[test]
    fn capture_sums_interference() {
        // One 10x frame against three 3x interferers: 10 < 4 * 9, so even
        // the strongest frame is garbled under summed interference.
        let mut m = Medium::new(5).with_capture(CaptureModel::new(4.0));
        let b = NodeId::new(0);
        let t0 = SimTime::ZERO;
        let strong = m.begin_transmission_with_signals(
            NodeId::new(1),
            t0,
            t0 + AIRTIME,
            &[Listener {
                node: b,
                signal: 10.0,
            }],
        );
        let mut others = Vec::new();
        for i in 2..5u32 {
            others.push(m.begin_transmission_with_signals(
                NodeId::new(i),
                t0,
                t0 + AIRTIME,
                &[Listener {
                    node: b,
                    signal: 3.0,
                }],
            ));
        }
        assert!(!m.end_transmission(strong.frame, t0 + AIRTIME).deliveries[0].decoded);
        for tx in others {
            assert!(!m.end_transmission(tx.frame, t0 + AIRTIME).deliveries[0].decoded);
        }
    }

    #[test]
    fn capture_does_not_help_half_duplex() {
        let mut m = Medium::new(2).with_capture(CaptureModel::new(1.0));
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let t0 = SimTime::ZERO;
        let fb = m.begin_transmission(b, t0, t0 + AIRTIME, &[]);
        let fa = m.begin_transmission_with_signals(
            a,
            t0,
            t0 + AIRTIME,
            &[Listener {
                node: b,
                signal: 1_000.0,
            }],
        );
        assert!(!m.end_transmission(fa.frame, t0 + AIRTIME).deliveries[0].decoded);
        m.end_transmission(fb.frame, t0 + AIRTIME);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_signal_panics() {
        let mut m = Medium::new(2);
        let t0 = SimTime::ZERO;
        m.begin_transmission_with_signals(
            NodeId::new(0),
            t0,
            t0 + AIRTIME,
            &[Listener {
                node: NodeId::new(1),
                signal: 0.0,
            }],
        );
    }

    #[test]
    #[should_panic(expected = "already transmitting")]
    fn double_tx_panics() {
        let mut m = Medium::new(1);
        let t0 = SimTime::ZERO;
        m.begin_transmission(NodeId::new(0), t0, t0 + AIRTIME, &[]);
        m.begin_transmission(NodeId::new(0), t0, t0 + AIRTIME, &[]);
    }

    #[test]
    #[should_panic(expected = "cannot listen to itself")]
    fn self_listener_panics() {
        let mut m = Medium::new(1);
        let t0 = SimTime::ZERO;
        m.begin_transmission(NodeId::new(0), t0, t0 + AIRTIME, &[NodeId::new(0)]);
    }
}
