//! The DCF broadcast state machine.
//!
//! One [`Dcf`] instance models one host's MAC. It is a *pure* state
//! machine: every input carries the current time and returns at most one
//! [`MacAction`] for the simulation wiring to execute (arm a timer, put a
//! frame on the air). The machine never talks to a channel directly, which
//! makes every DCF rule unit-testable in isolation. Carrier-sense and
//! timer inputs run hundreds of thousands of times per simulation, so the
//! return type is a plain `Option` — no per-call allocation.
//!
//! ## Rules implemented (paper §2.2.3 / IEEE 802.11 DCF, broadcast only)
//!
//! * A frame may be transmitted immediately if the medium has been idle
//!   for at least DIFS and no backoff is pending.
//! * A host wanting to transmit while the medium is busy (or that just
//!   finished a transmission — *post-backoff*) draws a backoff counter
//!   uniformly from `0..=CW_MIN` and counts it down in slot units, but
//!   only while the medium has been idle for DIFS; the counter freezes
//!   whenever the medium goes busy.
//! * Broadcast frames get no acknowledgment and no retry, so the
//!   contention window never doubles.
//! * Queued frames can be cancelled until the moment they hit the air
//!   (the suppression schemes' step S5).

use manet_sim_engine::{SimDuration, SimRng, SimTime, WireDecoder, WireEncoder, WireError};

use crate::timing::{CW_MIN, DIFS, SLOT};

/// Upper-layer handle for a queued frame, echoed back in
/// [`MacAction::BeginTx`] so the wiring can find the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameHandle(pub u64);

/// A side effect requested by the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacAction {
    /// Arm a timer to call [`Dcf::on_timer`] with this generation after
    /// `delay`. Only the latest generation is live; stale firings are
    /// ignored, so the wiring never needs to cancel timers.
    StartTimer {
        /// Time from now until the timer fires.
        delay: SimDuration,
        /// Generation token to pass back to [`Dcf::on_timer`].
        generation: u32,
    },
    /// Put the frame on the air now, for `airtime`. The wiring must call
    /// [`Dcf::on_tx_end`] when the airtime elapses.
    BeginTx {
        /// The frame to transmit.
        handle: FrameHandle,
        /// Payload size in bytes (echoed from [`Dcf::enqueue`]).
        payload_bytes: usize,
    },
}

/// Counters one [`Dcf`] keeps about its own operation.
///
/// Pure bookkeeping — nothing here feeds back into the state machine, so
/// the counters can be read (or merged across hosts) at any point without
/// perturbing determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacStats {
    /// Backoff counters drawn (post-transmission or deferral).
    pub backoff_draws: u64,
    /// Sum of all drawn backoff counters, in slots.
    pub backoff_slots_total: u64,
    /// Backoff countdowns frozen by the medium going busy.
    pub freezes: u64,
    /// Deferrals: transmission attempts pushed into backoff because the
    /// medium was busy at enqueue or interrupted the DIFS wait.
    pub deferrals: u64,
    /// Frames accepted into the transmit queue.
    pub enqueued: u64,
    /// Frames removed from the queue by [`Dcf::cancel`] before airing.
    pub cancelled: u64,
    /// Largest transmit-queue depth observed.
    pub max_queue_depth: u64,
    /// Per-value draw counts: `draw_counts[s]` is how many backoff draws
    /// came out as `s` slots, for `s` in `0..=CW_MIN`.
    pub draw_counts: [u64; (CW_MIN + 1) as usize],
}

impl Default for MacStats {
    fn default() -> Self {
        MacStats {
            backoff_draws: 0,
            backoff_slots_total: 0,
            freezes: 0,
            deferrals: 0,
            enqueued: 0,
            cancelled: 0,
            max_queue_depth: 0,
            draw_counts: [0; (CW_MIN + 1) as usize],
        }
    }
}

impl MacStats {
    /// Serializes the counters for a world snapshot.
    pub fn snapshot_into(&self, enc: &mut WireEncoder) {
        enc.u64(self.backoff_draws);
        enc.u64(self.backoff_slots_total);
        enc.u64(self.freezes);
        enc.u64(self.deferrals);
        enc.u64(self.enqueued);
        enc.u64(self.cancelled);
        enc.u64(self.max_queue_depth);
        for &count in &self.draw_counts {
            enc.u64(count);
        }
    }

    /// Decodes counters written by [`snapshot_into`](Self::snapshot_into).
    pub fn restore_snapshot(dec: &mut WireDecoder<'_>) -> Result<MacStats, WireError> {
        let mut stats = MacStats {
            backoff_draws: dec.u64()?,
            backoff_slots_total: dec.u64()?,
            freezes: dec.u64()?,
            deferrals: dec.u64()?,
            enqueued: dec.u64()?,
            cancelled: dec.u64()?,
            max_queue_depth: dec.u64()?,
            draw_counts: [0; (CW_MIN + 1) as usize],
        };
        for count in &mut stats.draw_counts {
            *count = dec.u64()?;
        }
        Ok(stats)
    }

    /// Folds another host's counters into this one (max for
    /// `max_queue_depth`, sums elsewhere).
    pub fn merge(&mut self, other: &MacStats) {
        self.backoff_draws += other.backoff_draws;
        self.backoff_slots_total += other.backoff_slots_total;
        self.freezes += other.freezes;
        self.deferrals += other.deferrals;
        self.enqueued += other.enqueued;
        self.cancelled += other.cancelled;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        for (mine, theirs) in self.draw_counts.iter_mut().zip(&other.draw_counts) {
            *mine += theirs;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Nothing to do.
    Idle,
    /// Want the channel (frame queued and/or post-backoff pending) but the
    /// medium is busy; waiting for it to go idle.
    WaitIdle,
    /// DIFS timer running; medium idle so far.
    Difs,
    /// Backoff countdown timer running; medium idle.
    Backoff {
        /// When the countdown started (for freezing).
        started: SimTime,
        /// Counter value at `started`, in slots.
        slots: u32,
    },
    /// Own frame on the air.
    Transmitting,
}

/// One host's DCF MAC for broadcast frames.
///
/// # Examples
///
/// ```
/// use manet_mac::{Dcf, FrameHandle, MacAction};
/// use manet_sim_engine::{SimRng, SimTime};
///
/// let mut mac = Dcf::new(SimRng::seed_from(1));
/// // Medium idle since time zero: an enqueue after DIFS transmits at once.
/// let now = SimTime::from_millis(1);
/// let action = mac.enqueue(FrameHandle(0), 280, now);
/// assert!(matches!(action, Some(MacAction::BeginTx { .. })));
/// ```
#[derive(Debug)]
pub struct Dcf {
    state: State,
    queue: std::collections::VecDeque<(FrameHandle, usize)>,
    /// Frozen backoff counter, if a backoff is in progress or pending.
    backoff_slots: Option<u32>,
    /// Medium busy according to carrier sense (foreign signals only).
    medium_busy: bool,
    /// Start of the current idle period, when `!medium_busy`.
    idle_since: SimTime,
    /// Live timer generation; stale timer firings are ignored. It wraps:
    /// a timer is stale after one bump, and outlives far fewer than 2³².
    generation: u32,
    rng: SimRng,
    /// Frames handed to the air (statistics).
    transmitted: u64,
    stats: MacStats,
}

impl Dcf {
    /// Creates an idle MAC whose medium is idle since time zero.
    pub fn new(rng: SimRng) -> Self {
        Dcf {
            state: State::Idle,
            queue: std::collections::VecDeque::new(),
            backoff_slots: None,
            medium_busy: false,
            idle_since: SimTime::ZERO,
            generation: 0,
            rng,
            transmitted: 0,
            stats: MacStats::default(),
        }
    }

    /// Operation counters accumulated so far.
    pub fn stats(&self) -> &MacStats {
        &self.stats
    }

    /// `true` while this host's own frame is on the air.
    pub fn is_transmitting(&self) -> bool {
        self.state == State::Transmitting
    }

    /// Queues a frame for transmission.
    pub fn enqueue(
        &mut self,
        handle: FrameHandle,
        payload_bytes: usize,
        now: SimTime,
    ) -> Option<MacAction> {
        self.queue.push_back((handle, payload_bytes));
        self.stats.enqueued += 1;
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len() as u64);
        match self.state {
            State::Idle => {
                if self.medium_busy {
                    // Deferral: a busy medium at arrival forces a backoff.
                    self.stats.deferrals += 1;
                    self.ensure_backoff();
                    self.state = State::WaitIdle;
                    None
                } else {
                    debug_assert!(self.backoff_slots.is_none());
                    let idle_for = now.saturating_duration_since(self.idle_since);
                    if idle_for >= DIFS {
                        Some(self.begin_tx(now))
                    } else {
                        // Wait out the remainder of DIFS.
                        self.state = State::Difs;
                        Some(self.arm_timer(DIFS - idle_for))
                    }
                }
            }
            // Machinery already running; the frame waits its turn.
            State::WaitIdle | State::Difs | State::Backoff { .. } | State::Transmitting => None,
        }
    }

    /// Removes a queued frame before it reaches the air.
    ///
    /// Returns `true` if the frame was still queued. A frame already on
    /// the air (or already transmitted) cannot be cancelled.
    pub fn cancel(&mut self, handle: FrameHandle) -> bool {
        let before = self.queue.len();
        self.queue.retain(|&(h, _)| h != handle);
        let removed = before != self.queue.len();
        if removed {
            self.stats.cancelled += 1;
        }
        removed
    }

    /// Carrier sense reports the medium busy (a foreign frame started).
    pub fn on_medium_busy(&mut self, now: SimTime) -> Option<MacAction> {
        if self.medium_busy {
            return None; // duplicate report; wiring coalesces, but be safe
        }
        self.medium_busy = true;
        match self.state {
            State::Idle | State::WaitIdle | State::Transmitting => None,
            State::Difs => {
                // DIFS interrupted: this counts as a deferral, so a backoff
                // is required when the medium frees up.
                self.bump_generation(); // invalidate the DIFS timer
                self.stats.deferrals += 1;
                self.ensure_backoff();
                self.state = State::WaitIdle;
                None
            }
            State::Backoff { started, slots } => {
                // Freeze: whole slots that elapsed are consumed.
                self.bump_generation(); // invalidate the countdown timer
                self.stats.freezes += 1;
                let elapsed = now.saturating_duration_since(started);
                let consumed = (elapsed.as_nanos() / SLOT.as_nanos()) as u32;
                self.backoff_slots = Some(slots.saturating_sub(consumed));
                self.state = State::WaitIdle;
                None
            }
        }
    }

    /// Carrier sense reports the medium idle (the last foreign frame
    /// ended).
    pub fn on_medium_idle(&mut self, now: SimTime) -> Option<MacAction> {
        if !self.medium_busy {
            return None;
        }
        self.medium_busy = false;
        self.idle_since = now;
        match self.state {
            State::WaitIdle => {
                self.state = State::Difs;
                Some(self.arm_timer(DIFS))
            }
            State::Idle | State::Transmitting => None,
            State::Difs | State::Backoff { .. } => {
                unreachable!("timer states imply an idle medium")
            }
        }
    }

    /// A timer armed by a previous [`MacAction::StartTimer`] fired.
    ///
    /// Stale generations (from timers superseded by a state change) are
    /// ignored and return no action.
    pub fn on_timer(&mut self, generation: u32, now: SimTime) -> Option<MacAction> {
        if generation != self.generation {
            return None;
        }
        match self.state {
            State::Difs => {
                debug_assert!(!self.medium_busy);
                match self.backoff_slots {
                    Some(0) => self.finish_backoff(now),
                    Some(slots) => {
                        self.state = State::Backoff {
                            started: now,
                            slots,
                        };
                        Some(self.arm_timer(SLOT * u64::from(slots)))
                    }
                    None => {
                        if self.queue.is_empty() {
                            self.state = State::Idle;
                            None
                        } else {
                            Some(self.begin_tx(now))
                        }
                    }
                }
            }
            State::Backoff { .. } => {
                self.backoff_slots = Some(0);
                self.finish_backoff(now)
            }
            State::Idle | State::WaitIdle | State::Transmitting => {
                unreachable!("live timer fired in state {:?}", self.state)
            }
        }
    }

    /// The frame started by [`MacAction::BeginTx`] finished its airtime.
    pub fn on_tx_end(&mut self, now: SimTime) -> Option<MacAction> {
        assert_eq!(
            self.state,
            State::Transmitting,
            "tx end without a transmission"
        );
        // Post-backoff: always back off after transmitting (paper §2.2.3).
        self.ensure_backoff();
        if self.medium_busy {
            self.state = State::WaitIdle;
            None
        } else {
            // Own transmission is not carrier: the idle period (for DIFS
            // accounting) starts now.
            self.idle_since = now;
            self.state = State::Difs;
            Some(self.arm_timer(DIFS))
        }
    }

    /// The generation a timer must carry to be live.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// `true` in DIFS or backoff, the states a live timer ends.
    pub fn awaits_timer(&self) -> bool {
        matches!(self.state, State::Difs | State::Backoff { .. })
    }

    /// Serializes the complete MAC state — state machine, transmit queue,
    /// frozen backoff, carrier view, timer generation, RNG stream, and
    /// counters — for a world snapshot. The queue is written in order by
    /// `put`, one frame per handle: handles and sizes are the wiring's.
    pub fn snapshot_into(
        &self,
        enc: &mut WireEncoder,
        mut put: impl FnMut(&mut WireEncoder, FrameHandle),
    ) {
        match self.state {
            State::Idle => enc.u8(0),
            State::WaitIdle => enc.u8(1),
            State::Difs => enc.u8(2),
            State::Backoff { started, slots } => {
                enc.u8(3);
                enc.time(started);
                enc.u32(slots);
            }
            State::Transmitting => enc.u8(4),
        }
        enc.seq(&self.queue, |enc, &(handle, _)| put(enc, handle));
        enc.option(self.backoff_slots, WireEncoder::u32);
        enc.bool(self.medium_busy);
        enc.time(self.idle_since);
        enc.u64(u64::from(self.generation));
        enc.rng(&self.rng);
        enc.u64(self.transmitted);
        self.stats.snapshot_into(enc);
    }

    /// Rebuilds a MAC from [`snapshot_into`](Self::snapshot_into) output;
    /// `get` reads one queued frame, at least `min_bytes` of input, and
    /// returns the handle and size the MAC queues it under.
    pub fn restore_snapshot<'a>(
        dec: &mut WireDecoder<'a>,
        min_bytes: usize,
        get: impl FnMut(&mut WireDecoder<'a>) -> Result<(FrameHandle, usize), WireError>,
    ) -> Result<Dcf, WireError> {
        let (tag, invalid) = dec.tag("DCF state tag")?;
        let state = match tag {
            0 => State::Idle,
            1 => State::WaitIdle,
            2 => State::Difs,
            3 => State::Backoff {
                started: dec.time()?,
                slots: dec.u32()?,
            },
            4 => State::Transmitting,
            _ => return Err(invalid),
        };
        let dcf = Dcf {
            state,
            queue: dec.seq(min_bytes, get)?.into(),
            backoff_slots: dec.option(WireDecoder::u32)?,
            medium_busy: dec.bool()?,
            idle_since: dec.time()?,
            generation: decode_generation(dec)?,
            rng: dec.rng()?,
            transmitted: dec.u64()?,
            stats: MacStats::restore_snapshot(dec)?,
        };
        // Only a finished backoff idles, and timers run on an idle medium.
        let idle_in_backoff = dcf.state == State::Idle && dcf.backoff_slots.is_some();
        if idle_in_backoff || dcf.awaits_timer() && dcf.medium_busy {
            let what = "DCF state contradicts its backoff or carrier view";
            return Err(WireError { what, ..invalid });
        }
        Ok(dcf)
    }

    /// Draws a post/deferral backoff counter if none is pending.
    fn ensure_backoff(&mut self) {
        if self.backoff_slots.is_none() {
            let slots = self.rng.gen_range_u32(0..CW_MIN + 1);
            self.stats.backoff_draws += 1;
            self.stats.backoff_slots_total += u64::from(slots);
            self.stats.draw_counts[slots as usize] += 1;
            self.backoff_slots = Some(slots);
        }
    }

    /// Backoff counter hit zero with the medium idle.
    fn finish_backoff(&mut self, now: SimTime) -> Option<MacAction> {
        self.backoff_slots = None;
        if self.queue.is_empty() {
            self.state = State::Idle;
            None
        } else {
            Some(self.begin_tx(now))
        }
    }

    fn begin_tx(&mut self, _now: SimTime) -> MacAction {
        let (handle, payload_bytes) = self
            .queue
            .pop_front()
            .expect("begin_tx requires a queued frame");
        self.state = State::Transmitting;
        self.transmitted += 1;
        MacAction::BeginTx {
            handle,
            payload_bytes,
        }
    }

    fn arm_timer(&mut self, delay: SimDuration) -> MacAction {
        self.bump_generation();
        MacAction::StartTimer {
            delay,
            generation: self.generation,
        }
    }

    fn bump_generation(&mut self) {
        self.generation = self.generation.wrapping_add(1);
    }
}

/// Reads a timer generation, which the wire carries as a `u64`.
///
/// # Errors
///
/// A generation above `u32::MAX` is refused where it stands.
pub fn decode_generation(dec: &mut WireDecoder<'_>) -> Result<u32, WireError> {
    let at = dec.position();
    u32::try_from(dec.u64()?).map_err(|_| WireError {
        at,
        what: "MAC timer generation above u32::MAX",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::frame_airtime;

    fn mac() -> Dcf {
        Dcf::new(SimRng::seed_from(42))
    }

    /// Drives a single timer action to completion, returning the follow-up
    /// action and the fire time.
    fn fire_timer(
        mac: &mut Dcf,
        action: Option<MacAction>,
        now: SimTime,
    ) -> (Option<MacAction>, SimTime) {
        match action {
            Some(MacAction::StartTimer { delay, generation }) => {
                let at = now + delay;
                (mac.on_timer(generation, at), at)
            }
            other => panic!("expected a StartTimer, got {other:?}"),
        }
    }

    #[test]
    fn idle_long_enough_transmits_immediately() {
        let mut m = mac();
        let now = SimTime::from_millis(5); // idle since 0 >> DIFS
        let action = m.enqueue(FrameHandle(1), 280, now);
        assert_eq!(
            action,
            Some(MacAction::BeginTx {
                handle: FrameHandle(1),
                payload_bytes: 280
            })
        );
        assert!(m.is_transmitting());
    }

    #[test]
    fn fresh_idle_waits_out_difs() {
        let mut m = mac();
        // Medium just went idle at t=1ms.
        m.medium_busy = true;
        let t_idle = SimTime::from_millis(1);
        m.on_medium_idle(t_idle);
        let t_enq = t_idle + SimDuration::from_micros(10);
        let action = m.enqueue(FrameHandle(1), 280, t_enq);
        // 10 of the 50 µs DIFS have elapsed; wait the remaining 40.
        match action {
            Some(MacAction::StartTimer { delay, generation }) => {
                assert_eq!(delay, SimDuration::from_micros(40));
                let fire = t_enq + delay;
                let next = m.on_timer(generation, fire);
                assert!(matches!(next, Some(MacAction::BeginTx { .. })));
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn busy_medium_defers_then_backs_off() {
        let mut m = mac();
        let t0 = SimTime::from_millis(1);
        m.on_medium_busy(t0);
        let action = m.enqueue(FrameHandle(1), 280, t0);
        assert!(action.is_none(), "must wait for idle");
        // Medium goes idle: DIFS first.
        let t1 = t0 + SimDuration::from_micros(500);
        let action = m.on_medium_idle(t1);
        let (action, t2) = fire_timer(&mut m, action, t1);
        // After DIFS, a backoff countdown runs (deferral draws a counter).
        match action {
            Some(MacAction::StartTimer { delay, generation }) => {
                assert_eq!(delay.as_nanos() % SLOT.as_nanos(), 0, "whole slots");
                let fire = t2 + delay;
                let next = m.on_timer(generation, fire);
                assert!(matches!(next, Some(MacAction::BeginTx { .. })));
            }
            Some(MacAction::BeginTx { .. }) => {
                // Counter happened to be zero: legal.
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn backoff_freezes_and_resumes() {
        // Force a known backoff by seeding: find a seed with slots >= 2.
        let mut m = Dcf::new(SimRng::seed_from(3));
        let t0 = SimTime::from_millis(1);
        m.on_medium_busy(t0);
        m.enqueue(FrameHandle(1), 280, t0);
        let t1 = t0 + SimDuration::from_micros(100);
        let action = m.on_medium_idle(t1);
        let (action, t2) = fire_timer(&mut m, action, t1); // DIFS done
        let (total_slots, gen) = match action {
            Some(MacAction::StartTimer { delay, generation }) => {
                ((delay.as_nanos() / SLOT.as_nanos()) as u32, generation)
            }
            _ => return, // zero backoff: nothing to freeze, covered elsewhere
        };
        if total_slots < 2 {
            return;
        }
        // Medium goes busy after exactly one slot: freeze with slots-1 left.
        let t3 = t2 + SLOT;
        assert!(m.on_medium_busy(t3).is_none());
        // The frozen timer must now be stale.
        assert!(m.on_timer(gen, t3 + SLOT).is_none());
        // Idle again: DIFS, then the *remaining* slots.
        let t4 = t3 + SimDuration::from_micros(300);
        let action = m.on_medium_idle(t4);
        let (action, _t5) = fire_timer(&mut m, action, t4);
        match action {
            Some(MacAction::StartTimer { delay, .. }) => {
                let remaining = (delay.as_nanos() / SLOT.as_nanos()) as u32;
                assert_eq!(remaining, total_slots - 1, "one slot was consumed");
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn post_backoff_runs_after_tx() {
        let mut m = mac();
        let t0 = SimTime::from_millis(5);
        let action = m.enqueue(FrameHandle(1), 280, t0);
        assert!(matches!(action, Some(MacAction::BeginTx { .. })));
        let t1 = t0 + frame_airtime(280);
        let action = m.on_tx_end(t1);
        // Post-backoff: DIFS timer starts even with an empty queue.
        assert!(matches!(action, Some(MacAction::StartTimer { .. })));
        assert!(!m.is_transmitting());
    }

    #[test]
    fn second_frame_waits_for_post_backoff() {
        let mut m = mac();
        let t0 = SimTime::from_millis(5);
        m.enqueue(FrameHandle(1), 280, t0);
        let t1 = t0 + frame_airtime(280);
        let difs_action = m.on_tx_end(t1);
        // Enqueue during post-backoff DIFS: no immediate transmission.
        let action = m.enqueue(FrameHandle(2), 280, t1);
        assert!(action.is_none());
        // Run DIFS then (possibly zero) backoff; frame 2 eventually sends.
        let (action, t2) = fire_timer(&mut m, difs_action, t1);
        let final_action = match action {
            Some(MacAction::StartTimer { delay, generation }) => m.on_timer(generation, t2 + delay),
            Some(MacAction::BeginTx { .. }) => action,
            other => panic!("unexpected {other:?}"),
        };
        match final_action {
            Some(MacAction::BeginTx { handle, .. }) => assert_eq!(handle, FrameHandle(2)),
            other => panic!("expected BeginTx, got {other:?}"),
        }
    }

    #[test]
    fn cancel_removes_queued_frame() {
        let mut m = mac();
        let t0 = SimTime::from_millis(1);
        m.on_medium_busy(t0); // park the frame in the queue
        m.enqueue(FrameHandle(7), 280, t0);
        assert!(m.cancel(FrameHandle(7)));
        assert!(!m.cancel(FrameHandle(7)), "double cancel is false");
        // Medium idles; DIFS+backoff complete with nothing to send.
        let t1 = t0 + SimDuration::from_micros(100);
        let action = m.on_medium_idle(t1);
        let (action, t2) = fire_timer(&mut m, action, t1);
        match action {
            None => {} // no backoff pending and queue empty
            Some(MacAction::StartTimer { delay, generation }) => {
                let after = m.on_timer(generation, t2 + delay);
                assert!(after.is_none(), "nothing to transmit after cancel");
            }
            Some(MacAction::BeginTx { .. }) => panic!("cancelled frame transmitted"),
        }
    }

    #[test]
    fn on_air_frame_cannot_be_cancelled() {
        let mut m = mac();
        let t0 = SimTime::from_millis(5);
        m.enqueue(FrameHandle(1), 280, t0);
        assert!(m.is_transmitting());
        assert!(!m.cancel(FrameHandle(1)));
    }

    #[test]
    fn stats_count_draws_deferrals_and_cancels() {
        let mut m = mac();
        let t0 = SimTime::from_millis(1);
        m.on_medium_busy(t0);
        // Busy at enqueue: a deferral that draws a backoff counter.
        m.enqueue(FrameHandle(1), 280, t0);
        let s = *m.stats();
        assert_eq!(s.enqueued, 1);
        assert_eq!(s.deferrals, 1);
        assert_eq!(s.backoff_draws, 1);
        assert_eq!(s.draw_counts.iter().sum::<u64>(), 1);
        assert_eq!(s.max_queue_depth, 1);
        // Cancel it while still queued.
        assert!(m.cancel(FrameHandle(1)));
        assert_eq!(m.stats().cancelled, 1);
    }

    #[test]
    fn stats_count_freezes() {
        // Find a seed whose first draw has slots >= 2 so the countdown can
        // actually be interrupted.
        let mut m = Dcf::new(SimRng::seed_from(3));
        let t0 = SimTime::from_millis(1);
        m.on_medium_busy(t0);
        m.enqueue(FrameHandle(1), 280, t0);
        let t1 = t0 + SimDuration::from_micros(100);
        let action = m.on_medium_idle(t1);
        let (action, t2) = fire_timer(&mut m, action, t1);
        if !matches!(action, Some(MacAction::StartTimer { .. })) {
            return; // zero backoff with this seed
        }
        m.on_medium_busy(t2 + SLOT);
        assert_eq!(m.stats().freezes, 1);
    }

    #[test]
    fn stats_merge_sums_and_maxes() {
        let mut a = MacStats {
            backoff_draws: 1,
            backoff_slots_total: 3,
            max_queue_depth: 2,
            ..MacStats::default()
        };
        a.draw_counts[3] = 1;
        let mut b = MacStats {
            backoff_draws: 2,
            backoff_slots_total: 5,
            freezes: 1,
            max_queue_depth: 5,
            ..MacStats::default()
        };
        b.draw_counts[3] = 1;
        b.draw_counts[2] = 1;
        a.merge(&b);
        assert_eq!(a.backoff_draws, 3);
        assert_eq!(a.backoff_slots_total, 8);
        assert_eq!(a.freezes, 1);
        assert_eq!(a.max_queue_depth, 5);
        assert_eq!(a.draw_counts[3], 2);
        assert_eq!(a.draw_counts[2], 1);
    }

    #[test]
    fn stale_timers_are_ignored() {
        let mut m = mac();
        assert!(m.on_timer(999, SimTime::from_millis(1)).is_none());
    }

    #[test]
    fn a_timer_generation_past_u32_is_refused() {
        let mut enc = WireEncoder::new();
        mac().snapshot_into(&mut enc, |_, _| unreachable!("the queue is empty"));
        let mut bytes = enc.into_bytes();
        let restore = |bytes: &[u8]| {
            Dcf::restore_snapshot(&mut WireDecoder::new(bytes), 1, |_| {
                unreachable!("the queue is empty")
            })
        };
        assert!(restore(&bytes).is_ok());
        // State tag, empty queue, no backoff, carrier flag, idle since.
        let at = 1 + 8 + 1 + 1 + 8;
        bytes[at..at + 8].copy_from_slice(&(1u64 << 32).to_le_bytes());
        let err = restore(&bytes).unwrap_err();
        let what = "MAC timer generation above u32::MAX";
        assert_eq!((err.at, err.what), (at, what));
    }

    /// An idle MAC holding a backoff, and DIFS or backoff on a busy
    /// medium, are states no input sequence reaches; the first input that
    /// meets one trips a debug assertion, so restore refuses both.
    #[test]
    fn a_state_its_backoff_or_carrier_view_contradicts_is_refused() {
        let restore = |m: &Dcf| {
            let mut enc = WireEncoder::new();
            m.snapshot_into(&mut enc, |_, _| unreachable!("the queue is empty"));
            let mut dec = WireDecoder::new(enc.as_slice());
            Dcf::restore_snapshot(&mut dec, 1, |_| unreachable!("the queue is empty")).map(drop)
        };
        assert_eq!(restore(&mac()), Ok(()));
        let mut idle = mac();
        idle.backoff_slots = Some(3);
        let mut difs = mac();
        (difs.state, difs.medium_busy) = (State::Difs, true);
        let what = "DCF state contradicts its backoff or carrier view";
        for m in [idle, difs] {
            assert_eq!(restore(&m), Err(WireError { at: 0, what }));
        }
    }

    #[test]
    fn duplicate_carrier_reports_are_harmless() {
        let mut m = mac();
        let t0 = SimTime::from_millis(1);
        assert!(m.on_medium_busy(t0).is_none());
        assert!(m.on_medium_busy(t0).is_none());
        assert!(m.on_medium_idle(t0 + SLOT).is_none());
        assert!(m.on_medium_idle(t0 + SLOT).is_none());
    }
}
