//! Host churn and fault injection: bookkeeping over the compiled scenario
//! timeline. A host keeps one MAC, neighbor table and variation tracker
//! for the whole run: going down powers the MAC off and (on a crash)
//! clears the protocol state in place; coming back reboots the same MAC.
//! Churn applies in script order, so what the scenario has done so far is
//! the fired entries booked in timeline order, which resume re-derives.

use manet_mac::FrameHandle;
use manet_phy::{FrameId, NodeId};
use manet_scenario::{Region, Scenario, WorldAction};
use manet_sim_engine::{EventQueue, SimDuration, SimRng, SimTime};

use crate::metrics::ScenarioCounts;
use crate::pure::PureAction;

use super::{Event, Stream, World};

/// How long a churn entry that cannot apply yet waits before it retries.
const RETRY: SimDuration = SimDuration::from_millis(5);

/// Why a checkpoint naming a scenario action that does not exist is refused.
pub(super) const OFF_TIMELINE: &str = "a queued scenario action is not on the timeline";

/// Runtime state of the configured scenario; absent on ordinary runs. A
/// checkpoint writes only the drop counts: the rest is the config's or
/// derived.
#[derive(Debug)]
pub(super) struct ScenarioState {
    /// The compiled world-action timeline, sorted by time;
    /// `Event::Scenario { index }` addresses into it.
    timeline: Vec<(SimTime, WorldAction)>,
    /// Per-host membership: `false` while a host is left or crashed.
    pub(super) active: Vec<bool>,
    /// Timeline index of the first churn entry not yet applied.
    next_churn: usize,
    /// Currently open link blackouts, as unordered host pairs.
    blackouts: Vec<(u32, u32)>,
    /// Drop probabilities of the currently open noise bursts.
    noise: Vec<f64>,
    /// Currently open partition regions.
    partitions: Vec<Region>,
    /// What the scenario did, reported in `SimReport::scenario`.
    pub(super) counts: ScenarioCounts,
}

/// The host a churn entry moves, and whether it comes up.
fn churn(action: WorldAction) -> Option<(u32, bool)> {
    match action {
        WorldAction::Leave { host } | WorldAction::Crash { host } => Some((host, false)),
        WorldAction::Join { host } | WorldAction::Recover { host } => Some((host, true)),
        _ => None,
    }
}

/// The first churn entry of `timeline` at or after `index` (its length
/// when there is none).
fn churn_from(timeline: &[(SimTime, WorldAction)], index: usize) -> usize {
    (index..timeline.len())
        .find(|&i| churn(timeline[i].1).is_some())
        .unwrap_or(timeline.len())
}

/// Closes the first open window equal to `window`, or says none is.
fn close<T: PartialEq>(
    open: &mut Vec<T>,
    window: T,
    what: &'static str,
) -> Result<(), &'static str> {
    open.remove(open.iter().position(|w| *w == window).ok_or(what)?);
    Ok(())
}

impl ScenarioState {
    /// The state before any entry of `scenario` fires — every host up, no
    /// window open — with each entry scheduled on `queue` in timeline
    /// order, so the queue's FIFO ties fire same-instant entries in
    /// declaration order.
    pub(super) fn new(scenario: &Scenario, hosts: usize, queue: &mut EventQueue<Event>) -> Self {
        let timeline = scenario.compile();
        for (index, &(at, _)) in timeline.iter().enumerate() {
            let index = u32::try_from(index).expect("scenario timeline too long");
            queue.schedule(at, Event::Scenario { index });
        }
        ScenarioState {
            next_churn: churn_from(&timeline, 0),
            timeline,
            active: vec![true; hosts],
            blackouts: Vec::new(),
            noise: Vec::new(),
            partitions: Vec::new(),
            counts: ScenarioCounts::default(),
        }
    }

    /// `true` when any fault window is currently open.
    pub(super) fn any_fault_open(&self) -> bool {
        !(self.blackouts.is_empty() && self.noise.is_empty() && self.partitions.is_empty())
    }

    /// Books the timeline entry at `index` as applied: membership and the
    /// churn counts, or the open windows. The live world and
    /// [`derive`](Self::derive) both book through here; churn out of script
    /// order or alternation, and an end whose start is not open, are
    /// refused by name.
    fn book(&mut self, index: usize) -> Result<(), &'static str> {
        let action = self.timeline[index].1;
        if let Some((host, up)) = churn(action) {
            if index != self.next_churn {
                return Err("a churn entry fired before an earlier one");
            }
            if std::mem::replace(&mut self.active[host as usize], up) == up {
                return Err("a churn entry breaks its host's alternation");
            }
            *match action {
                WorldAction::Leave { .. } => &mut self.counts.leaves,
                WorldAction::Crash { .. } => &mut self.counts.crashes,
                WorldAction::Join { .. } => &mut self.counts.joins,
                _ => &mut self.counts.recoveries,
            } += 1;
            self.next_churn = churn_from(&self.timeline, index + 1);
            return Ok(());
        }
        match action {
            WorldAction::BlackoutStart { a, b } => self.blackouts.push((a, b)),
            WorldAction::NoiseStart { drop_probability } => self.noise.push(drop_probability),
            WorldAction::PartitionStart { region } => self.partitions.push(region),
            WorldAction::BlackoutEnd { a, b } => {
                let what = "a blackout ends without a matching start";
                close(&mut self.blackouts, (a, b), what)?;
            }
            // Validation keeps drop probabilities in (0, 1]: `==` is bit equality.
            WorldAction::NoiseEnd { drop_probability } => {
                let what = "a noise burst ends without a matching start";
                close(&mut self.noise, drop_probability, what)?;
            }
            WorldAction::PartitionEnd { region } => {
                let what = "a partition ends without a matching start";
                close(&mut self.partitions, region, what)?;
            }
            _ => unreachable!("churn is booked above"),
        }
        Ok(())
    }

    /// Rebuilds what the entries fired so far left behind — membership,
    /// the open windows and the churn counts — by booking them in
    /// timeline order onto the state before any fired.
    /// An entry has fired exactly when none of the `queued` indices names
    /// it; an index queued twice is refused.
    pub(super) fn derive(&mut self, queued: impl Iterator<Item = u32>) -> Result<(), &'static str> {
        let mut pending = vec![false; self.timeline.len()];
        for index in queued {
            if std::mem::replace(pending.get_mut(index as usize).ok_or(OFF_TIMELINE)?, true) {
                return Err("two queued events name one scenario action");
            }
        }
        (0..pending.len())
            .filter(|&index| !pending[index])
            .try_for_each(|index| self.book(index))
    }
}

impl World {
    fn scenario_mut(&mut self) -> &mut ScenarioState {
        self.scenario
            .as_mut()
            .expect("scenario event without scenario state")
    }

    /// Applies the scenario timeline entry at `index`. Churn waits
    /// [`RETRY`] at a time while an earlier churn entry is waiting, and a
    /// rejoin while the host's last frame is on the air (a transmission
    /// cannot be recalled, and a host that is down starts none). So churn
    /// applies in script order: a Leave never meets its host down or takes
    /// the last host that is up.
    pub(super) fn apply_scenario_action(&mut self, index: u32, now: SimTime) {
        let st = self.scenario_mut();
        let action = st.timeline[index as usize].1;
        if let Some((host, up)) = churn(action) {
            let waiting = index as usize != st.next_churn;
            if waiting || up && self.medium.is_transmitting(NodeId::new(host)) {
                self.queue.schedule(now + RETRY, Event::Scenario { index });
                return;
            }
        }
        let booked = self.scenario_mut().book(index as usize);
        booked.expect("the timeline applies in script order");
        match action {
            WorldAction::Leave { host } => self.deactivate_host(host, false, now),
            WorldAction::Crash { host } => self.deactivate_host(host, true, now),
            WorldAction::Join { host } | WorldAction::Recover { host } => {
                self.reactivate_host(host, now);
            }
            _ => {}
        }
    }

    /// Takes a host off the air: its radio stops hearing and sending, its
    /// MAC powers off, all of its cancellable protocol activity is
    /// abandoned, and (on a crash) its protocol state is wiped. Mobility
    /// continues — a parked radio still moves with its host.
    fn deactivate_host(&mut self, host: u32, crash: bool, now: SimTime) {
        let node = NodeId::new(host);
        let n = &mut self.nodes[node.index()];
        n.mac.power_off();
        // Silence the beacon and the pending assessments.
        let hello = n.hello_pending.take().map(|(key, _)| key);
        for key in hello
            .into_iter()
            .chain(n.assessing.drain(..).map(|(_, key)| key))
        {
            self.queue.cancel(key);
        }
        // Abandon per-packet scheme state; MAC-queued rebroadcasts are
        // handled by the queue sweep below (which also covers HELLO
        // frames). On a crash the models also wipe the host's memory.
        self.dispatch(now, PureAction::Deactivate { node, crash });
        // Sweep the MAC queue: every payload still in `outgoing` belongs
        // to a queued (not yet airing) frame — `begin_transmission` takes
        // the payload out the moment a frame hits the air.
        let n = &mut self.nodes[node.index()];
        let slots: Vec<u32> = n.outgoing.iter().map(|(slot, _)| slot).collect();
        for slot in slots {
            let cancelled = n.mac.cancel(FrameHandle(u64::from(slot)));
            debug_assert!(cancelled, "orphan payload was not queued in the MAC");
            n.outgoing.remove(slot);
        }
    }

    /// Puts a host back on the air: its MAC reboots on its own stream and
    /// syncs its carrier view with whatever is airing around it.
    fn reactivate_host(&mut self, host: u32, now: SimTime) {
        let node = NodeId::new(host);
        self.nodes[node.index()].mac.reboot();
        // The rebooted MAC believes the medium is idle; correct that if a
        // neighbor's frame is airing over this host right now.
        if self.medium.is_carrier_busy(node) {
            self.drive_mac(node, now, |mac| mac.on_medium_busy(now));
        }
        if self.pure.reads.hello.is_some() {
            let key = [Stream::Rejoin as u64, u64::from(host), now.as_nanos()];
            let phase =
                SimRng::keyed(self.cfg.seed, &key).gen_duration_up_to(SimDuration::from_secs(1));
            let at = now + phase;
            let key = self.queue.schedule(at, Event::HelloTimer { node });
            self.nodes[node.index()].hello_pending = Some((key, at));
        }
    }

    /// Destroys individual deliveries of the frame that just started, per
    /// the open fault windows: a link blackout beats a partition-boundary
    /// crossing beats an ambient-noise draw (the draw is only made when no
    /// deterministic fault already applies). Injection respects the
    /// medium's first-cause-wins rule, so a delivery already garbled by a
    /// collision stays a collision.
    pub(super) fn apply_link_faults(
        &mut self,
        frame: FrameId,
        sender: NodeId,
        listeners: &[NodeId],
        now: SimTime,
    ) {
        enum FaultKind {
            Blackout,
            Partition,
            Noise,
        }
        let st = self.scenario.as_mut().expect("faults without a scenario");
        let s = sender.index() as u32;
        let sender_pos = self.geometry.position_at(sender, now);
        // Independent overlapping bursts compose: survive all or drop.
        let noise_drop = 1.0 - st.noise.iter().fold(1.0, |acc, &p| acc * (1.0 - p));
        // A delivery's noise draw is keyed by its frame and listener.
        let (seed, serial) = (self.cfg.seed, self.medium.frames_sent());
        let noisy = |l: u32| {
            let key = [Stream::Noise as u64, serial, u64::from(l)];
            noise_drop > 0.0 && SimRng::keyed(seed, &key).gen_unit_f64() < noise_drop
        };
        for (index, &listener) in listeners.iter().enumerate() {
            let l = listener.index() as u32;
            let kind = if st
                .blackouts
                .iter()
                .any(|&(a, b)| (a == s && b == l) || (a == l && b == s))
            {
                Some(FaultKind::Blackout)
            } else if st.partitions.iter().any(|region| {
                let lp = self.geometry.position_at(listener, now);
                region.contains(sender_pos.x, sender_pos.y) != region.contains(lp.x, lp.y)
            }) {
                Some(FaultKind::Partition)
            } else if noisy(l) {
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
