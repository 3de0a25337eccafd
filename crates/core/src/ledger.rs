//! Per-host packet bookkeeping for the simulation hot path.
//!
//! Every host must remember, for every broadcast packet, whether it has
//! heard it and what it decided — forever, because duplicate suppression
//! ("rebroadcast at most once") must hold for the whole run. The seed
//! implementation kept one `HashMap` keyed by `PacketId` per host, which
//! costs a hash on every delivery and an allocation per state change.
//!
//! [`PacketLedger`] exploits that packet sequence numbers are issued from
//! one dense global counter: the long-lived part of the state (unheard /
//! source / done) is a plain tag indexed by `seq`, and only the
//! *transient* cancellable states — assessing and MAC-queued — carry data,
//! living in a [`Slab`] whose slots free up the moment a packet settles.
//! At any instant a host has at most a handful of packets in flight, so
//! the slab stays tiny and steady-state transitions touch no allocator.

use std::collections::BTreeSet;

use manet_mac::FrameHandle;
use manet_sim_engine::{EventKey, Slab};

use crate::schemes::PacketState;

/// A packet that was never heard by this host.
const UNHEARD: u32 = u32::MAX;
/// Transmitted or inhibited; nothing more will happen (terminal).
const DONE: u32 = u32::MAX - 1;
/// This host issued the packet; its original transmission is queued.
const SOURCE: u32 = u32::MAX - 2;
/// Largest usable slab slot; anything above collides with the sentinels.
const MAX_SLOT: u32 = u32::MAX - 3;

/// The live, still-cancellable progress of one packet at one host.
#[derive(Debug)]
pub(crate) enum ActivePacket {
    /// In the S2 assessment delay; `key` cancels the wakeup.
    Assessing {
        /// Cancellation key of the pending `AssessmentDone` event.
        key: EventKey,
        /// The scheme state accumulated so far for this packet.
        state: PacketState,
    },
    /// Submitted to the MAC; cancellable until it hits the air.
    Queued {
        /// MAC queue handle for cancellation.
        handle: FrameHandle,
        /// The scheme state accumulated so far for this packet.
        state: PacketState,
    },
}

/// What a host currently knows about one packet.
#[derive(Debug)]
pub(crate) enum PacketView<'a> {
    /// First copy: no state exists yet.
    Unheard,
    /// This host is the packet's source (its original send is pending).
    Source,
    /// Terminal: transmitted or inhibited.
    Done,
    /// Assessing or MAC-queued; mutable so duplicate hears can update the
    /// scheme state in place.
    Active(&'a mut ActivePacket),
}

/// One host's packet states, keyed by the packet's dense sequence number.
#[derive(Debug, Default)]
pub(crate) struct PacketLedger {
    /// Per-seq tag: a sentinel, or the slab slot of the active state.
    tags: Vec<u32>,
    active: Slab<ActivePacket>,
}

impl PacketLedger {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn tag(&self, seq: u32) -> u32 {
        self.tags.get(seq as usize).copied().unwrap_or(UNHEARD)
    }

    fn set_tag(&mut self, seq: u32, tag: u32) {
        let i = seq as usize;
        if i >= self.tags.len() {
            self.tags.resize(i + 1, UNHEARD);
        }
        self.tags[i] = tag;
    }

    /// Current state of packet `seq`, with mutable access to any active
    /// scheme state.
    pub(crate) fn view(&mut self, seq: u32) -> PacketView<'_> {
        match self.tag(seq) {
            UNHEARD => PacketView::Unheard,
            DONE => PacketView::Done,
            SOURCE => PacketView::Source,
            slot => PacketView::Active(&mut self.active[slot]),
        }
    }

    /// Records that this host issued packet `seq` itself.
    pub(crate) fn mark_source(&mut self, seq: u32) {
        debug_assert_eq!(self.tag(seq), UNHEARD, "source packet already known");
        self.set_tag(seq, SOURCE);
    }

    /// Moves packet `seq` to the terminal state, releasing any active
    /// slab entry (and dropping its scheme state).
    pub(crate) fn mark_done(&mut self, seq: u32) {
        let tag = self.tag(seq);
        if tag <= MAX_SLOT {
            self.active.remove(tag);
        }
        self.set_tag(seq, DONE);
    }

    /// Stores an active (assessing or queued) state for packet `seq`,
    /// replacing and releasing any previous active state.
    pub(crate) fn set_active(&mut self, seq: u32, state: ActivePacket) {
        let tag = self.tag(seq);
        if tag <= MAX_SLOT {
            self.active.remove(tag);
        }
        let slot = self.active.insert(state);
        assert!(slot <= MAX_SLOT, "packet slab exhausted the tag space");
        self.set_tag(seq, slot);
    }

    /// Removes and returns the active state of packet `seq`.
    ///
    /// # Panics
    ///
    /// Panics when the packet has no active state.
    pub(crate) fn take_active(&mut self, seq: u32) -> ActivePacket {
        let tag = self.tag(seq);
        assert!(tag <= MAX_SLOT, "packet {seq} has no active state");
        self.set_tag(seq, UNHEARD);
        self.active.remove(tag)
    }

    /// The per-seq tag array and active-state slab, for a world snapshot.
    /// Slot layout matters: assessment keys and MAC frame handles stored
    /// elsewhere refer into the slab, so a snapshot must preserve it
    /// verbatim.
    pub(crate) fn snapshot_parts(&self) -> (&[u32], &Slab<ActivePacket>) {
        (&self.tags, &self.active)
    }

    /// Rebuilds a ledger from the parts exposed by
    /// [`snapshot_parts`](Self::snapshot_parts), refusing parts no ledger
    /// holds: each active state is named by exactly one tag. The error
    /// carries the index of the offending tag, or `None` for an active
    /// state no tag names.
    pub(crate) fn from_parts(
        tags: Vec<u32>,
        active: Slab<ActivePacket>,
    ) -> Result<Self, (Option<usize>, &'static str)> {
        let mut named = BTreeSet::new();
        for (i, &tag) in tags.iter().enumerate().filter(|&(_, &tag)| tag <= MAX_SLOT) {
            if !active.contains(tag) {
                return Err((Some(i), "a ledger tag names a vacant slot"));
            }
            if !named.insert(tag) {
                return Err((Some(i), "two ledger tags name one slot"));
            }
        }
        if named.len() != active.len() {
            return Err((None, "an active packet state has no ledger tag"));
        }
        Ok(PacketLedger { tags, active })
    }

    /// Abandons every active (assessing or MAC-queued) state, marking the
    /// affected packets done and appending the cancellation tokens —
    /// assessment event keys and MAC frame handles — to the caller's
    /// buffers (not cleared first). Used when a host leaves the network:
    /// the owner must cancel those events/frames itself.
    ///
    /// Cold path (host churn): walks the whole tag array, which is
    /// `O(packets issued so far)`.
    pub(crate) fn drain_active(
        &mut self,
        keys: &mut Vec<EventKey>,
        handles: &mut Vec<FrameHandle>,
    ) {
        if self.active.is_empty() {
            return;
        }
        for tag in &mut self.tags {
            if *tag <= MAX_SLOT {
                match self.active.remove(*tag) {
                    ActivePacket::Assessing { key, .. } => keys.push(key),
                    ActivePacket::Queued { handle, .. } => handles.push(handle),
                }
                *tag = DONE;
            }
        }
        debug_assert!(self.active.is_empty(), "tag walk missed a slab entry");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> EventKey {
        let mut q = manet_sim_engine::EventQueue::new();
        q.schedule(manet_sim_engine::SimTime::ZERO, ())
    }

    #[test]
    fn lifecycle_first_hear_to_done() {
        let mut ledger = PacketLedger::new();
        assert!(matches!(ledger.view(0), PacketView::Unheard));
        ledger.set_active(
            0,
            ActivePacket::Assessing {
                key: key(),
                state: PacketState::Stateless,
            },
        );
        assert!(matches!(
            ledger.view(0),
            PacketView::Active(ActivePacket::Assessing { .. })
        ));
        ledger.set_active(
            0,
            ActivePacket::Queued {
                handle: FrameHandle(4),
                state: PacketState::Stateless,
            },
        );
        assert!(matches!(
            ledger.view(0),
            PacketView::Active(ActivePacket::Queued { .. })
        ));
        ledger.mark_done(0);
        assert!(matches!(ledger.view(0), PacketView::Done));
        assert!(ledger.active.is_empty(), "done releases the slab slot");
    }

    #[test]
    fn source_and_sparse_seqs() {
        let mut ledger = PacketLedger::new();
        ledger.mark_source(7);
        assert!(matches!(ledger.view(7), PacketView::Source));
        assert!(matches!(ledger.view(3), PacketView::Unheard));
        assert!(matches!(ledger.view(1_000), PacketView::Unheard));
        ledger.mark_done(7);
        assert!(matches!(ledger.view(7), PacketView::Done));
    }

    #[test]
    fn take_active_releases_slot() {
        let mut ledger = PacketLedger::new();
        ledger.set_active(
            2,
            ActivePacket::Assessing {
                key: key(),
                state: PacketState::Stateless,
            },
        );
        let taken = ledger.take_active(2);
        assert!(matches!(taken, ActivePacket::Assessing { .. }));
        assert!(matches!(ledger.view(2), PacketView::Unheard));
        assert!(ledger.active.is_empty());
    }
}
