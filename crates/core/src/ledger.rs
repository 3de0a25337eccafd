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

use manet_sim_engine::{Slab, WireDecoder, WireEncoder, WireError};

use crate::schemes::PacketState;

/// A packet that was never heard by this host.
const UNHEARD: u32 = u32::MAX;
/// Transmitted or inhibited; nothing more will happen (terminal).
const DONE: u32 = u32::MAX - 1;
/// This host issued the packet; its original transmission is queued.
const SOURCE: u32 = u32::MAX - 2;
/// Largest usable slab slot; anything above collides with the sentinels.
const MAX_SLOT: u32 = u32::MAX - 3;

/// The live, still-cancellable progress of one packet at one host, with
/// the scheme state accumulated so far. Its wakeup key and MAC frame are
/// the dispatcher's to find, by packet.
#[derive(Debug)]
pub(crate) enum ActivePacket {
    /// In the S2 assessment delay.
    Assessing(PacketState),
    /// Submitted to the MAC; cancellable until it hits the air.
    Queued(PacketState),
}

/// What a host currently knows about one packet.
#[derive(Debug)]
pub(crate) enum PacketView<'a> {
    /// First copy: no state exists yet.
    Unheard,
    /// This host is the packet's source (its original send is pending).
    Source,
    /// Terminal: sent or inhibited.
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

    /// Packets `0..len` have a tag; later ones are unheard.
    pub(crate) fn len(&self) -> usize {
        self.tags.len()
    }

    /// The assessing or MAC-queued state of packet `seq`, if it has one.
    pub(crate) fn active_state(&self, seq: u32) -> Option<&ActivePacket> {
        let tag = self.tag(seq);
        (tag <= MAX_SLOT).then(|| &self.active[tag])
    }

    /// Whether this host issued packet `seq` and has not sent it yet.
    pub(crate) fn is_source(&self, seq: u32) -> bool {
        self.tag(seq) == SOURCE
    }

    /// Writes the ledger for a snapshot, seq by seq: a tag (0 unheard, 1
    /// source, 2 done, 3 assessing, 4 queued), an active one followed by its
    /// scheme state as `put` writes it. No slot is written: nothing outside
    /// the ledger names one.
    pub(crate) fn encode(
        &self,
        enc: &mut WireEncoder,
        mut put: impl FnMut(&mut WireEncoder, &PacketState),
    ) {
        enc.seq(&self.tags, |enc, &tag| match tag {
            UNHEARD => enc.u8(0),
            SOURCE => enc.u8(1),
            DONE => enc.u8(2),
            slot => {
                let (tag, state) = match &self.active[slot] {
                    ActivePacket::Assessing(state) => (3, state),
                    ActivePacket::Queued(state) => (4, state),
                };
                enc.u8(tag);
                put(enc, state);
            }
        });
    }

    /// Reads a ledger written by [`encode`](Self::encode); `get` reads one
    /// scheme state.
    pub(crate) fn decode<'a>(
        dec: &mut WireDecoder<'a>,
        mut get: impl FnMut(&mut WireDecoder<'a>) -> Result<PacketState, WireError>,
    ) -> Result<Self, WireError> {
        let mut active = Slab::new();
        let tags = dec.seq(1, |dec| {
            let (tag, invalid) = dec.tag("invalid packet ledger tag")?;
            Ok(match tag {
                0 => UNHEARD,
                1 => SOURCE,
                2 => DONE,
                3 => active.insert(ActivePacket::Assessing(get(dec)?)),
                4 => active.insert(ActivePacket::Queued(get(dec)?)),
                _ => return Err(invalid),
            })
        })?;
        Ok(PacketLedger { tags, active })
    }

    /// Abandons every active (assessing or MAC-queued) state, marking the
    /// affected packets done. Used when a host leaves the network: the
    /// dispatcher cancels the wakeups and frames itself.
    ///
    /// Cold path (host churn): walks the whole tag array, which is
    /// `O(packets issued so far)`.
    pub(crate) fn abandon_active(&mut self) {
        for tag in self.tags.iter_mut().filter(|tag| **tag <= MAX_SLOT) {
            self.active.remove(*tag);
            *tag = DONE;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_first_hear_to_done() {
        let mut ledger = PacketLedger::new();
        assert!(matches!(ledger.view(0), PacketView::Unheard));
        ledger.set_active(0, ActivePacket::Assessing(PacketState::Stateless));
        assert!(matches!(
            ledger.view(0),
            PacketView::Active(ActivePacket::Assessing(_))
        ));
        ledger.set_active(0, ActivePacket::Queued(PacketState::Stateless));
        assert!(matches!(
            ledger.view(0),
            PacketView::Active(ActivePacket::Queued(_))
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
        ledger.set_active(2, ActivePacket::Assessing(PacketState::Stateless));
        let taken = ledger.take_active(2);
        assert!(matches!(taken, ActivePacket::Assessing(_)));
        assert!(matches!(ledger.view(2), PacketView::Unheard));
        assert!(ledger.active.is_empty());
    }
}
