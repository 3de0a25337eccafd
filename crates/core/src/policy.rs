//! The rebroadcast-decision vocabulary shared by all schemes.
//!
//! Every scheme in the paper fits one shape (§3, steps S1–S5):
//!
//! 1. **S1** — on hearing packet `P` for the first time, initialize some
//!    per-packet state and decide whether to schedule a rebroadcast at all
//!    ([`SchemeSpec::first_hear`](crate::SchemeSpec::first_hear)).
//! 2. **S2** — wait a random number (0–31) of slots, then submit `P` to
//!    the MAC. The waiting and queueing are *common machinery* owned by
//!    the simulation world, not the scheme.
//! 3. **S4** — every time `P` is heard again before the transmission
//!    actually starts, update the state and possibly cancel
//!    ([`SchemeSpec::duplicate_hear`](crate::SchemeSpec::duplicate_hear)
//!    → S5).
//!
//! The procedure and its thresholds are the world's one
//! [`SchemeSpec`](crate::SchemeSpec); what exists per `(host, packet)` is a
//! [`PacketState`](crate::PacketState) value and nothing else.

use manet_geom::Vec2;
use manet_phy::NodeId;

/// Everything a scheme may consult when a copy of the packet arrives.
///
/// Fields the active scheme does not need are cheap defaults (e.g. the
/// neighbor slices are empty unless the neighbor-coverage scheme runs).
///
/// **Contract:** `neighbors` and `sender_neighbors` are strictly ascending
/// by id — neighbor coverage subtracts them from its pending set in one
/// merge pass. Neighbor tables and the geometry index both produce them
/// that way; [`PureModels`](crate::PureModels) asserts it in debug builds.
#[derive(Debug)]
pub struct HearContext<'a> {
    /// The hearing host's live neighbor count `n` (HELLO-derived or
    /// oracle, per configuration).
    pub neighbor_count: usize,
    /// The hearing host's position (GPS assumption of the location-based
    /// schemes).
    pub own_position: Vec2,
    /// The host this copy was heard from.
    pub sender: NodeId,
    /// The sender's position as carried in the packet.
    pub sender_position: Vec2,
    /// The hearing host's one-hop set `N_x` (neighbor-coverage only).
    pub neighbors: &'a [NodeId],
    /// The hearing host's knowledge of the sender's one-hop set `N_{x,h}`
    /// (neighbor-coverage only).
    pub sender_neighbors: &'a [NodeId],
    /// A uniform `[0, 1)` sample drawn by the simulation for this hear
    /// event (consumed by randomized schemes; deterministic ones ignore
    /// it).
    pub random_unit: f64,
}

/// Verdict on first hearing a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstDecision {
    /// Schedule a rebroadcast (enter the S2 assessment delay).
    Schedule,
    /// Do not rebroadcast at all (jump straight to S5).
    Inhibit,
}

/// Verdict on hearing a duplicate while the rebroadcast is still pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DuplicateDecision {
    /// Keep the pending rebroadcast (resume the interrupted waiting).
    Keep,
    /// Cancel the pending rebroadcast (S5); the host is inhibited from
    /// rebroadcasting this packet forever.
    Cancel,
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Helpers for scheme unit tests.

    use super::*;

    /// A reusable context backing store, so tests can tweak one field at a
    /// time.
    #[derive(Debug)]
    pub struct CtxFixture {
        pub neighbor_count: usize,
        pub own_position: Vec2,
        pub sender: NodeId,
        pub sender_position: Vec2,
        pub neighbors: Vec<NodeId>,
        pub sender_neighbors: Vec<NodeId>,
        pub random_unit: f64,
    }

    impl Default for CtxFixture {
        fn default() -> Self {
            CtxFixture {
                neighbor_count: 5,
                own_position: Vec2::ZERO,
                sender: NodeId::new(99),
                sender_position: Vec2::new(250.0, 0.0),
                neighbors: vec![],
                sender_neighbors: vec![],
                random_unit: 0.5,
            }
        }
    }

    impl CtxFixture {
        pub fn ctx(&self) -> HearContext<'_> {
            HearContext {
                neighbor_count: self.neighbor_count,
                own_position: self.own_position,
                sender: self.sender,
                sender_position: self.sender_position,
                neighbors: &self.neighbors,
                sender_neighbors: &self.sender_neighbors,
                random_unit: self.random_unit,
            }
        }
    }
}
