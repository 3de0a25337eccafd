//! The neighbor-coverage scheme (§3.3) — adaptivity without GPS.
//!
//! Host `x` keeps a set `T` of *pending* neighbors that, to its knowledge,
//! have not yet received the packet. On the first copy from `h`:
//! `T = N_x − N_{x,h} − {h}` (everything `h` covered is done). Every
//! further copy from some `h'` subtracts `N_{x,h'} ∪ {h'}`. The pending
//! rebroadcast survives only while `T` is non-empty.
//!
//! Accuracy depends on how fresh the HELLO-derived `N_x` / `N_{x,h}` sets
//! are — which is exactly the trade-off the paper's dynamic hello interval
//! addresses (§4.3).

use manet_phy::NodeId;

use crate::policy::{DuplicateDecision, FirstDecision, HearContext, RebroadcastPolicy};

/// Neighbor-coverage suppression.
#[derive(Debug, Clone, Default)]
pub struct NeighborCoverageScheme {
    /// The pending set `T`, strictly ascending.
    pending: Vec<NodeId>,
}

impl NeighborCoverageScheme {
    /// Creates the per-packet state for one host.
    pub fn new() -> Self {
        NeighborCoverageScheme::default()
    }

    /// The hosts still believed uncovered, ascending.
    pub fn pending(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.pending.iter().copied()
    }

    /// Overwrites the pending set `T` (strictly ascending) when restoring
    /// from a world snapshot.
    pub(crate) fn restore_pending(&mut self, pending: Vec<NodeId>) {
        self.pending = pending;
    }

    /// `T = T − N_{x,h} − {h}` as one merge pass: `T` and the context's
    /// neighbor slices are all ascending.
    fn subtract_sender(&mut self, ctx: &HearContext<'_>) {
        let mut covered = ctx.sender_neighbors.iter().peekable();
        self.pending.retain(|&p| {
            while covered.next_if(|&&c| c < p).is_some() {}
            p != ctx.sender && covered.peek() != Some(&&p)
        });
    }
}

impl RebroadcastPolicy for NeighborCoverageScheme {
    fn on_first_hear(&mut self, ctx: &HearContext<'_>) -> FirstDecision {
        // S1: T = N_x − N_{x,h} − {h}. Building T is the scheme's own
        // bookkeeping, once per (host, packet) first hear.
        // simlint: allow(hot-path-alloc) — per-packet policy state
        self.pending = ctx.neighbors.to_vec();
        self.subtract_sender(ctx);
        if self.pending.is_empty() {
            FirstDecision::Inhibit
        } else {
            FirstDecision::Schedule
        }
    }

    fn on_duplicate_hear(&mut self, ctx: &HearContext<'_>) -> DuplicateDecision {
        // S4: T = T − N_{x,h'} − {h'}.
        self.subtract_sender(ctx);
        if self.pending.is_empty() {
            DuplicateDecision::Cancel
        } else {
            DuplicateDecision::Keep
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_support::CtxFixture;

    fn id(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn sender_covering_everyone_inhibits() {
        // x's neighbors {1, 2, h}; h claims neighbors {1, 2, x}: T empty.
        let fx = CtxFixture {
            sender: id(9),
            neighbors: vec![id(1), id(2), id(9)],
            sender_neighbors: vec![id(0), id(1), id(2)],
            ..CtxFixture::default()
        };
        let mut p = NeighborCoverageScheme::new();
        assert_eq!(p.on_first_hear(&fx.ctx()), FirstDecision::Inhibit);
    }

    #[test]
    fn uncovered_neighbor_keeps_rebroadcast_alive() {
        // Host 3 is x's neighbor but not h's: T = {3}.
        let fx = CtxFixture {
            sender: id(9),
            neighbors: vec![id(1), id(3), id(9)],
            sender_neighbors: vec![id(1)],
            ..CtxFixture::default()
        };
        let mut p = NeighborCoverageScheme::new();
        assert_eq!(p.on_first_hear(&fx.ctx()), FirstDecision::Schedule);
        assert_eq!(p.pending().collect::<Vec<_>>(), vec![id(3)]);
    }

    #[test]
    fn duplicates_whittle_down_pending_set() {
        let mut fx = CtxFixture {
            sender: id(9),
            neighbors: vec![id(1), id(2), id(3), id(9)],
            sender_neighbors: vec![id(1)],
            ..CtxFixture::default()
        };
        let mut p = NeighborCoverageScheme::new();
        assert_eq!(p.on_first_hear(&fx.ctx()), FirstDecision::Schedule); // T = {2, 3}
                                                                         // A duplicate from host 2 (whose neighbors include nobody new):
        fx.sender = id(2);
        fx.sender_neighbors = vec![];
        assert_eq!(p.on_duplicate_hear(&fx.ctx()), DuplicateDecision::Keep); // T = {3}
                                                                             // A duplicate whose sender covers host 3:
        fx.sender = id(7);
        fx.sender_neighbors = vec![id(3)];
        assert_eq!(p.on_duplicate_hear(&fx.ctx()), DuplicateDecision::Cancel);
    }

    #[test]
    fn isolated_host_inhibits() {
        // No neighbors at all: nothing to cover.
        let fx = CtxFixture {
            sender: id(9),
            neighbors: vec![id(9)],
            sender_neighbors: vec![],
            ..CtxFixture::default()
        };
        let mut p = NeighborCoverageScheme::new();
        assert_eq!(p.on_first_hear(&fx.ctx()), FirstDecision::Inhibit);
    }

    #[test]
    fn stale_knowledge_errs_toward_rebroadcasting() {
        // h actually covers host 2, but x's record of N_{x,h} is stale and
        // omits it: x rebroadcasts anyway (redundant but safe).
        let fx = CtxFixture {
            sender: id(9),
            neighbors: vec![id(2), id(9)],
            sender_neighbors: vec![], // stale: h's real neighbors unknown
            ..CtxFixture::default()
        };
        let mut p = NeighborCoverageScheme::new();
        assert_eq!(p.on_first_hear(&fx.ctx()), FirstDecision::Schedule);
    }
}
