//! Test oracle for the lazy-purge [`NeighborTable`]: the table as it was
//! before — a map of entries whose `expire_into` eagerly rewrites
//! every surviving two-hop list — and differential property tests that
//! drive both through the public API with the same operations.

use std::collections::BTreeMap;
use std::rc::Rc;

use manet_net::{MembershipChange, NeighborTable};
use manet_phy::NodeId;
use manet_sim_engine::{SimDuration, SimTime, WireDecoder, WireEncoder, WireError};
use manet_testkit::{prop_check, Gen};

#[derive(Debug, Clone)]
struct EagerEntry {
    last_heard: SimTime,
    interval: SimDuration,
    neighbors: Vec<NodeId>,
}

/// The eager reference model.
#[derive(Debug, Clone, Default)]
struct EagerTable {
    entries: BTreeMap<NodeId, EagerEntry>,
    min_deadline: Option<SimTime>,
    joins: u64,
    leaves: u64,
}

impl EagerTable {
    fn record_hello(
        &mut self,
        from: NodeId,
        now: SimTime,
        interval: SimDuration,
        neighbors: &[NodeId],
    ) -> Option<MembershipChange> {
        let deadline = now + interval * 2;
        self.min_deadline = Some(self.min_deadline.map_or(deadline, |d| d.min(deadline)));
        let entry = EagerEntry {
            last_heard: now,
            interval,
            neighbors: neighbors.to_vec(),
        };
        if self.entries.insert(from, entry).is_some() {
            return None;
        }
        self.joins += 1;
        Some(MembershipChange::Joined(from))
    }

    fn expire_into(&mut self, now: SimTime, leaves: &mut Vec<MembershipChange>) {
        match self.min_deadline {
            Some(bound) if now <= bound => return,
            None => return,
            Some(_) => {}
        }
        let mut gone = Vec::new();
        let mut next_bound: Option<SimTime> = None;
        self.entries.retain(|&id, entry| {
            let deadline = entry.last_heard + entry.interval * 2;
            if now > deadline {
                gone.push(id);
                false
            } else {
                next_bound = Some(next_bound.map_or(deadline, |d| d.min(deadline)));
                true
            }
        });
        self.min_deadline = next_bound;
        for entry in self.entries.values_mut() {
            entry.neighbors.retain(|id| gone.binary_search(id).is_err());
        }
        self.leaves += gone.len() as u64;
        leaves.extend(gone.into_iter().map(MembershipChange::Left));
    }

    fn sorted_ids(&self) -> Vec<NodeId> {
        self.entries.keys().copied().collect()
    }

    fn neighbors_of(&self, h: NodeId) -> Option<&[NodeId]> {
        self.entries.get(&h).map(|e| e.neighbors.as_slice())
    }

    fn snapshot_into(&self, enc: &mut WireEncoder) {
        enc.len(self.entries.len());
        for (id, entry) in &self.entries {
            enc.u32(id.index() as u32);
            enc.u64(entry.last_heard.as_nanos());
            enc.u64(entry.interval.as_nanos());
            enc.len(entry.neighbors.len());
            for &neighbor in &entry.neighbors {
                enc.u32(neighbor.index() as u32);
            }
        }
        match self.min_deadline {
            None => enc.bool(false),
            Some(deadline) => {
                enc.bool(true);
                enc.u64(deadline.as_nanos());
            }
        }
        enc.u64(self.joins);
        enc.u64(self.leaves);
    }

    fn restore_snapshot(dec: &mut WireDecoder<'_>) -> Result<EagerTable, WireError> {
        let mut table = EagerTable::default();
        for _ in 0..dec.len()? {
            let id = NodeId::new(dec.u32()?);
            let last_heard = SimTime::from_nanos(dec.u64()?);
            let interval = SimDuration::from_nanos(dec.u64()?);
            let mut neighbors = Vec::new();
            for _ in 0..dec.len()? {
                neighbors.push(NodeId::new(dec.u32()?));
            }
            let entry = EagerEntry {
                last_heard,
                interval,
                neighbors,
            };
            table.entries.insert(id, entry);
        }
        if dec.bool()? {
            table.min_deadline = Some(SimTime::from_nanos(dec.u64()?));
        }
        table.joins = dec.u64()?;
        table.leaves = dec.u64()?;
        Ok(table)
    }
}

/// A table restored with a copy of each list, shared with nothing.
fn restore(bytes: &[u8]) -> Result<NeighborTable, WireError> {
    NeighborTable::restore_snapshot(&mut WireDecoder::new(bytes), |_, list| list.into())
}

fn bytes_of(snapshot: impl FnOnce(&mut WireEncoder)) -> Vec<u8> {
    let mut enc = WireEncoder::new();
    snapshot(&mut enc);
    enc.into_bytes()
}

/// Every observable of the two tables agrees. The per-id reads go through
/// a clone so they do not settle the lazy table's pending filters — only
/// the operations the property itself draws may do that.
fn assert_same(lazy: &NeighborTable, eager: &EagerTable, universe: u32) {
    assert_eq!(
        bytes_of(|enc| lazy.snapshot_into(enc)),
        bytes_of(|enc| eager.snapshot_into(enc)),
        "snapshot bytes"
    );
    assert_eq!(lazy.neighbor_ids(), eager.sorted_ids());
    assert_eq!(lazy.neighbor_count(), eager.entries.len());
    assert_eq!(
        (lazy.join_count(), lazy.leave_count()),
        (eager.joins, eager.leaves)
    );
    let mut probe = lazy.clone();
    for h in (0..universe).map(NodeId::new) {
        assert_eq!(lazy.contains(h), eager.entries.contains_key(&h));
        assert_eq!(probe.neighbors_of(h), eager.neighbors_of(h), "N_x,{h:?}");
    }
    // Reading every list changed nothing a snapshot can see.
    assert_eq!(
        bytes_of(|enc| probe.snapshot_into(enc)),
        bytes_of(|enc| lazy.snapshot_into(enc)),
    );
}

fn gen_id(g: &mut Gen, universe: u32) -> NodeId {
    NodeId::new(g.u32_in(0..universe))
}

prop_check! {
    /// The lazy table is observationally the eager one: equal leave lists,
    /// equal `neighbors_of` for every id, equal counters and equal snapshot
    /// bytes after every step of a random history — small universes (so
    /// hosts leave, rejoin and get re-listed), sorted and unsorted
    /// advertised lists, intervals that change between beacons, and several
    /// operations at one instant in whatever order they are drawn. A
    /// restore goes through only while every list is strictly ascending.
    fn lazy_table_matches_the_eager_reference(g, cases = 300) {
        let universe = if g.bool() { g.u32_in(1..9) } else { g.u32_in(1..151) };
        let mut lazy = NeighborTable::new();
        let mut eager = EagerTable::default();
        let mut now = SimTime::ZERO;
        for _ in 0..g.usize_in(1..150) {
            if g.u32_in(0..3) != 0 {
                now += SimDuration::from_millis(g.u64_in(1..1_800));
            }
            match g.u32_in(0..8) {
                0..=3 => {
                    let from = gen_id(g, universe);
                    let interval = SimDuration::from_millis(g.u64_in(1..6) * 500);
                    let mut listed = g.vec(0..universe.min(24) as usize + 1, |g| gen_id(g, universe));
                    if g.bool() {
                        listed.sort_unstable();
                        listed.dedup();
                    }
                    assert_eq!(
                        lazy.record_hello(from, now, interval, &listed),
                        eager.record_hello(from, now, interval, &listed)
                    );
                }
                4 | 5 => {
                    let (mut left_lazy, mut left_eager) = (Vec::new(), Vec::new());
                    lazy.expire_into(now, &mut left_lazy);
                    eager.expire_into(now, &mut left_eager);
                    assert_eq!(left_lazy, left_eager, "leave lists");
                }
                6 => {
                    let h = gen_id(g, universe);
                    assert_eq!(lazy.neighbors_of(h), eager.neighbors_of(h));
                }
                _ => {
                    // A restore refuses a list out of order, and only then.
                    let bytes = bytes_of(|enc| lazy.snapshot_into(enc));
                    let ascending = eager.entries.values().all(|e| e.neighbors.is_sorted_by(|a, b| a < b));
                    match restore(&bytes) {
                        Ok(table) => {
                            assert!(ascending, "restored a list out of order");
                            lazy = table;
                            eager = EagerTable::restore_snapshot(&mut WireDecoder::new(&bytes)).unwrap();
                        }
                        Err(e) => assert!(!ascending, "{e}"),
                    }
                }
            }
            assert_same(&lazy, &eager, universe);
        }
    }
}

prop_check! {
    /// Hearers of one HELLO share one copy of its list, as `PureModels`
    /// hands it out, yet each filters by its own departures: after every
    /// step each of 2–4 lazy tables is its own eager reference, so a filter
    /// at one hearer never changes another's `N_{x,h}`. Each hearer misses
    /// a HELLO, expires, reads and restores on its own draws, so their
    /// departures diverge.
    fn hearers_of_shared_lists_each_match_their_own_reference(g, cases = 200) {
        let universe = if g.bool() { g.u32_in(1..9) } else { g.u32_in(1..41) };
        let hearers = g.usize_in(2..5);
        let mut lazy = vec![NeighborTable::new(); hearers];
        let mut eager = vec![EagerTable::default(); hearers];
        let mut now = SimTime::ZERO;
        for _ in 0..g.usize_in(1..150) {
            if g.u32_in(0..3) != 0 {
                now += SimDuration::from_millis(g.u64_in(1..1_800));
            }
            let at = g.usize_in(0..hearers);
            match g.u32_in(0..7) {
                0..=2 => {
                    let from = gen_id(g, universe);
                    let interval = SimDuration::from_millis(g.u64_in(1..6) * 500);
                    let mut listed = g.vec(0..universe.min(24) as usize + 1, |g| gen_id(g, universe));
                    listed.sort_unstable();
                    listed.dedup();
                    let shared: Rc<[NodeId]> = listed.as_slice().into();
                    for k in 0..hearers {
                        if k == at || g.bool() {
                            assert_eq!(
                                lazy[k].record_shared(from, now, interval, Rc::clone(&shared)),
                                eager[k].record_hello(from, now, interval, &listed)
                            );
                        }
                    }
                }
                3 | 4 => {
                    let (mut left_lazy, mut left_eager) = (Vec::new(), Vec::new());
                    lazy[at].expire_into(now, &mut left_lazy);
                    eager[at].expire_into(now, &mut left_eager);
                    assert_eq!(left_lazy, left_eager, "leave lists");
                }
                5 => {
                    let h = gen_id(g, universe);
                    assert_eq!(lazy[at].neighbors_of(h), eager[at].neighbors_of(h));
                }
                _ => {
                    let bytes = bytes_of(|enc| lazy[at].snapshot_into(enc));
                    lazy[at] = restore(&bytes).unwrap();
                }
            }
            for (lazy, eager) in lazy.iter().zip(&eager) {
                assert_same(lazy, eager, universe);
            }
        }
    }
}

#[test]
fn a_host_that_leaves_rejoins_and_is_relisted() {
    const SEC: SimDuration = SimDuration::from_secs(1);
    let (relay, flapper, other) = (NodeId::new(2), NodeId::new(1), NodeId::new(9));
    let mut lazy = NeighborTable::new();
    let mut eager = EagerTable::default();
    let mut leaves = Vec::new();
    let mut both = |at_ms: u64, from: NodeId, interval: SimDuration, listed: &[NodeId]| {
        let now = SimTime::from_millis(at_ms);
        lazy.expire_into(now, &mut leaves);
        eager.expire_into(now, &mut Vec::new());
        lazy.record_hello(from, now, interval, listed);
        eager.record_hello(from, now, interval, listed);
        assert_same(&lazy, &eager, 10);
    };
    both(0, flapper, SEC, &[]);
    both(0, relay, SEC * 10, &[flapper, other]);
    // The flapper goes silent and expires (hidden from the relay's list,
    // unread), rejoins on its own beacon — still hidden: the relay has not
    // re-listed it — then departs again before the relay finally re-lists.
    both(2_500, other, SEC * 10, &[flapper]);
    both(3_000, flapper, SEC, &[relay]);
    both(5_500, other, SEC * 10, &[]);
    both(6_000, relay, SEC * 10, &[flapper, other]);
    assert_eq!(lazy.neighbors_of(relay), Some(&[flapper, other][..]));
    assert_eq!(leaves.len(), 2);
}
