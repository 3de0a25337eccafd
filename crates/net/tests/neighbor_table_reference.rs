//! Test oracle for [`NeighborTable`]: an independent model (a `BTreeMap`
//! of entries, each holding its own copy of the list its neighbor last
//! advertised) and differential property tests that drive both through
//! the public API with the same operations.

use std::collections::BTreeMap;
use std::rc::Rc;

use manet_net::{MembershipChange, NeighborTable};
use manet_phy::NodeId;
use manet_sim_engine::{SimDuration, SimTime, WireDecoder, WireEncoder, WireError};
use manet_testkit::{prop_check, Gen};

#[derive(Debug, Clone)]
struct ReferenceEntry {
    last_heard: SimTime,
    interval: SimDuration,
    neighbors: Vec<NodeId>,
}

/// The reference model.
#[derive(Debug, Clone, Default)]
struct ReferenceTable {
    entries: BTreeMap<NodeId, ReferenceEntry>,
    min_deadline: Option<SimTime>,
    joins: u64,
    leaves: u64,
}

impl ReferenceTable {
    fn record_hello(
        &mut self,
        from: NodeId,
        now: SimTime,
        interval: SimDuration,
        neighbors: &[NodeId],
    ) -> Option<MembershipChange> {
        let deadline = now + interval * 2;
        self.min_deadline = Some(self.min_deadline.map_or(deadline, |d| d.min(deadline)));
        let entry = ReferenceEntry {
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

    fn restore_snapshot(dec: &mut WireDecoder<'_>) -> Result<ReferenceTable, WireError> {
        let mut table = ReferenceTable::default();
        for _ in 0..dec.len()? {
            let id = NodeId::new(dec.u32()?);
            let last_heard = SimTime::from_nanos(dec.u64()?);
            let interval = SimDuration::from_nanos(dec.u64()?);
            let mut neighbors = Vec::new();
            for _ in 0..dec.len()? {
                neighbors.push(NodeId::new(dec.u32()?));
            }
            let entry = ReferenceEntry {
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

/// A table checkpointed at `now`, restored as [`OWNER`]'s with a copy of
/// each list, shared with nothing.
fn restore(bytes: &[u8], now: SimTime) -> Result<NeighborTable, WireError> {
    let dec = &mut WireDecoder::new(bytes);
    NeighborTable::restore_snapshot(dec, now, HOSTS, OWNER, |_, list| list.into())
}

/// A count-only table checkpointed at `now`, restored as [`OWNER`]'s.
fn restore_count_only(bytes: &[u8], now: SimTime) -> Result<NeighborTable, WireError> {
    NeighborTable::restore_count_only(&mut WireDecoder::new(bytes), now, HOSTS, OWNER)
}

/// The run a table is restored into: every universe's ids (below 600)
/// and the table's owner, host 600, which no universe holds.
const HOSTS: usize = 601;
const OWNER: NodeId = NodeId::new(600);

fn bytes_of(snapshot: impl FnOnce(&mut WireEncoder)) -> Vec<u8> {
    let mut enc = WireEncoder::new();
    snapshot(&mut enc);
    enc.into_bytes()
}

/// Every observable of the two tables agrees, `N_x` in ascending order.
fn assert_same(table: &NeighborTable, reference: &ReferenceTable, universe: u32) {
    assert_same_members(table, reference, universe);
    assert_eq!(table.neighbor_ids(), reference.sorted_ids(), "N_x in order");
}

/// Every observable of the two tables agrees, `N_x` as a set: a
/// count-only table keeps its ids in no set order.
fn assert_same_members(table: &NeighborTable, reference: &ReferenceTable, universe: u32) {
    assert_eq!(
        bytes_of(|enc| table.snapshot_into(enc)),
        bytes_of(|enc| reference.snapshot_into(enc)),
        "snapshot bytes"
    );
    let mut ids = table.neighbor_ids().to_vec();
    ids.sort_unstable();
    assert_eq!(ids, reference.sorted_ids());
    assert_eq!(table.neighbor_count(), reference.entries.len());
    assert_eq!(
        (table.join_count(), table.leave_count()),
        (reference.joins, reference.leaves)
    );
    for h in (0..universe).map(NodeId::new) {
        assert_eq!(table.contains(h), reference.entries.contains_key(&h));
        assert_eq!(
            table.neighbors_of(h),
            reference.neighbors_of(h),
            "N_x,{h:?}"
        );
    }
}

fn gen_id(g: &mut Gen, universe: u32) -> NodeId {
    NodeId::new(g.u32_in(0..universe))
}

prop_check! {
    /// The table is observationally the reference: equal leave lists,
    /// equal `neighbors_of` for every id, equal counters and equal snapshot
    /// bytes after every step of a random history — small universes (so
    /// hosts leave, rejoin and get re-listed), sorted and unsorted
    /// advertised lists, intervals that change between beacons, and several
    /// operations at one instant in whatever order they are drawn. A
    /// restore goes through only while every list is strictly ascending
    /// and leaves out its own entry.
    fn table_matches_the_reference(g, cases = 300) {
        let universe = if g.bool() { g.u32_in(1..9) } else { g.u32_in(1..151) };
        let mut table = NeighborTable::new();
        let mut reference = ReferenceTable::default();
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
                        table.record_hello(from, now, interval, &listed),
                        reference.record_hello(from, now, interval, &listed)
                    );
                }
                4..=6 => {
                    let (mut left_table, mut left_reference) = (Vec::new(), Vec::new());
                    table.expire_into(now, &mut left_table);
                    reference.expire_into(now, &mut left_reference);
                    assert_eq!(left_table, left_reference, "leave lists");
                }
                _ => {
                    // A restore refuses a list out of order or naming its
                    // entry, and only then.
                    let bytes = bytes_of(|enc| table.snapshot_into(enc));
                    let legal = reference.entries.iter().all(|(h, e)| {
                        e.neighbors.is_sorted_by(|a, b| a < b) && !e.neighbors.contains(h)
                    });
                    match restore(&bytes, now) {
                        Ok(restored) => {
                            assert!(legal, "restored a list out of order or naming its entry");
                            table = restored;
                            reference = ReferenceTable::restore_snapshot(&mut WireDecoder::new(&bytes)).unwrap();
                        }
                        Err(e) => assert!(!legal, "{e}"),
                    }
                }
            }
            assert_same(&table, &reference, universe);
        }
    }
}

prop_check! {
    /// Hearers of one HELLO share one copy of its list, as `PureModels`
    /// hands it out: after every step each of 2–4 tables is its own
    /// reference, so what one hearer's expiry, restore or later HELLO does
    /// never changes another's `N_{x,h}`. Each hearer misses a HELLO,
    /// expires and restores on its own draws, so their memberships diverge.
    fn hearers_of_shared_lists_each_match_their_own_reference(g, cases = 200) {
        let universe = if g.bool() { g.u32_in(1..9) } else { g.u32_in(1..41) };
        let hearers = g.usize_in(2..5);
        let mut tables = vec![NeighborTable::new(); hearers];
        let mut references = vec![ReferenceTable::default(); hearers];
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
                    // A HELLO never lists its sender.
                    listed.retain(|&h| h != from);
                    let shared: Rc<[NodeId]> = listed.as_slice().into();
                    for k in 0..hearers {
                        if k == at || g.bool() {
                            assert_eq!(
                                tables[k].record_shared(from, now, interval, &shared),
                                references[k].record_hello(from, now, interval, &listed)
                            );
                        }
                    }
                }
                3..=5 => {
                    let (mut left_table, mut left_reference) = (Vec::new(), Vec::new());
                    tables[at].expire_into(now, &mut left_table);
                    references[at].expire_into(now, &mut left_reference);
                    assert_eq!(left_table, left_reference, "leave lists");
                }
                _ => {
                    let bytes = bytes_of(|enc| tables[at].snapshot_into(enc));
                    tables[at] = restore(&bytes, now).unwrap();
                }
            }
            for (table, reference) in tables.iter().zip(&references) {
                assert_same(table, reference, universe);
            }
        }
    }
}

prop_check! {
    /// A count-only table, as the adaptive counter and location schemes
    /// keep, is the reference fed empty lists whatever lists its HELLOs
    /// carry: equal membership and `neighbors_of` (empty for a live
    /// neighbor), leave lists in the same ascending order, equal counters
    /// and equal snapshot bytes after every step. Its snapshots restore as
    /// count-only tables, through shared and unshared records alike.
    fn a_count_only_table_matches_the_reference_of_empty_lists(g, cases = 300) {
        let universe = if g.bool() { g.u32_in(1..9) } else { g.u32_in(1..151) };
        let mut table = NeighborTable::count_only();
        let mut reference = ReferenceTable::default();
        let mut now = SimTime::ZERO;
        for _ in 0..g.usize_in(1..150) {
            if g.u32_in(0..3) != 0 {
                now += SimDuration::from_millis(g.u64_in(1..1_800));
            }
            match g.u32_in(0..8) {
                0..=3 => {
                    let from = gen_id(g, universe);
                    let interval = SimDuration::from_millis(g.u64_in(1..6) * 500);
                    let listed = g.vec(0..universe.min(24) as usize + 1, |g| gen_id(g, universe));
                    let joined = if g.bool() {
                        table.record_hello(from, now, interval, &listed)
                    } else {
                        table.record_shared(from, now, interval, &listed.as_slice().into())
                    };
                    assert_eq!(joined, reference.record_hello(from, now, interval, &[]));
                }
                4..=6 => {
                    let (mut left_table, mut left_reference) = (Vec::new(), Vec::new());
                    table.expire_into(now, &mut left_table);
                    reference.expire_into(now, &mut left_reference);
                    assert_eq!(left_table, left_reference, "leave lists");
                }
                _ => {
                    let bytes = bytes_of(|enc| table.snapshot_into(enc));
                    table = restore_count_only(&bytes, now)
                        .expect("a count-only table restores as one");
                }
            }
            assert_same_members(&table, &reference, universe);
        }
    }
}

prop_check! {
    /// A count-only table under heavy flapping: up to 600 hosts beaconing
    /// at intervals near the gaps between steps, so each step joins some
    /// and expires others and the table's id index grows, empties and
    /// refills. After every join, sweep, crash `clear` and restore it is
    /// the reference fed empty lists (membership, count, totals, leaves in
    /// ascending order), and its snapshot is a list-keeping table's that
    /// heard the same HELLOs with empty lists, byte for byte.
    fn a_flapping_count_only_table_matches_the_reference(g, cases = 64) {
        let universe = g.u32_in(1..601);
        let mut table = NeighborTable::count_only();
        let mut listing = NeighborTable::new();
        let mut reference = ReferenceTable::default();
        let mut now = SimTime::ZERO;
        for _ in 0..g.usize_in(1..150) {
            now += SimDuration::from_millis(g.u64_in(0..400));
            match g.u32_in(0..16) {
                0..=9 => {
                    // A burst of HELLOs at one instant, as a frame's hearers see.
                    for _ in 0..g.usize_in(1..40) {
                        let from = gen_id(g, universe);
                        let interval = SimDuration::from_millis(g.u64_in(1..5) * 100);
                        let joined = reference.record_hello(from, now, interval, &[]);
                        assert_eq!(table.record_hello(from, now, interval, &[from]), joined);
                        assert_eq!(listing.record_hello(from, now, interval, &[]), joined);
                    }
                }
                10..=13 => {
                    let (mut left_table, mut left_reference) = (Vec::new(), Vec::new());
                    table.expire_into(now, &mut left_table);
                    listing.expire_into(now, &mut Vec::new());
                    reference.expire_into(now, &mut left_reference);
                    assert_eq!(left_table, left_reference, "leave lists");
                }
                14 => {
                    table.clear();
                    listing.clear();
                    reference = ReferenceTable {
                        joins: reference.joins,
                        leaves: reference.leaves,
                        ..ReferenceTable::default()
                    };
                }
                _ => {
                    let bytes = bytes_of(|enc| table.snapshot_into(enc));
                    table = restore_count_only(&bytes, now)
                        .expect("a count-only table restores as one");
                }
            }
            assert_same_members(&table, &reference, universe);
            assert_eq!(
                bytes_of(|enc| table.snapshot_into(enc)),
                bytes_of(|enc| listing.snapshot_into(enc)),
                "a list-keeping table fed empty lists"
            );
        }
    }
}

#[test]
fn a_host_that_leaves_rejoins_and_is_relisted() {
    const SEC: SimDuration = SimDuration::from_secs(1);
    let (relay, flapper, other) = (NodeId::new(2), NodeId::new(1), NodeId::new(9));
    let mut table = NeighborTable::new();
    let mut reference = ReferenceTable::default();
    let mut leaves = Vec::new();
    // One step on both tables; returns what the table holds for the relay.
    let mut both = |at_ms: u64, from: NodeId, interval: SimDuration, listed: &[NodeId]| {
        let now = SimTime::from_millis(at_ms);
        table.expire_into(now, &mut leaves);
        reference.expire_into(now, &mut Vec::new());
        table.record_hello(from, now, interval, listed);
        reference.record_hello(from, now, interval, listed);
        assert_same(&table, &reference, 10);
        table.neighbors_of(relay).map(<[NodeId]>::to_vec)
    };
    let relayed = Some(vec![flapper, other]);
    assert_eq!(both(0, flapper, SEC, &[]), None);
    assert_eq!(both(0, relay, SEC * 10, &[flapper, other]), relayed);
    // The flapper goes silent and expires, rejoins on its own beacon, then
    // departs again before the relay re-beacons. Through all of it the
    // relay's list is what the relay last advertised: it lists the flapper.
    assert_eq!(both(2_500, other, SEC * 10, &[flapper]), relayed);
    assert_eq!(both(3_000, flapper, SEC, &[relay]), relayed);
    assert_eq!(both(5_500, other, SEC * 10, &[]), relayed);
    assert_eq!(both(6_000, relay, SEC * 10, &[flapper, other]), relayed);
    assert_eq!(leaves.len(), 2);
}
