//! One- and two-hop neighbor tables built from HELLO packets.
//!
//! Paper §4.3: *"A host x enlists another host h as its one-hop neighbor
//! when a HELLO is received from h. If no HELLO has been received from h
//! for the past two hello intervals, host x deletes h as its one-hop
//! neighbor."* Because each host may use its own (possibly dynamic) hello
//! interval, the interval governing expiry is the one the **sender**
//! announced in its last HELLO.
//!
//! For the neighbor-coverage scheme, HELLOs carry the sender's own
//! neighbor list, giving the receiver (possibly stale) two-hop knowledge:
//! `N_{x,h}`, "the set of neighbors of h known by host x".

use std::rc::Rc;

use manet_phy::NodeId;
use manet_sim_engine::{FixedState, SimDuration, SimTime, WireDecoder, WireEncoder, WireError};

/// When a neighbor's last HELLO arrived, and the interval it announced.
type Heard = (SimTime, SimDuration);

/// The last instant an entry survives: two announced intervals after its
/// last HELLO.
fn deadline((last_heard, interval): Heard) -> SimTime {
    last_heard + interval * 2
}

/// Membership changes produced by [`NeighborTable::record_hello`] and
/// [`NeighborTable::expire_into`]; feed these to the variation tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipChange {
    /// A host became a neighbor.
    Joined(NodeId),
    /// A host's entry timed out.
    Left(NodeId),
}

impl MembershipChange {
    /// The host that joined or left.
    fn host(&self) -> NodeId {
        match *self {
            MembershipChange::Joined(id) | MembershipChange::Left(id) => id,
        }
    }
}

/// One host's view of its neighborhood.
///
/// A table from [`new`](Self::new) keeps each neighbor's advertised list
/// `N_{x,h}`; one from [`count_only`](Self::count_only) keeps membership
/// and expiry alone, which is all the adaptive counter and location
/// schemes read.
///
/// # Examples
///
/// ```
/// use manet_net::NeighborTable;
/// use manet_phy::NodeId;
/// use manet_sim_engine::{SimDuration, SimTime};
///
/// let mut table = NeighborTable::new();
/// let h = NodeId::new(1);
/// let interval = SimDuration::from_secs(1);
/// table.record_hello(h, SimTime::ZERO, interval, &[]);
/// assert_eq!(table.neighbor_count(), 1);
///
/// // Two intervals pass without another HELLO: h expires.
/// let mut leaves = Vec::new();
/// table.expire_into(SimTime::from_millis(2_001), &mut leaves);
/// assert_eq!(table.neighbor_count(), 0);
/// assert_eq!(leaves.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct NeighborTable {
    /// The one-hop set `N_x`. A list-keeping table holds it strictly
    /// ascending (≈ 110 ids on a dense map: a binary search is ≤ 7 steps
    /// and `N_x` is borrowed as is). A count-only table holds it in slot
    /// order: a join appends, a leave swap-removes, and `index` finds an
    /// id's slot.
    ids: Vec<NodeId>,
    /// `heard[k]` is when `ids[k]` was last heard, and at what interval.
    heard: Vec<Heard>,
    /// `lists[k]` is `ids[k]`'s own one-hop set exactly as its last HELLO
    /// advertised it (`N_{x,h}`); other tables that heard the same HELLO
    /// hold the same list. `None` in a count-only table.
    lists: Option<Vec<Rc<[NodeId]>>>,
    /// From id to slot in a count-only table; empty in a list-keeping one.
    index: SlotIndex,
    /// Lower bound on the earliest entry deadline (`last_heard` plus two
    /// intervals). [`expire_into`](Self::expire_into) is a no-op until the
    /// clock passes it, which keeps the per-event expiry check O(1); refreshes
    /// only push deadlines later, so a stale bound merely costs one
    /// harmless rescan. `None` while the table is empty.
    min_deadline: Option<SimTime>,
    /// Lifetime join count (statistics; never reset).
    joins: u64,
    /// Lifetime expiry count (statistics; never reset).
    leaves: u64,
}

impl Default for NeighborTable {
    fn default() -> Self {
        NeighborTable::new()
    }
}

impl NeighborTable {
    /// Creates an empty table that keeps each neighbor's advertised list.
    pub fn new() -> Self {
        NeighborTable {
            lists: Some(Vec::new()),
            ..NeighborTable::count_only()
        }
    }

    /// Creates an empty table that keeps no two-hop lists: a list handed
    /// to it is dropped, and [`neighbors_of`](Self::neighbors_of) a live
    /// neighbor is empty, as if every HELLO advertised none.
    pub fn count_only() -> Self {
        NeighborTable {
            ids: Vec::new(),
            heard: Vec::new(),
            lists: None,
            index: SlotIndex::default(),
            min_deadline: None,
            joins: 0,
            leaves: 0,
        }
    }

    /// Forgets every neighbor, as a crash does: the table is as
    /// [`new`](Self::new) or [`count_only`](Self::count_only) made it,
    /// except for its lifetime totals.
    pub fn clear(&mut self) {
        *self = NeighborTable {
            lists: self.lists.as_ref().map(|_| Vec::new()),
            joins: self.joins,
            leaves: self.leaves,
            ..NeighborTable::count_only()
        };
    }

    /// Records a HELLO from `from` announcing its `interval` and one-hop
    /// `neighbors`. Returns `Some(Joined)` when `from` was not already a
    /// neighbor.
    pub fn record_hello(
        &mut self,
        from: NodeId,
        now: SimTime,
        interval: SimDuration,
        neighbors: &[NodeId],
    ) -> Option<MembershipChange> {
        self.record(from, now, interval, || neighbors.into())
    }

    /// [`record_hello`](Self::record_hello) with the advertised list
    /// already shared: every table that heard one HELLO holds one copy,
    /// and a count-only table touches no handle.
    pub fn record_shared(
        &mut self,
        from: NodeId,
        now: SimTime,
        interval: SimDuration,
        neighbors: &Rc<[NodeId]>,
    ) -> Option<MembershipChange> {
        self.record(from, now, interval, || Rc::clone(neighbors))
    }

    /// Records a HELLO; `list` is asked for only by a table that keeps it.
    fn record(
        &mut self,
        from: NodeId,
        now: SimTime,
        interval: SimDuration,
        list: impl FnOnce() -> Rc<[NodeId]>,
    ) -> Option<MembershipChange> {
        let heard = (now, interval);
        let deadline = deadline(heard);
        self.min_deadline = Some(self.min_deadline.map_or(deadline, |d| d.min(deadline)));
        let Some(lists) = &mut self.lists else {
            // Count-only: a refresh is one probe, a join one append.
            if let Some(&k) = self.index.get(&from) {
                self.heard[k as usize] = heard;
                return None;
            }
            // Ids are `u32`s, so a table's slots are too.
            self.index.insert(from, self.ids.len() as u32);
            push_grown(&mut self.ids, from);
            push_grown(&mut self.heard, heard);
            self.joins += 1;
            return Some(MembershipChange::Joined(from));
        };
        match self.ids.binary_search(&from) {
            Ok(k) => {
                self.heard[k] = heard;
                lists[k] = list();
                None
            }
            Err(k) => {
                insert_grown(&mut self.ids, k, from);
                insert_grown(&mut self.heard, k, heard);
                insert_grown(lists, k, list());
                self.joins += 1;
                Some(MembershipChange::Joined(from))
            }
        }
    }

    /// Drops every neighbor whose last HELLO is more than two of its own
    /// hello intervals old, appending the leave events (ascending by id)
    /// to `leaves`: the caller owns the buffer and reuses it across the
    /// whole run, so steady-state expiry never allocates.
    ///
    /// Expiry touches no surviving entry's two-hop list: `N_{x,h}` is what
    /// `h` last advertised (paper §4.3), even where it lists a host that
    /// has since left this table.
    pub fn expire_into(&mut self, now: SimTime, leaves: &mut Vec<MembershipChange>) {
        match self.min_deadline {
            // Nothing can have expired yet: every deadline is at or past
            // the cached bound.
            Some(bound) if now <= bound => return,
            None => return,
            Some(_) => {}
        }
        let first = leaves.len();
        let mut next_bound: Option<SimTime> = None;
        match &mut self.lists {
            // Count-only: swap-remove each leaver, then report them in order.
            None => {
                let mut k = 0;
                while k < self.ids.len() {
                    let deadline = deadline(self.heard[k]);
                    if now > deadline {
                        leaves.push(MembershipChange::Left(self.ids[k]));
                        self.index.remove(&self.ids[k]);
                        self.ids.swap_remove(k);
                        self.heard.swap_remove(k);
                        if let Some(&moved) = self.ids.get(k) {
                            self.index.insert(moved, k as u32);
                        }
                    } else {
                        next_bound = Some(next_bound.map_or(deadline, |d| d.min(deadline)));
                        k += 1;
                    }
                }
                leaves[first..].sort_unstable_by_key(MembershipChange::host);
            }
            Some(lists) => {
                let mut kept = 0;
                for k in 0..self.ids.len() {
                    let deadline = deadline(self.heard[k]);
                    if now > deadline {
                        leaves.push(MembershipChange::Left(self.ids[k]));
                    } else {
                        next_bound = Some(next_bound.map_or(deadline, |d| d.min(deadline)));
                        if kept < k {
                            self.ids.swap(kept, k);
                            self.heard.swap(kept, k);
                            lists.swap(kept, k);
                        }
                        kept += 1;
                    }
                }
                self.ids.truncate(kept);
                self.heard.truncate(kept);
                lists.truncate(kept);
            }
        }
        self.min_deadline = next_bound;
        self.leaves += (leaves.len() - first) as u64;
    }

    /// Hosts that have ever joined this table (lifetime churn statistic).
    pub fn join_count(&self) -> u64 {
        self.joins
    }

    /// Entries that have ever expired from this table (lifetime churn
    /// statistic).
    pub fn leave_count(&self) -> u64 {
        self.leaves
    }

    /// Number of live neighbors — the `n` that parameterizes the adaptive
    /// thresholds `C(n)` and `A(n)`.
    pub fn neighbor_count(&self) -> usize {
        self.ids.len()
    }

    /// `true` when `id` is currently believed to be a neighbor.
    pub fn contains(&self, id: NodeId) -> bool {
        self.slot(id).is_some()
    }

    /// The current one-hop set `N_x`: strictly ascending in a table from
    /// [`new`](Self::new), in no set order in a
    /// [`count_only`](Self::count_only) one.
    pub fn neighbor_ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The slot `id` holds, if it is a neighbor.
    fn slot(&self, id: NodeId) -> Option<usize> {
        match self.lists {
            Some(_) => self.ids.binary_search(&id).ok(),
            None => self.index.get(&id).map(|&k| k as usize),
        }
    }

    /// The two-hop knowledge `N_{x,h}`: the neighborhood `h` advertised
    /// in its last HELLO. `None` when `h` is not a (live) neighbor.
    pub fn neighbors_of(&self, h: NodeId) -> Option<&[NodeId]> {
        self.coverage_view(h).1
    }

    /// `(N_x, N_{x,h})` borrowed together — everything the
    /// neighbor-coverage scheme reads when a copy arrives from `h`.
    pub fn coverage_view(&self, h: NodeId) -> (&[NodeId], Option<&[NodeId]>) {
        (&self.ids, self.slot(h).map(|k| self.list(k)))
    }

    /// The list entry `k` holds: empty in a count-only table.
    fn list(&self, k: usize) -> &[NodeId] {
        self.lists.as_ref().map_or(&[], |lists| &lists[k])
    }

    /// Serializes the table for a world snapshot, entries ascending by id
    /// and each two-hop list as its sender advertised it (empty in a
    /// count-only table).
    pub fn snapshot_into(&self, enc: &mut WireEncoder) {
        let mut slots: Vec<usize> = (0..self.ids.len()).collect();
        slots.sort_unstable_by_key(|&k| self.ids[k]);
        enc.seq(slots, |enc, k| {
            self.ids[k].encode(enc);
            enc.time(self.heard[k].0);
            enc.duration(self.heard[k].1);
            NodeId::encode_seq(enc, self.list(k).iter().copied());
        });
        enc.option(self.min_deadline, WireEncoder::time);
        enc.u64(self.joins);
        enc.u64(self.leaves);
    }

    /// Rebuilds `owner`'s list-keeping table, in a run of `hosts` hosts,
    /// from [`snapshot_into`](Self::snapshot_into) output taken when the
    /// clock read `now`. Each list is read into a scratch buffer and
    /// handed to `share` with its sender, which returns the handle the
    /// entry keeps: a caller that interns lists by content restores tables
    /// that share them the way live hearers do.
    ///
    /// # Errors
    ///
    /// A positioned [`WireError`] on an id [`NodeId::decode`] refuses (an
    /// entry naming `owner`, a list its entry), ids not strictly ascending,
    /// an entry heard after `now` (no host hears ahead of the clock), a
    /// deadline past the clock's end, and an expiry bound missing beside
    /// entries or past their earliest deadline (a lower one is legal).
    pub fn restore_snapshot(
        dec: &mut WireDecoder<'_>,
        now: SimTime,
        hosts: usize,
        owner: NodeId,
        mut share: impl FnMut(NodeId, &[NodeId]) -> Rc<[NodeId]>,
    ) -> Result<NeighborTable, WireError> {
        NeighborTable::restore(dec, now, hosts, owner, Some(&mut share))
    }

    /// Rebuilds `owner`'s [`count_only`](Self::count_only) table, in a
    /// run of `hosts` hosts, from [`snapshot_into`](Self::snapshot_into)
    /// output taken when the clock read `now`.
    ///
    /// # Errors
    ///
    /// Those of [`restore_snapshot`](Self::restore_snapshot), and a
    /// two-hop list that is not empty.
    pub fn restore_count_only(
        dec: &mut WireDecoder<'_>,
        now: SimTime,
        hosts: usize,
        owner: NodeId,
    ) -> Result<NeighborTable, WireError> {
        NeighborTable::restore(dec, now, hosts, owner, None)
    }

    fn restore(
        dec: &mut WireDecoder<'_>,
        now: SimTime,
        hosts: usize,
        owner: NodeId,
        mut share: Option<Share<'_>>,
    ) -> Result<NeighborTable, WireError> {
        let mut table = NeighborTable {
            lists: share.is_some().then(Vec::new),
            ..NeighborTable::count_only()
        };
        let (mut list, mut earliest) = (Vec::new(), None::<SimTime>);
        table.heard = dec.seq(28, |dec| {
            let at = dec.position();
            let id = NodeId::decode(dec, hosts, Some(owner))?;
            if table.ids.last().is_some_and(|&last| last >= id) {
                let what = "neighbor table entries are not strictly ascending";
                return Err(WireError { at, what });
            }
            table.ids.push(id);
            let heard_at = dec.position();
            let (last_heard, interval) = (dec.time()?, dec.duration()?);
            if last_heard > now {
                let what = "a neighbor entry heard after the checkpoint's clock";
                return Err(WireError { at: heard_at, what });
            }
            let twice = interval.as_nanos().checked_mul(2);
            let Some(deadline) = twice.and_then(|d| last_heard.as_nanos().checked_add(d)) else {
                let what = "a neighbor entry's deadline is past the end of the clock";
                return Err(WireError { at, what });
            };
            let deadline = SimTime::from_nanos(deadline);
            earliest = Some(earliest.map_or(deadline, |d| d.min(deadline)));
            let list_at = dec.position();
            let advertised = NodeId::decode_ascending(dec, &mut list, hosts, Some(id))?;
            match (&mut table.lists, &mut share) {
                (Some(lists), Some(share)) => lists.push(share(id, advertised)),
                _ if advertised.is_empty() => {}
                _ => {
                    let what = "a two-hop list in a table that keeps none";
                    return Err(WireError { at: list_at, what });
                }
            }
            Ok((last_heard, interval))
        })?;
        let at = dec.position();
        table.min_deadline = dec.option(WireDecoder::time)?;
        if earliest.is_some_and(|earliest| table.min_deadline.is_none_or(|d| d > earliest)) {
            let what = "neighbor table expiry bound is missing or past an entry's deadline";
            return Err(WireError { at, what });
        }
        table.joins = dec.u64()?;
        table.leaves = dec.u64()?;
        if table.lists.is_none() {
            table.index = table.ids.iter().copied().zip(0..).collect();
        }
        Ok(table)
    }
}

/// What a list-keeping restore asks for the handle on each list it reads.
type Share<'a> = &'a mut dyn FnMut(NodeId, &[NodeId]) -> Rc<[NodeId]>;

/// A count-only table's map from id to slot.
#[expect(
    clippy::disallowed_types,
    reason = "explicit fixed hasher, and the set is only probed (insert / contains / remove), never iterated"
)]
type SlotIndex = std::collections::HashMap<NodeId, u32, FixedState>;

/// `Vec::push`, growing a full vector by a quarter, as [`insert_grown`].
fn push_grown<T>(items: &mut Vec<T>, item: T) {
    insert_grown(items, items.len(), item);
}

/// `Vec::insert`, growing a full vector by a quarter (at least 4 slots)
/// rather than doubling it: a dense-map host with 129 neighbors holds
/// 140 slots per column, not 256.
fn insert_grown<T>(items: &mut Vec<T>, k: usize, item: T) {
    if items.len() == items.capacity() {
        items.reserve_exact((items.len() / 4).max(4));
    }
    items.insert(k, item);
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: SimDuration = SimDuration::from_secs(1);

    fn id(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn expire(t: &mut NeighborTable, now: SimTime) -> Vec<MembershipChange> {
        let mut leaves = Vec::new();
        t.expire_into(now, &mut leaves);
        leaves
    }

    #[test]
    fn records_joins_once() {
        let mut t = NeighborTable::new();
        assert_eq!(
            t.record_hello(id(1), SimTime::ZERO, SEC, &[]),
            Some(MembershipChange::Joined(id(1)))
        );
        assert_eq!(
            t.record_hello(id(1), SimTime::from_secs(1), SEC, &[]),
            None,
            "refresh is not a join"
        );
        assert!(t.contains(id(1)));
        assert_eq!(t.neighbor_count(), 1);
    }

    #[test]
    fn expiry_uses_two_sender_intervals() {
        let mut t = NeighborTable::new();
        t.record_hello(id(1), SimTime::ZERO, SEC, &[]);
        t.record_hello(id(2), SimTime::ZERO, SEC * 5, &[]);
        // At t = 2.5 s: host 1 (interval 1 s) is stale, host 2 (5 s) is not.
        let leaves = expire(&mut t, SimTime::from_millis(2_500));
        assert_eq!(leaves, vec![MembershipChange::Left(id(1))]);
        assert!(!t.contains(id(1)));
        assert!(t.contains(id(2)));
        // Host 2 expires only after 10 s.
        assert!(expire(&mut t, SimTime::from_secs(10)).is_empty());
        assert_eq!(
            expire(&mut t, SimTime::from_millis(10_001)),
            vec![MembershipChange::Left(id(2))]
        );
    }

    #[test]
    fn expiry_boundary_is_exclusive() {
        // The deadline is last_heard + 2 * interval; an entry survives at
        // *exactly* the deadline and expires one nanosecond later.
        let mut t = NeighborTable::new();
        t.record_hello(id(1), SimTime::ZERO, SEC, &[]);
        assert!(
            expire(&mut t, SimTime::from_secs(2)).is_empty(),
            "entry must survive at exactly the deadline"
        );
        assert!(t.contains(id(1)));
        assert_eq!(
            expire(&mut t, SimTime::from_nanos(2_000_000_001)),
            vec![MembershipChange::Left(id(1))],
            "entry must expire just past the deadline"
        );
    }

    #[test]
    fn expiry_leaves_two_hop_lists_as_advertised() {
        // Relay 2 (slow 5 s interval) lists 1 and 9; host 1 is also a
        // direct neighbor on a 1 s interval, and host 3 lists the relay.
        // Host 1's own entry expires, but `N_{x,h}` is what h advertised
        // (paper §4.3): no surviving list changes.
        let mut t = NeighborTable::new();
        t.record_hello(id(1), SimTime::ZERO, SEC, &[]);
        t.record_hello(id(2), SimTime::ZERO, SEC * 5, &[id(1), id(9)]);
        t.record_hello(id(3), SimTime::ZERO, SEC * 5, &[id(1), id(2)]);
        assert_eq!(
            expire(&mut t, SimTime::from_nanos(2_000_000_001)),
            vec![MembershipChange::Left(id(1))]
        );
        assert!(!t.contains(id(1)));
        assert_eq!(t.neighbors_of(id(2)), Some(&[id(1), id(9)][..]));
        assert_eq!(t.neighbors_of(id(3)), Some(&[id(1), id(2)][..]));
        assert_eq!(t.neighbors_of(id(1)), None);
    }

    #[test]
    fn churn_counters_accumulate() {
        let mut t = NeighborTable::new();
        t.record_hello(id(1), SimTime::ZERO, SEC, &[]);
        t.record_hello(id(2), SimTime::ZERO, SEC, &[]);
        t.record_hello(id(1), SimTime::from_secs(1), SEC, &[]); // refresh, not a join
        assert_eq!(t.join_count(), 2);
        assert_eq!(t.leave_count(), 0);
        expire(&mut t, SimTime::from_secs(10));
        assert_eq!(t.leave_count(), 2);
        // Rejoining counts again: these are lifetime churn totals.
        t.record_hello(id(1), SimTime::from_secs(10), SEC, &[]);
        assert_eq!(t.join_count(), 3);
    }

    #[test]
    fn refresh_postpones_expiry() {
        let mut t = NeighborTable::new();
        t.record_hello(id(1), SimTime::ZERO, SEC, &[]);
        t.record_hello(id(1), SimTime::from_millis(1_900), SEC, &[]);
        assert!(expire(&mut t, SimTime::from_millis(3_800)).is_empty());
        assert_eq!(expire(&mut t, SimTime::from_millis(3_901)).len(), 1);
    }

    #[test]
    fn two_hop_knowledge_tracks_latest_hello() {
        let mut t = NeighborTable::new();
        t.record_hello(id(1), SimTime::ZERO, SEC, &[id(5), id(6)]);
        assert_eq!(t.neighbors_of(id(1)), Some(&[id(5), id(6)][..]));
        t.record_hello(id(1), SimTime::from_secs(1), SEC, &[id(6)]);
        assert_eq!(t.neighbors_of(id(1)), Some(&[id(6)][..]));
        assert_eq!(t.neighbors_of(id(9)), None);
    }

    #[test]
    fn neighbor_ids_are_sorted() {
        let mut t = NeighborTable::new();
        for i in [5u32, 1, 3] {
            t.record_hello(id(i), SimTime::ZERO, SEC, &[]);
        }
        assert_eq!(t.neighbor_ids(), vec![id(1), id(3), id(5)]);
    }

    #[test]
    fn announced_interval_change_applies() {
        let mut t = NeighborTable::new();
        t.record_hello(id(1), SimTime::ZERO, SEC, &[]);
        // The neighbor slows its beacons to 5 s; expiry horizon follows.
        t.record_hello(id(1), SimTime::from_secs(1), SEC * 5, &[]);
        assert!(expire(&mut t, SimTime::from_secs(10)).is_empty());
        assert_eq!(expire(&mut t, SimTime::from_millis(11_001)).len(), 1);
    }

    #[test]
    fn restore_refuses_entries_that_are_not_strictly_ascending() {
        // Corruption is never silent: swapped or duplicated entry ids used
        // to be normalised through the hash map into some other table.
        let mut t = NeighborTable::new();
        t.record_hello(id(3), SimTime::ZERO, SEC, &[]);
        t.record_hello(id(7), SimTime::ZERO, SEC, &[]);
        let mut enc = WireEncoder::new();
        t.snapshot_into(&mut enc);
        let bytes = enc.into_bytes();
        // Entry count, then per entry: id, last_heard, interval, list length.
        let (first, second) = (8, 8 + 4 + 8 + 8 + 8);
        assert_eq!((bytes[first], bytes[second]), (3, 7));
        assert!(restore(&bytes).is_ok());
        for (a, b) in [(7, 3), (3, 3), (7, 7)] {
            let mut bad = bytes.clone();
            (bad[first], bad[second]) = (a, b);
            let err = restore(&bad).expect_err("accepted entries out of order");
            assert_eq!(err.at, second, "{err}");
        }
    }

    /// What the tests' tables heard, restored by a clock past all of it
    /// as host 0's table in a run of [`HOSTS`].
    fn restore(bytes: &[u8]) -> Result<NeighborTable, WireError> {
        let now = SimTime::from_secs(60);
        let dec = &mut WireDecoder::new(bytes);
        NeighborTable::restore_snapshot(dec, now, HOSTS, id(0), |_, list| list.into())
    }

    /// The run the tests' tables are restored into: hosts 0 to 9.
    const HOSTS: usize = 10;

    /// Restores `bytes` as host 0's count-only table at `now`.
    fn restore_count_only(bytes: &[u8], now: SimTime) -> Result<NeighborTable, WireError> {
        NeighborTable::restore_count_only(&mut WireDecoder::new(bytes), now, HOSTS, id(0))
    }

    #[test]
    fn restore_refuses_a_two_hop_list_that_is_not_strictly_ascending() {
        // A list out of order used to be restored as is, and the
        // neighbor-coverage merge then read it as a sorted set.
        let mut t = NeighborTable::new();
        t.record_hello(id(4), SimTime::ZERO, SEC, &[id(2), id(6)]);
        let mut enc = WireEncoder::new();
        t.snapshot_into(&mut enc);
        let bytes = enc.into_bytes();
        // Entry count, then the entry: id, last_heard, interval, the list.
        let list = 8 + 4 + 8 + 8;
        assert_eq!((bytes[list + 8], bytes[list + 12]), (2, 6));
        for (a, b) in [(6, 2), (2, 2)] {
            let mut bad = bytes.clone();
            (bad[list + 8], bad[list + 12]) = (a, b);
            let err = restore(&bad).expect_err("accepted a list out of order");
            assert_eq!(err.at, list, "{err}");
        }
        // What `share` returns is what the entry holds.
        let shared: Rc<[NodeId]> = Rc::from([id(2), id(6)]);
        let now = SimTime::ZERO;
        let restored = NeighborTable::restore_snapshot(
            &mut WireDecoder::new(&bytes),
            now,
            HOSTS,
            id(0),
            |h, l| {
                assert_eq!((h, l), (id(4), &shared[..]));
                Rc::clone(&shared)
            },
        )
        .expect("a pristine table restores");
        let held = restored.neighbors_of(id(4)).expect("host 4 is a neighbor");
        assert!(std::ptr::eq(held, &shared[..]));
    }

    #[test]
    fn a_count_only_table_writes_what_a_table_of_empty_lists_does() {
        // AC/AL HELLOs advertise empty lists, so their checkpoints do not
        // change when the tables stop keeping them.
        let (mut counts, mut lists) = (NeighborTable::count_only(), NeighborTable::new());
        for (i, ms) in [(4, 0), (2, 300), (9, 700), (4, 1_200), (2, 3_000)] {
            let now = SimTime::from_millis(ms);
            let (a, b) = (expire(&mut counts, now), expire(&mut lists, now));
            assert_eq!(a, b);
            assert_eq!(
                counts.record_hello(id(i), now, SEC, &[id(1), id(7)]),
                lists.record_hello(id(i), now, SEC, &[])
            );
            assert_eq!(counts.neighbors_of(id(i)), Some(&[][..]));
        }
        let bytes = |t: &NeighborTable| {
            let mut enc = WireEncoder::new();
            t.snapshot_into(&mut enc);
            enc.into_bytes()
        };
        assert_eq!(bytes(&counts), bytes(&lists));
        let now = SimTime::from_secs(3);
        let restored = restore_count_only(&bytes(&lists), now);
        assert_eq!(
            bytes(&restored.expect("empty lists restore")),
            bytes(&lists)
        );
        counts.clear();
        assert!(counts.lists.is_none(), "a crash keeps the table count-only");
    }

    #[test]
    fn a_full_table_grows_by_a_quarter() {
        for keep_lists in [false, true] {
            let mut t = if keep_lists {
                NeighborTable::new()
            } else {
                NeighborTable::count_only()
            };
            for n in 1..=300u32 {
                // Descending ids insert at the front, moving every entry.
                t.record_hello(id(1_000 - n), SimTime::ZERO, SEC, &[]);
                let n = n as usize;
                let bound = n + (n / 4).max(4);
                assert!(t.ids.capacity() <= bound, "{n}: {}", t.ids.capacity());
                assert!(t.heard.capacity() <= bound, "{n}: {}", t.heard.capacity());
                let lists = t.lists.as_ref().map_or(0, Vec::capacity);
                assert!(lists <= bound, "{n}: {lists}");
            }
        }
    }

    #[test]
    fn restore_refuses_a_missing_or_late_expiry_bound() {
        // Entries heard at 0 s (deadline 2 s) and 1 s (deadline 3 s): a
        // bound of 2 s or less is a lower bound on the earliest deadline;
        // none, or a later one, would keep host 3 past its deadline.
        let mut t = NeighborTable::new();
        t.record_hello(id(3), SimTime::ZERO, SEC, &[]);
        t.record_hello(id(7), SimTime::from_secs(1), SEC, &[]);
        let mut enc = WireEncoder::new();
        t.snapshot_into(&mut enc);
        let bytes = enc.into_bytes();
        // Count, two entries with empty lists, then the bound.
        let bound = 8 + 2 * (4 + 8 + 8 + 8);
        assert_eq!(bytes.len(), bound + 9 + 16);
        let with_bound = |bound_ns: Option<u64>| {
            let mut enc = WireEncoder::new();
            enc.option(bound_ns, WireEncoder::u64);
            [&bytes[..bound], &enc.into_bytes(), &bytes[bound + 9..]].concat()
        };
        for ok in [0, 1_999_999_999, 2_000_000_000] {
            assert!(restore(&with_bound(Some(ok))).is_ok(), "bound {ok}");
        }
        for bad in [None, Some(2_000_000_001)] {
            let err = restore(&with_bound(bad)).expect_err("a bound past the earliest deadline");
            assert_eq!(err.at, bound, "{bad:?}: {err}");
        }
        // An empty table has no bound to check.
        let mut enc = WireEncoder::new();
        NeighborTable::new().snapshot_into(&mut enc);
        assert!(restore(&enc.into_bytes()).is_ok());
    }

    #[test]
    fn restore_refuses_an_entry_heard_after_the_clock() {
        let mut t = NeighborTable::count_only();
        t.record_hello(id(4), SimTime::from_secs(10), SEC, &[]);
        let mut enc = WireEncoder::new();
        t.snapshot_into(&mut enc);
        let bytes = enc.into_bytes();
        // Count, then the entry: id, then when it was heard.
        let heard = 8 + 4;
        for (now, ok) in [(10_000, true), (9_999, false), (0, false)] {
            let now = SimTime::from_millis(now);
            let restored = restore_count_only(&bytes, now);
            match restored {
                Ok(_) => assert!(ok, "{now}"),
                Err(err) => {
                    assert!(!ok, "{now}: {err}");
                    let what = "a neighbor entry heard after the checkpoint's clock";
                    assert_eq!(err, WireError { at: heard, what });
                }
            }
        }
    }

    #[test]
    fn a_count_only_restore_refuses_a_two_hop_list() {
        let mut t = NeighborTable::new();
        t.record_hello(id(4), SimTime::ZERO, SEC, &[id(2)]);
        let mut enc = WireEncoder::new();
        t.snapshot_into(&mut enc);
        let bytes = enc.into_bytes();
        assert!(restore(&bytes).is_ok());
        let err = restore_count_only(&bytes, SimTime::ZERO)
            .expect_err("a list in a table that keeps none");
        // Count, then the entry: id, last_heard, interval, the list.
        assert_eq!(err.at, 8 + 4 + 8 + 8, "{err}");
    }
}
