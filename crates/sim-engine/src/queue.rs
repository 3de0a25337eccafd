//! Cancellable, deterministic event queue.
//!
//! [`EventQueue`] is a future-event list of `(SimTime, E)` pairs. Two
//! events scheduled for the same instant are delivered in the order they
//! were scheduled (FIFO tie-breaking via a monotonically increasing
//! sequence number), which makes runs bit-for-bit reproducible: the pop
//! order is exactly ascending `(time, seq)`.
//!
//! Every scheduled event gets an [`EventKey`]. Cancelling a key tombstones
//! the entry: it stays where it is and is silently skipped when it reaches
//! the front. This is the standard lazy-deletion trick; `cancel` is `O(1)`.
//!
//! # A monotone radix heap
//!
//! Simulated time never runs backwards ([`EventQueue::schedule`] refuses
//! the past), so the queue is a radix heap keyed by nanosecond time rather
//! than a comparison heap. It keeps a *base* time, at or before every
//! entry, and files each entry by the highest bit at which its time
//! differs from the base:
//!
//! * `due` holds the entries at exactly the base, in `seq` order; pops are
//!   served from its front.
//! * `buckets[b]` holds the entries whose time first differs from the base
//!   at bit `b`. Every time in bucket `b` is below every time in bucket
//!   `b + 1`, so the lowest non-empty bucket (one bit scan of `occupied`)
//!   holds the earliest entries. Each bucket also keeps its minimum time.
//!
//! When `due` runs dry, the lowest non-empty bucket's minimum becomes the
//! new base and the bucket is spread: each entry is filed again against
//! the new base, which sends it to `due` or to a strictly lower bucket. A
//! bucket of one entry moves straight to `due`. Buckets above the spread
//! one are untouched, because the new base agrees with the old one on
//! every bit above it.
//!
//! **Why the order is `(time, seq)`.** Entries are filed by time alone, so
//! time order holds by the bucket ranges above. Ties are the question:
//! entries with equal times always share a container (the bucket is a
//! function of the time), every container only ever appends, and spreading
//! preserves relative order. Each new entry carries a larger `seq` than
//! everything already queued (`schedule_seq` refuses reuse), and
//! [`decode`](EventQueue::decode) files its entries in `(time, seq)` order.
//! So equal times are in `seq` order in every container, including `due`,
//! without any sort.
//!
//! **Cost.** `schedule` is `O(1)`: one XOR, one bit scan, one push. A pop
//! from `due` is `O(1)`. Each spread moves an entry to a strictly lower
//! bucket, so an entry filed in bucket `b` moves at most `b + 1 ≤ 64`
//! times over its life, and in practice once or twice: events that fall
//! due at one instant — the carrier-sense reports of one frame's hearers,
//! the DIFS timers those reports arm — leave a spread together and then
//! pop from `due` with no further work. A comparison heap pays `log n`
//! sifts on every schedule and pop instead.
//!
//! **Memory.** A bucket that fills moves into a buffer twice its size. A
//! spread bucket keeps a small buffer for its next entries and gives a
//! large one up. Given-up buffers wait as spares, by power-of-two size
//! class, for the next bucket that needs that size, up to half as many
//! entries as the queue holds. So large buffers follow the entries down
//! from bucket to bucket instead of each bucket keeping the largest it
//! ever held, and a queue cycling a steady population stops allocating.
//!
//! **Peek, then schedule earlier.** [`peek_time`](EventQueue::peek_time)
//! may move the base past `now` to reach the next entry. A caller that
//! then schedules between `now` and that entry (pause, snapshot, schedule)
//! gets a correct queue through a cold path that files every entry again
//! against the earlier base.

use std::collections::VecDeque;
use std::hash::{BuildHasherDefault, Hasher};

use crate::time::SimTime;
use crate::wire::{WireDecoder, WireEncoder, WireError};

/// Multiplicative hasher for the tombstone set. Its keys are unique,
/// roughly sequential `u64` sequence numbers, so Fibonacci hashing spreads
/// them perfectly well and costs one multiply instead of a SipHash round.
#[derive(Debug, Default)]
struct SeqHasher(u64);

impl Hasher for SeqHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("tombstone keys hash via write_u64");
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

#[expect(
    clippy::disallowed_types,
    reason = "explicit fixed hasher, and the set is only probed (insert / contains / remove), never iterated"
)]
type SeqSet = std::collections::HashSet<u64, BuildHasherDefault<SeqHasher>>;

/// Identifier of a scheduled event, used for cancellation.
///
/// Keys are unique over the lifetime of a queue and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey(u64);

impl EventKey {
    /// The key's raw sequence number, for snapshot serialization.
    pub fn as_raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a key from [`as_raw`](Self::as_raw) output. Only keys
    /// exported from the same queue lineage are meaningful; a fabricated
    /// key at worst cancels the wrong entry, never corrupts the queue.
    pub fn from_raw(raw: u64) -> Self {
        EventKey(raw)
    }
}

/// One radix bucket per bit of a nanosecond timestamp.
const BUCKETS: usize = u64::BITS as usize;

/// A bucket's first buffer holds `1 << MIN_CLASS` entries; each next one
/// twice its predecessor.
const MIN_CLASS: u32 = 4;

/// A spread bucket keeps a buffer of up to this many entries for the
/// next entries filed there, which spares small queues a trip through the
/// spares on every spread; a larger one becomes a spare.
const KEPT: usize = 32;

/// Spare capacity, in entries, kept however few entries are queued:
/// enough for a 100-host world's steady state to stop allocating.
const SPARE_FLOOR: usize = 1024;

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

/// A deterministic future-event list.
///
/// # Examples
///
/// ```
/// use manet_sim_engine::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(2), "late");
/// let early = q.schedule(SimTime::from_millis(1), "early");
/// q.cancel(early);
/// assert_eq!(q.pop(), Some((SimTime::from_millis(2), "late")));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The radix base, in ns: no entry is earlier. It equals `now` except
    /// after [`peek_time`](Self::peek_time) moved it up to the next entry.
    base: u64,
    /// The entries at exactly `base`, in `seq` order.
    due: VecDeque<Entry<E>>,
    /// `buckets[b]`: the entries whose time first differs from `base` at
    /// bit `b`.
    buckets: [Vec<Entry<E>>; BUCKETS],
    /// `mins[b]`: the earliest time in `buckets[b]`, `u64::MAX` when empty.
    mins: [u64; BUCKETS],
    /// Bit `b` is set while `buckets[b]` is non-empty.
    occupied: u64,
    /// Empty buffers, outgrown or drained, by size class: `spares[k]`
    /// holds buffers of `1 << k` entries. A full bucket moves into a spare
    /// of twice its size, so buffers follow the entries from bucket to
    /// bucket instead of each bucket keeping the largest it ever needed.
    spares: [Vec<Vec<Entry<E>>>; BUCKETS],
    /// Bit `k` is set while `spares[k]` is non-empty.
    spare_classes: u64,
    /// Total capacity of `spares`, held within half of `len` (or
    /// `SPARE_FLOOR`).
    spare_capacity: usize,
    /// Entries held, tombstoned ones included.
    len: usize,
    cancelled: SeqSet,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    scheduled: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::starting(SimTime::ZERO, 0)
    }

    /// An empty queue whose clock reads `now` and whose next key is
    /// `next_seq`.
    fn starting(now: SimTime, next_seq: u64) -> Self {
        EventQueue {
            base: now.as_nanos(),
            due: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            mins: [u64::MAX; BUCKETS],
            occupied: 0,
            spares: std::array::from_fn(|_| Vec::new()),
            spare_classes: 0,
            spare_capacity: 0,
            len: 0,
            cancelled: SeqSet::default(),
            next_seq,
            now,
            popped: 0,
            scheduled: 0,
        }
    }

    /// The time of the most recently popped event (the simulation "now").
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at the absolute instant `time`.
    ///
    /// Returns a key that can later be passed to [`cancel`](Self::cancel).
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`now`](Self::now): scheduling into
    /// the past would break causality.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventKey {
        let seq = self.next_seq;
        self.insert(time, seq, event)
    }

    /// Schedules `event` at `time` under an externally assigned sequence
    /// number. This is how a set of per-shard queues shares one global
    /// FIFO tie-break: the caller owns a single monotone counter, stamps
    /// every event from it, and the merged pop order over all queues is
    /// then identical to what a single queue would have produced — for
    /// any number of shards.
    ///
    /// The internal counter is bumped past `seq` so later plain
    /// [`schedule`](Self::schedule) calls (and the range check in
    /// [`cancel`](Self::cancel)) stay consistent.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`now`](Self::now), or if `seq`
    /// was already handed out by this queue (reuse would corrupt FIFO
    /// tie-breaking and tombstone identity).
    pub fn schedule_seq(&mut self, time: SimTime, seq: u64, event: E) -> EventKey {
        assert!(
            seq >= self.next_seq,
            "sequence number {seq} reused (queue already at {})",
            self.next_seq
        );
        self.insert(time, seq, event)
    }

    /// Queues a fresh entry; `seq` is at least `next_seq`.
    fn insert(&mut self, time: SimTime, seq: u64, event: E) -> EventKey {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {} < {}",
            time,
            self.now
        );
        if time.as_nanos() < self.base {
            self.rebase(time.as_nanos());
        }
        self.next_seq = seq + 1;
        self.scheduled += 1;
        self.len += 1;
        self.file(Entry { time, seq, event });
        EventKey(seq)
    }

    /// Files `entry` (at or after `base`) into `due` or its bucket.
    #[inline]
    fn file(&mut self, entry: Entry<E>) {
        let time = entry.time.as_nanos();
        let differs = time ^ self.base;
        if differs == 0 {
            self.due.push_back(entry);
            return;
        }
        let b = (u64::BITS - 1 - differs.leading_zeros()) as usize;
        self.occupied |= 1 << b;
        self.mins[b] = self.mins[b].min(time);
        if self.buckets[b].len() == self.buckets[b].capacity() {
            self.enlarge(b);
        }
        self.buckets[b].push(entry);
    }

    /// Moves the full `buckets[b]` into a buffer twice its size, a spare
    /// if one is at hand.
    #[cold]
    #[inline(never)]
    fn enlarge(&mut self, b: usize) {
        let capacity = self.buckets[b].capacity();
        let class = if capacity == 0 {
            MIN_CLASS
        } else {
            capacity.ilog2() + 1
        };
        let mut buffer = self
            .take_spare(class)
            .unwrap_or_else(|| Vec::with_capacity(1 << class));
        buffer.append(&mut self.buckets[b]);
        let outgrown = std::mem::replace(&mut self.buckets[b], buffer);
        self.retire(outgrown);
    }

    /// Keeps the empty `buffer` as a spare, then drops the largest spares
    /// while together they could hold more than half the queue. A queue
    /// cycling a steady population then finds the buffers it needs there,
    /// and one that shrank lets go of what it no longer needs.
    fn retire(&mut self, buffer: Vec<Entry<E>>) {
        debug_assert!(buffer.is_empty(), "retiring a buffer in use");
        if buffer.capacity() == 0 {
            return;
        }
        let class = buffer.capacity().ilog2();
        self.spare_capacity += buffer.capacity();
        self.spares[class as usize].push(buffer);
        self.spare_classes |= 1 << class;
        while self.spare_capacity > (self.len / 2).max(SPARE_FLOOR) {
            let largest = u64::BITS - 1 - self.spare_classes.leading_zeros();
            self.take_spare(largest);
        }
    }

    /// A spare of `1 << class` entries, if one is kept.
    fn take_spare(&mut self, class: u32) -> Option<Vec<Entry<E>>> {
        let spares = &mut self.spares[class as usize];
        let spare = spares.pop()?;
        if spares.is_empty() {
            self.spare_classes &= !(1 << class);
        }
        self.spare_capacity -= spare.capacity();
        Some(spare)
    }

    /// Moves the base back to `base` and files every entry again. Only a
    /// schedule between `now` and a time [`peek_time`](Self::peek_time)
    /// moved the base to gets here.
    #[cold]
    fn rebase(&mut self, base: u64) {
        let due = std::mem::take(&mut self.due);
        let buckets = std::mem::replace(&mut self.buckets, std::array::from_fn(|_| Vec::new()));
        self.base = base;
        self.mins = [u64::MAX; BUCKETS];
        self.occupied = 0;
        for entry in due {
            self.file(entry);
        }
        for mut bucket in buckets {
            for entry in bucket.drain(..) {
                self.file(entry);
            }
            self.retire(bucket);
        }
    }

    /// Refills the empty `due` from the lowest non-empty bucket, whose
    /// minimum becomes the base. Returns `false` when no entry is left.
    fn refill(&mut self) -> bool {
        debug_assert!(self.due.is_empty(), "refill with entries due");
        if self.occupied == 0 {
            return false;
        }
        let b = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << b);
        self.base = std::mem::replace(&mut self.mins[b], u64::MAX);
        if self.buckets[b].len() == 1 {
            // A lone entry is the base.
            self.due.extend(self.buckets[b].pop());
            return true;
        }
        // Every entry lands in `due` or below `b`, so the bucket's buffer
        // is free to walk while they are filed.
        let mut spread = std::mem::take(&mut self.buckets[b]);
        for entry in spread.drain(..) {
            self.file(entry);
        }
        if spread.capacity() <= KEPT {
            self.buckets[b] = spread;
        } else {
            self.retire(spread);
        }
        true
    }

    /// Brings the earliest live entry to the front of `due` and returns its
    /// time: refills `due` when it runs dry and drops tombstoned entries
    /// that reach its front.
    fn head_time(&mut self) -> Option<SimTime> {
        loop {
            let Some(entry) = self.due.front() else {
                if self.refill() {
                    continue;
                }
                return None;
            };
            // Skip the tombstone hash lookup entirely while no
            // cancellations are outstanding — the common case on the hot
            // loop (hundreds of thousands of pops per run).
            if self.cancelled.is_empty() || !self.cancelled.remove(&entry.seq) {
                return Some(entry.time);
            }
            self.due.pop_front();
            self.len -= 1;
        }
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet fired or been cancelled.
    /// Cancelling an already-delivered or already-cancelled key is a no-op
    /// returning `false`.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        if key.0 >= self.next_seq {
            return false;
        }
        // An event that already fired is gone from the queue; inserting
        // its key into `cancelled` would leak, so only record keys that
        // can still be queued. We cannot cheaply tell "fired" apart from
        // "pending", so we record and rely on the pops to clean up.
        self.cancelled.insert(key.0)
    }

    /// Removes and returns the earliest non-cancelled event, advancing the
    /// clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry().map(|(time, _, event)| (time, event))
    }

    /// Like [`pop`](Self::pop), but also returns the entry's sequence
    /// number. A multi-queue executor uses this where the global sequence
    /// stamp of the popped entry matters — e.g. to order effects buffered
    /// during a parallel epoch by the `(time, seq)` of the event that
    /// produced them.
    pub fn pop_entry(&mut self) -> Option<(SimTime, u64, E)> {
        self.head_time()?;
        let entry = self.due.pop_front().expect("a live entry at the front");
        self.len -= 1;
        debug_assert!(entry.time >= self.now, "event queue went backwards");
        self.now = entry.time;
        self.popped += 1;
        Some((entry.time, entry.seq, entry.event))
    }

    /// The timestamp of the next non-cancelled event, if any.
    ///
    /// Cancelled entries at the head are dropped eagerly so the returned
    /// time is accurate.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.head_time()
    }

    /// Number of pending entries, **including** tombstoned ones.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries (live or tombstoned) remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The non-tombstoned entries, in no particular order.
    fn live(&self) -> impl Iterator<Item = &Entry<E>> {
        let held = self.due.iter().chain(self.buckets.iter().flatten());
        held.filter(|entry| !self.cancelled.contains(&entry.seq))
    }

    /// The pending (non-cancelled) entries as `(key, time, event)`, in no
    /// particular order: a resumed owner re-derives the keys it holds here.
    pub fn iter(&self) -> impl Iterator<Item = (EventKey, SimTime, &E)> {
        self.live()
            .map(|entry| (EventKey(entry.seq), entry.time, &entry.event))
    }

    /// Appends a complete image of the queue to a snapshot: the counters
    /// (`now`, next sequence number, delivered, scheduled), then the live
    /// (non-tombstoned) entries in pop order, each as time, sequence
    /// number and the event as `put` writes it.
    pub fn encode(&self, enc: &mut WireEncoder, mut put: impl FnMut(&mut WireEncoder, &E)) {
        enc.time(self.now);
        enc.u64(self.next_seq);
        enc.u64(self.popped);
        enc.u64(self.scheduled);
        let mut live: Vec<_> = self.live().collect();
        live.sort_by_key(|entry| (entry.time, entry.seq));
        enc.seq(live, |enc, entry| {
            enc.time(entry.time);
            enc.u64(entry.seq);
            put(enc, &entry.event);
        });
    }

    /// Rebuilds a queue from [`encode`](Self::encode) output; `get` reads
    /// one event, which occupies at least `min_bytes` of input.
    /// Tombstoned entries were not written (they were already logically
    /// gone); the restored queue pops the same `(time, seq, event)` stream
    /// and hands out fresh keys from the stored sequence number, so it is
    /// behaviorally identical to the encoded one.
    ///
    /// # Errors
    ///
    /// A positioned [`WireError`] on malformed input, including an entry
    /// that predates the clock, carries a sequence number not yet handed
    /// out, or does not follow its predecessor in pop order.
    pub fn decode<'a>(
        dec: &mut WireDecoder<'a>,
        min_bytes: usize,
        mut get: impl FnMut(&mut WireDecoder<'a>) -> Result<E, WireError>,
    ) -> Result<Self, WireError> {
        let now = dec.time()?;
        let next_seq = dec.u64()?;
        let popped = dec.u64()?;
        let scheduled = dec.u64()?;
        let mut last = None;
        let entries = dec.seq(16 + min_bytes, |dec| {
            let at = dec.position();
            let (time, seq) = (dec.time()?, dec.u64()?);
            if time < now || seq >= next_seq {
                let what = "queued event predates the clock or postdates the sequence counter";
                return Err(WireError { at, what });
            }
            if last.is_some_and(|last| last >= (time, seq)) {
                let what = "queued events out of (time, seq) order";
                return Err(WireError { at, what });
            }
            last = Some((time, seq));
            let event = get(dec)?;
            Ok(Entry { time, seq, event })
        })?;
        let mut queue = EventQueue::starting(now, next_seq);
        queue.popped = popped;
        queue.scheduled = scheduled;
        queue.len = entries.len();
        for entry in entries {
            queue.file(entry);
        }
        Ok(queue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(3), 'c');
        q.schedule(SimTime::from_millis(1), 'a');
        q.schedule(SimTime::from_millis(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let k1 = q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(2), 2);
        assert!(q.cancel(k1));
        assert!(!q.cancel(k1), "double cancel reports false");
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), 2)));
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let k = q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(5), 2);
        q.cancel(k);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(5)));
    }

    #[test]
    fn a_schedule_before_a_peeked_time_pops_first() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 'a');
        q.schedule(SimTime::from_millis(9), 'c');
        q.schedule(SimTime::from_millis(9), 'd');
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 'a')));
        // The peek moves the radix base to 9 ms, past `now`.
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(9)));
        q.schedule(SimTime::from_millis(1), 'b');
        q.schedule(SimTime::from_millis(9), 'e');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['b', 'c', 'd', 'e']);
    }

    #[test]
    fn far_apart_times_spread_into_order() {
        let mut q = EventQueue::new();
        let times = [u64::MAX, 1 << 40, 3, (1 << 40) + 1, 2, 1 << 63, 3, 0];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut expected: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        expected.sort();
        let popped: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, i)| (t.as_nanos(), i))).collect();
        assert_eq!(popped, expected);
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_seq_merges_bit_identically_across_queue_counts() {
        // The same (time, seq) stream, split across K queues by an
        // arbitrary ownership function, must merge back into exactly the
        // single-queue pop order — this is the property the sharded world
        // executor is built on.
        let times = [5u64, 1, 3, 3, 1, 9, 3, 1, 7, 2, 2, 8];
        let mut single = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            single.schedule(SimTime::from_millis(t), i);
        }
        let expected: Vec<(SimTime, usize)> = std::iter::from_fn(|| single.pop()).collect();

        for shards in 1..=4usize {
            let mut queues: Vec<EventQueue<usize>> =
                (0..shards).map(|_| EventQueue::new()).collect();
            for (i, &t) in times.iter().enumerate() {
                queues[i % shards].schedule_seq(SimTime::from_millis(t), i as u64, i);
            }
            let mut entries: Vec<(SimTime, u64, usize)> = queues
                .iter_mut()
                .flat_map(|queue| std::iter::from_fn(|| queue.pop_entry()))
                .collect();
            entries.sort_unstable();
            let merged: Vec<(SimTime, usize)> =
                entries.into_iter().map(|(t, _, e)| (t, e)).collect();
            assert_eq!(merged, expected, "merge order diverged at {shards} shards");
        }
    }

    #[test]
    fn schedule_seq_bumps_internal_counter() {
        let mut q = EventQueue::new();
        q.schedule_seq(SimTime::from_millis(1), 7, 'a');
        // A later plain schedule must not collide with seq 7.
        let key = q.schedule(SimTime::from_millis(1), 'b');
        assert_eq!(key.as_raw(), 8);
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 'a')));
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 'b')));
    }

    #[test]
    #[should_panic(expected = "reused")]
    fn schedule_seq_rejects_reuse() {
        let mut q = EventQueue::new();
        q.schedule_seq(SimTime::from_millis(1), 3, ());
        q.schedule_seq(SimTime::from_millis(2), 3, ());
    }

    #[test]
    fn pop_entry_exposes_the_sequence_stamp() {
        let mut q = EventQueue::new();
        q.schedule_seq(SimTime::from_millis(2), 5, 'b');
        q.schedule_seq(SimTime::from_millis(1), 9, 'a');
        assert_eq!(q.pop_entry(), Some((SimTime::from_millis(1), 9, 'a')));
        assert_eq!(q.pop_entry(), Some((SimTime::from_millis(2), 5, 'b')));
        assert_eq!(q.pop_entry(), None);
    }

    #[test]
    fn counts_track_activity() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), ());
        let k = q.schedule(SimTime::from_millis(2), ());
        q.cancel(k);
        while q.pop().is_some() {}
        assert_eq!(q.scheduled, 2);
        assert_eq!(q.popped, 1);
    }

    #[test]
    fn codec_round_trips_live_entries_and_refuses_impossible_ones() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), 50u32);
        let gone = q.schedule(SimTime::from_millis(6), 60);
        q.schedule(SimTime::from_millis(7), 70);
        assert_eq!(q.pop(), Some((SimTime::from_millis(5), 50)));
        q.cancel(gone);
        let image = |q: &EventQueue<u32>| {
            let mut enc = WireEncoder::new();
            q.encode(&mut enc, |enc, &e| enc.u32(e));
            enc.into_bytes()
        };
        let decode = |bytes: &[u8]| {
            EventQueue::<u32>::decode(&mut WireDecoder::new(bytes), 4, WireDecoder::u32)
        };
        let bytes = image(&q);
        let mut back = decode(&bytes).unwrap();
        assert_eq!(image(&back), bytes);
        assert_eq!(back.now(), SimTime::from_millis(5));
        assert_eq!(back.popped, 1);
        assert_eq!(back.schedule(SimTime::from_millis(9), 90), EventKey(3));
        assert_eq!(back.pop(), Some((SimTime::from_millis(7), 70)));

        // Counters are 4 x u64, the entry count one more; the one live
        // entry's time and sequence number follow.
        let (time_at, seq_at) = (40, 48);
        for (at, value) in [(time_at, 4_999_999u64), (seq_at, 3)] {
            let mut bad = bytes.clone();
            bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
            assert_eq!(decode(&bad).unwrap_err().at, time_at);
        }

        // Entries out of pop order, or one repeated, are refused at the
        // second: (3 ms, 0) before (2 ms, 1), and (1 ms, 0) twice.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 10u32);
        q.schedule(SimTime::from_millis(2), 20);
        let bytes = image(&q);
        let second = time_at + 8 + 8 + 4;
        let patches: [&[(usize, u64)]; 2] = [
            &[(time_at, 3_000_000)],
            &[(second, 1_000_000), (second + 8, 0)],
        ];
        for patch in patches {
            let mut bad = bytes.clone();
            for &(at, value) in patch {
                bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
            }
            let err = decode(&bad).unwrap_err();
            let what = "queued events out of (time, seq) order";
            assert_eq!((err.at, err.what), (second, what), "{patch:?}");
        }
    }
}
