//! Cancellable, deterministic event queue.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, E)` pairs. Two events
//! scheduled for the same instant are delivered in the order they were
//! scheduled (FIFO tie-breaking via a monotonically increasing sequence
//! number), which makes runs bit-for-bit reproducible.
//!
//! Every scheduled event gets an [`EventKey`]. Cancelling a key tombstones
//! the entry: the heap node stays in place but is silently skipped by
//! [`EventQueue::pop`]. This is the standard lazy-deletion trick and keeps
//! both `schedule` and `cancel` at `O(log n)` / `O(1)`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
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

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

// Order entries so the BinaryHeap (a max-heap) pops the earliest time first,
// breaking ties by insertion order.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: earliest (time, seq) is the "greatest" heap element.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
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
    heap: BinaryHeap<Entry<E>>,
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
        EventQueue {
            heap: BinaryHeap::new(),
            cancelled: SeqSet::default(),
            next_seq: 0,
            now: SimTime::ZERO,
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
        assert!(
            time >= self.now,
            "cannot schedule into the past: {} < {}",
            time,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        self.heap.push(Entry { time, seq, event });
        EventKey(seq)
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
            time >= self.now,
            "cannot schedule into the past: {} < {}",
            time,
            self.now
        );
        assert!(
            seq >= self.next_seq,
            "sequence number {seq} reused (queue already at {})",
            self.next_seq
        );
        self.next_seq = seq + 1;
        self.scheduled += 1;
        self.heap.push(Entry { time, seq, event });
        EventKey(seq)
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
        // An event that already fired is gone from the heap; inserting its
        // key into `cancelled` would leak, so only record keys that can
        // still be in the heap. We cannot cheaply tell "fired" apart from
        // "pending", so we record and rely on pop() to clean up.
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
        while let Some(entry) = self.heap.pop() {
            // Skip the tombstone hash lookup entirely while no
            // cancellations are outstanding — the common case on the hot
            // loop (hundreds of thousands of pops per run).
            if !self.cancelled.is_empty() && self.cancelled.remove(&entry.seq) {
                continue;
            }
            debug_assert!(entry.time >= self.now, "event queue went backwards");
            self.now = entry.time;
            self.popped += 1;
            return Some((entry.time, entry.seq, entry.event));
        }
        None
    }

    /// The timestamp of the next non-cancelled event, if any.
    ///
    /// Cancelled entries at the head are dropped eagerly so the returned
    /// time is accurate.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(entry) = self.heap.peek() {
            if !self.cancelled.is_empty() && self.cancelled.contains(&entry.seq) {
                let entry = self.heap.pop().expect("peeked entry vanished");
                self.cancelled.remove(&entry.seq);
                continue;
            }
            return Some(entry.time);
        }
        None
    }

    /// Number of pending entries, **including** tombstoned ones.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no entries (live or tombstoned) remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The pending (non-cancelled) entries as `(time, event)`, in no
    /// particular order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &E)> {
        self.heap
            .iter()
            .filter(|entry| !self.cancelled.contains(&entry.seq))
            .map(|entry| (entry.time, &entry.event))
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
        let mut live: Vec<_> = self
            .heap
            .iter()
            .filter(|entry| !self.cancelled.contains(&entry.seq))
            .collect();
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
    /// that predates the clock or carries a sequence number not yet
    /// handed out.
    pub fn decode<'a>(
        dec: &mut WireDecoder<'a>,
        min_bytes: usize,
        mut get: impl FnMut(&mut WireDecoder<'a>) -> Result<E, WireError>,
    ) -> Result<Self, WireError> {
        let now = dec.time()?;
        let next_seq = dec.u64()?;
        let popped = dec.u64()?;
        let scheduled = dec.u64()?;
        let entries = dec.seq(16 + min_bytes, |dec| {
            let at = dec.position();
            let (time, seq) = (dec.time()?, dec.u64()?);
            if time < now || seq >= next_seq {
                let what = "queued event predates the clock or postdates the sequence counter";
                return Err(WireError { at, what });
            }
            let event = get(dec)?;
            Ok(Entry { time, seq, event })
        })?;
        Ok(EventQueue {
            heap: BinaryHeap::from(entries),
            cancelled: SeqSet::default(),
            next_seq,
            now,
            popped,
            scheduled,
        })
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
    }
}
