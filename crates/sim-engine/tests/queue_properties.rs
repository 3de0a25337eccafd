//! `EventQueue` against a reference model: a sorted `Vec` of every queued
//! entry and a set of tombstones, which is what the queue promises to
//! behave like. One generated property drives both through interleaved
//! schedules (at `now`, in same-instant bursts, under stamped sequence
//! numbers, and between `now` and a peeked time), cancels of live, fired,
//! cancelled and never-issued keys, pops, peeks, and snapshot round trips,
//! and compares every answer. Four schedule-then-drain properties check
//! delivery order, cancellation, the clock and `peek_time` on their own,
//! and a last test bounds what a queue cycling a steady population asks
//! of the allocator.

use std::collections::BTreeSet;

use manet_sim_engine::{
    EventKey, EventQueue, SimDuration, SimRng, SimTime, WireDecoder, WireEncoder,
};
use manet_testkit::{prop_check, CountingAlloc, Gen};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// One step of a generated script. Keys and times are resolved against
/// the state when the step runs.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule `delay` ns after now; 0 is exactly now.
    Schedule {
        delay: u64,
    },
    /// Schedule `count` entries at one instant, `delay` ns after now.
    Burst {
        delay: u64,
        count: usize,
    },
    /// Schedule under a stamped sequence number `skip` past the counter.
    ScheduleSeq {
        delay: u64,
        skip: u64,
    },
    /// Peek, then schedule halfway between now and the peeked time.
    ScheduleBeforePeeked,
    /// Cancel the `pick`-th key issued so far, whatever became of it.
    Cancel {
        pick: usize,
    },
    /// Cancel a key `ahead` past the last one issued.
    CancelUnissued {
        ahead: u64,
    },
    /// Pop, through `pop_entry` or `pop`.
    Pop {
        with_seq: bool,
    },
    Peek,
    /// Encode, decode, and carry on with the decoded queue.
    Reload,
}

/// Delays on every scale the world uses, from none to far beyond a run.
fn delay(g: &mut Gen) -> u64 {
    match g.u32_in(0..8) {
        0 => 0,
        1 => g.u64_in(0..64),
        2 | 3 => g.u64_in(0..1 << 20),
        4 | 5 => g.u64_in(0..1 << 30),
        6 => g.u64_in(0..1 << 40),
        _ => g.u64_in(0..1 << 62),
    }
}

fn op(g: &mut Gen) -> Op {
    match g.u32_in(0..20) {
        0..=4 => Op::Schedule { delay: delay(g) },
        5 => Op::Burst {
            delay: delay(g),
            count: g.usize_in(2..40),
        },
        6 => Op::ScheduleSeq {
            delay: delay(g),
            skip: g.u64_in(0..3),
        },
        7 => Op::ScheduleBeforePeeked,
        8 | 9 => Op::Cancel {
            pick: g.usize_in(0..1 << 16),
        },
        10 => Op::CancelUnissued {
            ahead: g.u64_in(0..3),
        },
        11..=15 => Op::Pop { with_seq: g.bool() },
        16 | 17 => Op::Peek,
        _ => Op::Reload,
    }
}

/// The reference: every queued entry as `(time, seq, event)`, sorted, and
/// the tombstones. A tombstone goes when its entry reaches the front,
/// which is when `cancel` may answer `true` for that key again.
#[derive(Debug, Default)]
struct Model {
    entries: Vec<(u64, u64, u32)>,
    tombstones: BTreeSet<u64>,
    next_seq: u64,
    now: u64,
    popped: u64,
    scheduled: u64,
}

impl Model {
    fn schedule(&mut self, time: u64, seq: u64, event: u32) {
        let at = self
            .entries
            .partition_point(|&(t, s, _)| (t, s) < (time, seq));
        self.entries.insert(at, (time, seq, event));
        self.next_seq = seq + 1;
        self.scheduled += 1;
    }

    fn cancel(&mut self, key: u64) -> bool {
        key < self.next_seq && self.tombstones.insert(key)
    }

    fn head(&mut self) -> Option<(u64, u64, u32)> {
        while let Some(&first) = self.entries.first() {
            if !self.tombstones.remove(&first.1) {
                return Some(first);
            }
            self.entries.remove(0);
        }
        None
    }

    fn pop(&mut self) -> Option<(u64, u64, u32)> {
        let first = self.head()?;
        self.entries.remove(0);
        self.now = first.0;
        self.popped += 1;
        Some(first)
    }

    fn live(&self) -> impl Iterator<Item = &(u64, u64, u32)> {
        self.entries
            .iter()
            .filter(|(_, seq, _)| !self.tombstones.contains(seq))
    }

    /// What `EventQueue::encode` must write.
    fn image(&self) -> Vec<u8> {
        let mut enc = WireEncoder::new();
        enc.time(SimTime::from_nanos(self.now));
        enc.u64(self.next_seq);
        enc.u64(self.popped);
        enc.u64(self.scheduled);
        enc.seq(self.live(), |enc, &(time, seq, event)| {
            enc.time(SimTime::from_nanos(time));
            enc.u64(seq);
            enc.u32(event);
        });
        enc.into_bytes()
    }

    /// A decoded queue holds the live entries and no tombstones.
    fn reload(&mut self) {
        let tombstones = std::mem::take(&mut self.tombstones);
        self.entries.retain(|(_, seq, _)| !tombstones.contains(seq));
    }
}

fn image(q: &EventQueue<u32>) -> Vec<u8> {
    let mut enc = WireEncoder::new();
    q.encode(&mut enc, |enc, &event| enc.u32(event));
    enc.into_bytes()
}

prop_check! {
    /// Every pop, peek, cancel answer, clock reading, length, live set
    /// and snapshot image of the queue equals the sorted-`Vec` model's.
    fn the_queue_behaves_as_a_sorted_vec(g) {
        let ops = g.vec(1..400, op);
        let (mut q, mut model) = (EventQueue::new(), Model::default());
        let mut keys: Vec<EventKey> = Vec::new();
        let mut event = 0u32;
        let mut schedule = |q: &mut EventQueue<u32>, model: &mut Model, time, seq| {
            event += 1;
            let time_at = SimTime::from_nanos(time);
            let key = match seq {
                Some(seq) => q.schedule_seq(time_at, seq, event),
                None => q.schedule(time_at, event),
            };
            model.schedule(time, key.as_raw(), event);
            key
        };
        for (step, &op) in ops.iter().enumerate() {
            let now = model.now;
            let later = |delay: u64| now.saturating_add(delay);
            match op {
                Op::Schedule { delay } => {
                    keys.push(schedule(&mut q, &mut model, later(delay), None));
                }
                Op::Burst { delay, count } => {
                    let time = later(delay);
                    for _ in 0..count {
                        keys.push(schedule(&mut q, &mut model, time, None));
                    }
                }
                Op::ScheduleSeq { delay, skip } => {
                    let seq = model.next_seq + skip;
                    keys.push(schedule(&mut q, &mut model, later(delay), Some(seq)));
                }
                Op::ScheduleBeforePeeked => {
                    let peeked = q.peek_time().map(SimTime::as_nanos);
                    assert_eq!(peeked, model.head().map(|(time, _, _)| time), "step {step}");
                    let time = now + (peeked.unwrap_or(now) - now) / 2;
                    keys.push(schedule(&mut q, &mut model, time, None));
                }
                Op::Cancel { pick } => {
                    if let Some(&key) = keys.get(pick % keys.len().max(1)) {
                        let raw = key.as_raw();
                        assert_eq!(q.cancel(key), model.cancel(raw), "step {step}: cancel {raw}");
                    }
                }
                Op::CancelUnissued { ahead } => {
                    let key = model.next_seq + ahead;
                    assert!(!q.cancel(EventKey::from_raw(key)), "step {step}: cancel {key}");
                }
                Op::Pop { with_seq } => {
                    let want = model.pop();
                    if with_seq {
                        let got = q.pop_entry().map(|(t, seq, e)| (t.as_nanos(), seq, e));
                        assert_eq!(got, want, "step {step}");
                    } else {
                        let got = q.pop().map(|(t, e)| (t.as_nanos(), e));
                        assert_eq!(got, want.map(|(t, _, e)| (t, e)), "step {step}");
                    }
                }
                Op::Peek => {
                    let got = q.peek_time().map(SimTime::as_nanos);
                    assert_eq!(got, model.head().map(|(time, _, _)| time), "step {step}");
                }
                Op::Reload => {
                    let bytes = image(&q);
                    let mut dec = WireDecoder::new(&bytes);
                    q = EventQueue::decode(&mut dec, 4, WireDecoder::u32).expect("an image decodes");
                    dec.finish().expect("the whole image is read");
                    model.reload();
                }
            }
            assert_eq!(q.now().as_nanos(), model.now, "step {step}: now");
            assert_eq!(q.len(), model.entries.len(), "step {step}: len");
            assert_eq!(q.is_empty(), model.entries.is_empty(), "step {step}");
            let mut live: Vec<(u64, u64, u32)> = q
                .iter()
                .map(|(key, t, &e)| (t.as_nanos(), key.as_raw(), e))
                .collect();
            live.sort_unstable();
            let mut want: Vec<(u64, u64, u32)> = model.live().copied().collect();
            want.sort_unstable();
            assert_eq!(live, want, "step {step}: live entries");
            assert_eq!(image(&q), model.image(), "step {step}: encoded image");
        }
        while let Some(want) = model.pop() {
            let got = q.pop_entry().map(|(t, seq, e)| (t.as_nanos(), seq, e));
            assert_eq!(got, Some(want), "draining");
        }
        assert_eq!(q.pop(), None);
    }

    /// Events always come out sorted by (time, insertion order).
    fn delivery_is_sorted_and_stable(g) {
        let times = times(g);
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort();
        let mut actual = Vec::new();
        while let Some((t, i)) = q.pop() {
            actual.push((t.as_nanos(), i));
        }
        assert_eq!(actual, expected);
    }

    /// Cancelled events never surface; everything else still does, in order.
    fn cancellation_preserves_order_of_survivors(g) {
        let times = times(g);
        let cancel_mask = g.vec(1..200, |g| g.bool());
        let mut q = EventQueue::new();
        let keys: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule(SimTime::from_nanos(t), i))
            .collect();
        let mut survivors = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                q.cancel(*key);
            } else {
                survivors.push((times[i], i));
            }
        }
        survivors.sort();
        let mut actual = Vec::new();
        while let Some((t, i)) = q.pop() {
            actual.push((t.as_nanos(), i));
        }
        assert_eq!(actual, survivors);
    }

    /// The clock never moves backwards no matter the schedule.
    fn clock_is_monotone(g) {
        let times = g.vec(1..100, |g| g.u64_in(0..1_000_000));
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule(SimTime::from_nanos(t), ());
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            assert_eq!(q.now(), t);
            last = t;
        }
    }

    /// peek_time always matches the next popped timestamp.
    fn peek_agrees_with_pop(g) {
        let times = g.vec(1..100, |g| g.u64_in(0..1_000_000));
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule(SimTime::from_nanos(t), ());
        }
        while let Some(peeked) = q.peek_time() {
            let (popped, _) = q.pop().unwrap();
            assert_eq!(peeked, popped);
        }
        assert!(q.pop().is_none());
    }
}

/// A schedule-then-drain script: up to 200 timestamps in the first
/// millisecond.
fn times(g: &mut Gen) -> Vec<u64> {
    g.vec(1..200, |g| g.u64_in(0..1_000_000))
}

/// After warm-up, a queue cycling a fixed population asks the allocator
/// for at most one block per 1 000 pops: at a 10-host world's 22 entries
/// and at a 10⁴-host storm's 12 600. Each popped entry comes back after a
/// delay drawn log-uniformly from 1 µs to 134 ms, so buckets of every size
/// fill and spread, or, one time in three, in a same-instant burst.
#[test]
fn a_steady_population_stops_allocating() {
    const WARM_UP_POPS: usize = 400_000;
    const MEASURED_POPS: usize = 200_000;
    for population in [22, 12_600] {
        let mut rng = SimRng::seed_from(population);
        let mut burst = SimTime::ZERO;
        let mut after = |now: SimTime| {
            if rng.gen_bool(1.0 / 3.0) {
                if burst <= now {
                    burst = now + SimDuration::from_micros(20);
                }
                return burst;
            }
            let octave = rng.gen_range_u32(10..27);
            let delay = rng.gen_u64_inclusive(1 << octave, (2 << octave) - 1);
            now + SimDuration::from_nanos(delay)
        };
        let mut q = EventQueue::new();
        for _ in 0..population {
            q.schedule(after(SimTime::ZERO), ());
        }
        let mut cycle = |q: &mut EventQueue<()>, pops: usize| {
            for _ in 0..pops {
                let (now, ()) = q.pop().expect("the population never drains");
                q.schedule(after(now), ());
            }
        };
        cycle(&mut q, WARM_UP_POPS);
        let ((), asked) = CountingAlloc::measure(|| cycle(&mut q, MEASURED_POPS));
        println!(
            "{population} entries: {} allocations in {MEASURED_POPS} pops",
            asked.requests
        );
        assert!(
            asked.requests as usize * 1_000 <= MEASURED_POPS,
            "{population} entries: {} allocations in {MEASURED_POPS} pops",
            asked.requests
        );
        assert_eq!(q.len(), population as usize);
    }
}
