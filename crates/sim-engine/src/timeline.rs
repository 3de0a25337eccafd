//! A deterministic, time-ordered stream of externally scripted events.
//!
//! A [`Timeline`] holds a list of `(SimTime, T)` entries — typically world
//! actions compiled from a scenario description — sorted by time with
//! declaration order preserved for ties. The model interleaves it with the
//! main [`EventQueue`] by calling [`Timeline::schedule_into`] once at
//! start-up: every entry becomes one queue event carrying its timeline
//! index, and the queue's FIFO tie-breaking guarantees that same-instant
//! entries fire in declaration order.
//!
//! Keeping the payloads in the timeline (and only indices on the queue)
//! means queue events stay `Copy`-sized and the model can re-inspect the
//! full schedule at any point.
//!
//! # Examples
//!
//! ```
//! use manet_sim_engine::{EventQueue, SimTime, Timeline};
//!
//! let timeline = Timeline::new(vec![
//!     (SimTime::from_secs(5), "leave 3"),
//!     (SimTime::from_secs(2), "noise on"),
//! ]);
//! // Sorted on construction.
//! assert_eq!(timeline.get(0), (SimTime::from_secs(2), &"noise on"));
//!
//! let mut queue: EventQueue<usize> = EventQueue::new();
//! timeline.schedule_into(&mut queue, |index| index);
//! let (at, index) = queue.pop().unwrap();
//! assert_eq!((at, timeline.get(index).1), (SimTime::from_secs(2), &"noise on"));
//! ```

use crate::queue::EventQueue;
use crate::time::SimTime;

/// A sorted schedule of `(SimTime, T)` entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline<T> {
    entries: Vec<(SimTime, T)>,
}

impl<T> Timeline<T> {
    /// Builds a timeline from unsorted entries.
    ///
    /// Entries are stable-sorted by time: two entries at the same instant
    /// keep their relative order from `entries`.
    pub fn new(mut entries: Vec<(SimTime, T)>) -> Self {
        entries.sort_by_key(|&(at, _)| at);
        Timeline { entries }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the timeline holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry at `index` (indices follow sorted order).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn get(&self, index: usize) -> (SimTime, &T) {
        let (at, value) = &self.entries[index];
        (*at, value)
    }

    /// Iterates entries in time order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &T)> {
        self.entries.iter().map(|(at, value)| (*at, value))
    }

    /// Schedules every entry on `queue` at its timestamp, in timeline
    /// order, wrapping each index via `make`.
    ///
    /// Because the queue breaks timestamp ties FIFO, same-instant entries
    /// are later delivered in timeline order — the stream interleaves
    /// deterministically with everything else on the queue.
    pub fn schedule_into<E>(&self, queue: &mut EventQueue<E>, mut make: impl FnMut(usize) -> E) {
        for (index, (at, _)) in self.entries.iter().enumerate() {
            queue.schedule(*at, make(index));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_stably() {
        let t = Timeline::new(vec![
            (SimTime::from_secs(3), "b"),
            (SimTime::from_secs(1), "a"),
            (SimTime::from_secs(3), "c"),
        ]);
        let order: Vec<&str> = t.iter().map(|(_, v)| *v).collect();
        assert_eq!(order, ["a", "b", "c"]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn schedule_into_preserves_tie_order() {
        let t = Timeline::new(vec![
            (SimTime::from_secs(2), "x"),
            (SimTime::from_secs(2), "y"),
            (SimTime::from_secs(1), "w"),
        ]);
        let mut queue: EventQueue<usize> = EventQueue::new();
        t.schedule_into(&mut queue, |i| i);
        let mut seen = Vec::new();
        while let Some((_, i)) = queue.pop() {
            seen.push(*t.get(i).1);
        }
        assert_eq!(seen, ["w", "x", "y"]);
    }

    #[test]
    fn empty_timeline_is_empty() {
        let t: Timeline<u8> = Timeline::new(Vec::new());
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.iter().count(), 0);
    }
}
