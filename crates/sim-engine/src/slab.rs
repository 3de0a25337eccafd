//! A fixed-overhead slab allocator: stable `u32` keys, free-list reuse,
//! zero steady-state heap traffic.
//!
//! The simulation hot path creates and destroys many short-lived records
//! (frames on the air, queued MAC payloads, per-packet scheme state).
//! Keying them through a `HashMap` costs a hash plus allocator traffic per
//! record; a [`Slab`] instead hands out dense `u32` slots and recycles
//! vacated slots through an intrusive free list, so steady-state insert
//! and remove touch no allocator and no hasher at all.
//!
//! Keys are reused: after `remove(k)`, a later `insert` may return `k`
//! again. Callers that need generation-checked keys must layer them on
//! top; the simulator's records are all removed exactly once by the owner
//! of the key, so raw slots suffice.
//!
//! # Examples
//!
//! ```
//! use manet_sim_engine::Slab;
//!
//! let mut slab = Slab::new();
//! let a = slab.insert("alpha");
//! let b = slab.insert("beta");
//! assert_eq!(slab.remove(a), "alpha");
//! let c = slab.insert("gamma"); // reuses slot `a`
//! assert_eq!(c, a);
//! assert_eq!(slab[b], "beta");
//! ```

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::wire::{WireDecoder, WireEncoder, WireError};

/// One slot: occupied with a value, or vacant and linking to the next
/// free slot.
#[derive(Debug, Clone)]
enum Entry<T> {
    Occupied(T),
    Vacant { next_free: u32 },
}

/// Sentinel terminating the free list.
const NIL: u32 = u32::MAX;

/// A slab of `T` values with `u32` keys and free-list slot reuse.
#[derive(Clone)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    free_head: u32,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free_head: NIL,
            len: 0,
        }
    }

    /// Creates an empty slab that can hold `capacity` values before
    /// growing.
    pub fn with_capacity(capacity: usize) -> Self {
        Slab {
            entries: Vec::with_capacity(capacity),
            free_head: NIL,
            len: 0,
        }
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stores `value`, returning its slot. Reuses the most recently
    /// vacated slot if any (LIFO), else appends. The first value gets one
    /// slot, not the four a growing `Vec` starts with: most of the
    /// simulator's slabs are per host and hold one value at a time.
    pub fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        match self.free_head {
            NIL => {
                let key = u32::try_from(self.entries.len()).expect("slab exceeds u32 slots");
                if self.entries.capacity() == 0 {
                    self.entries.reserve_exact(1);
                }
                self.entries.push(Entry::Occupied(value));
                key
            }
            key => {
                let slot = &mut self.entries[key as usize];
                let Entry::Vacant { next_free } = *slot else {
                    unreachable!("free list points at an occupied slot");
                };
                self.free_head = next_free;
                *slot = Entry::Occupied(value);
                key
            }
        }
    }

    /// Removes and returns the value in `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is vacant or out of bounds.
    pub fn remove(&mut self, key: u32) -> T {
        let slot = &mut self.entries[key as usize];
        let filled = std::mem::replace(
            slot,
            Entry::Vacant {
                next_free: self.free_head,
            },
        );
        match filled {
            Entry::Occupied(value) => {
                self.free_head = key;
                self.len -= 1;
                value
            }
            vacant @ Entry::Vacant { .. } => {
                // Undo the link to keep the free list coherent, then die.
                *slot = vacant;
                panic!("slab slot {key} is vacant");
            }
        }
    }

    /// The value in `key`, or `None` when vacant or out of bounds.
    pub fn get(&self, key: u32) -> Option<&T> {
        match self.entries.get(key as usize) {
            Some(Entry::Occupied(value)) => Some(value),
            _ => None,
        }
    }

    /// Mutable access to the value in `key`, or `None` when vacant or out
    /// of bounds.
    pub fn get_mut(&mut self, key: u32) -> Option<&mut T> {
        match self.entries.get_mut(key as usize) {
            Some(Entry::Occupied(value)) => Some(value),
            _ => None,
        }
    }

    /// `true` when `key` holds a value.
    pub fn contains(&self, key: u32) -> bool {
        matches!(self.entries.get(key as usize), Some(Entry::Occupied(_)))
    }

    /// Iterates occupied slots as `(key, &value)` in ascending key order.
    ///
    /// Walks every slot including vacant ones, so this is `O(capacity)`
    /// rather than `O(len)` — fine for the cold paths (teardown, host
    /// deactivation) it exists for, not for per-event work.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Entry::Occupied(value) => Some((i as u32, value)),
                Entry::Vacant { .. } => None,
            })
    }

    /// Appends the slab to a snapshot **with its slot layout**: the
    /// free-list head (`u32`, `u32::MAX` for none), then a sequence of
    /// slots, each a tag `u8` — `0` vacant + next-free link `u32`, `1`
    /// occupied + the value as `put` writes it. Keeping the layout (rather
    /// than re-inserting the live values) preserves the keys held
    /// elsewhere in the snapshot and the keys later inserts hand out.
    pub fn encode(&self, enc: &mut WireEncoder, mut put: impl FnMut(&mut WireEncoder, &T)) {
        enc.u32(self.free_head);
        enc.seq(&self.entries, |enc, entry| match entry {
            Entry::Vacant { next_free } => {
                enc.u8(0);
                enc.u32(*next_free);
            }
            Entry::Occupied(value) => {
                enc.u8(1);
                put(enc, value);
            }
        });
    }

    /// Rebuilds a slab from [`encode`](Self::encode) output; `get` reads
    /// one value, which occupies at least `min_bytes` of input.
    ///
    /// # Errors
    ///
    /// A positioned [`WireError`] on malformed input, including a free
    /// list that does not visit exactly the vacant slots.
    pub fn decode<'a>(
        dec: &mut WireDecoder<'a>,
        min_bytes: usize,
        mut get: impl FnMut(&mut WireDecoder<'a>) -> Result<T, WireError>,
    ) -> Result<Self, WireError> {
        let at = dec.position();
        let free_head = dec.u32()?;
        let entries = dec.seq(1 + min_bytes.min(4), |dec| {
            let (tag, invalid) = dec.tag("invalid slab slot tag")?;
            match tag {
                0 => Ok(Entry::Vacant {
                    next_free: dec.u32()?,
                }),
                1 => Ok(Entry::Occupied(get(dec)?)),
                _ => Err(invalid),
            }
        })?;
        let vacant = |e: &Entry<T>| matches!(e, Entry::Vacant { .. });
        let mut unvisited = entries.iter().filter(|e| vacant(e)).count();
        let len = entries.len() - unvisited;
        // Every link must land on a vacant slot, and the chain must end
        // having used each of them once (a cycle runs out of budget).
        let mut next = free_head;
        while next != NIL {
            match entries.get(next as usize) {
                Some(Entry::Vacant { next_free }) if unvisited > 0 => {
                    unvisited -= 1;
                    next = *next_free;
                }
                _ => break,
            }
        }
        if next != NIL || unvisited != 0 {
            let what = "slab free list does not match the vacant slots";
            return Err(WireError { at, what });
        }
        Ok(Slab {
            entries,
            free_head,
            len,
        })
    }
}

impl<T> Index<u32> for Slab<T> {
    type Output = T;

    fn index(&self, key: u32) -> &T {
        self.get(key).expect("slab slot is vacant")
    }
}

impl<T> IndexMut<u32> for Slab<T> {
    fn index_mut(&mut self, key: u32) -> &mut T {
        self.get_mut(key).expect("slab slot is vacant")
    }
}

impl<T: fmt::Debug> fmt::Debug for Slab<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let occupied = self
            .entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Entry::Occupied(v) => Some((i, v)),
                Entry::Vacant { .. } => None,
            });
        f.debug_map().entries(occupied).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut slab = Slab::new();
        let a = slab.insert(10);
        let b = slab.insert(20);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&10));
        assert_eq!(slab[b], 20);
        assert_eq!(slab.remove(a), 10);
        assert_eq!(slab.get(a), None);
        assert!(!slab.contains(a));
        assert!(slab.contains(b));
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn slots_are_reused_lifo() {
        let mut slab = Slab::new();
        let a = slab.insert('a');
        let b = slab.insert('b');
        slab.remove(a);
        slab.remove(b);
        // LIFO: most recently freed first.
        assert_eq!(slab.insert('c'), b);
        assert_eq!(slab.insert('d'), a);
        // Both slots live again; a third insert must append.
        assert_eq!(slab.insert('e'), 2);
    }

    #[test]
    fn no_growth_in_steady_state() {
        let mut slab = Slab::with_capacity(4);
        let base = slab.entries.capacity();
        for round in 0..1_000u32 {
            let k1 = slab.insert(round);
            let k2 = slab.insert(round + 1);
            assert_eq!(slab.remove(k1), round);
            assert_eq!(slab.remove(k2), round + 1);
        }
        assert_eq!(slab.entries.capacity(), base, "steady state must not grow");
        assert!(slab.is_empty());
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut slab = Slab::new();
        let k = slab.insert(5);
        *slab.get_mut(k).unwrap() += 1;
        slab[k] += 1;
        assert_eq!(slab[k], 7);
    }

    #[test]
    #[should_panic(expected = "vacant")]
    fn removing_vacant_slot_panics() {
        let mut slab = Slab::new();
        let k = slab.insert(1);
        slab.remove(k);
        slab.remove(k);
    }

    #[test]
    fn out_of_bounds_lookups_are_none() {
        let slab: Slab<u8> = Slab::new();
        assert_eq!(slab.get(3), None);
        assert!(!slab.contains(3));
    }

    fn image(slab: &Slab<u32>) -> Vec<u8> {
        let mut enc = WireEncoder::new();
        slab.encode(&mut enc, |enc, &v| enc.u32(v));
        enc.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Slab<u32>, WireError> {
        Slab::decode(&mut WireDecoder::new(bytes), 4, WireDecoder::u32)
    }

    #[test]
    fn codec_preserves_layout_and_free_list_order() {
        let mut slab = Slab::new();
        let keys: Vec<u32> = (0..5).map(|v| slab.insert(v * 10)).collect();
        slab.remove(keys[1]);
        slab.remove(keys[3]);
        let bytes = image(&slab);
        let mut back = decode(&bytes).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.get(keys[1]), None);
        assert_eq!(back[keys[4]], 40);
        assert_eq!(image(&back), bytes);
        // Same keys, in the same order, as the original would hand out.
        for expected in [slab.insert(7), slab.insert(8), slab.insert(9)] {
            assert_eq!(back.insert(0), expected);
        }
    }

    #[test]
    fn decode_refuses_a_free_list_that_is_not_the_vacant_slots() {
        let mut slab = Slab::new();
        let keys: Vec<u32> = (0..4).map(|v| slab.insert(v)).collect();
        slab.remove(keys[0]);
        slab.remove(keys[2]);
        let bytes = image(&slab);
        assert!(decode(&bytes).is_ok());
        // Layout: head u32, count u64, then 5-byte slots; slot 2 is the
        // head and links to slot 0, which ends the list.
        assert_eq!(bytes[..4], 2u32.to_le_bytes());
        let link = |slot: usize| 4 + 8 + 5 * slot + 1;
        let patched = |at: usize, value: u32| {
            let mut bad = bytes.clone();
            bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
            decode(&bad).unwrap_err().what
        };
        let what = "slab free list does not match the vacant slots";
        assert_eq!(patched(0, 9), what, "head out of range");
        assert_eq!(patched(0, 1), what, "head on an occupied slot");
        assert_eq!(patched(0, NIL), what, "vacant slots left off the list");
        assert_eq!(patched(link(2), NIL), what, "list ends early");
        assert_eq!(patched(link(2), 7), what, "link out of range");
        assert_eq!(patched(link(0), 2), what, "cycle");
    }
}
