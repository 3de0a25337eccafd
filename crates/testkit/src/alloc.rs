//! A counting `#[global_allocator]` for tests that bound what a piece of
//! code asks of the allocator: how often (steady-state hot paths must not
//! allocate) and how much at once (a decoder must not size a buffer from
//! hostile input).
//!
//! A test binary installs it once —
//! `#[global_allocator] static ALLOC: CountingAlloc = CountingAlloc;` —
//! and brackets the code under test with [`CountingAlloc::measure`]. The
//! tallies are per thread, so the harness's other test threads do not
//! leak into a measurement.

// The workspace denies `unsafe_code`; implementing `GlobalAlloc` is the
// one place that needs it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`], tallying each thread's requests.
#[derive(Debug)]
pub struct CountingAlloc;

/// What the calling thread asked of the allocator during one
/// [`CountingAlloc::measure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of `alloc` and `realloc` calls.
    pub requests: u64,
    /// Size in bytes of the largest single request.
    pub largest: usize,
}

impl AllocStats {
    const ZERO: AllocStats = AllocStats {
        requests: 0,
        largest: 0,
    };
}

thread_local! {
    static STATS: Cell<AllocStats> = const { Cell::new(AllocStats::ZERO) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = STATS.try_with(|stats| {
        let AllocStats { requests, largest } = stats.get();
        stats.set(AllocStats {
            requests: requests + 1,
            largest: largest.max(size),
        });
    });
}

impl CountingAlloc {
    /// Runs `f` and reports what this thread requested meanwhile. Not
    /// re-entrant: a nested call restarts the outer tally.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocStats) {
        STATS.with(|stats| stats.set(AllocStats::ZERO));
        let value = f();
        (value, STATS.with(Cell::get))
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the tally touches only a `Cell` of plain
// integers and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`, with the caller's `new_size` guarantee.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static ALLOCATOR: CountingAlloc = CountingAlloc;

    /// Positive control. The gates built on `measure` assert "none" or
    /// "few", which a tally that stopped counting would also satisfy.
    #[test]
    fn measure_counts_every_request() {
        const BOXES: usize = 64;
        let (boxes, asked) = CountingAlloc::measure(|| {
            (0..BOXES)
                .map(|i| std::hint::black_box(Box::new(i)))
                .collect::<Vec<_>>()
        });
        assert_eq!(boxes.len(), BOXES);
        assert!(asked.requests >= BOXES as u64, "{asked:?}");
        assert!(asked.largest >= std::mem::size_of::<usize>(), "{asked:?}");

        let ((), quiet) = CountingAlloc::measure(|| ());
        assert_eq!(quiet, AllocStats::ZERO);
    }
}
