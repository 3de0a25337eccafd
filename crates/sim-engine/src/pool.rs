//! Worker pool for fanning independent jobs out over threads.
//!
//! [`WorkerPool`] runs index-addressed jobs (`f(0), f(1), ...,
//! f(count-1)`) on a fixed number of scoped threads spawned per
//! [`WorkerPool::run`] — the campaign scheduler runs one batch per
//! submitted campaign, so a spawn per batch is noise next to the jobs.
//! A simulated world never owns one.
//!
//! Determinism contract: the pool itself orders nothing. Callers must
//! make every job write to disjoint state (per-index output slots) and
//! merge results in an index-derived order after [`WorkerPool::run`]
//! returns. With zero workers (single-core hosts, or a pool sized to
//! zero) jobs run inline on the caller, in index order — same results,
//! no threads.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fixed-size pool of worker threads; see the module docs.
#[derive(Debug)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// Creates a pool with `threads` worker threads (zero is valid and
    /// means every [`run`](Self::run) executes inline on the caller).
    pub fn new(threads: usize) -> Self {
        WorkerPool { threads }
    }

    /// Number of worker threads (not counting the participating caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(i)` for every `i in 0..count`, returning when all calls
    /// have completed. The caller participates in the batch alongside the
    /// workers. Index-to-thread assignment is dynamic (work stealing via
    /// a shared cursor); callers needing determinism must write per-index
    /// results and merge them afterwards.
    ///
    /// # Panics
    ///
    /// If any job panics, that thread stops claiming indices and the
    /// first payload (in join order) is re-raised here once every thread
    /// has left the batch.
    pub fn run(&self, count: usize, f: &(dyn Fn(usize) + Sync)) {
        if self.threads == 0 || count <= 1 {
            for i in 0..count {
                f(i);
            }
            return;
        }
        // Next unclaimed job index; workers and the caller race on it.
        // Relaxed: it publishes nothing but itself, and the scope's
        // joins order every job's writes before `run` returns.
        let cursor = AtomicUsize::new(0);
        let drain = || {
            catch_unwind(AssertUnwindSafe(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                f(i);
            }))
        };
        let first_panic = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..self.threads.min(count - 1))
                .map(|_| scope.spawn(drain))
                .collect();
            let mut first = drain().err();
            for worker in workers {
                let joined = worker.join().expect("drain catches every job panic");
                first = first.or(joined.err());
            }
            first
        });
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_every_index_exactly_once() {
        for threads in [0, 1, 3] {
            let pool = WorkerPool::new(threads);
            for count in [0usize, 1, 2, 17, 100] {
                let hits: Vec<AtomicU64> = (0..count).map(|_| AtomicU64::new(0)).collect();
                pool.run(count, &|i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(
                        h.load(Ordering::Relaxed),
                        1,
                        "index {i} at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn reusable_across_batches() {
        let pool = WorkerPool::new(2);
        let total = AtomicU64::new(0);
        for _ in 0..50 {
            pool.run(8, &|i| {
                total.fetch_add(i as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 50 * (0..8).sum::<u64>());
    }

    #[test]
    fn job_panic_propagates_to_the_caller() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                assert!(i != 5, "boom");
            });
        }));
        assert!(result.is_err());
        // The pool must survive a panicked batch.
        let total = AtomicU64::new(0);
        pool.run(4, &|_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 4);
    }
}
