//! Persistent worker pool for fanning independent jobs out over threads.
//!
//! [`WorkerPool`] owns a fixed set of parked OS threads that execute
//! index-addressed jobs (`f(0), f(1), ..., f(count-1)`) on demand, so a
//! caller that fans out repeatedly — the campaign scheduler runs one
//! batch per submitted campaign — pays a condvar wake instead of a
//! thread spawn/join per batch. A simulated world never owns one.
//!
//! Determinism contract: the pool itself orders nothing. Callers must
//! make every job write to disjoint state (per-index output slots) and
//! merge results in an index-derived order after [`WorkerPool::run`]
//! returns. With zero workers (single-core hosts, or a pool sized to
//! zero) jobs run inline on the caller, in index order — same results,
//! no threads.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// The published batch: a lifetime-erased pointer to the caller's job
/// closure plus the number of indices to cover.
///
/// Safety: the pointer is only dereferenced between publication and the
/// batch's completion handshake, and [`WorkerPool::run`] does not return
/// (even on panic) until every worker has finished the batch — so the
/// closure outlives every dereference.
#[derive(Clone, Copy)]
struct Job {
    f: *const (dyn Fn(usize) + Sync),
    count: usize,
}

// The pointer crosses threads inside the handshake described on `Job`.
unsafe impl Send for Job {}

struct PoolState {
    job: Option<Job>,
    /// Bumped once per published batch so parked workers can tell new
    /// work from the batch they just finished.
    batch: u64,
    /// Workers still running the current batch.
    active: usize,
    /// First panic payload captured from a worker this batch.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    batch_done: Condvar,
    /// Next unclaimed job index; workers and the caller race on it.
    cursor: AtomicUsize,
}

fn lock(shared: &Shared) -> MutexGuard<'_, PoolState> {
    shared.state.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fixed-size pool of persistent worker threads; see the module docs.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `threads` worker threads (zero is valid and
    /// means every [`run`](Self::run) executes inline on the caller).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                job: None,
                batch: 0,
                active: 0,
                panic: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            batch_done: Condvar::new(),
            cursor: AtomicUsize::new(0),
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_main(&shared))
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads (not counting the participating caller).
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs `f(i)` for every `i in 0..count`, returning when all calls
    /// have completed. The caller participates in the batch alongside the
    /// workers. Index-to-thread assignment is dynamic (work stealing via
    /// a shared cursor); callers needing determinism must write per-index
    /// results and merge them afterwards.
    ///
    /// # Panics
    ///
    /// If any job panics, the first captured payload is re-raised here —
    /// after every thread has left the batch, so the closure is never
    /// used after free.
    pub fn run(&self, count: usize, f: &(dyn Fn(usize) + Sync)) {
        if count == 0 {
            return;
        }
        if self.workers.is_empty() || count == 1 {
            for i in 0..count {
                f(i);
            }
            return;
        }
        // SAFETY: erase the borrow lifetime so the pointer can sit in the
        // shared state; the completion handshake below guarantees no
        // dereference outlives this call.
        fn erase<'a>(f: &'a (dyn Fn(usize) + Sync + 'a)) -> *const (dyn Fn(usize) + Sync) {
            unsafe { std::mem::transmute(f as *const (dyn Fn(usize) + Sync + 'a)) }
        }
        let erased = erase(f);
        {
            let mut st = lock(&self.shared);
            debug_assert!(st.active == 0 && st.job.is_none(), "re-entrant run()");
            self.shared.cursor.store(0, Ordering::Relaxed);
            st.job = Some(Job { f: erased, count });
            st.batch += 1;
            st.active = self.workers.len();
            self.shared.work_ready.notify_all();
        }
        // Work the batch from this thread too; defer any panic until the
        // workers are done with the closure.
        let caller = catch_unwind(AssertUnwindSafe(|| loop {
            let i = self.shared.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            f(i);
        }));
        let mut st = lock(&self.shared);
        while st.active > 0 {
            st = self
                .shared
                .batch_done
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
        st.job = None;
        let worker_panic = st.panic.take();
        drop(st);
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared);
            st.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_main(shared: &Shared) {
    let mut seen_batch = 0u64;
    loop {
        let job = {
            let mut st = lock(shared);
            loop {
                if st.shutdown {
                    return;
                }
                if st.batch != seen_batch {
                    seen_batch = st.batch;
                    break st.job.expect("batch published without a job");
                }
                st = shared
                    .work_ready
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        // SAFETY: `run` keeps the closure alive until this batch's
        // completion handshake below.
        let f = unsafe { &*job.f };
        let result = catch_unwind(AssertUnwindSafe(|| loop {
            let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= job.count {
                break;
            }
            f(i);
        }));
        let mut st = lock(shared);
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.active -= 1;
        if st.active == 0 {
            shared.batch_done.notify_all();
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
