//! Bounded campaign queue.
//!
//! The server's admission control: campaigns are accepted as a group of
//! jobs or not at all, the total number of queued jobs is capped, and
//! every campaign carries a [`CancelToken`] that can be raised while it
//! is still queued *or* already running. The queue is the only
//! synchronization point between the transport reader thread (submit,
//! cancel, close) and the scheduler loop (pop, finish).

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard};

use broadcast_core::CancelToken;

use crate::mcmp::JobEnvelope;

/// One admitted campaign, handed from the queue to the scheduler.
#[derive(Debug)]
pub struct QueuedCampaign {
    /// Server-assigned id, unique per session.
    pub id: u64,
    /// Submitted campaign name.
    pub name: String,
    /// The jobs, in submission order.
    pub jobs: Vec<JobEnvelope>,
    /// Raised by [`CampaignQueue::cancel`]; observed by the scheduler at
    /// job boundaries and by running worlds at pause boundaries.
    pub cancel: CancelToken,
}

/// Why a submit was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Admitting the campaign would exceed the queue's job capacity.
    Full {
        /// Jobs currently queued.
        queued: usize,
        /// The queue's capacity.
        capacity: usize,
    },
    /// The queue is closed (server shutting down).
    Closed,
    /// The campaign itself is unusable (empty, too large).
    Invalid(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full { queued, capacity } => {
                write!(f, "queue full: {queued} jobs queued of {capacity} capacity")
            }
            SubmitError::Closed => write!(f, "server is shutting down"),
            SubmitError::Invalid(why) => write!(f, "invalid campaign: {why}"),
        }
    }
}

struct QueueState {
    pending: VecDeque<QueuedCampaign>,
    /// Jobs across every pending campaign (running ones no longer count
    /// against capacity — their results are already streaming out).
    queued_jobs: usize,
    next_id: u64,
    closed: bool,
    /// Cancel tokens of campaigns that are queued or running, dropped by
    /// [`CampaignQueue::finish`].
    live: BTreeMap<u64, CancelToken>,
}

/// The bounded queue; see the module docs.
pub struct CampaignQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
}

impl std::fmt::Debug for CampaignQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignQueue")
            .field("capacity", &self.capacity)
            .finish()
    }
}

fn lock(state: &Mutex<QueueState>) -> MutexGuard<'_, QueueState> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

impl CampaignQueue {
    /// Creates a queue admitting at most `capacity` queued jobs.
    pub fn new(capacity: usize) -> Self {
        CampaignQueue {
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                queued_jobs: 0,
                next_id: 1,
                closed: false,
                live: BTreeMap::new(),
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// The job capacity this queue admits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admits a campaign whole, or refuses it without queuing anything.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the jobs would not fit,
    /// [`SubmitError::Closed`] after [`close`](Self::close), and
    /// [`SubmitError::Invalid`] for an empty campaign.
    pub fn submit(&self, name: String, jobs: Vec<JobEnvelope>) -> Result<u64, SubmitError> {
        if jobs.is_empty() {
            return Err(SubmitError::Invalid("no jobs".into()));
        }
        let mut st = lock(&self.state);
        if st.closed {
            return Err(SubmitError::Closed);
        }
        if st.queued_jobs + jobs.len() > self.capacity {
            return Err(SubmitError::Full {
                queued: st.queued_jobs,
                capacity: self.capacity,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        let cancel = CancelToken::new();
        st.queued_jobs += jobs.len();
        st.live.insert(id, cancel.clone());
        st.pending.push_back(QueuedCampaign {
            id,
            name,
            jobs,
            cancel,
        });
        self.ready.notify_one();
        Ok(id)
    }

    /// Raises the cancel token of a queued or running campaign. `false`
    /// when the id is unknown or already finished (cancels are
    /// best-effort, not errors).
    pub fn cancel(&self, id: u64) -> bool {
        let st = lock(&self.state);
        match st.live.get(&id) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Closes the queue: subsequent submits fail and [`pop`](Self::pop)
    /// returns `None` once the backlog drains.
    pub fn close(&self) {
        let mut st = lock(&self.state);
        st.closed = true;
        self.ready.notify_all();
    }

    /// Blocks for the next campaign; `None` once the queue is closed and
    /// drained. The campaign's token stays registered for
    /// [`cancel`](Self::cancel) until [`finish`](Self::finish).
    pub fn pop(&self) -> Option<QueuedCampaign> {
        let mut st = lock(&self.state);
        loop {
            if let Some(campaign) = st.pending.pop_front() {
                st.queued_jobs -= campaign.jobs.len();
                return Some(campaign);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Drops a finished campaign's cancel registration.
    pub fn finish(&self, id: u64) {
        lock(&self.state).live.remove(&id);
    }

    /// `(queued_jobs, pending_campaigns)` — a monitoring snapshot.
    pub fn depth(&self) -> (usize, usize) {
        let st = lock(&self.state);
        (st.queued_jobs, st.pending.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(label: &str) -> JobEnvelope {
        JobEnvelope {
            label: label.into(),
            scheme: "flooding".into(),
            map_units: 1,
            hosts: 4,
            broadcasts: 1,
            seed: 1,
            repeats: 1,
            scenario: None,
        }
    }

    #[test]
    fn fifo_order_and_capacity_accounting() {
        let q = CampaignQueue::new(3);
        let a = q.submit("a".into(), vec![job("a0"), job("a1")]).unwrap();
        let b = q.submit("b".into(), vec![job("b0")]).unwrap();
        assert!(a < b, "ids are ordered");
        assert_eq!(q.depth(), (3, 2));
        // Full: a third campaign does not fit, whole-group semantics.
        let err = q.submit("c".into(), vec![job("c0")]).unwrap_err();
        assert_eq!(
            err,
            SubmitError::Full {
                queued: 3,
                capacity: 3
            }
        );
        let first = q.pop().unwrap();
        assert_eq!(first.name, "a");
        assert_eq!(q.depth(), (1, 1), "taken jobs free capacity");
        // Now the refused campaign fits.
        q.submit("c".into(), vec![job("c0")]).unwrap();
        q.finish(first.id);
    }

    #[test]
    fn cancel_reaches_queued_and_running_campaigns() {
        let q = CampaignQueue::new(10);
        let id = q.submit("x".into(), vec![job("x0")]).unwrap();
        assert!(q.cancel(id), "queued campaign is cancellable");
        let campaign = q.pop().unwrap();
        assert!(campaign.cancel.is_cancelled());
        // Still registered while "running".
        assert!(q.cancel(id));
        q.finish(id);
        assert!(!q.cancel(id), "finished campaigns are gone");
        assert!(!q.cancel(999), "unknown ids are a no-op");
    }

    #[test]
    fn close_drains_then_stops() {
        let q = CampaignQueue::new(10);
        q.submit("x".into(), vec![job("x0")]).unwrap();
        q.close();
        assert_eq!(
            q.submit("y".into(), vec![job("y0")]),
            Err(SubmitError::Closed)
        );
        assert!(q.pop().is_some(), "backlog still drains after close");
        assert!(q.pop().is_none(), "then the queue reports closed");
    }

    #[test]
    fn an_idle_default_queue_admits_more_than_65536_jobs() {
        let q = CampaignQueue::new(crate::server::ServerConfig::default().queue_capacity);
        let jobs = vec![job("j"); 65_537];
        assert!(q.submit("big".into(), jobs).is_ok());
    }

    #[test]
    fn empty_campaigns_are_invalid() {
        let q = CampaignQueue::new(10);
        assert!(matches!(
            q.submit("e".into(), vec![]),
            Err(SubmitError::Invalid(_))
        ));
    }

    #[test]
    fn pop_blocks_until_submit() {
        let q = std::sync::Arc::new(CampaignQueue::new(4));
        let popper = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || q.pop().map(|c| c.name))
        };
        // No sleep: submit may land before or after the popper blocks;
        // both orders must hand the campaign over.
        q.submit("late".into(), vec![job("l0")]).unwrap();
        assert_eq!(popper.join().unwrap().as_deref(), Some("late"));
    }
}
