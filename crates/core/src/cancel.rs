//! Cooperative cancellation for long-running simulations.
//!
//! A [`CancelToken`] is a cheap, cloneable flag shared between the thread
//! driving a [`World`](crate::World) and whoever may want to stop it — a
//! campaign scheduler draining a cancelled job, a service shutting down.
//! Cancellation is *cooperative*: the simulation only observes the token
//! at [`advance`](crate::World::advance) pause boundaries, so
//! a cancelled run always stops between events with the world in a
//! consistent (snapshot-able) state, never mid-dispatch.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag; see the module docs.
///
/// Clones observe the same flag. The default token is never cancelled
/// until someone calls [`cancel`](Self::cancel).
///
/// # Examples
///
/// ```
/// use broadcast_core::CancelToken;
///
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag. Idempotent; every clone observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// `true` once any clone has called [`cancel`](Self::cancel).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        // Idempotent.
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn independent_tokens_are_independent() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.cancel();
        assert!(!b.is_cancelled());
    }
}
