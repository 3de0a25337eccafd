//! # manet-sim-engine
//!
//! A small, deterministic discrete-event simulation engine.
//!
//! This crate is the foundation of the MANET broadcast-storm reproduction:
//! everything above it — radio channel, IEEE 802.11 DCF, mobility, the
//! broadcast schemes themselves — is expressed as events scheduled on the
//! [`EventQueue`] and consumed by the model's own `pop` loop.
//!
//! Design goals:
//!
//! * **Determinism.** Same seed, same event order, same results. Ties at
//!   identical timestamps are broken FIFO, and all randomness flows through
//!   the seedable [`SimRng`].
//! * **Zero dependencies.** [`SimRng`] is an in-tree xoshiro256++
//!   generator; the whole workspace builds offline from a clean checkout
//!   with an empty registry.
//! * **Cancellation.** Broadcast suppression schemes constantly cancel
//!   pending rebroadcasts, so [`EventQueue::cancel`] is a first-class,
//!   `O(1)` operation (lazy deletion).
//! * **No global state.** The engine owns nothing about the model; it is a
//!   clock and a queue.
//!
//! # Examples
//!
//! ```
//! use manet_sim_engine::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::ZERO, "tick");
//! let mut countdown = 3;
//! while let Some((now, _tick)) = queue.pop() {
//!     if countdown > 0 {
//!         countdown -= 1;
//!         queue.schedule(now + SimDuration::from_secs(1), "tick");
//!     }
//! }
//! assert_eq!(queue.now(), SimTime::from_secs(3));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod metrics;
mod pool;
mod queue;
mod rng;
mod slab;
mod time;
mod wire;

pub use metrics::{json_escape, KindProfile, LoopProfile, LoopProfiler};
pub use pool::WorkerPool;
pub use queue::{EventKey, EventQueue, FixedHasher, FixedState};
pub use rng::SimRng;
pub use slab::Slab;
pub use time::{SimDuration, SimTime};
pub use wire::{WireDecoder, WireEncoder, WireError};
