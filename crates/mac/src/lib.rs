//! # manet-mac
//!
//! An IEEE 802.11 DCF medium-access layer for **broadcast** frames, as a
//! pure state machine ([`Dcf`]): carrier-sense deferral, DIFS waiting,
//! slotted backoff with freezing, and post-transmission backoff — with no
//! RTS/CTS, no acknowledgments, and no retransmissions, exactly the MAC
//! regime the broadcast-storm paper analyzes (§2.2.3).
//!
//! The state machine communicates with its environment exclusively through
//! timestamped inputs and returned [`MacAction`]s, so all DCF rules are
//! unit-tested without a channel. [`timing`] collects the paper's DSSS
//! constants (20 µs slots, DIFS 50 µs, contention window 31, 1 Mb/s) and
//! the [`frame_airtime`] formula (280-byte packet → 2 432 µs on the air).
//!
//! # Examples
//!
//! ```
//! use manet_mac::{frame_airtime, Dcf, FrameHandle, MacAction};
//! use manet_sim_engine::{SimRng, SimTime};
//!
//! let mut mac = Dcf::new(SimRng::seed_from(7));
//! let now = SimTime::from_millis(1); // medium idle since t=0 (> DIFS)
//! match mac.enqueue(FrameHandle(1), 280, now) {
//!     Some(MacAction::BeginTx { handle, payload_bytes }) => {
//!         assert_eq!(handle, FrameHandle(1));
//!         // The wiring puts the frame on the air for its airtime…
//!         let done = now + frame_airtime(payload_bytes);
//!         // …and reports back when it ends.
//!         let _post_backoff = mac.on_tx_end(done);
//!     }
//!     _ => unreachable!(),
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dcf;
pub mod timing;

pub use dcf::{decode_generation, Dcf, FrameHandle, MacAction, MacCounters, MacStats, DRAW_VALUES};
pub use timing::frame_airtime;
