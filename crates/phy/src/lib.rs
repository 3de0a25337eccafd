//! # manet-phy
//!
//! The radio layer of the MANET broadcast-storm reproduction: host and
//! frame [identifiers](NodeId), the shared [`Medium`] with receiver-side
//! collision tracking and carrier sense, unit-disk
//! [topology queries](reachable_from), and the map's one spatial index,
//! [`StripIndex`].
//!
//! The medium is a pure state machine — it never looks at positions. The
//! simulation wiring evaluates host positions at each event, derives the
//! listener set with [`in_range_of`], and drives
//! [`Medium::begin_transmission_into`] and
//! [`Medium::end_transmission_into`]. This split keeps the collision model
//! independently testable (including the hidden-terminal and half-duplex
//! cases of paper §2.2.3).
//!
//! # Examples
//!
//! ```
//! use manet_geom::Vec2;
//! use manet_phy::{in_range_of, Medium, NodeId};
//! use manet_sim_engine::{SimDuration, SimTime};
//!
//! // Three hosts on a line; only the middle one hears the first.
//! let positions = [Vec2::ZERO, Vec2::new(450.0, 0.0), Vec2::new(900.0, 0.0)];
//! let src = NodeId::new(0);
//! let listeners = in_range_of(&positions, src, 500.0);
//!
//! let mut medium = Medium::new(3);
//! let t0 = SimTime::ZERO;
//! let airtime = SimDuration::from_micros(2_432); // 280 B at 1 Mb/s + PLCP
//! let (mut carrier, mut deliveries) = (Vec::new(), Vec::new());
//! let frame = medium.begin_transmission_into(src, t0, t0 + airtime, &listeners, &mut carrier);
//! medium.end_transmission_into(frame, t0 + airtime, &mut deliveries, &mut carrier);
//! assert_eq!(deliveries.len(), 1);
//! assert_eq!(deliveries[0].cause, None);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod grid;
mod id;
mod medium;
mod strips;
mod topology;

pub use grid::NeighborGrid;
pub use id::{FrameId, NodeId};
pub use medium::{CaptureModel, Delivery, Listener, LossCause, LossCounters, Medium};
pub use strips::StripIndex;
pub use topology::{in_range_into, in_range_of, reachable_from};
