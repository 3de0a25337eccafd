//! # manet-mobility
//!
//! Host mobility for the MANET broadcast-storm reproduction.
//!
//! Provides the paper's **random-turn** roaming model ([`RandomTurn`]):
//! each host repeatedly draws a uniform direction (0–360°), a uniform
//! speed (0 to the map's maximum), and a uniform interval (1–100 s), then
//! travels in a straight line for that long. Motion is piecewise-linear,
//! so the simulator can evaluate exact positions at any event timestamp.
//!
//! Also provides the paper's square [`Map`]s (1×1 … 11×11 units of the
//! 500 m radio radius), initial [placements](uniform_placement), and a
//! [`Stationary`] model plus deterministic placements for tests.
//!
//! # Examples
//!
//! ```
//! use manet_mobility::{uniform_placement, Map, Mobility, RandomTurn, RandomTurnParams};
//! use manet_sim_engine::{SimRng, SimTime};
//!
//! let map = Map::square_units(5);
//! let mut rng = SimRng::seed_from(42);
//! let starts = uniform_placement(&map, 100, &mut rng);
//! let mut hosts: Vec<RandomTurn> = starts
//!     .into_iter()
//!     .enumerate()
//!     .map(|(i, p)| {
//!         RandomTurn::new(
//!             map,
//!             RandomTurnParams::paper(map.paper_max_speed_kmh()),
//!             p,
//!             SimTime::ZERO,
//!             rng.fork(i as u64),
//!         )
//!     })
//!     .collect();
//! assert!(map.contains(hosts[0].segment().position_at(SimTime::ZERO, map.bounds())));
//! let next = hosts[0].next_change().unwrap();
//! hosts[0].advance(next);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod map;
mod model;
mod placement;
mod random_turn;
mod waypoint;

pub use map::{kmh_to_mps, Map, PAPER_RADIO_RADIUS_M};
pub use model::{Mobility, Segment, Stationary};
pub use placement::{grid_placement, line_placement, uniform_placement};
pub use random_turn::{RandomTurn, RandomTurnParams};
pub use waypoint::{RandomWaypoint, RandomWaypointParams};
