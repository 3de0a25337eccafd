//! # manet-net
//!
//! The neighborhood layer of the MANET broadcast-storm reproduction:
//! HELLO beacons, per-host [`NeighborTable`]s with two-hop knowledge and
//! sender-interval expiry, the 10-second [`VariationTracker`], and the
//! paper's dynamic-hello-interval rule ([`DynamicHelloParams`]).
//!
//! All adaptive schemes of the paper consume this layer:
//!
//! * The **adaptive counter** and **adaptive location** schemes only need
//!   the live neighbor count `n` = [`NeighborTable::neighbor_count`],
//!   which a [`NeighborTable::count_only`] table keeps without lists.
//! * The **neighbor-coverage** scheme additionally needs two-hop sets
//!   `N_{x,h}` = [`NeighborTable::neighbors_of`], which HELLOs carry when
//!   [`HelloPayload::neighbors`] is populated.
//! * The **dynamic hello interval** couples the beacon rate to
//!   neighborhood churn via [`HelloIntervalPolicy::Dynamic`], the one
//!   reader of a [`VariationTracker`].
//!
//! # Examples
//!
//! ```
//! use manet_net::{DynamicHelloParams, HelloIntervalPolicy, NeighborTable, VariationTracker};
//! use manet_phy::NodeId;
//! use manet_sim_engine::{SimDuration, SimTime};
//!
//! let mut table = NeighborTable::new();
//! let mut tracker = VariationTracker::new();
//! let now = SimTime::from_secs(1);
//!
//! // A HELLO arrives from host 3, announcing a 1 s interval and its own
//! // neighbors {4, 5}.
//! let neighbors = [NodeId::new(4), NodeId::new(5)];
//! if let Some(change) = table.record_hello(
//!     NodeId::new(3), now, SimDuration::from_secs(1), &neighbors,
//! ) {
//!     let _ = change;
//!     tracker.record_change(now);
//! }
//!
//! // The dynamic policy shortens the hello interval under churn.
//! let policy = HelloIntervalPolicy::Dynamic(DynamicHelloParams::paper());
//! let hi = policy.current_interval(Some(&mut tracker), table.neighbor_count(), now);
//! assert!(hi >= SimDuration::from_secs(1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod hello;
mod neighbor_table;
mod variation;

pub use hello::{DynamicHelloParams, HelloIntervalPolicy, HelloPayload, HELLO_BASE_BYTES};
pub use neighbor_table::{MembershipChange, NeighborTable};
pub use variation::{VariationTracker, VARIATION_WINDOW};
