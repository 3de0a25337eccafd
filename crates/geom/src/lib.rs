//! # manet-geom
//!
//! Planar geometry for radio-coverage reasoning in the MANET
//! broadcast-storm reproduction.
//!
//! The crate has three layers:
//!
//! 1. **Primitives** — [`Vec2`], [`Rect`].
//! 2. **Coverage math** — the closed-form two-circle intersection
//!    [`intc`]`(d)` from the paper, plus union-of-disks *additional
//!    coverage* estimators ([`CoverageGrid`],
//!    [`monte_carlo_additional_fraction`]) used by the location-based
//!    broadcast schemes.
//! 3. **Storm analyses** — the redundancy curve `EAC(k)`
//!    ([`expected_additional_coverage`], Fig. 1 of the paper) and the
//!    contention distribution `cf(n, k)`
//!    ([`contention_free_distribution`], Fig. 2).
//!
//! The paper's three headline constants are exposed as checked functions:
//! a single rebroadcast covers at most ≈ 61 % extra area
//! ([`max_additional_coverage_fraction`]), ≈ 41 % on average
//! ([`mean_additional_coverage_fraction`]), and two random receivers
//! contend with probability ≈ 59 %
//! ([`expected_contention_probability`]).
//!
//! # Examples
//!
//! ```
//! use manet_geom::{additional_coverage_two, intc};
//! use std::f64::consts::PI;
//!
//! let r = 500.0;
//! // A rebroadcast from the edge of coverage adds ~61% new area.
//! let frac = additional_coverage_two(r, r) / (PI * r * r);
//! assert!((frac - 0.61).abs() < 0.01);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
mod circle;
mod coverage;
mod rect;
mod vec2;

pub use analysis::{contention_free_distribution, expected_additional_coverage};
pub use circle::{
    additional_coverage_two, expected_contention_probability, intc,
    max_additional_coverage_fraction, mean_additional_coverage_fraction,
};
pub use coverage::{monte_carlo_additional_fraction, sample_in_disk, CoverageGrid};
pub use rect::Rect;
pub use vec2::Vec2;
