//! Threshold functions for the adaptive schemes (paper §3.1–3.2, Figs 3,
//! 4, 6, 8).
//!
//! * [`CounterThreshold`] — the counter threshold `C(n)` as a function of
//!   the host's neighbor count `n`. The paper derives its recommended
//!   shape in four tuning steps (Fig. 5): ramp `C(n) = n + 1` with slope 1
//!   up to `n₁ = 4`, then descend to the minimum threshold 2 at
//!   `n₂ = 12`, constant 2 beyond.
//! * [`AreaThreshold`] — the additional-coverage threshold `A(n)`:
//!   0 for `n ≤ n₁` (forcing a rebroadcast), rising linearly to
//!   `EAC(2)/πr² = 0.187` at `n₂`, constant beyond. The paper recommends
//!   `(n₁, n₂) = (6, 12)` after the Fig. 9 sweep.
//!
//! Every candidate shape the paper sweeps is constructible here so the
//! tuning experiments (Figs 5 and 9) can be reproduced, not just their
//! conclusions.

use std::fmt;

/// The minimum useful counter threshold; `C(n) = 2` can still suppress but
/// never forbids rebroadcasting outright (paper §3.1: "it is unreasonable
/// to completely prohibit rebroadcasting").
pub const MIN_COUNTER_THRESHOLD: u32 = 2;

/// The asymptotic location threshold `EAC(2)/πr² ≈ 0.187`: the expected
/// additional coverage after hearing the same packet twice (paper §3.2).
pub const EAC2_FRACTION: f64 = 0.187;

/// Shape of `C(n)`'s descent between `n₁` and `n₂` (paper Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DescentShape {
    /// Drop quickly right after `n₁`, then level out.
    Convex,
    /// Straight line from `C(n₁)` down to 2 at `n₂` — the recommended
    /// ("solid line") choice.
    Linear,
    /// Stay high after `n₁`, then drop quickly near `n₂`.
    Concave,
}

impl fmt::Display for DescentShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DescentShape::Convex => "convex",
            DescentShape::Linear => "linear",
            DescentShape::Concave => "concave",
        };
        f.write_str(name)
    }
}

/// A counter threshold function `C(n)`.
///
/// Internally a lookup sequence `C(1), C(2), …`; queries beyond the end of
/// the sequence return its last value, matching the paper's
/// `x₁x₂x₃…` notation where the final digit repeats.
///
/// # Examples
///
/// ```
/// use broadcast_core::CounterThreshold;
///
/// let c = CounterThreshold::paper_recommended();
/// assert_eq!(c.threshold(1), 2);  // sparse: insist on rebroadcasting
/// assert_eq!(c.threshold(4), 5);  // peak at n1 = 4
/// assert_eq!(c.threshold(12), 2); // dense: suppress aggressively
/// assert_eq!(c.threshold(50), 2); // constant beyond n2
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterThreshold {
    sequence: Vec<u32>,
    label: String,
}

impl CounterThreshold {
    /// A fixed threshold `C(n) = c` — the non-adaptive baseline of \[15\].
    ///
    /// # Panics
    ///
    /// Panics if `c < 2`.
    pub fn fixed(c: u32) -> Self {
        assert!(
            c >= MIN_COUNTER_THRESHOLD,
            "a threshold below 2 suppresses everything"
        );
        CounterThreshold {
            sequence: vec![c],
            label: format!("C={c}"),
        }
    }

    /// Builds `C(n)` from an explicit sequence `C(1), C(2), …`; values
    /// past the end repeat the last element (the paper's `…` notation).
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty or contains a value below 2.
    pub fn from_sequence(sequence: Vec<u32>, label: impl Into<String>) -> Self {
        assert!(!sequence.is_empty(), "threshold sequence cannot be empty");
        assert!(
            sequence.iter().all(|&c| c >= MIN_COUNTER_THRESHOLD),
            "threshold values below 2 suppress everything"
        );
        CounterThreshold {
            sequence,
            label: label.into(),
        }
    }

    /// The Fig. 5a ramp candidates: thresholds climb from 2 with the given
    /// reciprocal `slope_denominator` (1 → slope 1, 2 → slope 1/2,
    /// 3 → slope 1/3) and saturate at 5.
    ///
    /// `ramp(1)` = `23455…`, `ramp(2)` = `2233445555…`*, `ramp(3)` =
    /// `22233344455555…` (*the paper prints `22334455555`, i.e. each value
    /// held `denominator` times).
    ///
    /// # Panics
    ///
    /// Panics if `slope_denominator == 0`.
    pub fn ramp(slope_denominator: u32) -> Self {
        assert!(slope_denominator > 0, "slope denominator must be positive");
        let mut seq = Vec::new();
        for value in 2..=5u32 {
            for _ in 0..slope_denominator {
                seq.push(value);
                if value == 5 {
                    break; // the plateau repeats implicitly
                }
            }
        }
        CounterThreshold::from_sequence(seq, format!("slope 1/{slope_denominator}"))
    }

    /// The Fig. 5b candidates: `C(n) = n + 1` for `n ≤ n₁`, constant
    /// `n₁ + 1` beyond — `233…`, `2344…`, `23455…`, `234566…`.
    ///
    /// # Panics
    ///
    /// Panics if `n1 == 0`.
    pub fn ramp_to(n1: u32) -> Self {
        assert!(n1 > 0, "n1 must be positive");
        let mut seq: Vec<u32> = (1..=n1).map(|n| n + 1).collect();
        seq.push(n1 + 1); // constant beyond n1
        CounterThreshold::from_sequence(seq, format!("n1={n1}"))
    }

    /// The Fig. 5c/5d family: ramp `C(n) = n + 1` to `n₁`, descend with
    /// `shape` to the minimum threshold 2 at `n₂`, constant 2 beyond.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < n1 < n2`.
    pub fn with_descent(n1: u32, n2: u32, shape: DescentShape) -> Self {
        assert!(n1 > 0 && n2 > n1, "need 0 < n1 < n2, got n1={n1}, n2={n2}");
        let peak = (n1 + 1) as f64;
        let floor = MIN_COUNTER_THRESHOLD as f64;
        let mut seq: Vec<u32> = (1..=n1).map(|n| n + 1).collect();
        for n in (n1 + 1)..n2 {
            let t = f64::from(n - n1) / f64::from(n2 - n1); // 0 → 1 across the descent
            let fraction_remaining = match shape {
                DescentShape::Linear => 1.0 - t,
                // Convex: lose most of the height early.
                DescentShape::Convex => (1.0 - t) * (1.0 - t),
                // Concave: hold the height, drop late.
                DescentShape::Concave => 1.0 - t * t,
            };
            let value = floor + (peak - floor) * fraction_remaining;
            seq.push((value.round() as u32).max(MIN_COUNTER_THRESHOLD));
        }
        seq.push(MIN_COUNTER_THRESHOLD);
        CounterThreshold::from_sequence(seq, format!("n1={n1},n2={n2},{shape}"))
    }

    /// The paper's recommended function (the solid line of Fig. 6):
    /// slope-1 ramp to `n₁ = 4`, linear descent to 2 at `n₂ = 12`.
    pub fn paper_recommended() -> Self {
        let mut c = CounterThreshold::with_descent(4, 12, DescentShape::Linear);
        c.label = "AC".to_string();
        c
    }

    /// `C(n)` for a host with `n` neighbors.
    ///
    /// `n = 0` is treated as `n = 1`: a host that knows of no neighbors
    /// has no reason to suppress.
    pub fn threshold(&self, n: usize) -> u32 {
        let idx = n.max(1) - 1;
        *self
            .sequence
            .get(idx)
            .unwrap_or_else(|| self.sequence.last().expect("sequence is non-empty"))
    }

    /// Human-readable label for tables and plots.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The underlying sequence (for tabulating Fig. 6).
    pub fn sequence(&self) -> &[u32] {
        &self.sequence
    }
}

/// An additional-coverage threshold function `A(n)`, as a fraction of
/// `πr²` (paper Figs 4 and 8).
///
/// # Examples
///
/// ```
/// use broadcast_core::AreaThreshold;
///
/// let a = AreaThreshold::paper_recommended(); // (n1, n2) = (6, 12)
/// assert_eq!(a.threshold(3), 0.0);            // sparse: always rebroadcast
/// assert!((a.threshold(9) - 0.0935).abs() < 1e-4); // halfway up
/// assert!((a.threshold(20) - 0.187).abs() < 1e-12); // dense: EAC(2)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AreaThreshold {
    kind: AreaThresholdKind,
    label: String,
}

/// The internal shape of an [`AreaThreshold`], exposed crate-internally so
/// the snapshot/trace codecs can serialize thresholds exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum AreaThresholdKind {
    /// A constant fraction of `πr²`.
    Fixed(f64),
    /// The Fig. 8 family: 0 to `n₁`, linear to `ceiling` at `n₂`.
    Adaptive { n1: u32, n2: u32, ceiling: f64 },
}

impl AreaThreshold {
    /// A fixed threshold `A(n) = a` — the non-adaptive baseline of \[15\]
    /// (the paper compares against `a ∈ {0.1871, 0.0469, 0.0134}`).
    ///
    /// # Panics
    ///
    /// Panics if `a` is not in `[0, 1]`.
    pub fn fixed(a: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&a),
            "coverage fraction out of range: {a}"
        );
        AreaThreshold {
            kind: AreaThresholdKind::Fixed(a),
            label: format!("A={a}"),
        }
    }

    /// The adaptive family of Fig. 8: `A(n) = 0` for `n ≤ n₁`, linear up
    /// to [`EAC2_FRACTION`] at `n₂`, constant beyond.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < n1 < n2`.
    pub fn adaptive(n1: u32, n2: u32) -> Self {
        assert!(n1 > 0 && n2 > n1, "need 0 < n1 < n2, got n1={n1}, n2={n2}");
        AreaThreshold {
            kind: AreaThresholdKind::Adaptive {
                n1,
                n2,
                ceiling: EAC2_FRACTION,
            },
            label: format!("AL({n1},{n2})"),
        }
    }

    /// The paper's recommendation after the Fig. 9 sweep: `(6, 12)`.
    pub fn paper_recommended() -> Self {
        let mut a = AreaThreshold::adaptive(6, 12);
        a.label = "AL".to_string();
        a
    }

    /// `A(n)` for a host with `n` neighbors.
    pub fn threshold(&self, n: usize) -> f64 {
        match self.kind {
            AreaThresholdKind::Fixed(a) => a,
            AreaThresholdKind::Adaptive { n1, n2, ceiling } => {
                let n = n as f64;
                let (n1, n2) = (f64::from(n1), f64::from(n2));
                if n <= n1 {
                    0.0
                } else if n >= n2 {
                    ceiling
                } else {
                    ceiling * (n - n1) / (n2 - n1)
                }
            }
        }
    }

    /// Human-readable label for tables and plots.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The raw shape, for the snapshot/trace codecs.
    pub(crate) fn kind(&self) -> AreaThresholdKind {
        self.kind
    }

    /// Rebuilds a threshold from codec parts, bypassing the public
    /// constructors so decoded values round-trip exactly.
    pub(crate) fn from_parts(kind: AreaThresholdKind, label: String) -> Self {
        AreaThreshold { kind, label }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_counter_is_constant() {
        let c = CounterThreshold::fixed(4);
        for n in 0..50 {
            assert_eq!(c.threshold(n), 4);
        }
        assert_eq!(c.label(), "C=4");
    }

    #[test]
    fn ramp_sequences_match_paper_notation() {
        assert_eq!(CounterThreshold::ramp(1).sequence(), &[2, 3, 4, 5]);
        assert_eq!(CounterThreshold::ramp(2).sequence(), &[2, 2, 3, 3, 4, 4, 5]);
        assert_eq!(
            CounterThreshold::ramp(3).sequence(),
            &[2, 2, 2, 3, 3, 3, 4, 4, 4, 5]
        );
    }

    #[test]
    fn ramp_to_matches_fig5b() {
        assert_eq!(CounterThreshold::ramp_to(2).sequence(), &[2, 3, 3]);
        assert_eq!(CounterThreshold::ramp_to(3).sequence(), &[2, 3, 4, 4]);
        assert_eq!(CounterThreshold::ramp_to(4).sequence(), &[2, 3, 4, 5, 5]);
        assert_eq!(CounterThreshold::ramp_to(5).sequence(), &[2, 3, 4, 5, 6, 6]);
    }

    #[test]
    fn descent_sequences_are_pinned_exactly() {
        // `with_descent` rounds with `value.round()`, which breaks .5 ties
        // away from zero; the n=8 Linear point computes exactly 3.5 and
        // must stay 4. All descent inputs are eighths (exact in binary),
        // so these tables can only drift if the arithmetic or the rounding
        // mode changes — pin every value for the paper's (n1, n2) = (4, 12).
        assert_eq!(
            CounterThreshold::with_descent(4, 12, DescentShape::Linear).sequence(),
            &[2, 3, 4, 5, 5, 4, 4, 4, 3, 3, 2, 2],
        );
        assert_eq!(
            CounterThreshold::with_descent(4, 12, DescentShape::Convex).sequence(),
            &[2, 3, 4, 5, 4, 4, 3, 3, 2, 2, 2, 2],
        );
        assert_eq!(
            CounterThreshold::with_descent(4, 12, DescentShape::Concave).sequence(),
            &[2, 3, 4, 5, 5, 5, 5, 4, 4, 3, 3, 2],
        );
        // The paper's AC function is the Linear table under its own label,
        // and saturates at the floor past n2.
        let ac = CounterThreshold::paper_recommended();
        assert_eq!(ac.label(), "AC");
        assert_eq!(
            ac.sequence(),
            CounterThreshold::with_descent(4, 12, DescentShape::Linear).sequence()
        );
        assert_eq!(ac.threshold(12), 2);
        assert_eq!(ac.threshold(100), 2);
    }

    #[test]
    fn recommended_counter_shape() {
        let c = CounterThreshold::paper_recommended();
        // Ramp with slope 1…
        assert_eq!(c.threshold(1), 2);
        assert_eq!(c.threshold(2), 3);
        assert_eq!(c.threshold(3), 4);
        assert_eq!(c.threshold(4), 5);
        // …monotone descent…
        for n in 4..12 {
            assert!(c.threshold(n + 1) <= c.threshold(n));
        }
        // …to the floor at n2 = 12.
        assert_eq!(c.threshold(12), 2);
        assert_eq!(c.threshold(100), 2);
    }

    #[test]
    fn descent_shapes_order_correctly() {
        // Midway through the descent: convex <= linear <= concave.
        let convex = CounterThreshold::with_descent(4, 12, DescentShape::Convex);
        let linear = CounterThreshold::with_descent(4, 12, DescentShape::Linear);
        let concave = CounterThreshold::with_descent(4, 12, DescentShape::Concave);
        for n in 5..12 {
            assert!(
                convex.threshold(n) <= linear.threshold(n),
                "n={n}: convex above linear"
            );
            assert!(
                linear.threshold(n) <= concave.threshold(n),
                "n={n}: linear above concave"
            );
        }
        // All agree at the endpoints.
        for c in [&convex, &linear, &concave] {
            assert_eq!(c.threshold(4), 5);
            assert_eq!(c.threshold(12), 2);
        }
    }

    #[test]
    fn zero_neighbors_acts_like_one() {
        let c = CounterThreshold::paper_recommended();
        assert_eq!(c.threshold(0), c.threshold(1));
    }

    #[test]
    fn fixed_area_is_constant() {
        let a = AreaThreshold::fixed(0.0469);
        assert_eq!(a.threshold(1), 0.0469);
        assert_eq!(a.threshold(40), 0.0469);
    }

    #[test]
    fn adaptive_area_matches_fig4() {
        let a = AreaThreshold::adaptive(6, 12);
        assert_eq!(a.threshold(1), 0.0);
        assert_eq!(a.threshold(6), 0.0);
        assert!((a.threshold(12) - EAC2_FRACTION).abs() < 1e-12);
        assert!((a.threshold(30) - EAC2_FRACTION).abs() < 1e-12);
        // Strictly increasing in between.
        let mut prev = 0.0;
        for n in 7..12 {
            let v = a.threshold(n);
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    #[should_panic(expected = "suppresses everything")]
    fn counter_below_two_panics() {
        let _ = CounterThreshold::fixed(1);
    }

    #[test]
    #[should_panic(expected = "n1 < n2")]
    fn bad_descent_bounds_panic() {
        let _ = CounterThreshold::with_descent(6, 6, DescentShape::Linear);
    }
}
