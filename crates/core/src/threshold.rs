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
use std::str::FromStr;

use manet_scenario::quote;

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

/// The shape's name in labels and spellings: `convex`, `linear`, `concave`.
impl fmt::Display for DescentShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format!("{self:?}").to_lowercase())
    }
}

/// A counter threshold function `C(n)`: one of the families the paper
/// sweeps (Figs 5 and 6) with its parameters, from which `C(n)` (past a
/// family's defining prefix its last value repeats, the paper's `x₁x₂x₃…`),
/// the label and the spelling (`Display`: `ac`, `ac:ramp2`, `ac:to4`,
/// `ac:4,12,convex`) derive. A constant threshold is `counter:C`, not a
/// family here.
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
/// assert_eq!(c.to_string(), "ac");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterThreshold(CounterFamily);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CounterFamily {
    /// The paper's AC: the linear descent from 4 to 12, under its own label.
    Paper,
    Ramp(u32),
    RampTo(u32),
    Descent {
        n1: u32,
        n2: u32,
        shape: DescentShape,
    },
}

impl CounterThreshold {
    /// The family with its parameters, or why they are out of range.
    fn checked(family: CounterFamily) -> Result<Self, String> {
        match family {
            CounterFamily::Ramp(0) => Err("slope denominator must be positive".into()),
            CounterFamily::RampTo(0) => Err("n1 must be positive".into()),
            CounterFamily::Descent { n1, n2, .. } => ramp_bounds(n1, n2).map(|()| Self(family)),
            family => Ok(Self(family)),
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
        built(Self::checked(CounterFamily::Ramp(slope_denominator)))
    }

    /// The Fig. 5b candidates: `C(n) = n + 1` for `n ≤ n₁`, constant
    /// `n₁ + 1` beyond — `233…`, `2344…`, `23455…`, `234566…`.
    ///
    /// # Panics
    ///
    /// Panics if `n1 == 0`.
    pub fn ramp_to(n1: u32) -> Self {
        built(Self::checked(CounterFamily::RampTo(n1)))
    }

    /// The Fig. 5c/5d family: ramp `C(n) = n + 1` to `n₁`, descend with
    /// `shape` to the minimum threshold 2 at `n₂`, constant 2 beyond.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < n1 < n2`.
    pub fn with_descent(n1: u32, n2: u32, shape: DescentShape) -> Self {
        built(Self::checked(CounterFamily::Descent { n1, n2, shape }))
    }

    /// The paper's recommended function (the solid line of Fig. 6):
    /// slope-1 ramp to `n₁ = 4`, linear descent to 2 at `n₂ = 12`.
    pub fn paper_recommended() -> Self {
        CounterThreshold(CounterFamily::Paper)
    }

    /// Reads what [`Display`](fmt::Display) writes after `ac:`.
    pub(crate) fn parse(params: &str) -> Result<Self, String> {
        let prefixed = |prefix| params.strip_prefix(prefix);
        let family = match (prefixed("ramp"), prefixed("to"), split3(params)) {
            (Some(k), ..) => CounterFamily::Ramp(number("slope denominator", k)?),
            (_, Some(n1), _) => CounterFamily::RampTo(number("n1", n1)?),
            (.., Some([n1, n2, shape])) => CounterFamily::Descent {
                n1: number("n1", n1)?,
                n2: number("n2", n2)?,
                shape: [
                    DescentShape::Convex,
                    DescentShape::Linear,
                    DescentShape::Concave,
                ]
                .into_iter()
                .find(|known| known.to_string() == shape)
                .ok_or_else(|| format!("unknown descent shape {}", quote(shape)))?,
            },
            _ => return Err(format!("unknown counter threshold {}", quote(params))),
        };
        Self::checked(family)
    }

    /// `C(n)` for a host with `n` neighbors.
    ///
    /// `n = 0` is treated as `n = 1`: a host that knows of no neighbors
    /// has no reason to suppress.
    pub fn threshold(&self, n: usize) -> u32 {
        let n = u32::try_from(n.max(1)).unwrap_or(u32::MAX);
        let (n1, n2, shape) = match self.0 {
            CounterFamily::Ramp(k) => return 2 + ((n - 1) / k).min(3),
            CounterFamily::RampTo(n1) => return n.min(n1).saturating_add(1),
            CounterFamily::Paper => (4, 12, DescentShape::Linear),
            CounterFamily::Descent { n1, n2, shape } => (n1, n2, shape),
        };
        if n <= n1 {
            return n.saturating_add(1);
        }
        if n >= n2 {
            return MIN_COUNTER_THRESHOLD;
        }
        let peak = f64::from(n1) + 1.0;
        let floor = f64::from(MIN_COUNTER_THRESHOLD);
        let t = f64::from(n - n1) / f64::from(n2 - n1); // 0 → 1 across the descent
        let fraction_remaining = match shape {
            DescentShape::Linear => 1.0 - t,
            // Convex: lose most of the height early.
            DescentShape::Convex => (1.0 - t) * (1.0 - t),
            // Concave: hold the height, drop late.
            DescentShape::Concave => 1.0 - t * t,
        };
        let value = floor + (peak - floor) * fraction_remaining;
        (value.round() as u32).max(MIN_COUNTER_THRESHOLD)
    }

    /// Human-readable label for tables and plots (`AC`, `slope 1/2`,
    /// `n1=4`, `n1=4,n2=12,convex`).
    pub fn label(&self) -> String {
        match self.0 {
            CounterFamily::Paper => "AC".to_string(),
            CounterFamily::Ramp(k) => format!("slope 1/{k}"),
            CounterFamily::RampTo(n1) => format!("n1={n1}"),
            CounterFamily::Descent { n1, n2, shape } => format!("n1={n1},n2={n2},{shape}"),
        }
    }
}

impl fmt::Display for CounterThreshold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            CounterFamily::Paper => f.write_str("ac"),
            CounterFamily::Ramp(k) => write!(f, "ac:ramp{k}"),
            CounterFamily::RampTo(n1) => write!(f, "ac:to{n1}"),
            CounterFamily::Descent { n1, n2, shape } => write!(f, "ac:{n1},{n2},{shape}"),
        }
    }
}

/// An additional-coverage threshold function `A(n)`, as a fraction of
/// `πr²` (paper Figs 4 and 8): a family the paper sweeps with its
/// parameters, from which `A(n)`, the label and the spelling (`Display`:
/// `al`, `al:6,12`) derive. A constant threshold is `location:A`, not a
/// family here.
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
/// assert_eq!(AreaThreshold::adaptive(4, 10).to_string(), "al:4,10");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaThreshold(AreaFamily);

#[derive(Debug, Clone, Copy, PartialEq)]
enum AreaFamily {
    /// The paper's AL: `Adaptive { n1: 6, n2: 12 }` under its own label.
    Paper,
    /// The Fig. 8 family: 0 to `n₁`, linear to [`EAC2_FRACTION`] at `n₂`.
    Adaptive { n1: u32, n2: u32 },
}

impl AreaThreshold {
    /// The family with its parameters, or why they are out of range.
    fn checked(family: AreaFamily) -> Result<Self, String> {
        match family {
            AreaFamily::Adaptive { n1, n2 } => ramp_bounds(n1, n2).map(|()| Self(family)),
            family => Ok(Self(family)),
        }
    }

    /// The adaptive family of Fig. 8: `A(n) = 0` for `n ≤ n₁`, linear up
    /// to [`EAC2_FRACTION`] at `n₂`, constant beyond.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < n1 < n2`.
    pub fn adaptive(n1: u32, n2: u32) -> Self {
        built(Self::checked(AreaFamily::Adaptive { n1, n2 }))
    }

    /// The paper's recommendation after the Fig. 9 sweep: `(6, 12)`.
    pub fn paper_recommended() -> Self {
        AreaThreshold(AreaFamily::Paper)
    }

    /// Reads what [`Display`](fmt::Display) writes after `al:`.
    pub(crate) fn parse(params: &str) -> Result<Self, String> {
        let (n1, n2) = (params.split_once(','))
            .ok_or_else(|| format!("unknown coverage threshold {}", quote(params)))?;
        Self::checked(AreaFamily::Adaptive {
            n1: number("n1", n1)?,
            n2: number("n2", n2)?,
        })
    }

    /// `A(n)` for a host with `n` neighbors.
    pub fn threshold(&self, n: usize) -> f64 {
        let (n1, n2) = match self.0 {
            AreaFamily::Paper => (6, 12),
            AreaFamily::Adaptive { n1, n2 } => (n1, n2),
        };
        let n = n as f64;
        let (n1, n2) = (f64::from(n1), f64::from(n2));
        if n <= n1 {
            0.0
        } else if n >= n2 {
            EAC2_FRACTION
        } else {
            EAC2_FRACTION * (n - n1) / (n2 - n1)
        }
    }

    /// Human-readable label for tables and plots (`AL`, `AL(6,12)`).
    pub fn label(&self) -> String {
        match self.0 {
            AreaFamily::Paper => "AL".to_string(),
            AreaFamily::Adaptive { n1, n2 } => format!("AL({n1},{n2})"),
        }
    }
}

impl fmt::Display for AreaThreshold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            AreaFamily::Paper => f.write_str("al"),
            AreaFamily::Adaptive { n1, n2 } => write!(f, "al:{n1},{n2}"),
        }
    }
}

/// `0 < n1 < n2`, the bounds of every ramp, or why not.
fn ramp_bounds(n1: u32, n2: u32) -> Result<(), String> {
    let ok = 0 < n1 && n1 < n2;
    ok.then_some(())
        .ok_or_else(|| format!("need 0 < n1 < n2, got n1={n1}, n2={n2}"))
}

/// What a public constructor returns: the checked family, or a panic.
fn built<T>(checked: Result<T, String>) -> T {
    checked.unwrap_or_else(|why| panic!("{why}"))
}

/// Parses one numeric parameter of a scheme spelling, naming it and
/// quoting the text when it does not parse.
pub(crate) fn number<T: FromStr<Err: fmt::Display>>(what: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|e| format!("bad {what} {}: {e}", quote(text)))
}

/// The three comma-separated parts of `text`, if it has exactly three.
pub(crate) fn split3(text: &str) -> Option<[&str; 3]> {
    let mut parts = text.split(',');
    let three = [parts.next()?, parts.next()?, parts.next()?];
    parts.next().is_none().then_some(three)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `C(1), …, C(len)`: a family's defining prefix and one repeat.
    fn prefix(c: &CounterThreshold, len: usize) -> Vec<u32> {
        (1..=len).map(|n| c.threshold(n)).collect()
    }

    #[test]
    fn ramp_sequences_match_paper_notation() {
        assert_eq!(prefix(&CounterThreshold::ramp(1), 5), [2, 3, 4, 5, 5]);
        assert_eq!(
            prefix(&CounterThreshold::ramp(2), 8),
            [2, 2, 3, 3, 4, 4, 5, 5]
        );
        assert_eq!(
            prefix(&CounterThreshold::ramp(3), 11),
            [2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5]
        );
    }

    #[test]
    fn ramp_to_matches_fig5b() {
        assert_eq!(prefix(&CounterThreshold::ramp_to(2), 4), [2, 3, 3, 3]);
        assert_eq!(prefix(&CounterThreshold::ramp_to(3), 5), [2, 3, 4, 4, 4]);
        assert_eq!(prefix(&CounterThreshold::ramp_to(4), 6), [2, 3, 4, 5, 5, 5]);
        assert_eq!(
            prefix(&CounterThreshold::ramp_to(5), 7),
            [2, 3, 4, 5, 6, 6, 6]
        );
    }

    #[test]
    fn descent_sequences_are_pinned_exactly() {
        // `with_descent` rounds with `value.round()`, which breaks .5 ties
        // away from zero; the n=8 Linear point computes exactly 3.5 and
        // must stay 4. All descent inputs are eighths (exact in binary),
        // so these tables can only drift if the arithmetic or the rounding
        // mode changes — pin every value for the paper's (n1, n2) = (4, 12).
        assert_eq!(
            prefix(
                &CounterThreshold::with_descent(4, 12, DescentShape::Linear),
                13
            ),
            [2, 3, 4, 5, 5, 4, 4, 4, 3, 3, 2, 2, 2],
        );
        assert_eq!(
            prefix(
                &CounterThreshold::with_descent(4, 12, DescentShape::Convex),
                13
            ),
            [2, 3, 4, 5, 4, 4, 3, 3, 2, 2, 2, 2, 2],
        );
        assert_eq!(
            prefix(
                &CounterThreshold::with_descent(4, 12, DescentShape::Concave),
                13
            ),
            [2, 3, 4, 5, 5, 5, 5, 4, 4, 3, 3, 2, 2],
        );
        // The paper's AC function is the Linear table under its own label,
        // and saturates at the floor past n2.
        let ac = CounterThreshold::paper_recommended();
        assert_eq!(ac.label(), "AC");
        assert_eq!(
            prefix(&ac, 13),
            prefix(
                &CounterThreshold::with_descent(4, 12, DescentShape::Linear),
                13
            )
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
    #[should_panic(expected = "n1 < n2")]
    fn bad_descent_bounds_panic() {
        let _ = CounterThreshold::with_descent(6, 6, DescentShape::Linear);
    }
}
