//! Simulation time and duration types.
//!
//! The engine measures time in integer **nanoseconds** since the start of the
//! simulation. An unsigned 64-bit nanosecond counter wraps after roughly
//! 584 years of simulated time, which is far beyond any scenario in this
//! workspace (the longest paper experiment simulates a few hours).
//!
//! Two newtypes keep instants and spans apart ([`SimTime`] and
//! [`SimDuration`]); mixing them up is a compile error. Arithmetic follows
//! the same conventions as [`std::time`]: `SimTime + SimDuration = SimTime`,
//! `SimTime - SimTime = SimDuration`, and so on.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since time zero.
///
/// # Examples
///
/// ```
/// use manet_sim_engine::{SimDuration, SimTime};
///
/// let start = SimTime::ZERO;
/// let later = start + SimDuration::from_millis(3);
/// assert_eq!(later - start, SimDuration::from_micros(3_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use manet_sim_engine::SimDuration;
///
/// let slot = SimDuration::from_micros(20);
/// assert_eq!(slot * 31, SimDuration::from_micros(620));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after time zero.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `micros` microseconds after time zero.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Creates an instant `millis` milliseconds after time zero.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates an instant `secs` seconds after time zero.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since time zero.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since time zero, truncating.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since time zero as a float (for metrics and display).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`, clamping to zero when `earlier`
    /// is actually later than `self`.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a span from a float number of seconds, rounding to the
    /// nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, non-finite, or too large to represent.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        let nanos = secs * 1e9;
        assert!(
            nanos <= u64::MAX as f64,
            "duration of {secs} seconds overflows the simulation clock"
        );
        SimDuration(nanos.round() as u64)
    }

    /// Parses decimal seconds (`"12"`, `"12.5"`, `"0.000000001"`, at most
    /// nine fractional digits) exactly, not through `f64`:
    /// [`decimal_secs`](Self::decimal_secs) reads back to the nanosecond.
    ///
    /// # Errors
    ///
    /// Says why the text is not decimal seconds that fit the clock.
    pub fn from_decimal_secs(text: &str) -> Result<SimDuration, &'static str> {
        let (whole, frac) = text.split_once('.').unwrap_or((text, ""));
        let digits = |s: &str| s.bytes().all(|b| b.is_ascii_digit());
        if whole.is_empty() || text.ends_with('.') || !digits(whole) || !digits(frac) {
            return Err("expected decimal seconds");
        }
        if frac.len() > 9 {
            return Err("at most nine fractional digits");
        }
        let secs: u64 = whole.parse().map_err(|_| "whole seconds out of range")?;
        let nanos: u64 = format!("{frac:0<9}").parse().unwrap_or(0);
        let total = secs
            .checked_mul(1_000_000_000)
            .and_then(|n| n.checked_add(nanos));
        total
            .map(SimDuration)
            .ok_or("overflows the simulation clock")
    }

    /// The span as decimal seconds with trailing zeros trimmed (`"12.5"`),
    /// which [`from_decimal_secs`](Self::from_decimal_secs) reads back.
    pub fn decimal_secs(self) -> String {
        let frac = format!("{:09}", self.0 % 1_000_000_000);
        let frac = frac.trim_end_matches('0');
        let point = if frac.is_empty() { "" } else { "." };
        format!("{}{point}{frac}", self.0 / 1_000_000_000)
    }

    /// Length of the span in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length of the span in microseconds, truncating.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Length of the span in milliseconds, truncating.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Length of the span in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` when the span has zero length.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("simulation clock overflow"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("simulation clock underflow"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("subtracting a later SimTime from an earlier one"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{}ms", self.as_millis())
        } else if self.0 >= 1_000 {
            write!(f, "{}us", self.as_micros())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimTime::from_micros(2).as_nanos(), 2_000);
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1_000);
        assert_eq!(SimDuration::from_micros(20).as_nanos(), 20_000);
    }

    #[test]
    fn arithmetic_is_consistent() {
        let a = SimTime::from_millis(10);
        let d = SimDuration::from_millis(5);
        assert_eq!(a + d, SimTime::from_millis(15));
        assert_eq!((a + d) - a, d);
        assert_eq!((a + d) - d, a);
    }

    #[test]
    fn duration_scaling() {
        let slot = SimDuration::from_micros(20);
        assert_eq!(slot * 3, SimDuration::from_micros(60));
        assert_eq!((slot * 3) / 3, slot);
    }

    #[test]
    fn float_seconds_round_trip() {
        let d = SimDuration::from_secs_f64(1.25);
        assert_eq!(d.as_nanos(), 1_250_000_000);
        assert!((d.as_secs_f64() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn decimal_seconds_round_trip_exactly() {
        for nanos in [0, 1, 999_999_999, 12_500_000_000, 3_000_000_001, u64::MAX] {
            let d = SimDuration::from_nanos(nanos);
            assert_eq!(SimDuration::from_decimal_secs(&d.decimal_secs()), Ok(d));
        }
        assert_eq!(
            SimDuration::from_nanos(12_500_000_000).decimal_secs(),
            "12.5"
        );
        for bad in [
            "",
            ".",
            "1.",
            ".5",
            "-1",
            "1e3",
            "1.0000000001",
            "18446744074",
        ] {
            assert!(SimDuration::from_decimal_secs(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_float_duration_panics() {
        let _ = SimDuration::from_secs_f64(-0.5);
    }

    #[test]
    fn saturating_behaviour() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(3);
        assert_eq!(early.saturating_duration_since(late), SimDuration::ZERO);
        assert_eq!(
            late.saturating_duration_since(early),
            SimDuration::from_secs(2)
        );
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::from_micros(5).to_string(), "5us");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
    }
}
