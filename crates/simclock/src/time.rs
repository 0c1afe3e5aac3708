//! Virtual time: nanosecond-resolution instants and durations.
//!
//! [`SimTime`] is an absolute instant on the simulated timeline and
//! [`SimDuration`] a span between instants. Both are thin `u64` wrappers so
//! they are `Copy`, ordered, and free to pass around; arithmetic is
//! saturating on the low end and panics on overflow in debug builds (a
//! simulation that runs for 2^64 ns has other problems).

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulated timeline, in nanoseconds since the
/// start of the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Elapsed duration since `earlier`; saturates to zero if `earlier`
    /// is actually later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from a float number of microseconds (handy for datasheet
    /// values like `32.725 µs`); rounds to the nearest nanosecond.
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        debug_assert!(us >= 0.0, "negative duration");
        SimDuration((us * 1_000.0).round() as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// As floating-point microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// As floating-point milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// As floating-point seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Checked scalar multiplication.
    #[inline]
    pub fn checked_mul(self, rhs: u64) -> Option<SimDuration> {
        self.0.checked_mul(rhs).map(SimDuration)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// A monotonically advancing simulated clock.
///
/// The clock is the single source of "now" inside a simulation. Components
/// advance it by the latency of whatever they just did.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: SimTime,
}

impl Clock {
    /// A clock at the start of the timeline.
    pub fn new() -> Self {
        Clock { now: SimTime::ZERO }
    }

    /// The current instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance by `d` and return the new instant.
    #[inline]
    pub fn advance(&mut self, d: SimDuration) -> SimTime {
        self.now += d;
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_micros_f64(32.725).as_nanos(), 32_725);
        assert_eq!(SimDuration::from_micros_f64(101.475).as_nanos(), 101_475);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let a = SimDuration::from_micros(10);
        let b = SimDuration::from_micros(4);
        assert_eq!((a + b).as_nanos(), 14_000);
        assert_eq!((a - b).as_nanos(), 6_000);
        assert_eq!((b - a).as_nanos(), 0, "subtraction saturates");
        assert_eq!((a * 3).as_nanos(), 30_000);
        assert_eq!((a / 2).as_nanos(), 5_000);
    }

    #[test]
    fn time_duration_interplay() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_millis(1);
        assert_eq!((t1 - t0).as_nanos(), 1_000_000);
        assert_eq!(t1.since(t0), SimDuration::from_millis(1));
        assert_eq!(t0.since(t1), SimDuration::ZERO);
    }

    #[test]
    fn clock_is_monotonic() {
        let mut c = Clock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance(SimDuration::from_micros(7));
        assert_eq!(c.now().as_nanos(), 7_000);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(3).to_string(), "3.000us");
        assert_eq!(SimDuration::from_millis(15).to_string(), "15.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total, SimDuration::from_micros(10));
    }
}
