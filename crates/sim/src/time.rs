//! Simulated time: nanosecond-resolution instants and durations.
//!
//! The whole workbench runs in *virtual* time. Every cost charged by the
//! storage model, the network model or a tracing framework is a [`SimDur`];
//! the engine advances a global [`SimTime`] as events complete. Keeping
//! these as distinct newtypes (instead of bare `u64`s) has caught several
//! unit bugs in practice, so all public APIs trade exclusively in them.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, measured in nanoseconds since the start of
/// the simulation ("true" cluster time — see [`crate::clock`] for per-node
/// observed clocks).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDur(pub u64);

pub const NANOS_PER_SEC: u64 = 1_000_000_000;

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    /// Largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    pub fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }
    pub fn as_nanos(self) -> u64 {
        self.0
    }
    pub fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }
    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn since(self, earlier: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(earlier.0))
    }
    pub fn max_of(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDur {
    pub const ZERO: SimDur = SimDur(0);

    pub fn from_nanos(ns: u64) -> Self {
        SimDur(ns)
    }
    pub fn as_nanos(self) -> u64 {
        self.0
    }
    pub fn from_micros(us: u64) -> Self {
        SimDur(us * 1_000)
    }
    pub fn from_millis(ms: u64) -> Self {
        SimDur(ms * 1_000_000)
    }
    pub fn from_secs(s: u64) -> Self {
        SimDur(s * NANOS_PER_SEC)
    }
    /// Build from fractional seconds, rounding to the nearest nanosecond.
    /// Negative or non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDur(0);
        }
        SimDur((s * NANOS_PER_SEC as f64).round() as u64)
    }
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }
    pub fn saturating_sub(self, other: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(other.0))
    }
    /// Scale by a non-negative factor (clamped), rounding to nearest ns.
    pub fn mul_f64(self, k: f64) -> SimDur {
        SimDur::from_secs_f64(self.as_secs_f64() * k.max(0.0))
    }
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDur) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}
impl AddAssign<SimDur> for SimTime {
    fn add_assign(&mut self, rhs: SimDur) {
        *self = *self + rhs;
    }
}
impl Sub<SimDur> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDur) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}
impl Add for SimDur {
    type Output = SimDur;
    fn add(self, rhs: SimDur) -> SimDur {
        SimDur(self.0.saturating_add(rhs.0))
    }
}
impl AddAssign for SimDur {
    fn add_assign(&mut self, rhs: SimDur) {
        *self = *self + rhs;
    }
}
impl Sub for SimDur {
    type Output = SimDur;
    fn sub(self, rhs: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(rhs.0))
    }
}
impl SubAssign for SimDur {
    fn sub_assign(&mut self, rhs: SimDur) {
        *self = *self - rhs;
    }
}
impl Mul<u64> for SimDur {
    type Output = SimDur;
    fn mul(self, rhs: u64) -> SimDur {
        SimDur(self.0.saturating_mul(rhs))
    }
}
impl Div<u64> for SimDur {
    type Output = SimDur;
    fn div(self, rhs: u64) -> SimDur {
        SimDur(self.0 / rhs.max(1))
    }
}
impl Sum for SimDur {
    fn sum<I: Iterator<Item = SimDur>>(iter: I) -> SimDur {
        iter.fold(SimDur::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}
impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}
impl fmt::Debug for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}
impl fmt::Display for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3 * NANOS_PER_SEC);
        assert_eq!(SimTime::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDur::from_secs(2).as_secs_f64(), 2.0);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.since(a), SimDur::from_secs(1));
        assert_eq!(a.since(b), SimDur::ZERO);
    }

    #[test]
    fn arithmetic_saturates_at_extremes() {
        assert_eq!(SimTime::MAX + SimDur::from_secs(1), SimTime::MAX);
        assert_eq!(SimDur::ZERO.saturating_sub(SimDur(5)), SimDur::ZERO);
        assert_eq!(SimDur(u64::MAX) * 3, SimDur(u64::MAX));
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(SimDur::from_secs_f64(-1.0), SimDur::ZERO);
        assert_eq!(SimDur::from_secs_f64(f64::NAN), SimDur::ZERO);
        assert_eq!(SimDur::from_secs_f64(f64::INFINITY), SimDur::ZERO);
        assert_eq!(SimDur::from_secs_f64(1.5), SimDur(1_500_000_000));
    }

    #[test]
    fn dur_scaling() {
        let d = SimDur::from_secs(10);
        assert_eq!(d.mul_f64(0.5), SimDur::from_secs(5));
        assert_eq!(d / 2, SimDur::from_secs(5));
        assert_eq!(d / 0, d, "div by zero clamps divisor to 1");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDur = (1..=4).map(SimDur::from_secs).sum();
        assert_eq!(total, SimDur::from_secs(10));
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500000");
        assert_eq!(format!("{}", SimDur::from_micros(250)), "0.000250");
    }
}
