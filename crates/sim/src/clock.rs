//! Per-node clocks with skew and drift.
//!
//! The paper's taxonomy has an explicit axis "accounts for time skew and
//! drift": *time skew* is the difference between distributed clocks at a
//! single instant, *time drift* is the change of that skew over time
//! (paper §3.1). To make that axis testable, every simulated node owns a
//! [`NodeClock`] mapping true simulation time to the node's *observed*
//! time. Tracing frameworks record observed timestamps; analysis tooling
//! (`iotrace-analysis::skew`) then has real skew/drift to estimate and
//! correct, exactly as LANL-Trace's pre/post barrier job intends.

use crate::rng::DetRng;
use crate::time::SimTime;

/// An affine model of a node's local clock:
/// `observed(t) = t + skew + drift_ppm * t / 1e6`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeClock {
    /// Constant offset from true time, in nanoseconds. May be negative
    /// (node clock behind true time).
    pub skew_ns: i64,
    /// Linear drift in parts-per-million of elapsed true time. Real
    /// quartz oscillators sit in the ±50 ppm range.
    pub drift_ppm: f64,
}

impl NodeClock {
    /// A perfect clock: observed time equals true time.
    pub const PERFECT: NodeClock = NodeClock {
        skew_ns: 0,
        drift_ppm: 0.0,
    };

    pub fn new(skew_ns: i64, drift_ppm: f64) -> Self {
        NodeClock { skew_ns, drift_ppm }
    }

    /// Sample a plausible cluster clock: skew uniform in ±`max_skew_ns`,
    /// drift uniform in ±`max_drift_ppm`.
    pub fn sample(rng: &mut DetRng, max_skew_ns: i64, max_drift_ppm: f64) -> Self {
        let skew = rng.range_i64(-max_skew_ns, max_skew_ns);
        let drift = (rng.unit_f64() * 2.0 - 1.0) * max_drift_ppm;
        NodeClock::new(skew, drift)
    }

    /// Map true simulation time to this node's observed time.
    ///
    /// Observed time is clamped at zero: a node whose clock is behind at
    /// boot reports zero rather than underflowing (mirrors a clock that
    /// was stepped forward at boot by NTP).
    pub fn observe(&self, truth: SimTime) -> SimTime {
        let t = truth.as_nanos() as i128;
        let drifted = (t as f64 * self.drift_ppm / 1_000_000.0) as i128;
        let obs = t + self.skew_ns as i128 + drifted;
        SimTime::from_nanos(obs.clamp(0, u64::MAX as i128) as u64)
    }

    /// Instantaneous offset (observed − true) at a given true time, ns.
    pub fn offset_at(&self, truth: SimTime) -> i64 {
        let obs = self.observe(truth).as_nanos() as i128;
        (obs - truth.as_nanos() as i128) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clock_is_identity() {
        let c = NodeClock::PERFECT;
        for s in [0u64, 1, 1_000_000, 3_600 * 1_000_000_000] {
            assert_eq!(c.observe(SimTime(s)), SimTime(s));
        }
    }

    #[test]
    fn positive_skew_shifts_forward() {
        let c = NodeClock::new(5_000, 0.0);
        assert_eq!(c.observe(SimTime(100)), SimTime(5_100));
    }

    #[test]
    fn negative_skew_clamps_at_zero() {
        let c = NodeClock::new(-1_000, 0.0);
        assert_eq!(c.observe(SimTime(100)), SimTime::ZERO);
        assert_eq!(c.observe(SimTime(2_000)), SimTime(1_000));
    }

    #[test]
    fn drift_grows_linearly() {
        // 100 ppm over 1 second = 100 µs.
        let c = NodeClock::new(0, 100.0);
        let t = SimTime::from_secs(1);
        assert_eq!(c.offset_at(t), 100_000);
        // and over 10 seconds, 1 ms
        assert_eq!(c.offset_at(SimTime::from_secs(10)), 1_000_000);
    }

    #[test]
    fn sample_respects_bounds() {
        let mut rng = DetRng::new(77);
        for _ in 0..100 {
            let c = NodeClock::sample(&mut rng, 1_000_000, 50.0);
            assert!(c.skew_ns.abs() <= 1_000_000);
            assert!(c.drift_ppm.abs() <= 50.0);
        }
    }
}
