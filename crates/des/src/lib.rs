//! # des — deterministic simulation substrate
//!
//! The shared vocabulary of the SeeSAw reproduction's simulators:
//! integer-nanosecond simulated time ([`SimTime`], [`SimDuration`]), a
//! seeded, platform-independent random-number generator ([`Rng`]) that
//! drives both the noise models and the randomized property tests, and
//! time-series recording for power traces ([`TimeSeries`],
//! [`PeriodicSampler`]).
//!
//! ```
//! use des::{SimDuration, SimTime, TimeSeries};
//!
//! let mut power = TimeSeries::new();
//! power.push(SimTime::ZERO, 100.0);
//! power.push(SimTime::from_secs_f64(1.0), 120.0);
//! let end = SimTime::ZERO + SimDuration::from_secs_f64(2.0);
//! assert_eq!(power.integrate(SimTime::ZERO, end), 220.0);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod rng;
mod series;
mod time;

pub use rng::Rng;
pub use series::{PeriodicSampler, TimeSeries};
pub use time::{SimDuration, SimTime};

#[cfg(test)]
mod randomized {
    use super::*;

    /// Integration over adjacent windows adds up to integration over the
    /// union (additivity of the energy integral).
    #[test]
    fn series_integral_is_additive() {
        let mut rng = Rng::seed_from_u64(0x000D_E503);
        for _case in 0..64 {
            let len = 1 + rng.next_below(49) as usize;
            let mut samples: Vec<(u64, f64)> =
                (0..len).map(|_| (rng.next_below(1000), rng.uniform(0.0, 500.0))).collect();
            samples.sort_by_key(|&(t, _)| t);
            let split = rng.next_below(2000);
            let mut s = TimeSeries::new();
            for (t, v) in samples {
                s.push(SimTime::from_nanos(t), v);
            }
            let a = SimTime::ZERO;
            let m = SimTime::from_nanos(split);
            let b = SimTime::from_nanos(2000);
            let (lo, hi) = if m <= b { (m, b) } else { (b, m) };
            let whole = s.integrate(a, hi);
            let parts = s.integrate(a, lo) + s.integrate(lo, hi);
            assert!((whole - parts).abs() < 1e-6);
        }
    }

    /// SimTime/SimDuration arithmetic round-trips through f64 seconds
    /// with sub-microsecond error for values under ~1000 s.
    #[test]
    fn time_f64_roundtrip() {
        let mut rng = Rng::seed_from_u64(0x000D_E504);
        for _case in 0..256 {
            let s = rng.uniform(0.0, 1000.0);
            let t = SimTime::from_secs_f64(s);
            assert!((t.as_secs_f64() - s).abs() < 1e-6);
        }
    }
}
