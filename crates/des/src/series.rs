//! Time-series recording for simulated quantities (power traces, slack, …).

use crate::time::{SimDuration, SimTime};

/// An append-only series of `(time, value)` samples with non-decreasing time.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    times: Vec<SimTime>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Append a sample. Panics in debug builds if `t` precedes the last sample.
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.times.last().is_none_or(|&last| t >= last),
            "TimeSeries sample out of order"
        );
        self.times.push(t);
        self.values.push(v);
    }

    /// Iterate over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Last recorded sample, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        Some((*self.times.last()?, *self.values.last()?))
    }

    /// Time-weighted integral of the series over `[from, to)` treating the
    /// value as piecewise-constant between samples (zero before the first
    /// sample). For a power series in watts this yields joules.
    pub fn integrate(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from || self.times.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0;
        // Index of the first sample at or after `from`; the value in force at
        // `from` is the sample before it, if any.
        let start = self.times.partition_point(|&t| t < from);
        let mut cur_t = from;
        let mut cur_v = if start > 0 { self.values[start - 1] } else { 0.0 };
        for i in start..self.times.len() {
            let t = self.times[i];
            if t >= to {
                break;
            }
            acc += cur_v * t.saturating_since(cur_t).as_secs_f64();
            cur_t = t;
            cur_v = self.values[i];
        }
        acc += cur_v * to.saturating_since(cur_t).as_secs_f64();
        acc
    }
}

/// Generates periodic sampling instants (e.g. a 200 ms power monitor).
#[derive(Debug, Clone)]
pub struct PeriodicSampler {
    period: SimDuration,
    next: SimTime,
}

impl PeriodicSampler {
    /// A sampler firing every `period`, first at `start`.
    pub fn new(start: SimTime, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "sampler period must be positive");
        PeriodicSampler { period, next: start }
    }

    /// Advance past one firing and return the instant it fired at.
    pub(crate) fn fire(&mut self) -> SimTime {
        let t = self.next;
        self.next += self.period;
        t
    }

    /// All firing instants in `[self.next_at(), until)`, advancing the sampler.
    pub fn fire_until(&mut self, until: SimTime) -> Vec<SimTime> {
        let mut out = Vec::new();
        while self.next < until {
            out.push(self.fire());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn push_and_iter() {
        let mut s = TimeSeries::new();
        s.push(t(0), 1.0);
        s.push(t(10), 2.0);
        assert_eq!(s.len(), 2);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![(t(0), 1.0), (t(10), 2.0)]);
        assert_eq!(s.last(), Some((t(10), 2.0)));
    }

    #[test]
    fn integrate_piecewise_constant() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs_f64(0.0), 100.0);
        s.push(SimTime::from_secs_f64(1.0), 200.0);
        // [0,2): 1 s at 100 W + 1 s at 200 W = 300 J
        let j = s.integrate(SimTime::ZERO, SimTime::from_secs_f64(2.0));
        assert!((j - 300.0).abs() < 1e-6, "{j}");
    }

    #[test]
    fn integrate_starting_mid_segment() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs_f64(0.0), 100.0);
        s.push(SimTime::from_secs_f64(2.0), 0.0);
        let j = s.integrate(SimTime::from_secs_f64(1.0), SimTime::from_secs_f64(2.0));
        assert!((j - 100.0).abs() < 1e-6, "{j}");
    }

    #[test]
    fn integrate_empty_and_degenerate() {
        let s = TimeSeries::new();
        assert_eq!(s.integrate(t(0), t(100)), 0.0);
        let mut s = TimeSeries::new();
        s.push(t(0), 5.0);
        assert_eq!(s.integrate(t(50), t(50)), 0.0);
    }

    #[test]
    fn sampler_fires_periodically() {
        let mut p = PeriodicSampler::new(SimTime::ZERO, SimDuration::from_millis(200));
        let fired = p.fire_until(SimTime::from_secs_f64(1.0));
        assert_eq!(fired.len(), 5);
        assert_eq!(fired[0], SimTime::ZERO);
        assert_eq!(fired[4], SimTime::from_secs_f64(0.8));
        assert_eq!(p.next, SimTime::from_secs_f64(1.0));
    }

    #[test]
    #[should_panic]
    fn sampler_rejects_zero_period() {
        let _ = PeriodicSampler::new(SimTime::ZERO, SimDuration::ZERO);
    }
}
