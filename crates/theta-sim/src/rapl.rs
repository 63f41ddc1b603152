//! Per-node RAPL power-cap domain model: the state columns. The rules that
//! move them (requests, actuation, enforcement) are applied by the column
//! passes (`pass.rs`).
//!
//! Captures the three behaviours of Intel RAPL on Theta that the paper's
//! evaluation depends on (§VII-A, §VII-E):
//!
//! 1. **Actuation latency** — a requested cap takes ~10 ms to take effect.
//! 2. **Range clamping** — caps are clamped to `[98 W, TDP]`.
//! 3. **Enforcement bias** — when both the long- *and* short-term windows
//!    are capped, RAPL limits slightly *below* the requested power; with
//!    only the long-term (1 s moving average) cap, brief excursions above
//!    the cap are possible (modeled as measurement ripple, not enforcement).

use crate::config::{CapMode, MachineConfig};
use des::SimTime;

/// The `pending_at` of a node with no cap change in flight.
pub(crate) const NO_CHANGE: SimTime = SimTime::from_nanos(u64::MAX);

node_columns! {
    /// Every node's RAPL control state, one column per field. The cap mode
    /// is the cluster's, passed in where a rule depends on it.
    pub(crate) struct Rapl {
        /// Cap currently enforced by the PCU, watts.
        active_w: f64,
        /// Most recently *requested* (clamped) cap, watts.
        requested_w: f64,
        /// When the cap change waiting out the actuation latency lands
        /// ([`NO_CHANGE`] if none is in flight; a change due at
        /// `u64::MAX` ns never lands either way) ...
        pending_at: SimTime,
        /// ... and the cap it enforces, watts.
        pending_w: f64,
        /// Fault injection: number of upcoming requests the PCU will
        /// silently ignore (a stuck MSR write — the firmware acks but
        /// nothing changes).
        stuck: u32,
        /// Fault injection: extra actuation latency applied to the next
        /// request only, seconds.
        extra_latency_s: f64,
    }
}

impl Rapl {
    /// Domains capped at `caps_w` from t = 0 (no actuation delay for the
    /// initial job-launch cap, which is set before the application
    /// starts); under [`CapMode::None`] every domain enforces TDP.
    pub(crate) fn new(m: &MachineConfig, mode: CapMode, caps_w: &[f64]) -> Self {
        let mut rapl = Rapl::with_len(caps_w.len());
        for (k, &cap) in caps_w.iter().enumerate() {
            rapl.active_w[k] = Self::enforceable(m, mode, cap);
            rapl.requested_w[k] = match mode {
                CapMode::None => m.tdp_w,
                _ => m.clamp_cap(cap),
            };
        }
        rapl.pending_at.fill(NO_CHANGE);
        rapl
    }

    /// The cap RAPL enforces for a request of `watts`.
    #[inline]
    pub(crate) fn enforceable(m: &MachineConfig, mode: CapMode, watts: f64) -> f64 {
        match mode {
            CapMode::None => m.tdp_w,
            CapMode::Long => m.clamp_cap(watts),
            // Both windows capped: enforcement sits slightly below request.
            CapMode::LongShort => m.clamp_cap(watts) * (1.0 - m.short_cap_bias),
        }
    }

    /// Fault injection: node `k`'s PCU silently drops the next `n` cap
    /// requests.
    pub(crate) fn inject_ignore_requests(&mut self, k: usize, n: u32) {
        self.stuck[k] = self.stuck[k].saturating_add(n);
    }

    /// Fault injection: node `k`'s next cap request takes `extra_s`
    /// additional seconds to land.
    pub(crate) fn inject_extra_latency(&mut self, k: usize, extra_s: f64) {
        if extra_s.is_finite() && extra_s > 0.0 {
            self.extra_latency_s[k] += extra_s;
        }
    }

    /// Cap node `k` enforces at time `t`: its pending change included once
    /// due (a node holds at most one change in flight).
    #[inline]
    pub(crate) fn enforced_at(&self, k: usize, t: SimTime) -> f64 {
        if self.pending_at[k] != NO_CHANGE && self.pending_at[k] <= t {
            self.pending_w[k]
        } else {
            self.active_w[k]
        }
    }

    /// Instant of node `k`'s next scheduled enforcement change strictly
    /// after `t`, if any. Phase execution segments work around this
    /// boundary.
    #[inline]
    pub(crate) fn next_change_after(&self, k: usize, t: SimTime) -> Option<SimTime> {
        let at = self.pending_at[k];
        (at != NO_CHANGE && at > t).then_some(at)
    }
}

/// One node's domain, for the rule tests below.
#[cfg(test)]
struct One(Rapl, CapMode);

#[cfg(test)]
impl One {
    fn capped(m: &MachineConfig, mode: CapMode, initial_w: f64) -> Self {
        One(Rapl::new(m, mode, &[initial_w]), mode)
    }

    fn uncapped(m: &MachineConfig) -> Self {
        One::capped(m, CapMode::None, m.tdp_w)
    }

    fn request_cap(&mut self, m: &MachineConfig, now: SimTime, watts: f64) -> f64 {
        self.0.request_cap(m, self.1, 0, now, watts)
    }

    fn advance(&mut self, now: SimTime) {
        self.0.advance(0, now)
    }

    fn enforced_at(&self, t: SimTime) -> f64 {
        self.0.enforced_at(0, t)
    }

    fn next_change_after(&self, t: SimTime) -> Option<SimTime> {
        self.0.next_change_after(0, t)
    }

    fn requested_cap(&self) -> f64 {
        self.0.requested_w[0]
    }

    fn inject_ignore_requests(&mut self, n: u32) {
        self.0.inject_ignore_requests(0, n)
    }

    fn inject_extra_latency(&mut self, extra_s: f64) {
        self.0.inject_extra_latency(0, extra_s)
    }
}

#[cfg(test)]
mod randomized {
    use super::*;
    use des::{Rng, SimDuration};

    /// The enforced cap is always within the RAPL range after any
    /// request sequence, in every cap mode that caps.
    #[test]
    fn enforcement_always_in_range() {
        let mut rng = Rng::seed_from_u64(0x004A_9101);
        for case in 0..64 {
            let m = MachineConfig::theta();
            let mode = if case % 2 == 0 { CapMode::LongShort } else { CapMode::Long };
            let mut d = One::capped(&m, mode, 110.0);
            let mut now = SimTime::ZERO;
            let len = 1 + rng.next_below(29) as usize;
            for _ in 0..len {
                let w = rng.uniform(0.0, 400.0);
                let dt_ms = 1 + rng.next_below(999);
                d.request_cap(&m, now, w);
                now += SimDuration::from_millis(dt_ms);
                d.advance(now);
                let e = d.enforced_at(now);
                assert!(e >= m.min_cap_w * (1.0 - m.short_cap_bias) - 1e-9, "{e}");
                assert!(e <= m.tdp_w + 1e-9, "{e}");
                assert!((m.min_cap_w..=m.tdp_w).contains(&d.requested_cap()));
            }
        }
    }

    /// A request always takes exactly the actuation latency to land
    /// (unless replaced first).
    #[test]
    fn actuation_latency_is_exact() {
        let mut rng = Rng::seed_from_u64(0x004A_9102);
        for _case in 0..128 {
            let w = rng.uniform(99.0, 214.0);
            let m = MachineConfig::theta();
            let mut d = One::capped(&m, CapMode::Long, 110.0);
            d.request_cap(&m, SimTime::ZERO, w);
            let just_before = SimTime::ZERO + (m.cap_actuation - SimDuration::from_nanos(1));
            assert_eq!(d.enforced_at(just_before), 110.0);
            let at = SimTime::ZERO + m.cap_actuation;
            assert!((d.enforced_at(at) - m.clamp_cap(w)).abs() < 1e-12);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::SimDuration;

    fn m() -> MachineConfig {
        MachineConfig::theta()
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn uncapped_enforces_tdp() {
        let m = m();
        let mut d = One::uncapped(&m);
        assert_eq!(d.enforced_at(t(0)), 215.0);
        d.request_cap(&m, t(0), 100.0);
        d.advance(t(100));
        assert_eq!(d.enforced_at(t(100)), 215.0, "CapMode::None ignores requests");
    }

    #[test]
    fn initial_cap_applies_immediately() {
        let m = m();
        let d = One::capped(&m, CapMode::Long, 110.0);
        assert_eq!(d.enforced_at(t(0)), 110.0);
        assert_eq!(d.requested_cap(), 110.0);
    }

    #[test]
    fn cap_change_has_actuation_latency() {
        let m = m();
        let mut d = One::capped(&m, CapMode::Long, 110.0);
        d.request_cap(&m, t(0), 120.0);
        assert_eq!(d.enforced_at(t(5)), 110.0, "before 10 ms the old cap holds");
        assert_eq!(d.enforced_at(t(10)), 120.0, "at 10 ms the new cap applies");
        assert_eq!(d.next_change_after(t(0)), Some(t(10)));
        d.advance(t(10));
        assert_eq!(d.next_change_after(t(10)), None);
        assert_eq!(d.enforced_at(t(20)), 120.0);
    }

    #[test]
    fn requests_clamp_to_rapl_range() {
        let m = m();
        let mut d = One::capped(&m, CapMode::Long, 110.0);
        let accepted = d.request_cap(&m, t(0), 50.0);
        assert_eq!(accepted, 98.0);
        d.advance(t(10));
        assert_eq!(d.enforced_at(t(10)), 98.0);
        let accepted = d.request_cap(&m, t(20), 500.0);
        assert_eq!(accepted, 215.0);
    }

    #[test]
    fn newer_request_replaces_pending() {
        let m = m();
        let mut d = One::capped(&m, CapMode::Long, 110.0);
        d.request_cap(&m, t(0), 130.0);
        d.request_cap(&m, t(2), 105.0);
        d.advance(t(12));
        assert_eq!(d.enforced_at(t(12)), 105.0);
        assert_eq!(d.enforced_at(t(11)), 105.0);
    }

    #[test]
    fn no_op_request_clears_pending() {
        let m = m();
        let mut d = One::capped(&m, CapMode::Long, 110.0);
        d.request_cap(&m, t(0), 120.0);
        d.request_cap(&m, t(1), 110.0); // back to current
        assert_eq!(d.next_change_after(t(1)), None);
        d.advance(t(50));
        assert_eq!(d.enforced_at(t(50)), 110.0);
    }

    #[test]
    fn stuck_injection_drops_exactly_n_requests() {
        let m = m();
        let mut d = One::capped(&m, CapMode::Long, 110.0);
        d.inject_ignore_requests(2);
        d.request_cap(&m, t(0), 130.0); // dropped
        d.advance(t(50));
        assert_eq!(d.enforced_at(t(50)), 110.0, "stuck PCU holds the old cap");
        assert_eq!(d.requested_cap(), 110.0, "read-back matches enforcement");
        d.request_cap(&m, t(60), 140.0); // dropped
        d.advance(t(120));
        assert_eq!(d.enforced_at(t(120)), 110.0);
        d.request_cap(&m, t(130), 125.0); // lands normally
        d.advance(t(140));
        assert_eq!(d.enforced_at(t(140)), 125.0);
    }

    #[test]
    fn delay_injection_stretches_one_actuation() {
        let m = m();
        let mut d = One::capped(&m, CapMode::Long, 110.0);
        d.inject_extra_latency(0.1); // +100 ms on top of the normal 10 ms
        d.request_cap(&m, t(0), 120.0);
        assert_eq!(d.enforced_at(t(50)), 110.0, "still in flight at 50 ms");
        d.advance(t(110));
        assert_eq!(d.enforced_at(t(110)), 120.0, "lands at 110 ms");
        // The delay applies once: the next request uses normal latency.
        d.request_cap(&m, t(200), 130.0);
        d.advance(t(210));
        assert_eq!(d.enforced_at(t(210)), 130.0);
    }

    #[test]
    fn longshort_enforces_below_request() {
        let m = m();
        let d = One::capped(&m, CapMode::LongShort, 110.0);
        let enforced = d.enforced_at(t(0));
        assert!(enforced < 110.0, "enforced {enforced}");
        assert!(enforced > 105.0);
        // But what the controller reads back is the request.
        assert_eq!(d.requested_cap(), 110.0);
    }
}
