//! Per-node RAPL power-cap domain model.
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

/// One node's RAPL control state.
#[derive(Debug, Clone)]
pub struct RaplDomain {
    mode: CapMode,
    /// Cap currently enforced by the PCU, watts.
    active_cap: f64,
    /// Most recently *requested* cap (clamped), watts.
    requested: f64,
    /// A cap change waiting out the actuation latency: `(effective_at, cap)`.
    pending: Option<(SimTime, f64)>,
    /// Fault injection: number of upcoming requests the PCU will silently
    /// ignore (a stuck MSR write — the firmware acks but nothing changes).
    ignore_requests: u32,
    /// Fault injection: extra actuation latency applied to the next request
    /// only, seconds.
    extra_latency_s: f64,
}

impl RaplDomain {
    /// A domain with capping disabled (enforces TDP).
    pub(crate) fn uncapped(m: &MachineConfig) -> Self {
        RaplDomain {
            mode: CapMode::None,
            active_cap: m.tdp_w,
            requested: m.tdp_w,
            pending: None,
            ignore_requests: 0,
            extra_latency_s: 0.0,
        }
    }

    /// A domain capped at `initial_w` from t = 0 (no actuation delay for the
    /// initial job-launch cap, which is set before the application starts).
    pub(crate) fn capped(m: &MachineConfig, mode: CapMode, initial_w: f64) -> Self {
        let cap = Self::enforceable(m, mode, initial_w);
        RaplDomain {
            mode,
            active_cap: cap,
            requested: m.clamp_cap(initial_w),
            pending: None,
            ignore_requests: 0,
            extra_latency_s: 0.0,
        }
    }

    fn enforceable(m: &MachineConfig, mode: CapMode, watts: f64) -> f64 {
        match mode {
            CapMode::None => m.tdp_w,
            CapMode::Long => m.clamp_cap(watts),
            // Both windows capped: enforcement sits slightly below request.
            CapMode::LongShort => m.clamp_cap(watts) * (1.0 - m.short_cap_bias),
        }
    }

    /// The most recently requested (clamped) cap, watts. This is what a
    /// controller reads back as "allocated power".
    pub fn requested_cap(&self) -> f64 {
        self.requested
    }

    /// Fault injection: the PCU silently drops the next `n` cap requests
    /// (the write appears to succeed but the enforced cap never changes —
    /// the "stuck RAPL" failure observed on production nodes).
    pub fn inject_ignore_requests(&mut self, n: u32) {
        self.ignore_requests = self.ignore_requests.saturating_add(n);
    }

    /// Fault injection: the next cap request takes `extra_s` additional
    /// seconds beyond the normal actuation latency to land.
    pub fn inject_extra_latency(&mut self, extra_s: f64) {
        if extra_s.is_finite() && extra_s > 0.0 {
            self.extra_latency_s += extra_s;
        }
    }

    /// Request a new cap at time `now`; it takes effect after the machine's
    /// actuation latency. A newer request replaces any pending one.
    /// Returns the clamped value that was accepted.
    pub(crate) fn request_cap(&mut self, m: &MachineConfig, now: SimTime, watts: f64) -> f64 {
        if self.mode == CapMode::None {
            return m.tdp_w;
        }
        let clamped = m.clamp_cap(watts);
        if self.ignore_requests > 0 {
            // Stuck PCU: the caller sees a normal ack, the hardware holds
            // the old cap. `requested` keeps the *previous* accepted value
            // so the controller's read-back matches what is enforced.
            self.ignore_requests -= 1;
            return clamped;
        }
        self.requested = clamped;
        let enforce = Self::enforceable(m, self.mode, watts);
        if (enforce - self.active_cap).abs() < f64::EPSILON {
            self.pending = None;
            return clamped;
        }
        let mut latency = m.cap_actuation;
        if self.extra_latency_s > 0.0 {
            latency += des::SimDuration::from_secs_f64(self.extra_latency_s);
            self.extra_latency_s = 0.0;
        }
        self.pending = Some((now + latency, enforce));
        clamped
    }

    /// Commit any pending change whose effective time is ≤ `now`.
    pub(crate) fn advance(&mut self, now: SimTime) {
        if let Some((at, cap)) = self.pending {
            if at <= now {
                self.active_cap = cap;
                self.pending = None;
            }
        }
    }

    /// Cap enforced at time `t` (assumes `advance` has been called up to the
    /// last change before `t`; also looks one pending change ahead).
    pub fn enforced_at(&self, t: SimTime) -> f64 {
        match self.pending {
            Some((at, cap)) if at <= t => cap,
            _ => self.active_cap,
        }
    }

    /// Instant of the next scheduled enforcement change strictly after `t`,
    /// if any. Phase execution segments work around this boundary.
    pub fn next_change_after(&self, t: SimTime) -> Option<SimTime> {
        match self.pending {
            Some((at, _)) if at > t => Some(at),
            _ => None,
        }
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
            let mut d = RaplDomain::capped(&m, mode, 110.0);
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
            let mut d = RaplDomain::capped(&m, CapMode::Long, 110.0);
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
        let mut d = RaplDomain::uncapped(&m);
        assert_eq!(d.enforced_at(t(0)), 215.0);
        d.request_cap(&m, t(0), 100.0);
        d.advance(t(100));
        assert_eq!(d.enforced_at(t(100)), 215.0, "CapMode::None ignores requests");
    }

    #[test]
    fn initial_cap_applies_immediately() {
        let m = m();
        let d = RaplDomain::capped(&m, CapMode::Long, 110.0);
        assert_eq!(d.enforced_at(t(0)), 110.0);
        assert_eq!(d.requested_cap(), 110.0);
    }

    #[test]
    fn cap_change_has_actuation_latency() {
        let m = m();
        let mut d = RaplDomain::capped(&m, CapMode::Long, 110.0);
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
        let mut d = RaplDomain::capped(&m, CapMode::Long, 110.0);
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
        let mut d = RaplDomain::capped(&m, CapMode::Long, 110.0);
        d.request_cap(&m, t(0), 130.0);
        d.request_cap(&m, t(2), 105.0);
        d.advance(t(12));
        assert_eq!(d.enforced_at(t(12)), 105.0);
        assert_eq!(d.enforced_at(t(11)), 105.0);
    }

    #[test]
    fn no_op_request_clears_pending() {
        let m = m();
        let mut d = RaplDomain::capped(&m, CapMode::Long, 110.0);
        d.request_cap(&m, t(0), 120.0);
        d.request_cap(&m, t(1), 110.0); // back to current
        assert_eq!(d.next_change_after(t(1)), None);
        d.advance(t(50));
        assert_eq!(d.enforced_at(t(50)), 110.0);
    }

    #[test]
    fn stuck_injection_drops_exactly_n_requests() {
        let m = m();
        let mut d = RaplDomain::capped(&m, CapMode::Long, 110.0);
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
        let mut d = RaplDomain::capped(&m, CapMode::Long, 110.0);
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
        let d = RaplDomain::capped(&m, CapMode::LongShort, 110.0);
        let enforced = d.enforced_at(t(0));
        assert!(enforced < 110.0, "enforced {enforced}");
        assert!(enforced > 105.0);
        // But what the controller reads back is the request.
        assert_eq!(d.requested_cap(), 110.0);
    }
}
