//! The power→performance model.
//!
//! SeeSAw's formulation approximates time as inversely proportional to
//! power (α = 1/(T·P), Eq. 1 of the paper) and corrects the approximation
//! with small repeated steps. The simulated machine must therefore be
//! *approximately but not exactly* linear. Two effects shape the model:
//!
//! * **Demand** — a phase draws at most its demand ceiling (scaled down
//!   for small per-node problems via [`Work::demand_scale`]); capping
//!   above the demand gains nothing (the paper's Fig. 8 saturation and
//!   the simulation that "consumes 102–104 W" under a 120 W cap).
//! * **Sensitivity** — only a fraction of a phase's progress rate scales
//!   with power ([`crate::PhaseKind::sensitivity`]): compute-bound kernels
//!   respond almost 1:1, memory/communication-bound phases barely respond.
//!
//! Rate is normalized so that 1.0 = speed at the 110 W reference cap.

use crate::config::MachineConfig;
use crate::phase::Work;

/// Outcome of evaluating the model at one operating point.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub(crate) struct OperatingPoint {
    /// Power the node actually draws, watts.
    pub draw_w: f64,
    /// Progress rate relative to reference power (1.0 = reference speed).
    pub rate: f64,
}

/// Smallest progress rate: even at the RAPL floor a node crawls forward
/// rather than deadlocking (matches "running barely above the system
/// operating power", paper §VII-B3).
pub(crate) const MIN_RATE: f64 = 0.02;

/// Caps below this suffer the δ_min cliff (paper §VII-D: "the minimum
/// supported power cap by RAPL on Theta's nodes is 98 W, at which
/// application performance is significantly reduced and run-to-run
/// variability increases").
pub const CLIFF_START_W: f64 = 103.0;
/// Rate multiplier at exactly δ_min (98 W); interpolates linearly up to
/// [`CLIFF_START_W`]. Calibrated against the paper's Fig. 4b: the analysis
/// partition pinned at 98 W ran ~12 % behind its 110 W pace, so the cliff
/// contributes a moderate penalty on top of the sensitivity model rather
/// than a collapse.
pub(crate) const CLIFF_FLOOR_FACTOR: f64 = 0.93;

/// Multiplicative penalty for operating at or near the RAPL floor.
pub(crate) fn cliff_factor(m: &MachineConfig, enforced_cap_w: f64) -> f64 {
    if enforced_cap_w >= CLIFF_START_W {
        return 1.0;
    }
    let span = CLIFF_START_W - m.min_cap_w;
    let depth = ((CLIFF_START_W - enforced_cap_w) / span).clamp(0.0, 1.0);
    1.0 - (1.0 - CLIFF_FLOOR_FACTOR) * depth
}

/// Evaluate phase progress under an *effective* (enforced) cap.
pub(crate) fn operating_point(
    m: &MachineConfig,
    work: Work,
    enforced_cap_w: f64,
) -> OperatingPoint {
    let mut phase = OpMemo::default();
    phase.reset(m, work);
    phase.evaluate(m, enforced_cap_w)
}

/// One phase's operating points, evaluated once per distinct enforced cap
/// (by bit pattern) for the first `CAPS` caps a phase meets and on every
/// use beyond them. A partition under one cap per role meets one cap a
/// phase, two when a pending change lands in it.
#[derive(Debug, Default)]
pub struct OpMemo {
    /// The phase's cap-independent terms: its demand, its draw above the
    /// floor at the reference cap, its sensitivity, and whether it waits.
    demand: f64,
    denom: f64,
    sensitivity: f64,
    wait: bool,
    /// `(cap bits, point)` of the first `len` caps, most recently
    /// evaluated last: a fixed array, so a fresh memo allocates nothing.
    points: [(u64, OperatingPoint); Self::CAPS],
    len: usize,
    /// `operating_point` evaluations so far.
    pub evaluations: u64,
}

impl OpMemo {
    const CAPS: usize = 4;

    /// Forget every point: phase `work` of machine `m` begins.
    pub fn reset(&mut self, m: &MachineConfig, work: Work) {
        self.demand = work.demand_w(m);
        self.denom = self.demand.min(m.ref_power_w) - m.floor_w;
        self.sensitivity = work.kind.sensitivity();
        self.wait = work.kind.is_wait();
        debug_assert!(self.wait || self.denom > 0.0, "phase demand must exceed the floor");
        self.len = 0;
    }

    /// `operating_point(m, work, cap)` of the phase begun by `reset`.
    #[inline]
    pub(crate) fn point(&mut self, m: &MachineConfig, cap: f64) -> OperatingPoint {
        let key = cap.to_bits();
        if let Some(&(_, point)) = self.points[..self.len].iter().rev().find(|&&(k, _)| k == key) {
            return point;
        }
        let point = self.evaluate(m, cap);
        self.evaluations += 1;
        if self.len < Self::CAPS {
            self.points[self.len] = (key, point);
            self.len += 1;
        }
        point
    }

    fn evaluate(&self, m: &MachineConfig, enforced_cap_w: f64) -> OperatingPoint {
        let draw = self.demand.min(enforced_cap_w);
        if self.wait {
            // Waiting makes no progress and draws the wait power (capped).
            return OperatingPoint { draw_w: draw, rate: 0.0 };
        }
        let linear = (draw - m.floor_w) / self.denom;
        let s = self.sensitivity;
        let rate = (((1.0 - s) + s * linear) * cliff_factor(m, enforced_cap_w)).max(MIN_RATE);
        OperatingPoint { draw_w: draw, rate }
    }
}

/// Progress rate for a unit of `work` at a cap (tests, calibration).
pub fn rate(m: &MachineConfig, work: Work, enforced_cap_w: f64) -> f64 {
    operating_point(m, work, enforced_cap_w).rate
}

#[cfg(test)]
/// Duration in seconds for `work` under a constant enforced cap, on a node
/// with efficiency multiplier `efficiency` (1.0 = nominal).
pub(crate) fn duration_secs(
    m: &MachineConfig,
    work: Work,
    enforced_cap_w: f64,
    efficiency: f64,
) -> f64 {
    if work.ref_secs <= 0.0 {
        return 0.0;
    }
    let op = operating_point(m, work, enforced_cap_w);
    debug_assert!(op.rate > 0.0, "productive phase must progress");
    work.ref_secs / (op.rate * efficiency.max(1e-6))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseKind;

    fn m() -> MachineConfig {
        MachineConfig::theta()
    }

    fn unit(kind: PhaseKind) -> Work {
        Work::new(kind, 1.0)
    }

    #[test]
    fn reference_power_gives_unit_rate() {
        let m = m();
        for &k in PhaseKind::all_productive() {
            let r = rate(&m, unit(k), m.ref_power_w);
            assert!((r - 1.0).abs() < 1e-12, "{k:?}: {r}");
        }
    }

    #[test]
    fn rate_is_monotone_in_cap() {
        let m = m();
        let mut last = 0.0;
        for cap in [98.0, 105.0, 110.0, 120.0, 130.0, 140.0, 160.0, 215.0] {
            let r = rate(&m, unit(PhaseKind::Force), cap);
            assert!(r >= last, "rate decreased at cap {cap}");
            last = r;
        }
    }

    #[test]
    fn rate_saturates_at_demand() {
        let m = m();
        let demand = PhaseKind::Force.demand_w(&m);
        let at_demand = rate(&m, unit(PhaseKind::Force), demand);
        let above = rate(&m, unit(PhaseKind::Force), demand + 50.0);
        assert_eq!(at_demand, above, "extra power beyond demand must be useless");
    }

    #[test]
    fn low_sensitivity_phase_barely_responds() {
        let m = m();
        // ThermoIo (s = 0.25) gains far less from 105→113 than Force
        // (s = 1); the comparison is made above the δ_min cliff zone so it
        // isolates pure sensitivity.
        let io_gain =
            rate(&m, unit(PhaseKind::ThermoIo), 113.0) / rate(&m, unit(PhaseKind::ThermoIo), 105.0);
        let force_gain =
            rate(&m, unit(PhaseKind::Force), 113.0) / rate(&m, unit(PhaseKind::Force), 105.0);
        assert!(io_gain < force_gain, "{io_gain} !< {force_gain}");
        assert!(io_gain < 1.06, "{io_gain}");
    }

    #[test]
    fn demand_scale_lowers_draw_ceiling() {
        let m = m();
        // A small per-node problem: Force demand 145 × 0.73 ≈ 106 W.
        let w = Work::scaled(PhaseKind::Force, 1.0, 0.73);
        let op = operating_point(&m, w, 120.0);
        assert!(op.draw_w < 107.0, "{}", op.draw_w);
        // Raising the cap beyond the scaled demand gains nothing.
        assert_eq!(rate(&m, w, 120.0), rate(&m, w, 215.0));
    }

    #[test]
    fn scaled_demand_never_below_wait_power() {
        let m = m();
        let w = Work::scaled(PhaseKind::Force, 1.0, 0.1);
        assert!(w.demand_w(&m) >= m.wait_power_w);
    }

    #[test]
    fn draw_never_exceeds_cap_or_demand() {
        let m = m();
        for &k in PhaseKind::all_productive() {
            for cap in [98.0, 110.0, 140.0, 215.0] {
                let op = operating_point(&m, unit(k), cap);
                assert!(op.draw_w <= cap + 1e-12);
                assert!(op.draw_w <= k.demand_w(&m) + 1e-12);
            }
        }
    }

    #[test]
    fn wait_phase_makes_no_progress_but_draws_power() {
        let m = m();
        let op = operating_point(&m, Work::none(PhaseKind::Wait), 110.0);
        assert_eq!(op.rate, 0.0);
        assert!((op.draw_w - m.wait_power_w).abs() < 1e-12);
        let op = operating_point(&m, Work::none(PhaseKind::Wait), 98.0);
        assert_eq!(op.draw_w, 98.0);
    }

    #[test]
    fn duration_scales_inverse_linearly_for_fully_sensitive_phase() {
        let m = m();
        // Force has sensitivity 1.0, so the capped region is exactly linear.
        let w = Work::new(PhaseKind::Force, 4.0);
        let t110 = duration_secs(&m, w, 110.0, 1.0);
        let t135 = duration_secs(&m, w, 135.0, 1.0);
        assert!((t110 - 4.0).abs() < 1e-9);
        let expected = 4.0 * (110.0 - m.floor_w) / (135.0 - m.floor_w);
        assert!((t135 - expected).abs() < 1e-9, "{t135} vs {expected}");
    }

    #[test]
    fn slower_node_takes_longer() {
        let m = m();
        let w = Work::new(PhaseKind::Force, 1.0);
        assert!(duration_secs(&m, w, 110.0, 0.95) > duration_secs(&m, w, 110.0, 1.0));
    }

    #[test]
    fn zero_work_is_instant() {
        let m = m();
        assert_eq!(duration_secs(&m, Work::none(PhaseKind::Force), 110.0, 1.0), 0.0);
    }

    #[test]
    fn floor_cap_still_progresses() {
        let m = m();
        let r = rate(&m, unit(PhaseKind::ThermoIo), m.min_cap_w);
        assert!(r >= MIN_RATE);
        let t = duration_secs(&m, Work::new(PhaseKind::Force, 1.0), 98.0, 1.0);
        assert!(t.is_finite() && t > 0.0);
    }

    #[test]
    fn delta_min_cliff_penalizes_lowest_caps() {
        let m = m();
        assert_eq!(cliff_factor(&m, 110.0), 1.0);
        assert_eq!(cliff_factor(&m, 103.0), 1.0);
        let at_min = cliff_factor(&m, 98.0);
        assert!((at_min - CLIFF_FLOOR_FACTOR).abs() < 1e-12);
        // Monotone in between.
        assert!(cliff_factor(&m, 100.0) > at_min);
        assert!(cliff_factor(&m, 100.0) < 1.0);
        // And it bites: a phase at 98 W is slower than the sensitivity-only
        // model would predict.
        let w = Work::new(PhaseKind::ThermoIo, 1.0);
        let r98 = rate(&m, w, 98.0);
        let s = PhaseKind::ThermoIo.sensitivity();
        let no_cliff =
            (1.0 - s) + s * (98.0 - m.floor_w) / (106.0_f64.min(m.ref_power_w) - m.floor_w);
        assert!(r98 < no_cliff, "{r98} !< {no_cliff}");
    }

    #[test]
    fn memory_bound_analysis_insensitive_vs_compute_bound() {
        let m = m();
        // MSD2D (memory-bound) gains less from 110→125 than RDF.
        let msd2d = rate(&m, unit(PhaseKind::AnalysisMsd2d), 125.0);
        let rdf = rate(&m, unit(PhaseKind::AnalysisRdf), 125.0);
        assert!(msd2d < rdf, "{msd2d} !< {rdf}");
    }
}
