//! Machine configuration constants.
//!
//! Defaults model a Theta (Cray XC40) compute node: single-socket 64-core
//! Intel Xeon Phi 7230 (KNL), 1.3 GHz base / 1.5 GHz turbo, 215 W TDP.
//! RAPL capping is modeled as what the paper's evaluation depends on, not
//! as its enforcement windows: a request is clamped to [δ_min = 98 W, TDP],
//! takes effect after ~10 ms of actuation latency, and under long+short
//! term capping is enforced 1.5 % below the request (constants from the
//! SeeSAw paper, §VI-A, §VII-A, §VII-D/E).

use des::SimDuration;

/// Which RAPL windows a job caps (paper Table I distinguishes these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CapMode {
    /// No power cap: nodes run at their phase power demand.
    None,
    /// Long-term (1 s moving average) cap only — the paper's evaluation mode.
    Long,
    /// Long- and short-term caps. Guarantees the budget is never violated
    /// but RAPL then limits slightly *below* the requested power and
    /// variability increases (paper §VII-A).
    LongShort,
}

/// Static description of the simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Thermal design power per node, watts. RAPL cannot cap above this.
    pub tdp_w: f64,
    /// Lowest RAPL-supported per-node cap, watts (δ_min in the paper; 98 W
    /// on Theta).
    pub min_cap_w: f64,
    /// Power drawn by a node that is blocked waiting on a synchronization,
    /// watts (~105 W on Theta, visible in the paper's Fig. 1 trace).
    pub wait_power_w: f64,
    /// Power below which no forward progress happens ("system operating
    /// power"); the linear power→rate model is anchored above this floor.
    pub floor_w: f64,
    /// Reference power for work units: a phase with `ref_secs = x` takes
    /// `x` seconds at this effective power.
    pub ref_power_w: f64,
    /// Latency between requesting a new RAPL cap and it taking effect
    /// (~10 ms on Theta's CPUs, paper §VII-E).
    pub cap_actuation: SimDuration,
    /// When both windows are capped, RAPL enforces slightly below the
    /// request; fraction of the requested cap withheld (paper §VII-A).
    pub short_cap_bias: f64,
    /// Power-trace sampling period (200 ms in the paper's Fig. 1).
    pub trace_period: SimDuration,
}

impl MachineConfig {
    /// Theta-like defaults.
    pub fn theta() -> Self {
        MachineConfig {
            tdp_w: 215.0,
            min_cap_w: 98.0,
            wait_power_w: 105.0,
            floor_w: 60.0,
            ref_power_w: 110.0,
            cap_actuation: SimDuration::from_millis(10),
            short_cap_bias: 0.015,
            trace_period: SimDuration::from_millis(200),
        }
    }

    /// Highest per-node cap (δ_max): the TDP.
    pub fn max_cap_w(&self) -> f64 {
        self.tdp_w
    }

    /// Nominal Theta TDP (the reference for power-domain scaling).
    pub(crate) const THETA_TDP_W: f64 = 215.0;

    /// Scale every wattage by `factor` (durations unchanged): models a
    /// finer power domain, e.g. a per-half-socket domain for the paper's
    /// §III co-located alternative ("if per-core power can be controlled,
    /// simulation and analysis can be co-located on the same CPU").
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0);
        MachineConfig {
            tdp_w: self.tdp_w * factor,
            min_cap_w: self.min_cap_w * factor,
            wait_power_w: self.wait_power_w * factor,
            floor_w: self.floor_w * factor,
            ref_power_w: self.ref_power_w * factor,
            cap_actuation: self.cap_actuation,
            short_cap_bias: self.short_cap_bias,
            trace_period: self.trace_period,
        }
    }

    /// The wattage scale of this machine relative to a Theta node.
    pub(crate) fn power_scale(&self) -> f64 {
        self.tdp_w / Self::THETA_TDP_W
    }

    /// Clamp a requested per-node cap into the RAPL-supported range.
    pub(crate) fn clamp_cap(&self, watts: f64) -> f64 {
        watts.clamp(self.min_cap_w, self.tdp_w)
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::theta()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_constants_match_paper() {
        let c = MachineConfig::theta();
        assert_eq!(c.tdp_w, 215.0);
        assert_eq!(c.min_cap_w, 98.0);
        assert_eq!(c.cap_actuation, SimDuration::from_millis(10));
        assert_eq!(c.trace_period, SimDuration::from_millis(200));
    }

    #[test]
    fn clamp_cap_respects_rapl_range() {
        let c = MachineConfig::theta();
        assert_eq!(c.clamp_cap(50.0), 98.0);
        assert_eq!(c.clamp_cap(110.0), 110.0);
        assert_eq!(c.clamp_cap(400.0), 215.0);
    }
}
