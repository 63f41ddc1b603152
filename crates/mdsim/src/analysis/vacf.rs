//! Velocity auto-correlation function.
//!
//! `C(τ) = ⟨v(t₀)·v(t₀+τ)⟩ / ⟨v(t₀)·v(t₀)⟩`, averaged over all molecules
//! (paper §VI-C). The paper characterizes VACF as having low memory and
//! CPU utilization: it is a single O(N) dot-product sweep per frame.

use super::{AnalysisWork, Snapshot};
use crate::vec3::Vec3;

/// VACF configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct VacfConfig {
    /// Re-anchor the time origin every this many observed frames (0 =
    /// single origin for the whole run).
    pub origin_interval: u64,
}

/// VACF accumulator.
#[derive(Debug, Clone)]
pub struct Vacf {
    cfg: VacfConfig,
    origin_vel: Vec<Vec3>,
    origin_norm: f64,
    frames_since_origin: u64,
    /// `(lag frames, normalized C)` series.
    series: Vec<(u64, f64)>,
}

impl Vacf {
    /// Build a VACF accumulator.
    pub(crate) fn new(cfg: VacfConfig) -> Self {
        Vacf {
            cfg,
            origin_vel: Vec::new(),
            origin_norm: 0.0,
            frames_since_origin: 0,
            series: Vec::new(),
        }
    }

    /// The normalized correlation series `(lag, C)`; `C(0) = 1`.
    pub fn series(&self) -> &[(u64, f64)] {
        &self.series
    }

    fn set_origin(&mut self, snap: &Snapshot<'_>) {
        snap.vel.clone_into(&mut self.origin_vel);
        self.origin_norm =
            snap.vel.iter().map(|v| v.norm_sq()).sum::<f64>() / snap.len().max(1) as f64;
        self.frames_since_origin = 0;
    }

    /// Correlate one frame with the current origin.
    pub(super) fn observe(&mut self, snap: &Snapshot<'_>) -> AnalysisWork {
        if snap.is_empty() {
            return AnalysisWork::default();
        }
        let needs_new_origin = self.origin_vel.len() != snap.len()
            || (self.cfg.origin_interval > 0
                && self.frames_since_origin >= self.cfg.origin_interval);
        if needs_new_origin {
            self.set_origin(snap);
        }
        let n = snap.len();
        let corr: f64 =
            self.origin_vel.iter().zip(snap.vel).map(|(v0, v)| v0.dot(*v)).sum::<f64>() / n as f64;
        let c = if self.origin_norm > 0.0 { corr / self.origin_norm } else { 0.0 };
        self.series.push((self.frames_since_origin, c));
        self.frames_since_origin += 1;
        AnalysisWork { ops: n as u64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Snapshot;
    use crate::force::{compute_forces, ForceParams};
    use crate::integrate::Integrator;
    use crate::neighbor::NeighborList;
    use crate::species::PairTable;
    use crate::system::water_ion_box;

    #[test]
    fn lag_zero_is_unity() {
        let sys = water_ion_box(1, 1.0, 51);
        let mut vacf = Vacf::new(VacfConfig::default());
        vacf.observe(&Snapshot::of(&sys));
        let (lag, c) = vacf.series()[0];
        assert_eq!(lag, 0);
        assert!((c - 1.0).abs() < 1e-12, "{c}");
    }

    #[test]
    fn decays_under_dynamics() {
        // In a dense liquid, velocities decorrelate: C(τ) < C(0) after some
        // dynamics.
        let mut sys = water_ion_box(1, 1.0, 52);
        let params = ForceParams::default();
        let table = PairTable::new();
        let integ = Integrator { dt: 0.004 };
        let mut nl = NeighborList::build(&sys.pos, sys.box_len, params.cutoff, 0.4);
        compute_forces(&mut sys, &nl, params, &table);
        let mut vacf = Vacf::new(VacfConfig::default());
        vacf.observe(&Snapshot::of(&sys));
        for _ in 0..30 {
            integ.initial_integrate(&mut sys);
            if nl.needs_rebuild(&sys.pos) {
                nl = NeighborList::build(&sys.pos, sys.box_len, params.cutoff, 0.4);
            }
            compute_forces(&mut sys, &nl, params, &table);
            integ.final_integrate(&mut sys);
            vacf.observe(&Snapshot::of(&sys));
        }
        let c_last = vacf.series().last().unwrap().1;
        assert!(c_last < 0.9, "velocities should decorrelate, C = {c_last}");
        assert!(c_last > -0.8, "over-decorrelated, C = {c_last}");
    }

    #[test]
    fn work_is_linear_in_particles() {
        let sys = water_ion_box(1, 1.0, 53);
        let mut vacf = Vacf::new(VacfConfig::default());
        let w = vacf.observe(&Snapshot::of(&sys));
        assert_eq!(w.ops, sys.len() as u64);
    }

    #[test]
    fn origin_reanchoring() {
        let sys = water_ion_box(1, 1.0, 54);
        let mut vacf = Vacf::new(VacfConfig { origin_interval: 2 });
        for _ in 0..5 {
            vacf.observe(&Snapshot::of(&sys));
        }
        // Lags go 0,1,0,1,0 with interval 2.
        let lags: Vec<u64> = vacf.series().iter().map(|&(l, _)| l).collect();
        assert_eq!(lags, vec![0, 1, 0, 1, 0]);
    }
}
