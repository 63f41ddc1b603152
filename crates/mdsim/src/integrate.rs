//! Velocity-Verlet time integration (the algorithm driving LAMMPS, §V).
//!
//! Split into the two half-kicks the Splitanalysis flow needs: the
//! *initial* integration (half-kick + drift) happens before the
//! simulation→analysis exchange, the *final* integration (half-kick) after
//! the new forces are computed.

use crate::system::System;

/// Integration parameters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Integrator {
    /// Timestep (reduced units; 0.004 ≈ stable for LJ liquids).
    pub dt: f64,
}

impl Default for Integrator {
    fn default() -> Self {
        Integrator { dt: 0.004 }
    }
}

impl Integrator {
    /// Step 1 of the Verlet flow: `v += f/m·dt/2; x += v·dt`, updating both
    /// wrapped and unwrapped coordinates.
    pub(crate) fn initial_integrate(&self, sys: &mut System) {
        let dt = self.dt;
        let box_len = sys.box_len;
        for i in 0..sys.len() {
            let inv_m = 1.0 / sys.species[i].mass();
            let v = sys.vel[i] + sys.force[i] * (0.5 * dt * inv_m);
            sys.vel[i] = v;
            let dr = v * dt;
            sys.pos[i] = (sys.pos[i] + dr).wrap(box_len);
            sys.unwrapped[i] += dr;
        }
    }

    /// Step 6's second half: `v += f/m·dt/2` with the fresh forces.
    pub(crate) fn final_integrate(&self, sys: &mut System) {
        let dt = self.dt;
        for i in 0..sys.len() {
            let inv_m = 1.0 / sys.species[i].mass();
            sys.vel[i] += sys.force[i] * (0.5 * dt * inv_m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::{compute_forces, ForceParams};
    use crate::neighbor::NeighborList;
    use crate::species::PairTable;
    use crate::system::water_ion_box;

    /// A few NVE steps must approximately conserve total energy.
    #[test]
    fn nve_energy_conservation() {
        let mut sys = water_ion_box(1, 0.8, 21);
        let params = ForceParams::default();
        let table = PairTable::new();
        let integ = Integrator { dt: 0.002 };
        let mut nl = NeighborList::build(&sys.pos, sys.box_len, params.cutoff, 0.4);
        let ev0 = compute_forces(&mut sys, &nl, params, &table);
        let e0 = ev0.potential + sys.kinetic_energy();
        for _ in 0..50 {
            integ.initial_integrate(&mut sys);
            if nl.needs_rebuild(&sys.pos) {
                nl = NeighborList::build(&sys.pos, sys.box_len, params.cutoff, 0.4);
            }
            compute_forces(&mut sys, &nl, params, &table);
            integ.final_integrate(&mut sys);
        }
        let ef = compute_forces(&mut sys, &nl, params, &table).potential + sys.kinetic_energy();
        let drift = (ef - e0).abs() / e0.abs();
        assert!(drift < 0.02, "energy drift {drift} (e0={e0}, ef={ef})");
    }

    #[test]
    fn momentum_conserved_by_integration() {
        let mut sys = water_ion_box(1, 1.0, 22);
        let params = ForceParams::default();
        let table = PairTable::new();
        let integ = Integrator::default();
        let mut nl = NeighborList::build(&sys.pos, sys.box_len, params.cutoff, 0.4);
        compute_forces(&mut sys, &nl, params, &table);
        let p0 = sys.momentum();
        for _ in 0..20 {
            integ.initial_integrate(&mut sys);
            if nl.needs_rebuild(&sys.pos) {
                nl = NeighborList::build(&sys.pos, sys.box_len, params.cutoff, 0.4);
            }
            compute_forces(&mut sys, &nl, params, &table);
            integ.final_integrate(&mut sys);
        }
        let p1 = sys.momentum();
        assert!((p1 - p0).norm() < 1e-6, "momentum drift {:?}", p1 - p0);
    }

    #[test]
    fn unwrapped_tracks_true_displacement() {
        let mut sys = water_ion_box(1, 1.0, 23);
        let params = ForceParams::default();
        let table = PairTable::new();
        let integ = Integrator::default();
        let mut nl = NeighborList::build(&sys.pos, sys.box_len, params.cutoff, 0.4);
        compute_forces(&mut sys, &nl, params, &table);
        let u0 = sys.unwrapped.clone();
        for _ in 0..10 {
            integ.initial_integrate(&mut sys);
            if nl.needs_rebuild(&sys.pos) {
                nl = NeighborList::build(&sys.pos, sys.box_len, params.cutoff, 0.4);
            }
            compute_forces(&mut sys, &nl, params, &table);
            integ.final_integrate(&mut sys);
        }
        // Unwrapped displacement agrees with wrapped position modulo the box.
        for i in (0..sys.len()).step_by(97) {
            let d = sys.unwrapped[i] - u0[i];
            let expected_wrapped = (sys.pos[i] - (u0[i] + d).wrap(sys.box_len)).norm();
            assert!(expected_wrapped < 1e-9, "particle {i}: {expected_wrapped}");
        }
    }

    #[test]
    fn positions_stay_wrapped() {
        let mut sys = water_ion_box(1, 2.0, 24);
        let params = ForceParams::default();
        let table = PairTable::new();
        let integ = Integrator::default();
        let nl = NeighborList::build(&sys.pos, sys.box_len, params.cutoff, 0.4);
        compute_forces(&mut sys, &nl, params, &table);
        for _ in 0..5 {
            integ.initial_integrate(&mut sys);
            compute_forces(&mut sys, &nl, params, &table);
            integ.final_integrate(&mut sys);
        }
        for p in &sys.pos {
            assert!(p.x >= 0.0 && p.x < sys.box_len);
            assert!(p.y >= 0.0 && p.y < sys.box_len);
            assert!(p.z >= 0.0 && p.z < sys.box_len);
        }
    }
}
