//! Particle system storage and the water + ions benchmark builder.

use crate::species::Species;
use crate::vec3::Vec3;
use des::Rng;

/// Number of particles in one unit cell of the benchmark (paper §VII: "our
/// benchmark has 1568 atoms, so the total number of atoms is 1568 × dim³").
pub(crate) const UNIT_CELL_ATOMS: usize = 1568;
/// Hydronium ions per unit cell.
pub(crate) const UNIT_CELL_HYDRONIUM: usize = 16;
/// Counter-ions per unit cell.
pub(crate) const UNIT_CELL_IONS: usize = 16;
/// Reduced number density of the liquid.
pub(crate) const DENSITY: f64 = 0.85;

/// The particle system (structure-of-arrays storage).
#[derive(Debug, Clone)]
pub struct System {
    /// Cubic box side length (reduced units), periodic in all directions.
    pub box_len: f64,
    /// Species per particle.
    pub(crate) species: Vec<Species>,
    /// Wrapped positions in `[0, box_len)³`.
    pub pos: Vec<Vec3>,
    /// Velocities.
    pub vel: Vec<Vec3>,
    /// Forces from the last evaluation.
    pub force: Vec<Vec3>,
    /// Unwrapped positions (never folded; used by MSD).
    pub unwrapped: Vec<Vec3>,
}

impl System {
    /// Number of particles.
    pub(crate) fn len(&self) -> usize {
        self.pos.len()
    }

    /// True if the system holds no particles.
    pub(crate) fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Kinetic energy `Σ ½ m v²`.
    pub(crate) fn kinetic_energy(&self) -> f64 {
        self.species.iter().zip(&self.vel).map(|(s, v)| 0.5 * s.mass() * v.norm_sq()).sum()
    }

    /// Instantaneous temperature `2·KE / (3N)` (reduced units, k_B = 1).
    pub(crate) fn temperature(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        2.0 * self.kinetic_energy() / (3.0 * self.len() as f64)
    }

    /// Total linear momentum.
    pub(crate) fn momentum(&self) -> Vec3 {
        self.species.iter().zip(&self.vel).fold(Vec3::ZERO, |acc, (s, v)| acc + *v * s.mass())
    }

    /// Remove center-of-mass drift.
    pub(crate) fn zero_momentum(&mut self) {
        let p = self.momentum();
        let m_total: f64 = self.species.iter().map(|s| s.mass()).sum();
        if m_total <= 0.0 {
            return;
        }
        let v_com = p / m_total;
        for v in &mut self.vel {
            *v -= v_com;
        }
    }

    /// Rescale velocities to the target temperature (simple Berendsen-style
    /// hard rescale, used for initialization only).
    pub(crate) fn rescale_to_temperature(&mut self, target: f64) {
        let t = self.temperature();
        if t <= 0.0 {
            return;
        }
        let s = (target / t).sqrt();
        for v in &mut self.vel {
            *v = *v * s;
        }
    }
}

/// Build the water + ions benchmark: `1568 × dim³` particles on a cubic
/// lattice with thermal jitter, Maxwell–Boltzmann velocities at
/// `temperature`, ions dispersed uniformly through the lattice.
pub fn water_ion_box(dim: usize, temperature: f64, seed: u64) -> System {
    assert!(dim >= 1, "dim must be at least 1");
    let n = UNIT_CELL_ATOMS * dim * dim * dim;
    let n_h3o = UNIT_CELL_HYDRONIUM * dim * dim * dim;
    let n_ion = UNIT_CELL_IONS * dim * dim * dim;
    let box_len = (n as f64 / DENSITY).cbrt();
    let mut rng = Rng::seed_from_u64(seed ^ 0x5EE5_A000_0000_0001);

    // Simple cubic lattice with enough sites.
    let cells = (n as f64).cbrt().ceil() as usize;
    let spacing = box_len / cells as f64;
    let mut pos = Vec::with_capacity(n);
    'fill: for ix in 0..cells {
        for iy in 0..cells {
            for iz in 0..cells {
                if pos.len() >= n {
                    break 'fill;
                }
                let jitter = Vec3::new(
                    rng.uniform(-0.05, 0.05),
                    rng.uniform(-0.05, 0.05),
                    rng.uniform(-0.05, 0.05),
                ) * spacing;
                let p = Vec3::new(
                    (ix as f64 + 0.5) * spacing,
                    (iy as f64 + 0.5) * spacing,
                    (iz as f64 + 0.5) * spacing,
                ) + jitter;
                pos.push(p.wrap(box_len));
            }
        }
    }

    // Disperse ions evenly through the index space so they are solvated.
    let mut species = vec![Species::Water; n];
    let stride_h = n / n_h3o.max(1);
    for k in 0..n_h3o {
        species[(k * stride_h + stride_h / 3) % n] = Species::Hydronium;
    }
    let stride_i = n / n_ion.max(1);
    for k in 0..n_ion {
        let mut idx = (k * stride_i + 2 * stride_i / 3) % n;
        // Avoid collisions with hydronium sites.
        while species[idx] != Species::Water {
            idx = (idx + 1) % n;
        }
        species[idx] = Species::Ion;
    }

    // Maxwell–Boltzmann velocities: each component N(0, sqrt(T/m)).
    let vel: Vec<Vec3> = species
        .iter()
        .map(|s| {
            let sigma = (temperature / s.mass()).sqrt();
            Vec3::new(rng.normal() * sigma, rng.normal() * sigma, rng.normal() * sigma)
        })
        .collect();

    let unwrapped = pos.clone();
    let mut sys = System { box_len, force: vec![Vec3::ZERO; n], species, pos, vel, unwrapped };
    sys.zero_momentum();
    sys.rescale_to_temperature(temperature);
    sys
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(s: &System, species: Species) -> usize {
        s.species.iter().filter(|&&x| x == species).count()
    }

    #[test]
    fn unit_cell_counts() {
        let s = water_ion_box(1, 1.0, 42);
        assert_eq!(s.len(), 1568);
        assert_eq!(count(&s, Species::Hydronium), 16);
        assert_eq!(count(&s, Species::Ion), 16);
        assert_eq!(count(&s, Species::Water), 1536);
    }

    #[test]
    fn dim_scaling_is_cubic() {
        let s = water_ion_box(2, 1.0, 42);
        assert_eq!(s.len(), 1568 * 8);
        assert_eq!(count(&s, Species::Hydronium), 16 * 8);
    }

    #[test]
    fn positions_inside_box() {
        let s = water_ion_box(1, 1.0, 7);
        for p in &s.pos {
            assert!(p.x >= 0.0 && p.x < s.box_len);
            assert!(p.y >= 0.0 && p.y < s.box_len);
            assert!(p.z >= 0.0 && p.z < s.box_len);
        }
    }

    #[test]
    fn temperature_near_target() {
        let s = water_ion_box(1, 1.5, 9);
        assert!((s.temperature() - 1.5).abs() < 1e-9, "{}", s.temperature());
    }

    #[test]
    fn momentum_is_zeroed() {
        let s = water_ion_box(1, 1.0, 3);
        assert!(s.momentum().norm() < 1e-9);
    }

    #[test]
    fn density_matches_request() {
        let s = water_ion_box(1, 1.0, 1);
        let rho = s.len() as f64 / s.box_len.powi(3);
        assert!((rho - DENSITY).abs() < 1e-9);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = water_ion_box(1, 1.0, 11);
        let b = water_ion_box(1, 1.0, 11);
        assert_eq!(a.pos[100], b.pos[100]);
        assert_eq!(a.vel[100], b.vel[100]);
    }

    #[test]
    fn different_seeds_differ() {
        let a = water_ion_box(1, 1.0, 11);
        let b = water_ion_box(1, 1.0, 12);
        assert_ne!(a.vel[0], b.vel[0]);
    }
}
