//! Particle species of the water + ions benchmark.
//!
//! The paper's custom LAMMPS benchmark simulates "a box of water molecules
//! solvating two types of ions" (§VI-C) — hydronium (H₃O⁺) and a halide
//! counter-ion. Full atomistic water (rigid SPC/E + Ewald electrostatics)
//! is out of scope for a controller study; we use a single-site
//! coarse-grained water (mW-style) with Lennard-Jones interactions and
//! damped shifted-force Coulomb for the ions. This preserves what the
//! analyses consume: per-molecule positions and velocities of three
//! species. Reduced Lennard-Jones units throughout (σ = ε = m_water = 1).
//!
//! [`Species::index`] (0–2) addresses the force kernel's per-pair
//! coefficient table; a unit test pins every mixed σ, ε and q·q and every
//! kernel coefficient bit for bit.

/// Particle species.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Species {
    /// Coarse-grained water molecule (neutral, single site).
    Water,
    /// Hydronium ion, charge +1.
    Hydronium,
    /// Halide counter-ion, charge −1.
    Ion,
}

/// Number of species (parameter-table dimension).
pub(crate) const NSPECIES: usize = 3;

impl Species {
    /// All species, in storage order.
    pub(crate) const ALL: [Species; NSPECIES] = [Species::Water, Species::Hydronium, Species::Ion];

    /// Particle mass (reduced units; one water molecule = 1).
    pub(crate) fn mass(self) -> f64 {
        match self {
            Species::Water => 1.0,
            Species::Hydronium => 1.056, // 19 amu / 18 amu
            Species::Ion => 1.97,        // ~Cl, 35.5/18
        }
    }

    /// Charge in reduced units.
    pub(crate) fn charge(self) -> f64 {
        match self {
            Species::Water => 0.0,
            Species::Hydronium => 1.0,
            Species::Ion => -1.0,
        }
    }

    /// Lennard-Jones σ (reduced).
    pub(crate) fn sigma(self) -> f64 {
        match self {
            Species::Water => 1.0,
            Species::Hydronium => 0.98,
            Species::Ion => 1.18,
        }
    }

    /// Lennard-Jones ε (reduced).
    pub(crate) fn epsilon(self) -> f64 {
        match self {
            Species::Water => 1.0,
            Species::Hydronium => 1.1,
            Species::Ion => 0.8,
        }
    }

    /// Dense index for parameter tables.
    pub(crate) fn index(self) -> usize {
        match self {
            Species::Water => 0,
            Species::Hydronium => 1,
            Species::Ion => 2,
        }
    }
}

/// Pairwise Lennard-Jones parameters by Lorentz–Berthelot mixing, cached in
/// a dense 3×3 table.
#[derive(Debug, Clone)]
pub struct PairTable {
    sigma: [[f64; NSPECIES]; NSPECIES],
    epsilon: [[f64; NSPECIES]; NSPECIES],
    charge_product: [[f64; NSPECIES]; NSPECIES],
}

impl PairTable {
    /// Build the mixed-parameter table.
    pub fn new() -> Self {
        let mut t = PairTable {
            sigma: [[0.0; NSPECIES]; NSPECIES],
            epsilon: [[0.0; NSPECIES]; NSPECIES],
            charge_product: [[0.0; NSPECIES]; NSPECIES],
        };
        for a in Species::ALL {
            for b in Species::ALL {
                let (i, j) = (a.index(), b.index());
                t.sigma[i][j] = 0.5 * (a.sigma() + b.sigma());
                t.epsilon[i][j] = (a.epsilon() * b.epsilon()).sqrt();
                t.charge_product[i][j] = a.charge() * b.charge();
            }
        }
        t
    }

    /// Mixed σ for a species pair.
    #[inline]
    pub(crate) fn sigma(&self, a: Species, b: Species) -> f64 {
        self.sigma[a.index()][b.index()]
    }

    /// Mixed ε for a species pair.
    #[inline]
    pub(crate) fn epsilon(&self, a: Species, b: Species) -> f64 {
        self.epsilon[a.index()][b.index()]
    }

    /// Product of charges for a species pair.
    #[inline]
    pub(crate) fn charge_product(&self, a: Species, b: Species) -> f64 {
        self.charge_product[a.index()][b.index()]
    }
}

impl Default for PairTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_are_neutral_for_matched_ions() {
        assert_eq!(Species::Hydronium.charge() + Species::Ion.charge(), 0.0);
        assert_eq!(Species::Water.charge(), 0.0);
    }

    #[test]
    fn mixing_is_symmetric() {
        let t = PairTable::new();
        for a in Species::ALL {
            for b in Species::ALL {
                assert_eq!(t.sigma(a, b), t.sigma(b, a));
                assert_eq!(t.epsilon(a, b), t.epsilon(b, a));
                assert_eq!(t.charge_product(a, b), t.charge_product(b, a));
            }
        }
    }

    #[test]
    fn lorentz_berthelot_identities() {
        let t = PairTable::new();
        // Self-pairs return the species' own parameters.
        for s in Species::ALL {
            assert!((t.sigma(s, s) - s.sigma()).abs() < 1e-12);
            assert!((t.epsilon(s, s) - s.epsilon()).abs() < 1e-12);
        }
        // Cross-pair: arithmetic / geometric means.
        let sig = t.sigma(Species::Water, Species::Ion);
        assert!((sig - 0.5 * (1.0 + 1.18)).abs() < 1e-12);
        let eps = t.epsilon(Species::Water, Species::Hydronium);
        assert!((eps - (1.0f64 * 1.1).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn charge_products() {
        let t = PairTable::new();
        assert_eq!(t.charge_product(Species::Hydronium, Species::Ion), -1.0);
        assert_eq!(t.charge_product(Species::Hydronium, Species::Hydronium), 1.0);
        assert_eq!(t.charge_product(Species::Water, Species::Ion), 0.0);
    }

    #[test]
    fn masses_positive() {
        for s in Species::ALL {
            assert!(s.mass() > 0.0);
        }
    }

    /// The force kernel's input, bit for bit: every mixed σ, ε and q·q, and
    /// every coefficient the kernel reads (σ², 4ε, 24ε, LJ shift, K·q·q) at
    /// the default cutoff. One row per unordered pair; both orders checked.
    #[test]
    fn kernel_input_is_pinned_bit_for_bit() {
        use crate::force::{CoeffTable, ForceParams};
        use Species::{Hydronium as H, Ion as I, Water as W};
        #[rustfmt::skip]
        let pinned: [(Species, Species, [u64; 3], [u64; 5]); 6] = [
            (W, W, [0x3ff0000000000000, 0x3ff0000000000000, 0x0000000000000000],
                [0x3ff0000000000000, 0x4010000000000000, 0x4038000000000000,
                 0xbf90b5600734bfa4, 0x0000000000000000]),
            (W, H, [0x3fefae147ae147ae, 0x3ff0c7ebc96a56f6, 0x0000000000000000],
                [0x3fef5cfaacd9e83e, 0x4010c7ebc96a56f6, 0x40392be1ae1f8271,
                 0xbf9080a2fbd6b6b0, 0x0000000000000000]),
            (W, I, [0x3ff170a3d70a3d70, 0x3fec9f25c5bfedd9, 0x8000000000000000],
                [0x3ff3027525460aa5, 0x400c9f25c5bfedd9, 0x4035775c544ff263,
                 0xbf98fe61f1443ee2, 0x8000000000000000]),
            (H, H, [0x3fef5c28f5c28f5c, 0x3ff199999999999a, 0x3ff0000000000000],
                [0x3feebb98c7e28240, 0x401199999999999a, 0x403a666666666667,
                 0xbf9049f1f1693130, 0x4010000000000000]),
            (H, I, [0x3ff147ae147ae148, 0x3fee04c6f553bdd8, 0xbff0000000000000],
                [0x3ff2a9930be0ded3, 0x400e04c6f553bdd8, 0x4036839537fece62,
                 0xbf98d0046e59d6e4, 0xc010000000000000]),
            (I, I, [0x3ff2e147ae147ae1, 0x3fe999999999999a, 0x3ff0000000000000],
                [0x3ff6474538ef34d6, 0x400999999999999a, 0x4033333333333334,
                 0xbfa1ea845009f633, 0x4010000000000000]),
        ];
        let table = PairTable::new();
        let coeffs = CoeffTable::new(&table, ForceParams::default().cutoff);
        for (a, b, mixed, kernel) in pinned {
            for (x, y) in [(a, b), (b, a)] {
                let got = [table.sigma(x, y), table.epsilon(x, y), table.charge_product(x, y)];
                assert_eq!(got.map(f64::to_bits), mixed, "{x:?}-{y:?}: σ, ε, q·q");
                let c = coeffs.at(x.index() as u8, y.index() as u8);
                let got = [c.sigma_sq, c.eps4, c.eps24, c.u_shift, c.kqq];
                assert_eq!(got.map(f64::to_bits), kernel, "{x:?}-{y:?}: kernel coefficients");
            }
        }
    }
}
