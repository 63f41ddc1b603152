//! Noise and variability models.
//!
//! HPC systems show run-to-run and job-to-job variability (paper §VII-A,
//! Table I, citing Chunduri et al.). Three multiplicative noise sources are
//! modeled, each seeded independently so experiments can replay any layer:
//!
//! * **job** — per-job, per-node efficiency factor (placement, silicon
//!   lottery, network neighborhood). Identical for all runs inside a job.
//! * **run** — per-run bias plus per-phase jitter (OS noise, contention).
//! * **measurement** — noise on RAPL power readings.
//!
//! Capping amplifies variability (Table I): long-term capping mostly
//! inflates job-to-job spread, adding the short-term cap inflates
//! run-to-run spread. The model scales its sigmas per [`CapMode`].

use crate::config::CapMode;
use des::Rng;

/// Noise magnitudes for one cap mode.
#[derive(Debug, Clone, Copy)]
pub struct NoiseSigmas {
    /// Per-job per-node efficiency spread.
    pub job: f64,
    /// Per-run bias spread.
    pub run: f64,
    /// Per-phase jitter spread.
    pub phase: f64,
    /// Power measurement spread.
    pub measure: f64,
}

impl NoiseSigmas {
    /// Sigmas calibrated so that Table I's variability percentages are
    /// reproduced in distribution (see `repro table1_variability`).
    pub fn for_mode(mode: CapMode) -> Self {
        match mode {
            CapMode::None => NoiseSigmas { job: 0.008, run: 0.003, phase: 0.004, measure: 0.008 },
            CapMode::Long => NoiseSigmas { job: 0.028, run: 0.003, phase: 0.005, measure: 0.010 },
            CapMode::LongShort => {
                NoiseSigmas { job: 0.024, run: 0.016, phase: 0.012, measure: 0.014 }
            }
        }
    }

    /// A silent model for deterministic unit tests.
    pub fn zero() -> Self {
        NoiseSigmas { job: 0.0, run: 0.0, phase: 0.0, measure: 0.0 }
    }
}

/// Seeds identifying the stochastic layers of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoiseSeed {
    /// Job identity — determines node placement effects.
    pub job: u64,
    /// Run identity within the job.
    pub run: u64,
}

impl NoiseSeed {
    /// Convenience constructor.
    pub fn new(job: u64, run: u64) -> Self {
        NoiseSeed { job, run }
    }
}

/// Concrete noise model for a run: sampled per-node efficiencies and
/// stateful jitter streams.
#[derive(Debug, Clone)]
pub struct NoiseModel {
    sigmas: NoiseSigmas,
    /// Per-node efficiency multiplier, combining job placement and run bias.
    node_efficiency: Vec<f64>,
    jitter_rng: Rng,
    measure_rng: Rng,
}

impl NoiseModel {
    /// Build the model for `nodes` nodes with `sigmas` (usually
    /// [`NoiseSigmas::for_mode`]), deterministically from `seed`.
    pub(crate) fn with_sigmas(nodes: usize, sigmas: NoiseSigmas, seed: NoiseSeed) -> Self {
        let mut job_rng = Rng::seed_from_u64(seed.job.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut run_rng = Rng::seed_from_u64(
            seed.job.wrapping_mul(31).wrapping_add(seed.run).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let run_bias = run_rng.normal_clamped(1.0, sigmas.run).max(0.5);
        let node_efficiency = (0..nodes)
            .map(|_| {
                let job_eff = job_rng.normal_clamped(1.0, sigmas.job).max(0.5);
                (job_eff * run_bias).max(0.5)
            })
            .collect();
        let jitter_rng =
            Rng::seed_from_u64(seed.run.wrapping_mul(0xA076_1D64_78BD_642F).wrapping_add(seed.job));
        let measure_rng = Rng::seed_from_u64(
            seed.run.wrapping_mul(0xE703_7ED1_A0B4_28DB).wrapping_add(!seed.job),
        );
        NoiseModel { sigmas, node_efficiency, jitter_rng, measure_rng }
    }

    /// Static efficiency multiplier for a node (1.0 = nominal).
    pub(crate) fn node_efficiency(&self, node: usize) -> f64 {
        self.node_efficiency[node]
    }

    /// Every node's efficiency multiplier, indexed by node id.
    pub(crate) fn efficiencies(&self) -> &[f64] {
        &self.node_efficiency
    }

    /// Heap bytes of the per-node efficiency column.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.node_efficiency.len() * std::mem::size_of::<f64>()
    }

    /// Multiplicative jitter on one phase duration (≥ 0.5), with an
    /// amplified sigma — operating near the RAPL floor
    /// increases run-to-run variability (paper §VII-D), so the runtime
    /// passes a scale > 1 for nodes capped near δ_min. Besides widening the
    /// Gaussian, low-power operation occasionally produces *stragglers*
    /// (multi-×10 % stalls from OS noise that the throttled cores cannot
    /// hide) — the dominant tail effect at δ_min on KNL.
    pub fn phase_jitter_scaled(&mut self, sigma_scale: f64) -> f64 {
        // Zero-draw fast path: the clamped normal at sigma 0 is exactly 1.0,
        // returned without touching the stream (the walk skips the call
        // for such nodes).
        if !self.draws_phase_jitter(sigma_scale) {
            return 1.0;
        }
        let base =
            self.jitter_rng.normal_clamped(1.0, self.sigmas.phase * sigma_scale.max(0.0)).max(0.5);
        if sigma_scale > 1.0 {
            let p = 0.004 * ((sigma_scale - 1.0) / 3.0).min(1.0);
            if self.jitter_rng.next_f64() < p {
                return base * self.jitter_rng.uniform(1.03, 1.10);
            }
        }
        base
    }

    /// Apply measurement noise to a true power reading.
    #[inline]
    pub fn noisy_power(&mut self, true_watts: f64) -> f64 {
        // Zero-sigma fast path mirrors `phase_jitter_scaled`: same value as
        // the sigma-0 draw (× exactly 1.0), zero stream consumed.
        if self.sigmas.measure == 0.0 {
            return true_watts.max(0.0);
        }
        (true_watts * self.measure_rng.normal_clamped(1.0, self.sigmas.measure)).max(0.0)
    }

    /// [`NoiseModel::noisy_power`] over a column of true readings, in
    /// place and in order: the same values and the same stream consumed
    /// as one call per reading.
    pub fn noisy_powers(&mut self, watts: &mut [f64]) {
        if self.sigmas.measure == 0.0 {
            for w in watts {
                *w = w.max(0.0);
            }
        } else {
            for w in watts {
                *w = self.noisy_power(*w);
            }
        }
    }

    /// Whether [`NoiseModel::phase_jitter_scaled`] at this scale consumes
    /// the jitter stream: phase sigma above zero, or the straggler lottery
    /// (scale > 1). When false the jitter is exactly 1.0 with no draw, and
    /// a node's walk is a pure function of its state, caps and work.
    #[inline]
    pub fn draws_phase_jitter(&self, sigma_scale: f64) -> bool {
        !(self.sigmas.phase == 0.0 && sigma_scale <= 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(nodes: usize, mode: CapMode, seed: NoiseSeed) -> NoiseModel {
        NoiseModel::with_sigmas(nodes, NoiseSigmas::for_mode(mode), seed)
    }

    #[test]
    fn silent_model_is_exactly_nominal() {
        let mut m = NoiseModel::with_sigmas(8, NoiseSigmas::zero(), NoiseSeed::new(0, 0));
        for n in 0..8 {
            assert_eq!(m.node_efficiency(n), 1.0);
        }
        assert_eq!(m.phase_jitter_scaled(1.0), 1.0);
        assert_eq!(m.noisy_power(110.0), 110.0);
    }

    #[test]
    fn same_seed_same_model() {
        let a = model(16, CapMode::Long, NoiseSeed::new(3, 7));
        let b = model(16, CapMode::Long, NoiseSeed::new(3, 7));
        for n in 0..16 {
            assert_eq!(a.node_efficiency(n), b.node_efficiency(n));
        }
    }

    #[test]
    fn same_job_different_run_shares_placement_up_to_run_bias() {
        // Two runs of the same job differ only by the (scalar) run bias, so
        // the per-node efficiency *ratios* are identical.
        let a = model(8, CapMode::Long, NoiseSeed::new(11, 0));
        let b = model(8, CapMode::Long, NoiseSeed::new(11, 1));
        let ratio0 = a.node_efficiency(0) / b.node_efficiency(0);
        for n in 1..8 {
            let r = a.node_efficiency(n) / b.node_efficiency(n);
            assert!((r - ratio0).abs() < 1e-12);
        }
    }

    #[test]
    fn different_jobs_differ_more_than_runs() {
        // Spread of mean efficiency across jobs must exceed spread across
        // runs within one job (this is the Table I structure).
        let mean_eff = |seed: NoiseSeed| {
            let m = model(32, CapMode::Long, seed);
            (0..32).map(|n| m.node_efficiency(n)).sum::<f64>() / 32.0
        };
        let runs: Vec<f64> = (0..12).map(|r| mean_eff(NoiseSeed::new(5, r))).collect();
        let jobs: Vec<f64> = (0..12).map(|j| mean_eff(NoiseSeed::new(j, 0))).collect();
        let spread = |v: &[f64]| {
            let max = v.iter().cloned().fold(f64::MIN, f64::max);
            let min = v.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        assert!(spread(&jobs) > spread(&runs), "jobs {jobs:?} runs {runs:?}");
    }

    #[test]
    fn longshort_mode_has_largest_run_noise() {
        let none = NoiseSigmas::for_mode(CapMode::None);
        let long = NoiseSigmas::for_mode(CapMode::Long);
        let ls = NoiseSigmas::for_mode(CapMode::LongShort);
        assert!(ls.run > long.run);
        assert!(ls.run > none.run);
        assert!(long.job > none.job);
    }

    #[test]
    fn measurement_noise_stays_positive() {
        let mut m = model(1, CapMode::LongShort, NoiseSeed::new(0, 0));
        for _ in 0..1000 {
            assert!(m.noisy_power(0.5) >= 0.0);
        }
    }

    #[test]
    fn phase_jitter_is_near_one() {
        let mut m = model(1, CapMode::Long, NoiseSeed::new(2, 3));
        let n = 5000;
        let mean: f64 = (0..n).map(|_| m.phase_jitter_scaled(1.0)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "{mean}");
    }
}
