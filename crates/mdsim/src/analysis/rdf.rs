//! Radial distribution functions for the solvated ions.
//!
//! The paper's benchmark computes "hydronium and ion RDF — radial
//! distribution functions, averaged over all molecules" (§VI-C). For each
//! target species (hydronium, counter-ion) we histogram distances to every
//! water molecule and normalize by the ideal-gas shell count, averaging
//! over frames. RDF is compute-bound with moderate memory traffic
//! (histograms) — the paper characterizes it above VACF/MSD1D in resource
//! needs.

use super::{Analysis, AnalysisKind, AnalysisWork, Snapshot};
use crate::species::Species;

/// RDF configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RdfConfig {
    /// Number of radial bins.
    pub bins: usize,
    /// Maximum radius (must not exceed half the box; clamped at observe
    /// time).
    pub r_max: f64,
}

impl Default for RdfConfig {
    fn default() -> Self {
        RdfConfig { bins: 200, r_max: 5.0 }
    }
}

/// Hydronium + ion RDF accumulator.
#[derive(Debug, Clone)]
pub struct Rdf {
    cfg: RdfConfig,
    hist_hydronium: Vec<u64>,
    hist_ion: Vec<u64>,
    frames: u64,
    /// Per-frame normalization inputs captured at observe time.
    water_density: f64,
    n_hydronium: u64,
}

impl Rdf {
    /// Build an RDF accumulator.
    pub fn new(cfg: RdfConfig) -> Self {
        assert!(cfg.bins > 0 && cfg.r_max > 0.0);
        Rdf {
            cfg,
            hist_hydronium: vec![0; cfg.bins],
            hist_ion: vec![0; cfg.bins],
            frames: 0,
            water_density: 0.0,
            n_hydronium: 0,
        }
    }

    /// Configuration.
    pub fn config(&self) -> RdfConfig {
        self.cfg
    }

    /// Frames accumulated.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    fn accumulate(
        hist: &mut [u64],
        snap: &Snapshot<'_>,
        target: Species,
        r_max: f64,
        bins: usize,
    ) -> AnalysisWork {
        let r_max_sq = r_max * r_max;
        let inv_dr = bins as f64 / r_max;
        let mut work = AnalysisWork::default();
        for (i, (&si, &pi)) in snap.species.iter().zip(snap.pos).enumerate() {
            if si != target {
                continue;
            }
            for (j, (&sj, &pj)) in snap.species.iter().zip(snap.pos).enumerate() {
                if i == j || sj != Species::Water {
                    continue;
                }
                let d = (pj - pi).minimum_image(snap.box_len);
                let r_sq = d.norm_sq();
                work.ops += 1;
                if r_sq < r_max_sq {
                    let bin = ((r_sq.sqrt() * inv_dr) as usize).min(bins - 1);
                    hist[bin] += 1;
                    work.bytes_touched += 8;
                }
            }
        }
        work
    }

    fn normalize(&self, hist: &[u64], n_targets: u64) -> Vec<f64> {
        if self.frames == 0 || n_targets == 0 || self.water_density <= 0.0 {
            return vec![0.0; self.cfg.bins];
        }
        let dr = self.cfg.r_max / self.cfg.bins as f64;
        let norm = self.frames as f64 * n_targets as f64;
        hist.iter()
            .enumerate()
            .map(|(b, &count)| {
                let r_lo = b as f64 * dr;
                let r_hi = r_lo + dr;
                let shell = 4.0 / 3.0 * std::f64::consts::PI * (r_hi.powi(3) - r_lo.powi(3));
                let ideal = shell * self.water_density;
                count as f64 / (norm * ideal)
            })
            .collect()
    }

    /// Normalized `g(r)` for hydronium–water.
    pub fn g_hydronium(&self) -> Vec<f64> {
        self.normalize(&self.hist_hydronium, self.n_hydronium)
    }

    /// Bin centers for plotting.
    pub fn r_centers(&self) -> Vec<f64> {
        let dr = self.cfg.r_max / self.cfg.bins as f64;
        (0..self.cfg.bins).map(|b| (b as f64 + 0.5) * dr).collect()
    }
}

impl Analysis for Rdf {
    fn kind(&self) -> AnalysisKind {
        AnalysisKind::Rdf
    }

    fn observe(&mut self, _step: u64, snap: &Snapshot<'_>) -> AnalysisWork {
        let r_max = self.cfg.r_max.min(snap.box_len / 2.0);
        let n_water = snap.species.iter().filter(|&&s| s == Species::Water).count();
        self.water_density = n_water as f64 / snap.box_len.powi(3);
        self.n_hydronium = snap.species.iter().filter(|&&s| s == Species::Hydronium).count() as u64;
        let mut work = Self::accumulate(
            &mut self.hist_hydronium,
            snap,
            Species::Hydronium,
            r_max,
            self.cfg.bins,
        );
        work.add(Self::accumulate(&mut self.hist_ion, snap, Species::Ion, r_max, self.cfg.bins));
        self.frames += 1;
        work
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn reset(&mut self) {
        self.hist_hydronium.iter_mut().for_each(|x| *x = 0);
        self.hist_ion.iter_mut().for_each(|x| *x = 0);
        self.frames = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Snapshot;
    use crate::system::water_ion_box;

    #[test]
    fn core_exclusion_and_long_range_limit() {
        // On an equilibrated-ish lattice the RDF must be ~0 inside the core
        // and approach 1 at large r.
        let sys = water_ion_box(1, 1.0, 41);
        let mut rdf = Rdf::new(RdfConfig { bins: 100, r_max: 5.0 });
        rdf.observe(0, &Snapshot::of(&sys));
        let g = rdf.g_hydronium();
        let r = rdf.r_centers();
        // Deep core (< 0.5 σ) is empty.
        for (gi, ri) in g.iter().zip(&r) {
            if *ri < 0.5 {
                assert_eq!(*gi, 0.0, "core not empty at r={ri}");
            }
        }
        // Tail within 25% of unity (a jittered lattice is not a liquid, but
        // number conservation pins the average near 1).
        let tail: Vec<f64> =
            g.iter().zip(&r).filter(|(_, &ri)| ri > 3.5 && ri < 4.8).map(|(g, _)| *g).collect();
        let mean_tail = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!((mean_tail - 1.0).abs() < 0.25, "tail mean {mean_tail}");
    }

    #[test]
    fn frames_average() {
        let sys = water_ion_box(1, 1.0, 42);
        let mut rdf = Rdf::new(RdfConfig::default());
        let w1 = rdf.observe(0, &Snapshot::of(&sys));
        let g1 = rdf.g_hydronium();
        let w2 = rdf.observe(1, &Snapshot::of(&sys));
        let g2 = rdf.g_hydronium();
        // Same frame twice: identical normalized g, double the work.
        for (a, b) in g1.iter().zip(&g2) {
            assert!((a - b).abs() < 1e-12);
        }
        assert_eq!(w1.ops, w2.ops);
        assert_eq!(rdf.frames(), 2);
    }

    #[test]
    fn work_scales_with_targets_times_waters() {
        let sys = water_ion_box(1, 1.0, 43);
        let mut rdf = Rdf::new(RdfConfig::default());
        let w = rdf.observe(0, &Snapshot::of(&sys));
        // 32 targets (16 + 16) × 1536 waters.
        assert_eq!(w.ops, 32 * 1536);
    }

    #[test]
    fn reset_clears() {
        let sys = water_ion_box(1, 1.0, 44);
        let mut rdf = Rdf::new(RdfConfig::default());
        rdf.observe(0, &Snapshot::of(&sys));
        rdf.reset();
        assert_eq!(rdf.frames(), 0);
        assert!(rdf.g_hydronium().iter().all(|&g| g == 0.0));
    }
}
