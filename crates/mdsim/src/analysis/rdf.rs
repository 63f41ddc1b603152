//! Radial distribution functions for the solvated ions.
//!
//! The paper's benchmark computes "hydronium and ion RDF — radial
//! distribution functions, averaged over all molecules" (§VI-C). For each
//! target species (hydronium, counter-ion) we histogram distances to every
//! water molecule and normalize by the ideal-gas shell count, averaging
//! over frames. RDF is compute-bound with moderate memory traffic
//! (histograms) — the paper characterizes it above VACF/MSD1D in resource
//! needs.
//!
//! Each frame's water coordinates are copied once into `x`/`y`/`z`
//! arrays the accumulator owns and reuses. Per target, one branch-free
//! loop over them — which the compiler vectorizes — stores each
//! candidate's `r²` through the divide-free minimum image, 64 candidates
//! at a time, as the neighbor sweep does; `r² < r_max²` folds into a
//! bitmask whose set bits are binned. Every `r²` is the expression the
//! scalar `(pw - pt).minimum_image(l).norm_sq()` evaluates, so the
//! integer histograms do not depend on the batching.

use super::{AnalysisWork, Snapshot};
use crate::species::Species;
use crate::vec3::{min_image_within_box, Vec3};

/// Candidates per hit bitmask (one `u64`).
const BATCH: usize = u64::BITS as usize;

/// RDF configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RdfConfig {
    /// Number of radial bins.
    pub bins: usize,
    /// Maximum radius; a frame whose half box is smaller bins out to the
    /// half box instead.
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
    /// The radius the observed frames were binned out to: `cfg.r_max`,
    /// clamped to half the box.
    r_max: f64,
    /// The current frame's water coordinates, reused across frames.
    water: [Vec<f64>; 3],
}

impl Rdf {
    /// Build an RDF accumulator.
    pub(crate) fn new(cfg: RdfConfig) -> Self {
        assert!(cfg.bins > 0 && cfg.r_max > 0.0);
        Rdf {
            cfg,
            hist_hydronium: vec![0; cfg.bins],
            hist_ion: vec![0; cfg.bins],
            frames: 0,
            water_density: 0.0,
            n_hydronium: 0,
            r_max: cfg.r_max,
            water: Default::default(),
        }
    }

    /// Bin every water within `r_max` of each `target`-species particle
    /// of `snap` into `hist`; returns the candidates examined.
    fn accumulate(
        hist: &mut [u64],
        water: &[Vec<f64>; 3],
        snap: &Snapshot<'_>,
        target: Species,
        r_max: f64,
    ) -> u64 {
        let (l, bins) = (snap.box_len, hist.len());
        let half = 0.5 * l;
        let r_max_sq = r_max * r_max;
        let inv_dr = bins as f64 / r_max;
        let [wx, wy, wz] = water;
        let mut r2 = [0.0f64; BATCH];
        let mut ops = 0;
        let targets = snap.species.iter().zip(snap.pos).filter(|&(&s, _)| s == target);
        for (_, pt) in targets {
            ops += wx.len() as u64;
            let batches = wx.chunks(BATCH).zip(wy.chunks(BATCH)).zip(wz.chunks(BATCH));
            for ((xs, ys), zs) in batches {
                let r2 = &mut r2[..xs.len()];
                for (r, ((&x, &y), &z)) in r2.iter_mut().zip(xs.iter().zip(ys).zip(zs)) {
                    let dx = min_image_within_box(x - pt.x, l, half);
                    let dy = min_image_within_box(y - pt.y, l, half);
                    let dz = min_image_within_box(z - pt.z, l, half);
                    *r = dx * dx + dy * dy + dz * dz;
                }
                let mut hits = 0u64;
                for (t, &r) in r2.iter().enumerate() {
                    hits |= u64::from(r < r_max_sq) << t;
                }
                while hits != 0 {
                    let r_sq = r2[hits.trailing_zeros() as usize];
                    hist[((r_sq.sqrt() * inv_dr) as usize).min(bins - 1)] += 1;
                    hits &= hits - 1;
                }
            }
        }
        ops
    }

    fn normalize(&self, hist: &[u64], n_targets: u64) -> Vec<f64> {
        if self.frames == 0 || n_targets == 0 || self.water_density <= 0.0 {
            return vec![0.0; self.cfg.bins];
        }
        let dr = self.r_max / self.cfg.bins as f64;
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
        let dr = self.r_max / self.cfg.bins as f64;
        (0..self.cfg.bins).map(|b| (b as f64 + 0.5) * dr).collect()
    }

    /// The raw hydronium and ion histograms.
    #[cfg(test)]
    pub(crate) fn histograms(&self) -> [&[u64]; 2] {
        [&self.hist_hydronium, &self.hist_ion]
    }

    /// Bin one frame.
    pub(super) fn observe(&mut self, snap: &Snapshot<'_>) -> AnalysisWork {
        let l = snap.box_len;
        // The divide-free minimum image needs |pw - pt| <= l.
        debug_assert!(
            snap.pos.iter().all(|p| [p.x, p.y, p.z].iter().all(|c| (0.0..=l).contains(c))),
            "positions must be wrapped into the box"
        );
        self.r_max = self.cfg.r_max.min(l / 2.0);
        self.water.iter_mut().for_each(Vec::clear);
        let [wx, wy, wz] = &mut self.water;
        let mut n_hydronium = 0;
        for (&s, &Vec3 { x, y, z }) in snap.species.iter().zip(snap.pos) {
            match s {
                Species::Water => {
                    wx.push(x);
                    wy.push(y);
                    wz.push(z);
                }
                Species::Hydronium => n_hydronium += 1,
                Species::Ion => {}
            }
        }
        self.water_density = wx.len() as f64 / l.powi(3);
        self.n_hydronium = n_hydronium;
        let (water, r_max) = (&self.water, self.r_max);
        let ops =
            Self::accumulate(&mut self.hist_hydronium, water, snap, Species::Hydronium, r_max)
                + Self::accumulate(&mut self.hist_ion, water, snap, Species::Ion, r_max);
        self.frames += 1;
        AnalysisWork { ops }
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
        rdf.observe(&Snapshot::of(&sys));
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
        let w1 = rdf.observe(&Snapshot::of(&sys));
        let g1 = rdf.g_hydronium();
        let w2 = rdf.observe(&Snapshot::of(&sys));
        let g2 = rdf.g_hydronium();
        // Same frame twice: identical normalized g, double the work.
        for (a, b) in g1.iter().zip(&g2) {
            assert!((a - b).abs() < 1e-12);
        }
        assert_eq!(w1.ops, w2.ops);
        assert_eq!(rdf.frames, 2);
    }

    #[test]
    fn work_scales_with_targets_times_waters() {
        let sys = water_ion_box(1, 1.0, 43);
        let mut rdf = Rdf::new(RdfConfig::default());
        let w = rdf.observe(&Snapshot::of(&sys));
        // 32 targets (16 + 16) × 1536 waters.
        assert_eq!(w.ops, 32 * 1536);
    }

    #[test]
    fn clamped_r_max_normalizes_to_the_radius_it_binned() {
        // Uniform waters in a box of side 8: r_max = 5 clamps to 4, and
        // an ideal gas reads g = 1 at every radius the bins cover.
        let box_len = 8.0;
        let mut rng = des::Rng::seed_from_u64(7);
        let pos: Vec<Vec3> = (0..2_000)
            .map(|_| {
                Vec3::new(
                    rng.uniform(0.0, box_len),
                    rng.uniform(0.0, box_len),
                    rng.uniform(0.0, box_len),
                )
            })
            .collect();
        let mut species = vec![Species::Water; pos.len()];
        species[..8].fill(Species::Hydronium);
        let snap = Snapshot { box_len, species: &species, pos: &pos, unwrapped: &pos, vel: &pos };
        let mut rdf = Rdf::new(RdfConfig { bins: 40, r_max: 5.0 });
        rdf.observe(&snap);
        let r = rdf.r_centers();
        assert!((r[39] - 3.95).abs() < 1e-12, "last bin centre {}", r[39]);
        let tail: Vec<f64> = rdf
            .g_hydronium()
            .into_iter()
            .zip(&r)
            .filter(|(_, &ri)| (2.5..=3.8).contains(&ri))
            .map(|(g, _)| g)
            .collect();
        let mean_tail = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!((mean_tail - 1.0).abs() < 0.2, "tail mean {mean_tail}");
    }
}
