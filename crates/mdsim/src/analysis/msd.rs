//! Mean-squared displacement in three variants (paper §VI-C, §VII-B):
//!
//! * **MSD1D** — particles binned along x by their *initial* position;
//!   per-bin MSD. Low CPU/memory.
//! * **MSD2D** — binned on an xy grid; memory-intensive (less than full
//!   MSD).
//! * **Full MSD** — the 1-D and 2-D components plus a final averaging over
//!   all particles, evaluated against *multiple time origins* — the
//!   high-CPU, high-memory workload that the paper runs at `dim = 16`
//!   because of its memory needs.

use super::{AnalysisWork, Snapshot};
use crate::vec3::Vec3;

/// Which MSD variant to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MsdVariant {
    /// Full MSD: 1-D + 2-D components + all-particle average over multiple
    /// time origins.
    Full,
    /// 1-D binned only.
    OneD,
    /// 2-D binned only.
    TwoD,
}

/// MSD configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MsdConfig {
    /// Variant.
    pub variant: MsdVariant,
    /// Spatial bins per axis.
    pub bins: usize,
    /// Full MSD: spawn a new time origin every this many frames.
    pub origin_interval: u64,
    /// Full MSD: maximum retained time origins.
    pub max_origins: usize,
}

impl MsdConfig {
    /// Full MSD defaults.
    pub(crate) fn full() -> Self {
        MsdConfig { variant: MsdVariant::Full, bins: 16, origin_interval: 5, max_origins: 20 }
    }

    /// MSD1D defaults.
    pub(crate) fn one_d() -> Self {
        MsdConfig { variant: MsdVariant::OneD, bins: 16, origin_interval: 0, max_origins: 1 }
    }

    /// MSD2D defaults.
    pub(crate) fn two_d() -> Self {
        MsdConfig { variant: MsdVariant::TwoD, bins: 16, origin_interval: 0, max_origins: 1 }
    }
}

/// MSD accumulator. Every buffer is reused across frames, so a warmed
/// accumulator observes without allocating.
#[derive(Debug, Clone)]
pub struct Msd {
    cfg: MsdConfig,
    /// Unwrapped positions at each live time origin, oldest first.
    origins: Vec<Vec<Vec3>>,
    /// Bin assignment by initial position (index into 1-D or 2-D bins).
    bin_of: Vec<usize>,
    frames: u64,
    /// One origin's per-bin displacement sums (scratch).
    sums: Vec<f64>,
    /// Per-bin sample counts over all origins (scratch).
    counts: Vec<u64>,
    /// Latest per-bin MSD values.
    last_binned: Vec<f64>,
    /// Latest all-particle MSD (averaged over origins for Full).
    last_overall: f64,
}

impl Msd {
    /// Build an MSD accumulator.
    pub(crate) fn new(cfg: MsdConfig) -> Self {
        assert!(cfg.bins > 0 && cfg.max_origins > 0);
        Msd {
            cfg,
            origins: Vec::new(),
            bin_of: Vec::new(),
            frames: 0,
            sums: Vec::new(),
            counts: Vec::new(),
            last_binned: Vec::new(),
            last_overall: 0.0,
        }
    }

    /// Latest all-particle MSD (averaged over origins for Full).
    pub fn overall(&self) -> f64 {
        self.last_overall
    }

    fn nbins_total(&self) -> usize {
        match self.cfg.variant {
            MsdVariant::OneD => self.cfg.bins,
            MsdVariant::TwoD => self.cfg.bins * self.cfg.bins,
            MsdVariant::Full => self.cfg.bins + self.cfg.bins * self.cfg.bins,
        }
    }

    fn assign_bins(&mut self, snap: &Snapshot<'_>) {
        let b = self.cfg.bins as f64;
        let inv = b / snap.box_len;
        let clamp = |x: f64| -> usize { ((x * inv) as usize).min(self.cfg.bins - 1) };
        self.bin_of = snap
            .pos
            .iter()
            .map(|p| match self.cfg.variant {
                MsdVariant::OneD | MsdVariant::Full => clamp(p.x),
                MsdVariant::TwoD => clamp(p.x) * self.cfg.bins + clamp(p.y),
            })
            .collect();
    }

    /// Capture `unwrapped` as the newest origin, recycling the oldest
    /// origin's buffer once `max_origins` are live.
    fn push_origin(&mut self, unwrapped: &[Vec3]) {
        if self.origins.len() == self.cfg.max_origins {
            self.origins.rotate_left(1);
            let newest = self.origins.last_mut().expect("max_origins > 0");
            unwrapped.clone_into(newest);
        } else {
            self.origins.push(unwrapped.to_vec());
        }
    }

    /// MSD against one origin: per-bin sums into `self.sums` (zeroed
    /// first), per-bin counts added to `self.counts`; returns the overall
    /// mean.
    fn against_origin(&mut self, origin: usize, snap: &Snapshot<'_>) -> f64 {
        let n = snap.len();
        let one_d = self.cfg.bins;
        let (sums, counts) = (&mut self.sums, &mut self.counts);
        sums.fill(0.0);
        let mut total = 0.0;
        for (i, &o) in self.origins[origin].iter().enumerate() {
            let d = snap.unwrapped[i] - o;
            let msd = d.norm_sq();
            total += msd;
            match self.cfg.variant {
                MsdVariant::OneD | MsdVariant::TwoD => {
                    let b = self.bin_of[i];
                    sums[b] += msd;
                    counts[b] += 1;
                }
                MsdVariant::Full => {
                    // 1-D component bins by x, 2-D by (x, y): recompute both.
                    let bx = self.bin_of[i]; // 1-D bin (x)
                    sums[bx] += msd;
                    counts[bx] += 1;
                    // For Full, derive the 2-D bin from the origin position.
                    let inv = self.cfg.bins as f64 / snap.box_len;
                    let cx = ((snap.pos[i].x * inv) as usize).min(self.cfg.bins - 1);
                    let cy = ((snap.pos[i].y * inv) as usize).min(self.cfg.bins - 1);
                    let b2 = one_d + cx * self.cfg.bins + cy;
                    sums[b2] += msd;
                    counts[b2] += 1;
                }
            }
        }
        total / n.max(1) as f64
    }

    /// Displacements of one frame against every live origin.
    pub(super) fn observe(&mut self, snap: &Snapshot<'_>) -> AnalysisWork {
        if snap.is_empty() {
            return AnalysisWork::default();
        }
        // First frame (or particle-count change): set up bins + origin.
        if self.bin_of.len() != snap.len() {
            self.assign_bins(snap);
            self.origins.clear();
        }
        if self.origins.is_empty()
            || (self.cfg.variant == MsdVariant::Full
                && self.cfg.origin_interval > 0
                && self.frames.is_multiple_of(self.cfg.origin_interval))
        {
            self.push_origin(snap.unwrapped);
        }

        let nbins = self.nbins_total();
        self.sums.resize(nbins, 0.0);
        self.counts.clear();
        self.counts.resize(nbins, 0);
        // Summed per bin over the origins, oldest first.
        self.last_binned.clear();
        self.last_binned.resize(nbins, 0.0);
        let mut overall = 0.0;
        for origin in 0..self.origins.len() {
            overall += self.against_origin(origin, snap);
            for (a, s) in self.last_binned.iter_mut().zip(&self.sums) {
                *a += *s;
            }
        }
        let n_origins = self.origins.len();
        self.last_overall = overall / n_origins as f64;
        for (v, &c) in self.last_binned.iter_mut().zip(&self.counts) {
            *v = if c > 0 { *v / c as f64 } else { 0.0 };
        }
        self.frames += 1;
        AnalysisWork { ops: (snap.len() * n_origins) as u64 }
    }
}

#[cfg(test)]
impl Msd {
    /// Latest per-bin MSD values (length `bins` for 1-D, `bins²` for 2-D;
    /// `bins + bins²` for Full, 1-D block first).
    pub(crate) fn binned(&self) -> &[f64] {
        &self.last_binned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Snapshot;
    use crate::system::water_ion_box;

    #[test]
    fn msd_zero_at_first_frame() {
        let sys = water_ion_box(1, 1.0, 61);
        let mut msd = Msd::new(MsdConfig::full());
        msd.observe(&Snapshot::of(&sys));
        assert_eq!(msd.overall(), 0.0);
    }

    #[test]
    fn msd_grows_with_displacement() {
        let sys = water_ion_box(1, 1.0, 62);
        let mut msd = Msd::new(MsdConfig::one_d());
        msd.observe(&Snapshot::of(&sys));
        // Displace every particle by the same vector.
        let mut moved = sys.clone();
        for u in &mut moved.unwrapped {
            u.x += 1.5;
        }
        msd.observe(&Snapshot::of(&moved));
        assert!((msd.overall() - 2.25).abs() < 1e-9, "{}", msd.overall());
        // Every bin sees the same uniform displacement.
        for (b, &v) in msd.binned().iter().enumerate() {
            assert!(v == 0.0 || (v - 2.25).abs() < 1e-9, "bin {b}: {v}");
        }
    }

    #[test]
    fn one_d_and_two_d_bin_counts() {
        let sys = water_ion_box(1, 1.0, 63);
        let mut m1 = Msd::new(MsdConfig::one_d());
        m1.observe(&Snapshot::of(&sys));
        assert_eq!(m1.binned().len(), 16);
        let mut m2 = Msd::new(MsdConfig::two_d());
        m2.observe(&Snapshot::of(&sys));
        assert_eq!(m2.binned().len(), 256);
        let mut mf = Msd::new(MsdConfig::full());
        mf.observe(&Snapshot::of(&sys));
        assert_eq!(mf.binned().len(), 16 + 256);
    }

    #[test]
    fn full_msd_accumulates_origins_and_costs_more() {
        let sys = water_ion_box(1, 1.0, 64);
        let mut full = Msd::new(MsdConfig::full());
        let mut one = Msd::new(MsdConfig::one_d());
        let mut w_full = AnalysisWork::default();
        let mut w_one = AnalysisWork::default();
        for _ in 0..25 {
            w_full.ops += full.observe(&Snapshot::of(&sys)).ops;
            w_one.ops += one.observe(&Snapshot::of(&sys)).ops;
        }
        assert!(full.origins.len() > 1, "{}", full.origins.len());
        assert!(
            w_full.ops > 2 * w_one.ops,
            "full MSD should be the high-demand analysis: {} vs {}",
            w_full.ops,
            w_one.ops
        );
    }

    #[test]
    fn origin_ring_is_bounded() {
        let sys = water_ion_box(1, 1.0, 65);
        let cfg = MsdConfig { origin_interval: 1, max_origins: 4, ..MsdConfig::full() };
        let mut msd = Msd::new(cfg);
        for _ in 0..20 {
            msd.observe(&Snapshot::of(&sys));
        }
        assert_eq!(msd.origins.len(), 4);
    }
}
