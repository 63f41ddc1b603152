//! The Verlet-*Splitanalysis* protocol (paper §V).
//!
//! Malakar et al.'s extension forms physically separate simulation and
//! analysis partitions. Each Verlet step follows this flow:
//!
//! 1. S performs initial integration
//! 2. S sends particle coordinates and velocities to the A partition
//! 3. both partitions rebuild a subset of data structures
//! 4. S sends the particle count to A for verification
//! 5. both partitions update neighbor lists
//! 6. S computes forces and final integration
//! 7. S invokes A at the end of the time step
//! 8. optional output of the state of S (thermo, every step in the paper)
//!
//! Steps 2–4 are the synchronization phase. With a synchronization interval
//! `j > 1`, steps 2–4, 5 and 7 are skipped except every j-th step.
//!
//! This driver executes the flow on *real data* — the engine integrates
//! actual particles and the analyses consume actual snapshots — while
//! recording per-phase work counts that the cluster model turns into
//! simulated time and power.

use crate::analysis::{Analysis, AnalysisKind, AnalysisWork, Snapshot};
use crate::engine::MdEngine;
use crate::thermo::ThermoRecord;

/// When an analysis runs, in Verlet steps (Table II varies these per
/// analysis while the rest stay at every step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisSchedule {
    /// Which analysis.
    pub kind: AnalysisKind,
    /// Run every `every` steps (must be a multiple of the sync interval to
    /// have any effect — analyses only see data at synchronizations).
    pub every: u64,
}

impl AnalysisSchedule {
    /// Run at every synchronization.
    pub fn every_sync(kind: AnalysisKind) -> Self {
        AnalysisSchedule { kind, every: 1 }
    }

    /// True if the analysis is due at `step`.
    pub(crate) fn due(&self, step: u64) -> bool {
        step.is_multiple_of(self.every.max(1))
    }
}

/// Per-step record of what the protocol did and how much work each side
/// performed.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    /// Verlet step index (1-based after the first advance).
    pub step: u64,
    /// Whether this step synchronized with the analysis partition.
    pub synced: bool,
    /// Atoms integrated (both half-kicks).
    pub atoms_integrated: u64,
    /// Force pairs evaluated.
    pub force_pairs: u64,
    /// Neighbor pairs stored (simulation partition; 0 when not rebuilt).
    pub sim_neighbor_pairs: u64,
    /// Neighbor pairs rebuilt on the analysis partition (step 5 happens on
    /// both sides; 0 on non-sync steps).
    pub analysis_neighbor_pairs: u64,
    /// Bytes shipped S→A in steps 2 and 4 (0 on non-sync steps).
    pub sync_bytes: u64,
    /// Work per analysis that ran at this step.
    pub analysis_work: Vec<(AnalysisKind, AnalysisWork)>,
    /// Thermo output record (step 8).
    pub thermo: ThermoRecord,
}

/// The coupled simulation + analysis driver.
pub struct SplitAnalysis {
    engine: MdEngine,
    analyses: Vec<(AnalysisSchedule, Analysis)>,
    /// Synchronization interval `j`.
    sync_every: u64,
    step: u64,
    /// Particle count verified at each sync (step 4 of the flow).
    verified_count: Option<usize>,
}

impl SplitAnalysis {
    /// Couple an engine with scheduled analyses; `sync_every` is the
    /// paper's `j`.
    pub fn new(engine: MdEngine, schedules: Vec<AnalysisSchedule>, sync_every: u64) -> Self {
        assert!(sync_every >= 1, "j must be at least 1");
        let analyses = schedules.into_iter().map(|s| (s, Analysis::new(s.kind))).collect();
        SplitAnalysis { engine, analyses, sync_every, step: 0, verified_count: None }
    }

    /// The underlying engine (read access).
    pub fn engine(&self) -> &MdEngine {
        &self.engine
    }

    /// Whether step `step` (1-based) synchronizes.
    pub(crate) fn is_sync_step(&self, step: u64) -> bool {
        step.is_multiple_of(self.sync_every)
    }

    /// Advance one Verlet step through the 8-step flow.
    pub fn advance(&mut self) -> StepRecord {
        let step = self.step + 1;
        let synced = self.is_sync_step(step);

        // 1. initial integration.
        let mut atoms_integrated = self.engine.initial_integrate();

        let (mut sync_bytes, mut sim_neighbor_pairs, mut analysis_neighbor_pairs) = (0, 0, 0);
        if synced {
            // 2. ship coordinates + velocities to A.
            let snap = Snapshot::of(&self.engine.system);
            sync_bytes += snap.wire_bytes();
            // 3. both partitions rebuild a subset of data structures —
            //    modeled as part of the neighbor work below.
            // 4. particle-count verification.
            let count = self.engine.system.len();
            sync_bytes += std::mem::size_of::<u64>() as u64;
            if let Some(prev) = self.verified_count {
                assert_eq!(prev, count, "particle count changed between syncs");
            }
            self.verified_count = Some(count);
            // 5. both partitions update neighbor lists.
            sim_neighbor_pairs = self.engine.force_neighbor_rebuild();
            // The analysis partition rebuilds its mirror structures over the
            // same particle data (charged the same pair count).
            analysis_neighbor_pairs = sim_neighbor_pairs;
        } else if let Some(pairs) = self.engine.update_neighbors() {
            // Off-sync steps rebuild only when the skin criterion fires.
            sim_neighbor_pairs = pairs;
        }

        // 6. force + final integration.
        let force_pairs = self.engine.force_and_final_integrate();
        atoms_integrated += self.engine.system.len() as u64;

        // 7. S invokes A.
        let mut analysis_work = Vec::new();
        if synced {
            let snap = Snapshot::of(&self.engine.system);
            for (sched, analysis) in &mut self.analyses {
                if sched.due(step) {
                    let work = analysis.observe(&snap);
                    analysis_work.push((sched.kind, work));
                }
            }
        }

        // 8. thermo output.
        self.engine.bump_step();
        self.step = step;
        StepRecord {
            step,
            synced,
            atoms_integrated,
            force_pairs,
            sim_neighbor_pairs,
            analysis_neighbor_pairs,
            sync_bytes,
            analysis_work,
            thermo: self.engine.thermo(),
        }
    }

    /// The first analysis scheduled as `kind`, to `match` on for its
    /// results (`Analysis::Rdf` for [`AnalysisKind::Rdf`], and so on);
    /// `None` if none was.
    pub fn analysis(&self, kind: AnalysisKind) -> Option<&Analysis> {
        self.analyses.iter().find(|(s, _)| s.kind == kind).map(|(_, a)| a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driver(j: u64) -> SplitAnalysis {
        let engine = MdEngine::water_ion_benchmark(1, 81);
        SplitAnalysis::new(
            engine,
            vec![
                AnalysisSchedule::every_sync(AnalysisKind::Rdf),
                AnalysisSchedule::every_sync(AnalysisKind::Vacf),
            ],
            j,
        )
    }

    #[test]
    fn syncs_every_step_when_j_is_one() {
        let mut d = driver(1);
        for _ in 0..3 {
            let rec = d.advance();
            assert!(rec.synced);
            assert!(rec.sync_bytes > 0);
            assert_eq!(rec.analysis_work.len(), 2);
        }
    }

    #[test]
    fn skips_sync_phases_between_js() {
        let mut d = driver(3);
        let r1 = d.advance();
        let r2 = d.advance();
        let r3 = d.advance();
        assert!(!r1.synced && !r2.synced && r3.synced);
        assert_eq!(r1.sync_bytes, 0);
        assert!(r1.analysis_work.is_empty());
        assert!(r3.sync_bytes > 0);
        assert_eq!(r3.analysis_work.len(), 2);
    }

    #[test]
    fn sync_bytes_cover_coords_velocities_and_count() {
        let mut d = driver(1);
        let rec = d.advance();
        let n = d.engine().system.len() as u64;
        assert_eq!(rec.sync_bytes, n * 48 + 8);
    }

    #[test]
    fn particle_count_verification_persists() {
        let mut d = driver(1);
        d.advance();
        assert_eq!(d.verified_count, Some(1568));
        d.advance();
        assert_eq!(d.verified_count, Some(1568));
    }

    #[test]
    fn mixed_intervals_gate_analyses() {
        let engine = MdEngine::water_ion_benchmark(1, 82);
        let mut d = SplitAnalysis::new(
            engine,
            vec![
                AnalysisSchedule::every_sync(AnalysisKind::Rdf),
                AnalysisSchedule { kind: AnalysisKind::MsdFull, every: 4 },
            ],
            1,
        );
        let mut msd_runs = 0;
        for _ in 0..8 {
            let rec = d.advance();
            assert!(rec.analysis_work.iter().any(|(k, _)| *k == AnalysisKind::Rdf));
            if rec.analysis_work.iter().any(|(k, _)| *k == AnalysisKind::MsdFull) {
                msd_runs += 1;
            }
        }
        assert_eq!(msd_runs, 2, "MSD due at steps 4 and 8");
    }

    #[test]
    fn analysis_state_is_queryable() {
        let mut d = driver(1);
        for _ in 0..3 {
            d.advance();
        }
        assert!(matches!(d.analysis(AnalysisKind::Rdf), Some(Analysis::Rdf(_))));
        assert!(d.analysis(AnalysisKind::Msd2d).is_none());
    }

    fn fnv(h: &mut u64, x: u64) {
        for b in x.to_le_bytes() {
            *h = (*h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Every analysis at every step (j = 1), in and out of cache: 110
    /// steps at 1 568 atoms wrap the full MSD's origin ring (20 origins
    /// × 5 frames), 12 steps at 12 544 atoms run the benchmark's large
    /// RDF. One FNV-1a digest over each step's work counts and every
    /// analysis's final result bits.
    #[test]
    fn analysis_partition_is_pinned_bit_for_bit() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (dim, steps) in [(1usize, 110), (2, 12)] {
            let engine = MdEngine::water_ion_benchmark(dim, 42);
            let schedules = AnalysisKind::ALL.map(AnalysisSchedule::every_sync).to_vec();
            let mut d = SplitAnalysis::new(engine, schedules, 1);
            for _ in 0..steps {
                for (kind, work) in d.advance().analysis_work {
                    fnv(&mut h, kind as u64);
                    fnv(&mut h, work.ops);
                }
            }
            let analysis = |kind| d.analysis(kind).expect("scheduled");
            let Analysis::Rdf(rdf) = analysis(AnalysisKind::Rdf) else { panic!("rdf") };
            rdf.g_hydronium().iter().for_each(|g| fnv(&mut h, g.to_bits()));
            rdf.histograms().iter().flat_map(|hist| hist.iter()).for_each(|&c| fnv(&mut h, c));
            for kind in [AnalysisKind::MsdFull, AnalysisKind::Msd1d, AnalysisKind::Msd2d] {
                let Analysis::Msd(msd) = analysis(kind) else { panic!("msd") };
                msd.binned().iter().for_each(|v| fnv(&mut h, v.to_bits()));
                fnv(&mut h, msd.overall().to_bits());
            }
            let Analysis::Vacf(vacf) = analysis(AnalysisKind::Vacf) else { panic!("vacf") };
            for &(lag, c) in vacf.series() {
                fnv(&mut h, lag);
                fnv(&mut h, c.to_bits());
            }
        }
        assert_eq!(h, 0x801e_e702_0e60_4a6f, "analysis partition digest");
    }

    #[test]
    fn both_partitions_rebuild_at_sync() {
        let mut d = driver(2);
        let r1 = d.advance();
        let r2 = d.advance();
        assert_eq!(r1.analysis_neighbor_pairs, 0);
        assert!(r2.analysis_neighbor_pairs > 0);
        assert_eq!(r2.analysis_neighbor_pairs, r2.sim_neighbor_pairs);
    }
}
