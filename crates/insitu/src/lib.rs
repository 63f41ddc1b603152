//! # insitu — the coupled SeeSAw experiment runtime
//!
//! Wires every substrate together: the mini-LAMMPS workload (`mdsim`)
//! produces per-node phases, the Theta model (`theta-sim`) executes them
//! under RAPL caps, PoLiMER (`polimer`) gathers time/power feedback at each
//! synchronization and invokes a controller (`seesaw`), and the results
//! come back as per-sync records, traces and totals.
//!
//! ```
//! use insitu::{JobConfig, run_job};
//! use mdsim::workload::WorkloadSpec;
//! use mdsim::AnalysisKind;
//!
//! let mut spec = WorkloadSpec::paper(16, 8, 1, &[AnalysisKind::Vacf]);
//! spec.total_steps = 20; // keep the doctest quick
//! let result = run_job(JobConfig::new(spec, "seesaw")).expect("known controller");
//! assert_eq!(result.syncs.len(), 20);
//! assert!(result.total_time_s > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod colocated;
mod config;
mod result;
mod runtime;
mod timeshared;

pub use colocated::run_colocated;
pub use config::JobConfig;
pub use result::{improvement_pct, median, variability_pct, RunResult, SyncRecord};
pub use runtime::{build_controller, run_job, run_job_traced, Runtime};
pub use timeshared::run_time_shared;

// Re-export the fault model so experiment drivers and tests can build
// plans without depending on the `faults` crate directly.
pub use faults::{FaultEvent, FaultIntensity, FaultKind, FaultPlan, RecoveryEvent, RecoveryKind};

#[cfg(test)]
mod randomized {
    use super::*;
    use des::Rng;
    use mdsim::workload::WorkloadSpec;
    use mdsim::AnalysisKind;

    fn pick_kinds(rng: &mut Rng) -> Vec<AnalysisKind> {
        let all = AnalysisKind::ALL;
        let n = 1 + rng.next_below(3) as usize;
        let start = rng.next_below(all.len() as u64) as usize;
        (0..n).map(|i| all[(start + i) % all.len()]).collect()
    }

    /// For any small configuration, the runtime completes, the clock is
    /// monotone, caps respect hardware limits, and the budget holds.
    #[test]
    fn runtime_invariants() {
        let mut rng = Rng::seed_from_u64(0x0017_5101);
        let controllers = ["seesaw", "time-aware", "power-aware", "static"];
        for case in 0..12 {
            let kinds = pick_kinds(&mut rng);
            let dim = 8 + rng.next_below(16) as u32;
            let j = 1 + rng.next_below(3);
            let ctl = controllers[case % controllers.len()];
            let seed = rng.next_below(1000);
            let mut spec = WorkloadSpec::paper(dim, 8, j, &kinds);
            spec.total_steps = 12 * j;
            let cfg = JobConfig::new(spec, ctl).with_seed(seed, 0);
            let budget = cfg.budget_w();
            let r = run_job(cfg).expect("known controller");
            assert_eq!(r.syncs.len(), 12);
            let mut last_end = 0.0;
            for s in &r.syncs {
                assert!(s.start_s >= last_end - 1e-9, "clock must be monotone");
                assert!(s.end_s >= s.start_s);
                last_end = s.end_s;
                assert!((98.0..=215.0).contains(&s.sim_cap_w), "sim cap {}", s.sim_cap_w);
                assert!((98.0..=215.0).contains(&s.analysis_cap_w));
                let total = 4.0 * (s.sim_cap_w + s.analysis_cap_w);
                assert!(total <= budget + 1.0, "budget violated: {total}");
                assert!((0.0..=1.0).contains(&s.slack));
            }
            assert!(r.total_energy_j > 0.0);
            assert!(r.total_time_s > 0.0);
        }
    }

    /// Same seed, same result — across every controller.
    #[test]
    fn determinism_for_every_controller() {
        let mut rng = Rng::seed_from_u64(0x0017_5102);
        for ctl in seesaw::CONTROLLER_NAMES {
            let seed = rng.next_below(100);
            let mut spec = WorkloadSpec::paper(16, 8, 1, &[AnalysisKind::Rdf]);
            spec.total_steps = 8;
            let cfg = JobConfig::new(spec, ctl).with_seed(seed, 3);
            let a = run_job(cfg.clone()).expect("known controller");
            let b = run_job(cfg).expect("known controller");
            assert_eq!(a.total_time_s, b.total_time_s);
            assert_eq!(a.total_energy_j, b.total_energy_j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::workload::WorkloadSpec;
    use mdsim::AnalysisKind;

    fn quick_spec(kinds: &[AnalysisKind]) -> WorkloadSpec {
        let mut spec = WorkloadSpec::paper(16, 8, 1, kinds);
        spec.total_steps = 30;
        spec
    }

    /// Improvement of `cfg`'s run over its paired static baseline.
    fn improvement_over_baseline(cfg: &JobConfig) -> f64 {
        let base = run_job(cfg.static_baseline()).expect("static is a known controller");
        let run = run_job(cfg.clone()).expect("known controller");
        improvement_pct(base.total_time_s, run.total_time_s)
    }

    #[test]
    fn unknown_controller_surfaces_as_typed_error() {
        let cfg = JobConfig::new(quick_spec(&[AnalysisKind::Vacf]), "bogus");
        let err = run_job(cfg).expect_err("bogus controller must be rejected");
        assert_eq!(err.name, "bogus");
        assert!(err.to_string().contains("seesaw"), "error lists valid names: {err}");
    }

    #[test]
    fn static_run_is_deterministic_modulo_seed() {
        let cfg = JobConfig::new(quick_spec(&[AnalysisKind::Vacf]), "static");
        let a = run_job(cfg.clone()).expect("known controller");
        let b = run_job(cfg).expect("known controller");
        assert_eq!(a.total_time_s, b.total_time_s);
    }

    #[test]
    fn budget_respected_by_all_controllers() {
        for ctl in ["static", "seesaw", "time-aware", "power-aware"] {
            let cfg = JobConfig::new(quick_spec(&[AnalysisKind::MsdFull]), ctl);
            let budget = cfg.budget_w();
            let r = run_job(cfg).expect("known controller");
            for s in &r.syncs {
                let total = s.sim_cap_w * 4.0 + s.analysis_cap_w * 4.0;
                assert!(
                    total <= budget + 1.0,
                    "{ctl}: sync {} caps total {} > budget {}",
                    s.index,
                    total,
                    budget
                );
            }
        }
    }

    #[test]
    fn seesaw_reduces_slack_on_msd() {
        let cfg = JobConfig::new(quick_spec(&[AnalysisKind::MsdFull]), "seesaw");
        let r = run_job(cfg).expect("known controller");
        // After settling (paper: within ~20 steps) slack is small.
        let late = r.mean_slack_from(20);
        assert!(late < 0.15, "late slack {late}");
    }

    #[test]
    fn seesaw_beats_static_on_low_demand_analysis() {
        let cfg = JobConfig::new(quick_spec(&[AnalysisKind::Vacf]), "seesaw");
        let imp = improvement_over_baseline(&cfg);
        assert!(imp > 2.0, "seesaw should beat static on VACF, got {imp}%");
    }

    #[test]
    fn power_aware_never_helps_much() {
        let cfg = JobConfig::new(quick_spec(&[AnalysisKind::MsdFull]), "power-aware");
        let imp = improvement_over_baseline(&cfg);
        assert!(imp < 5.0, "power-aware should not outperform, got {imp}%");
    }

    #[test]
    fn waiting_partition_draws_idle_power() {
        // With VACF the analysis is much faster; its measured power should
        // sit near the wait level once averaged over the whole interval —
        // but the recorded active-window power stays near the cap.
        let cfg = JobConfig::new(quick_spec(&[AnalysisKind::Vacf]), "static");
        let r = run_job(cfg).expect("known controller");
        let s = &r.syncs[5];
        assert!(s.analysis_time_s < s.sim_time_s, "VACF should be the fast side");
        assert!(s.analysis_power_w > 100.0, "active-window power near cap");
    }

    #[test]
    fn overhead_recorded_every_sync() {
        let cfg = JobConfig::new(quick_spec(&[AnalysisKind::Rdf]), "seesaw");
        let r = run_job(cfg).expect("known controller");
        assert!(r.syncs.iter().all(|s| s.overhead_s > 0.0));
        assert!(r.total_overhead_s() < 0.05 * r.total_time_s, "overhead must be small");
    }

    #[test]
    fn traces_cover_the_run() {
        let mut cfg = JobConfig::new(quick_spec(&[AnalysisKind::Vacf]), "static").with_traces();
        cfg.workload.total_steps = 10;
        let r = run_job(cfg).expect("known controller");
        let sim = r.sim_trace.expect("trace recorded");
        assert!(!sim.is_empty());
        let (last_t, _) = sim.last().unwrap();
        assert!(last_t.as_secs_f64() <= r.total_time_s);
    }

    #[test]
    fn energy_is_consistent_with_power_times_time() {
        let cfg = JobConfig::new(quick_spec(&[AnalysisKind::Vacf]), "static");
        let r = run_job(cfg).expect("known controller");
        // 8 nodes bounded by [wait floor, TDP] average power.
        let avg_power = r.total_energy_j / r.total_time_s;
        assert!(avg_power > 8.0 * 90.0, "{avg_power}");
        assert!(avg_power < 8.0 * 215.0, "{avg_power}");
    }

    #[test]
    fn unbalanced_start_is_applied() {
        let cfg = JobConfig::new(quick_spec(&[AnalysisKind::Vacf]), "static")
            .with_initial_caps(120.0, 100.0);
        let r = run_job(cfg).expect("known controller");
        let s = &r.syncs[0];
        assert!((s.sim_cap_w - 120.0).abs() < 1e-9);
        assert!((s.analysis_cap_w - 100.0).abs() < 1e-9);
    }

    #[test]
    fn j_greater_than_one_reduces_sync_count() {
        let mut spec = quick_spec(&[AnalysisKind::Rdf]);
        spec.sync_every = 5;
        let cfg = JobConfig::new(spec, "static");
        let r = run_job(cfg).expect("known controller");
        assert_eq!(r.syncs.len(), 6);
    }
}
