//! End-to-end integration tests asserting the SeeSAw paper's qualitative
//! claims on the full coupled stack (workload → cluster → PoLiMER →
//! controller). Sizes are reduced from the paper's 400 steps to keep debug
//! CI fast; every assertion is a *shape* claim, not an absolute number.

mod common;

use common::improvement_over_baseline;
use insitu::{improvement_pct, run_job, JobConfig};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind as K;

fn spec(dim: u32, nodes: usize, steps: u64, kinds: &[K]) -> WorkloadSpec {
    let mut s = WorkloadSpec::paper(dim, nodes, 1, kinds);
    s.total_steps = steps;
    s
}

/// §VII headline: SeeSAw improves over the static baseline on every
/// evaluated workload.
#[test]
fn seesaw_always_improves() {
    for (dim, kinds) in [
        (36, vec![K::Rdf]),
        (36, vec![K::Vacf]),
        (16, vec![K::MsdFull]),
        (36, vec![K::Rdf, K::Msd1d, K::Msd2d, K::Vacf]),
    ] {
        let cfg = JobConfig::new(spec(dim, 32, 80, &kinds), "seesaw");
        let imp = improvement_over_baseline(&cfg);
        assert!(imp > 0.0, "{kinds:?}: SeeSAw regressed ({imp:.2} %)");
    }
}

/// §VII headline: the strictly power-aware approach never meaningfully
/// improves and usually slows LAMMPS down.
#[test]
fn power_aware_never_wins() {
    for (dim, kinds) in [(36, vec![K::Vacf]), (16, vec![K::MsdFull])] {
        let cfg = JobConfig::new(spec(dim, 32, 80, &kinds), "power-aware");
        let imp = improvement_over_baseline(&cfg);
        assert!(imp < 3.0, "{kinds:?}: power-aware won ({imp:.2} %)?");
    }
}

/// §VII-B1: with the high-demand full MSD, SeeSAw beats the time-aware
/// approach, which reads the setup transient and moves power the wrong way.
#[test]
fn seesaw_beats_time_aware_on_full_msd() {
    let s = spec(16, 64, 100, &[K::MsdFull]);
    let see = improvement_over_baseline(&JobConfig::new(s.clone(), "seesaw"));
    let ta = improvement_over_baseline(&JobConfig::new(s, "time-aware"));
    assert!(see > ta, "seesaw {see:.2} % must beat time-aware {ta:.2} %");
    assert!(ta < 1.0, "time-aware should not profit from MSD, got {ta:.2} %");
}

/// §VII-B1: SeeSAw settles within ~20 synchronizations and drives the
/// normalized slack to a few percent; it allocates the analysis *more*
/// power even though the baseline times look nearly identical.
#[test]
fn seesaw_settles_and_gives_msd_analysis_more_power() {
    let r = run_job(JobConfig::new(spec(16, 64, 60, &[K::MsdFull]), "seesaw"))
        .expect("known controller");
    assert!(r.mean_slack_from(20) < 0.1, "late slack {:.3}", r.mean_slack_from(20));
    let last = r.syncs.last().unwrap();
    assert!(
        last.analysis_cap_w > last.sim_cap_w,
        "analysis should end with more power: S {} / A {}",
        last.sim_cap_w,
        last.analysis_cap_w
    );
}

/// §VII-B1: the simulation cannot use a generous cap at dim 16 — its
/// measured power stays near ~105 W regardless (demand-limited).
#[test]
fn simulation_cannot_use_extra_power_at_small_scale() {
    let cfg =
        JobConfig::new(spec(16, 32, 40, &[K::MsdFull]), "static").with_initial_caps(130.0, 90.0);
    let r = run_job(cfg).expect("known controller");
    let s = &r.syncs[10];
    assert!(
        s.sim_power_w < 112.0,
        "sim should be demand-limited near ~105 W, drew {:.1} W under a 130 W cap",
        s.sim_power_w
    );
}

/// §VII-C3 (Fig. 7): both unbalanced starting distributions are recovered,
/// and recovering a bad start is worth more than refining the equal one.
#[test]
fn unbalanced_starts_are_recovered() {
    let kinds = [K::Rdf, K::Msd1d, K::Msd2d, K::Vacf];
    let run_case = |s0: f64, a0: f64| -> f64 {
        let base = run_job(
            JobConfig::new(spec(36, 32, 80, &kinds), "static")
                .with_window(2)
                .with_initial_caps(s0, a0)
                .with_seed(9, 0),
        )
        .expect("known controller");
        let ctl = run_job(
            JobConfig::new(spec(36, 32, 80, &kinds), "seesaw")
                .with_window(2)
                .with_initial_caps(s0, a0)
                .with_seed(9, 1),
        )
        .expect("known controller");
        improvement_pct(base.total_time_s, ctl.total_time_s)
    };
    let sim_more = run_case(120.0, 100.0);
    let ana_more = run_case(100.0, 120.0);
    let equal = run_case(110.0, 110.0);
    assert!(sim_more > equal, "sim-heavy start: {sim_more:.2} !> {equal:.2}");
    assert!(ana_more > equal, "analysis-heavy start: {ana_more:.2} !> {equal:.2}");
    assert!(equal > -1.0, "equal start must not regress: {equal:.2}");
}

/// §VII-D (Fig. 8): no headroom at δ_min, diminishing returns above the
/// saturation power; the sweet spot is in between.
#[test]
fn improvement_peaks_at_tight_but_feasible_budgets() {
    let kinds = [K::MsdFull, K::Rdf, K::Msd1d, K::Msd2d, K::Vacf];
    let imp_at = |cap: f64| {
        improvement_over_baseline(
            &JobConfig::new(spec(16, 32, 60, &kinds), "seesaw").with_budget(cap),
        )
    };
    let at_min = imp_at(98.0);
    let at_sweet = imp_at(112.0);
    let at_loose = imp_at(150.0);
    assert!(at_sweet > at_min, "sweet {at_sweet:.2} !> δ_min {at_min:.2}");
    assert!(at_sweet > at_loose, "sweet {at_sweet:.2} !> loose {at_loose:.2}");
    assert!(at_min.abs() < 4.0, "no room to shift at δ_min: {at_min:.2}");
}

/// §VII-E (Fig. 9): allocation overhead is a negligible fraction of each
/// interval and grows (absolutely) with node count.
#[test]
fn overhead_small_and_scaling() {
    let small =
        run_job(JobConfig::new(spec(48, 32, 30, &[K::Vacf]), "seesaw")).expect("known controller");
    let big =
        run_job(JobConfig::new(spec(48, 256, 30, &[K::Vacf]), "seesaw")).expect("known controller");
    let mean = |r: &insitu::RunResult| {
        r.syncs.iter().map(|s| s.overhead_s).sum::<f64>() / r.syncs.len() as f64
    };
    assert!(mean(&big) > mean(&small), "overhead must grow with scale");
    assert!(small.total_overhead_s() < 0.01 * small.total_time_s, "overhead must be negligible");
}

/// §VII-C1 (Fig. 6): with infrequent synchronization (large j) there are
/// fewer chances to correct the distribution, so the improvement drops
/// relative to frequent syncs for the same workload.
#[test]
fn infrequent_syncs_cap_the_benefit() {
    let kinds = [K::Rdf, K::Msd1d, K::Msd2d, K::Vacf];
    let imp_j = |j: u64| {
        let mut s = WorkloadSpec::paper(36, 32, j, &kinds);
        s.total_steps = 120;
        improvement_over_baseline(&JobConfig::new(s, "seesaw"))
    };
    let frequent = imp_j(1);
    let rare = imp_j(40);
    assert!(
        frequent > rare - 1.5,
        "frequent syncs ({frequent:.2}) should not lose badly to rare ({rare:.2})"
    );
}

/// Determinism: identical configuration and seed give identical results
/// across the entire stack.
#[test]
fn full_stack_determinism() {
    let cfg = JobConfig::new(spec(16, 16, 30, &[K::MsdFull]), "seesaw").with_seed(3, 4);
    let a = run_job(cfg.clone()).expect("known controller");
    let b = run_job(cfg).expect("known controller");
    assert_eq!(a.total_time_s, b.total_time_s);
    assert_eq!(a.total_energy_j, b.total_energy_j);
    for (x, y) in a.syncs.iter().zip(&b.syncs) {
        assert_eq!(x.sim_cap_w, y.sim_cap_w);
        assert_eq!(x.slack, y.slack);
    }
}
