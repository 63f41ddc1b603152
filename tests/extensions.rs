//! Integration tests for the §VIII future-work extensions and the §III
//! alternative execution modes, run through the full coupled stack.

mod common;

use common::improvement_over_baseline;
use insitu::{improvement_pct, run_colocated, run_job, run_time_shared, JobConfig};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind as K;

fn spec(dim: u32, nodes: usize, steps: u64, kinds: &[K]) -> WorkloadSpec {
    let mut s = WorkloadSpec::paper(dim, nodes, 1, kinds);
    s.total_steps = steps;
    s
}

/// The hierarchical controller must match plain SeeSAw within noise on a
/// homogeneous-ish cluster and never violate per-node limits.
#[test]
fn hierarchical_matches_or_beats_plain_seesaw() {
    let s = spec(36, 32, 80, &[K::Vacf]);
    let plain = improvement_over_baseline(&JobConfig::new(s.clone(), "seesaw"));
    let hier = improvement_over_baseline(&JobConfig::new(s, "hierarchical-seesaw"));
    assert!(
        hier > plain - 2.0,
        "hierarchical should not regress: plain {plain:.2} %, hierarchical {hier:.2} %"
    );
}

/// Time-shared execution eliminates synchronization slack entirely, so for
/// a slack-dominated workload it beats even controlled space-sharing.
#[test]
fn time_shared_wins_on_slack_dominated_workloads() {
    let s = spec(36, 16, 60, &[K::Vacf]);
    let base = run_job(JobConfig::new(s.clone(), "static")).expect("known controller");
    let see =
        run_job(JobConfig::new(s.clone(), "seesaw").with_seed(1, 1)).expect("known controller");
    let ts = run_time_shared(JobConfig::new(s, "static").with_seed(1, 2));
    let imp_see = improvement_pct(base.total_time_s, see.total_time_s);
    let imp_ts = improvement_pct(base.total_time_s, ts.total_time_s);
    assert!(imp_ts > imp_see, "time-shared {imp_ts:.2} % !> seesaw {imp_see:.2} %");
}

/// Co-located execution keeps the global budget and its per-domain caps
/// within the scaled hardware range, end to end.
#[test]
fn colocated_budget_and_limits_hold_end_to_end() {
    for ctl in ["seesaw", "time-aware", "static"] {
        let cfg = JobConfig::new(spec(16, 16, 40, &[K::MsdFull]), ctl);
        let budget = cfg.budget_w();
        let r = run_colocated(cfg).expect("known controller");
        for s in &r.syncs {
            let total = 16.0 * (s.sim_cap_w + s.analysis_cap_w);
            assert!(total <= budget + 1.0, "{ctl}: {total} > {budget}");
            assert!((49.0..=107.5).contains(&s.sim_cap_w), "{ctl}: {}", s.sim_cap_w);
        }
    }
}

/// Every controller completes a mixed-interval workload (Table II's
/// hardest configuration) without panicking or violating the budget.
#[test]
fn all_controllers_survive_mixed_intervals() {
    use mdsim::AnalysisSchedule;
    for ctl in seesaw::CONTROLLER_NAMES {
        let mut s = spec(16, 16, 48, &[]);
        s.analyses = vec![
            AnalysisSchedule::every_sync(K::Rdf),
            AnalysisSchedule { kind: K::MsdFull, every: 4 },
            AnalysisSchedule { kind: K::Vacf, every: 3 },
        ];
        let cfg = JobConfig::new(s, ctl);
        let budget = cfg.budget_w();
        let r = run_job(cfg).expect("known controller");
        assert_eq!(r.syncs.len(), 48, "{ctl}");
        for rec in &r.syncs {
            let total = 8.0 * (rec.sim_cap_w + rec.analysis_cap_w);
            assert!(total <= budget + 1.0, "{ctl}: budget violated");
        }
    }
}
