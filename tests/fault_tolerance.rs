//! Fault-tolerance integration: injected faults must degrade the stack
//! gracefully — no panics, every fault answered by a recovery action, and
//! SeeSAw still beating the static baseline on the survivors.

use insitu::{
    improvement_pct, run_job, run_job_traced, FaultEvent, FaultIntensity, FaultKind, FaultPlan,
    JobConfig, RecoveryKind,
};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind as K;

fn quick_cfg(controller: &str) -> JobConfig {
    let mut spec = WorkloadSpec::paper(16, 8, 1, &[K::Vacf]);
    spec.total_steps = 30;
    JobConfig::new(spec, controller)
}

#[test]
fn mid_run_node_crash_neither_panics_nor_stops_seesaw_winning() {
    // Node 6 is an analysis node (nodes 0–3 simulate, 4–7 analyze); it
    // dies at sync 10 of 30. Both runs see the same crash.
    let plan =
        FaultPlan::from_events(vec![FaultEvent { sync: 10, node: 6, kind: FaultKind::NodeCrash }]);
    let cfg = quick_cfg("seesaw").with_faults(plan);
    let ctl = run_job(cfg.clone()).expect("known controller");

    // The run completes every interval on the survivors.
    assert_eq!(ctl.syncs.len(), 30, "crash must not end the run");
    assert!(ctl.fault_events.iter().any(|e| e.node == 6 && e.kind == FaultKind::NodeCrash));
    assert!(ctl.recovery_count(RecoveryKind::NodeExcluded) == 1);
    assert!(ctl.recovery_count(RecoveryKind::BudgetRenormalized) == 1);
    // Caps stay inside hardware limits throughout.
    for s in &ctl.syncs {
        assert!((98.0..=215.0).contains(&s.sim_cap_w), "{}", s.sim_cap_w);
        assert!((98.0..=215.0).contains(&s.analysis_cap_w), "{}", s.analysis_cap_w);
    }

    let mut base_cfg = cfg;
    base_cfg.controller = "static".to_string();
    base_cfg.seed.run += 1;
    let base = run_job(base_cfg).expect("known controller");
    let imp = improvement_pct(base.total_time_s, ctl.total_time_s);
    assert!(imp > 0.0, "SeeSAw must still beat static on the survivors, got {imp}%");
}

#[test]
fn fault_storm_completes_and_logs_recoveries() {
    let nodes = 8;
    let syncs = 30;
    let plan = FaultPlan::generate(0x0BAD_5EED, &FaultIntensity::scaled(1.0), nodes, syncs);
    assert!(!plan.is_empty());
    let cfg = quick_cfg("seesaw").with_faults(plan);
    let r = run_job(cfg).expect("known controller");
    assert!(!r.syncs.is_empty());
    assert!(r.fault_tags().len() >= 3, "mixed storm expected, got {:?}", r.fault_tags());
    assert!(!r.recovery_events.is_empty(), "recoveries must be logged");
    assert!(r.total_time_s > 0.0 && r.total_energy_j > 0.0);
}

#[test]
fn faulty_runs_are_deterministic() {
    let plan = FaultPlan::generate(7, &FaultIntensity::scaled(0.6), 8, 30);
    let cfg = quick_cfg("seesaw").with_faults(plan);
    let a = run_job(cfg.clone()).expect("known controller");
    let b = run_job(cfg).expect("known controller");
    assert_eq!(a.total_time_s, b.total_time_s);
    assert_eq!(a.total_energy_j, b.total_energy_j);
    assert_eq!(a.fault_events, b.fault_events);
    assert_eq!(a.recovery_events, b.recovery_events);
}

#[test]
fn empty_plan_is_byte_identical_to_no_plan() {
    let bare = run_job(quick_cfg("seesaw")).expect("known controller");
    let with_empty =
        run_job(quick_cfg("seesaw").with_faults(FaultPlan::none())).expect("known controller");
    assert_eq!(bare.total_time_s, with_empty.total_time_s);
    assert_eq!(bare.total_energy_j, with_empty.total_energy_j);
    assert!(bare.fault_events.is_empty() && bare.recovery_events.is_empty());
}

#[test]
fn losing_a_whole_partition_ends_the_run_gracefully() {
    // All four analysis nodes die at sync 5: nothing left to couple with.
    let events =
        (4..8).map(|node| FaultEvent { sync: 5, node, kind: FaultKind::NodeCrash }).collect();
    let cfg = quick_cfg("seesaw").with_faults(FaultPlan::from_events(events));
    let r = run_job(cfg).expect("known controller");
    assert_eq!(r.syncs.len(), 5, "run ends at the sync the partition vanished");
    assert_eq!(r.recovery_count(RecoveryKind::NodeExcluded), 4);
    assert!(r.total_time_s > 0.0);
}

#[test]
fn abandoned_exchange_holds_the_caps_until_the_next_healthy_sync() {
    // Every collective attempt at sync 5 times out, one more than the
    // retry budget: the exchange is abandoned and nobody's cap moves.
    let k = 5;
    let failures = polimer::MAX_COLLECTIVE_RETRIES + 1;
    let kind = FaultKind::CollectiveTimeout { failures };
    let plan = FaultPlan::from_events(vec![FaultEvent { sync: k, node: 0, kind }]);
    let tracer = obs::Tracer::enabled();
    let r =
        run_job_traced(quick_cfg("seesaw").with_faults(plan), &tracer).expect("known controller");
    let held: Vec<u64> = r
        .recovery_events
        .iter()
        .filter(|e| e.kind == RecoveryKind::AllocationHeld)
        .map(|e| e.sync)
        .collect();
    assert_eq!(held, [k]);
    let (at_k, next) = (&r.syncs[k as usize], &r.syncs[k as usize + 1]);
    assert_eq!(next.sim_cap_w.to_bits(), at_k.sim_cap_w.to_bits());
    assert_eq!(next.analysis_cap_w.to_bits(), at_k.analysis_cap_w.to_bits());
    // Seesaw decides at every sync but step 0 (w = 1); only sync k holds.
    let decided: Vec<(u64, bool)> = tracer
        .events()
        .into_iter()
        .filter_map(|e| match e.ev {
            obs::Event::ExchangeDone { sync, decided, .. } => Some((sync, decided)),
            _ => None,
        })
        .collect();
    assert_eq!(decided.len(), r.syncs.len());
    for (sync, decided) in decided {
        assert_eq!(decided, sync != 0 && sync != k, "sync {sync}");
    }
}

#[test]
fn corrupt_samples_hold_allocations_instead_of_poisoning_them() {
    // Every node's sample is NaN at sync 3 and spikes at sync 4; the
    // controller must hold rather than emit wild caps.
    let mut events = Vec::new();
    for node in 0..8 {
        events.push(FaultEvent { sync: 3, node, kind: FaultKind::SampleNan });
        events.push(FaultEvent { sync: 4, node, kind: FaultKind::SampleSpike { factor: 50.0 } });
    }
    let cfg = quick_cfg("seesaw").with_faults(FaultPlan::from_events(events));
    let r = run_job(cfg).expect("known controller");
    assert_eq!(r.syncs.len(), 30);
    assert!(r.recovery_count(RecoveryKind::SampleRejected) >= 16);
    for s in &r.syncs {
        assert!(s.sim_cap_w.is_finite() && (98.0..=215.0).contains(&s.sim_cap_w));
        assert!(s.analysis_cap_w.is_finite() && (98.0..=215.0).contains(&s.analysis_cap_w));
    }
}
