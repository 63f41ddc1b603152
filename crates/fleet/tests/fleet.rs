//! End-to-end fleet federation tests: machine loss, checkpoint-resume,
//! retry/backoff properties, and chaos soaks audited against the
//! `AUDIT0010` fleet battery.

use faults::{MachineFault, MachineFaultIntensity, MachineFaultKind, MachineFaultPlan};
use fleet::{Fleet, FleetSpec, JobStream, RetryPolicy};
use insitu::JobConfig;
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind as K;
use obs::{Event, TraceEvent};
use sched::{MachineSpec, Policy};

/// A 4-node job of `steps` Verlet steps, one sync per step.
fn job(seed: u64, steps: u64) -> JobConfig {
    let mut spec = WorkloadSpec::paper(16, 4, 1, &[K::Vacf]);
    spec.total_steps = steps;
    JobConfig::new(spec, "seesaw").with_seed(seed, 0)
}

/// `machines` 8-node members under a shared fleet envelope.
fn fleet_spec(machines: usize) -> FleetSpec {
    let members = (0..machines)
        .map(|_| {
            let mut s = MachineSpec::new(8, 1100.0, Policy::EnergyFeedback);
            s.syncs_per_epoch = 4;
            s
        })
        .collect();
    let mut spec = FleetSpec::new(members, 1800.0);
    spec.max_epochs = 200;
    spec
}

/// Run a fleet with tracing on; return the result, the traced events, and
/// the raw JSONL bytes.
fn run_traced(
    spec: FleetSpec,
    stream: JobStream,
    plan: MachineFaultPlan,
) -> (fleet::FleetResult, Vec<TraceEvent>, String) {
    let tracer = obs::Tracer::enabled();
    let mut f = Fleet::new(spec, stream, plan).expect("known controllers");
    f.set_tracer(&tracer);
    let result = f.run();
    let trace = tracer.events();
    let jsonl = tracer.to_jsonl();
    (result, trace, jsonl)
}

fn count(trace: &[TraceEvent], pred: impl Fn(&Event) -> bool) -> usize {
    trace.iter().filter(|e| pred(&e.ev)).count()
}

/// The audit battery's findings over the traced events.
fn violations(trace: &[TraceEvent]) -> Vec<audit::Violation> {
    let mut auditor = audit::StreamAuditor::new();
    trace.iter().for_each(|e| auditor.feed(e));
    auditor.finish().report.violations
}

#[test]
fn crash_migrates_checkpointed_job_to_survivor() {
    let plan = MachineFaultPlan::from_events(vec![MachineFault {
        epoch: 2,
        machine: 0,
        kind: MachineFaultKind::Crash,
    }]);
    let stream = JobStream::at_start(vec![job(11, 24)]);
    let (result, trace, _) = run_traced(fleet_spec(2), stream, plan);

    assert_eq!(result.completed(), 1, "{result:?}");
    let o = &result.outcomes[0];
    // Checkpoint-resume preserved the total work: syncs banked on the
    // dead machine plus syncs on the survivor tile the full job.
    assert_eq!(o.syncs_done, o.syncs_target);
    assert_eq!(o.dispatches, 2);
    assert_eq!(result.retries, 1);
    assert_eq!(result.migrations, 1);
    assert_eq!(result.machines_down, 1);
    assert!(result.mean_recovery_epochs > 0.0);
    assert!((result.goodput() - 1.0).abs() < 1e-12);

    assert_eq!(count(&trace, |k| matches!(k, Event::MachineDown { machine: 0, .. })), 1);
    assert_eq!(
        count(&trace, |k| matches!(k, Event::JobMigrated { from_machine: 0, to_machine: 1, .. })),
        1
    );
    // Losing a member renormalizes the envelope (initial division plus
    // the post-loss division).
    assert!(count(&trace, |k| matches!(k, Event::EnvelopeRenorm { .. })) >= 3);

    assert_eq!(violations(&trace), Vec::new());
}

#[test]
fn partition_heals_and_machine_rejoins() {
    let plan = MachineFaultPlan::from_events(vec![MachineFault {
        epoch: 1,
        machine: 1,
        kind: MachineFaultKind::Partition { epochs: 4 },
    }]);
    let stream = JobStream::at_start(vec![job(21, 24), job(22, 24)]);
    let (result, trace, _) = run_traced(fleet_spec(2), stream, plan);

    assert_eq!(result.completed(), 2, "{result:?}");
    assert_eq!(result.machines_down, 0, "healed member must rejoin");
    assert_eq!(count(&trace, |k| matches!(k, Event::MachineDown { machine: 1, .. })), 1);
    assert_eq!(count(&trace, |k| matches!(k, Event::MachineUp { machine: 1, .. })), 1);

    assert_eq!(violations(&trace), Vec::new());
}

#[test]
fn slow_machine_dilates_the_fleet_clock_but_loses_nothing() {
    let slow = MachineFaultPlan::from_events(vec![MachineFault {
        epoch: 0,
        machine: 0,
        kind: MachineFaultKind::Slow { factor: 3.0, epochs: 4 },
    }]);
    let jobs = || JobStream::at_start(vec![job(31, 24), job(32, 24)]);
    let (slowed, trace, _) = run_traced(fleet_spec(2), jobs(), slow);
    let (clean, _, _) = run_traced(fleet_spec(2), jobs(), MachineFaultPlan::none());

    assert_eq!(slowed.completed(), 2);
    assert_eq!(slowed.retries, 0, "slow is degradation, not loss");
    assert!(
        slowed.makespan_s > clean.makespan_s,
        "dilated member must stretch the fleet makespan ({} vs {})",
        slowed.makespan_s,
        clean.makespan_s
    );
    assert_eq!(count(&trace, |k| matches!(k, Event::MachineDown { .. })), 0);

    assert_eq!(violations(&trace), Vec::new());
}

#[test]
fn exhausted_retry_budget_fails_exactly_once_with_no_zombie_resubmits() {
    // Both members crash, so every retry is futile: the job must be
    // reported failed exactly once, with attempts == dispatches, and
    // never dispatched after that.
    let plan = MachineFaultPlan::from_events(vec![
        MachineFault { epoch: 1, machine: 0, kind: MachineFaultKind::Crash },
        MachineFault { epoch: 1, machine: 1, kind: MachineFaultKind::Crash },
    ]);
    let mut spec = fleet_spec(2);
    spec.retry = RetryPolicy::new(1, 4, 2);
    spec.max_epochs = 30;
    let stream = JobStream::at_start(vec![job(41, 400)]);
    let (result, trace, _) = run_traced(spec, stream, plan);

    assert_eq!(result.failed(), 1);
    let failed = count(&trace, |k| matches!(k, Event::JobFailed { .. }));
    assert_eq!(failed, 1, "failed must be reported exactly once");
    // No dispatch after the terminal report.
    let fail_idx = trace.iter().position(|e| matches!(e.ev, Event::JobFailed { .. })).unwrap();
    assert!(
        !trace[fail_idx..].iter().any(|e| matches!(e.ev, Event::JobDispatched { .. })),
        "zombie resubmit after terminal failure"
    );

    assert_eq!(violations(&trace), Vec::new());
}

#[test]
fn oversized_job_is_reported_failed_not_lost() {
    // 16 nodes wanted, 8-node machines: no member can ever serve it.
    let mut spec = fleet_spec(2);
    spec.max_epochs = 10;
    let mut wide = WorkloadSpec::paper(16, 16, 1, &[K::Vacf]);
    wide.total_steps = 8;
    let stream =
        JobStream::at_start(vec![JobConfig::new(wide, "seesaw").with_seed(51, 0), job(52, 16)]);
    let (result, trace, _) = run_traced(spec, stream, MachineFaultPlan::none());

    assert_eq!(result.completed(), 1);
    assert_eq!(result.failed(), 1);
    assert_eq!(result.outcomes[0].dispatches, 0);
    assert_eq!(violations(&trace), Vec::new());
}

/// A stream job naming a controller outside `seesaw::CONTROLLER_NAMES`
/// fails `Fleet::new` with a typed error naming it.
#[test]
fn an_unknown_controller_in_the_stream_is_a_typed_error_naming_it() {
    let bad = JobConfig { controller: "nonsense".to_string(), ..job(53, 8) };
    let stream = JobStream::at_start(vec![job(52, 8), bad]);
    let err = Fleet::new(fleet_spec(2), stream, MachineFaultPlan::none()).err();
    assert_eq!(err.expect("an unknown name fails").name, "nonsense");
}

#[test]
fn seeded_streams_and_storms_are_reproducible() {
    let configs = || (0..4).map(|k| job(60 + k, 16)).collect::<Vec<_>>();
    let a = JobStream::seeded(7, configs(), 6);
    let b = JobStream::seeded(7, configs(), 6);
    let arrivals = |s: &JobStream| s.entries().iter().map(|e| e.arrival_epoch).collect::<Vec<_>>();
    assert_eq!(arrivals(&a), arrivals(&b));
    assert!(arrivals(&a).iter().all(|&e| e <= 6));

    let pa = MachineFaultPlan::generate(7, &MachineFaultIntensity::storm(1.0), 3, 40);
    let pb = MachineFaultPlan::generate(7, &MachineFaultIntensity::storm(1.0), 3, 40);
    assert_eq!(pa, pb);
}

/// The in-crate chaos soak: seeded fault storms over seeded arrival
/// streams, each run twice (byte-identical trace + equal result) and
/// audited against the full battery — no job lost, none double-run,
/// retry/backoff in contract, fleet envelope conserved.
#[test]
fn chaos_soak_is_audit_clean_and_deterministic() {
    let storms = [
        ("crash", MachineFaultIntensity { crash: 0.04, partition: 0.0, slow: 0.0 }),
        ("partition", MachineFaultIntensity { crash: 0.0, partition: 0.06, slow: 0.0 }),
        ("slow", MachineFaultIntensity { crash: 0.0, partition: 0.0, slow: 0.08 }),
        ("mixed", MachineFaultIntensity::storm(1.0)),
    ];
    for seed in [1u64, 2, 3] {
        for (name, intensity) in &storms {
            let run = || {
                let configs: Vec<JobConfig> = (0..5).map(|k| job(seed * 100 + k, 16)).collect();
                let stream = JobStream::seeded(seed, configs, 6);
                let plan = MachineFaultPlan::generate(seed, intensity, 3, 40);
                run_traced(fleet_spec(3), stream, plan)
            };
            let (r1, trace, jsonl1) = run();
            let (r2, _, jsonl2) = run();
            assert_eq!(jsonl1, jsonl2, "trace not deterministic: seed {seed} storm {name}");
            assert_eq!(r1, r2, "result not deterministic: seed {seed} storm {name}");

            // Every job reaches exactly one terminal state.
            assert_eq!(r1.completed() + r1.failed(), r1.outcomes.len());
            // Completed jobs delivered all their work, whatever the
            // number of machines they bounced across.
            for o in &r1.outcomes {
                if o.outcome == "completed" {
                    assert_eq!(o.syncs_done, o.syncs_target, "seed {seed} storm {name}: {o:?}");
                }
            }
            assert_eq!(violations(&trace), Vec::new(), "seed {seed} storm {name}");
        }
    }
}
