//! Machine-scheduler behavior: budget conservation, queueing, failures,
//! determinism.

use insitu::JobConfig;
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind;
use sched::{JobSpec, MachineSpec, Policy, Scheduler};

/// A small 2-node job (1 sim + 1 analysis), `syncs` synchronizations.
fn small_job(seed: u64, syncs: u64, kind: AnalysisKind) -> JobConfig {
    let mut spec = WorkloadSpec::paper(8, 2, 1, &[kind]);
    spec.total_steps = syncs;
    JobConfig::new(spec, "seesaw").with_seed(seed, 0)
}

fn machine(nodes: usize, envelope_w: f64, policy: Policy) -> MachineSpec {
    let mut m = MachineSpec::new(nodes, envelope_w, policy);
    m.syncs_per_epoch = 4;
    m
}

/// The tentpole invariant: after every arrival/departure/failure epoch,
/// the running jobs' budgets sum to exactly the machine envelope whenever
/// their feasible boxes allow it, never exceed it otherwise, and every
/// job stays inside `[n·δ_min, n·δ_max]`.
#[test]
fn budgets_conserve_the_envelope_every_epoch() {
    let jobs = vec![
        JobSpec::at_start(small_job(1, 24, AnalysisKind::MsdFull)),
        JobSpec::at_start(small_job(2, 24, AnalysisKind::Vacf)),
        JobSpec::arriving(2, small_job(3, 16, AnalysisKind::Vacf)),
        JobSpec::arriving(3, small_job(4, 16, AnalysisKind::Rdf)),
    ];
    // 8 nodes, envelope 700 W: all four 2-node jobs fit the nodes, but
    // 4 × 2 × 215 = 1720 W ≫ 700 W, so the governor is always binding.
    let plan = faults::JobFaultPlan::from_events(vec![faults::JobFault { epoch: 4, job: 1 }]);
    let result = Scheduler::new(machine(8, 700.0, Policy::EnergyFeedback), jobs)
        .expect("valid controllers")
        .with_job_faults(plan)
        .run();

    assert!(result.epochs.iter().any(|e| e.running >= 3), "epochs overlap jobs");
    for rec in &result.epochs {
        let sum: f64 = rec.budgets.iter().map(|&(_, b)| b).sum();
        assert!((sum - rec.allocated_w).abs() < 1e-9);
        assert!(rec.allocated_w <= 700.0 + 1e-6, "epoch {}: over-allocated {sum}", rec.epoch);
        assert!((rec.allocated_w + rec.pool_w - 700.0).abs() < 1e-6 || rec.running == 0);
        let floor_sum: f64 = rec.budgets.len() as f64 * 2.0 * 98.0;
        let ceil_sum: f64 = rec.budgets.len() as f64 * 2.0 * 215.0;
        if rec.running > 0 && floor_sum <= 700.0 && ceil_sum >= 700.0 {
            assert!(
                (sum - 700.0).abs() < 1e-6,
                "epoch {}: envelope not fully used: {sum}",
                rec.epoch
            );
        }
        for &(job, b) in &rec.budgets {
            assert!(
                (2.0 * 98.0 - 1e-9..=2.0 * 215.0 + 1e-9).contains(&b),
                "job {job} budget {b} outside its box"
            );
        }
    }
    assert_eq!(result.outcomes[1].outcome, "killed");
    for id in [0usize, 2, 3] {
        assert_eq!(result.outcomes[id].outcome, "completed", "job {id}");
        assert!(result.outcomes[id].energy_j > 0.0);
    }
}

/// A kill releases nodes AND budget: the queued job that could not fit
/// gets admitted afterwards, and the machine drains.
#[test]
fn killed_job_returns_nodes_and_budget_to_the_pool() {
    let jobs = vec![
        JobSpec::at_start(small_job(10, 40, AnalysisKind::MsdFull)),
        JobSpec::at_start(small_job(11, 40, AnalysisKind::MsdFull)),
        JobSpec::at_start(small_job(12, 12, AnalysisKind::Vacf)),
    ];
    // 4 nodes: only two 2-node jobs fit; job 2 queues until a slot opens.
    let plan = faults::JobFaultPlan::from_events(vec![faults::JobFault { epoch: 3, job: 0 }]);
    let result = Scheduler::new(machine(4, 600.0, Policy::EnergyFeedback), jobs)
        .expect("valid controllers")
        .with_job_faults(plan)
        .run();
    assert_eq!(result.outcomes[0].outcome, "killed");
    assert_eq!(result.outcomes[2].outcome, "completed");
    assert!(
        result.outcomes[2].start_s >= result.outcomes[0].finish_s,
        "job 2 waited for job 0's nodes"
    );
    let queued_early = result.epochs.iter().take(3).all(|e| e.queued == 1);
    assert!(queued_early, "job 2 queued while the machine was full");
}

/// FIFO order with backfill: a wide job blocks at the head, a later
/// narrow job runs around it, and the wide job still completes once
/// space opens.
#[test]
fn backfill_lets_narrow_jobs_around_a_blocked_wide_job() {
    let wide = {
        let mut spec = WorkloadSpec::paper(8, 4, 1, &[AnalysisKind::Vacf]);
        spec.total_steps = 12;
        JobConfig::new(spec, "seesaw").with_seed(20, 0)
    };
    let jobs = vec![
        JobSpec::at_start(small_job(21, 40, AnalysisKind::MsdFull)),
        JobSpec::at_start(wide),
        JobSpec::at_start(small_job(22, 12, AnalysisKind::Vacf)),
    ];
    let result = Scheduler::new(machine(4, 800.0, Policy::EqualShare), jobs)
        .expect("valid controllers")
        .run();
    assert_eq!(result.outcomes[2].start_s, 0.0, "narrow job 2 backfills immediately");
    assert_eq!(result.outcomes[1].outcome, "completed", "wide job eventually runs");
    assert!(result.outcomes[1].start_s > 0.0, "wide job had to wait");
}

/// Jobs that can never run are rejected at arrival, not queued forever.
#[test]
fn impossible_jobs_are_rejected() {
    let too_wide = {
        let mut spec = WorkloadSpec::paper(8, 8, 1, &[AnalysisKind::Vacf]);
        spec.total_steps = 4;
        JobConfig::new(spec, "seesaw")
    };
    let jobs =
        vec![JobSpec::at_start(too_wide), JobSpec::at_start(small_job(30, 8, AnalysisKind::Vacf))];
    // 4-node machine: the 8-node job is structurally impossible.
    let result = Scheduler::new(machine(4, 600.0, Policy::EqualShare), jobs)
        .expect("valid controllers")
        .run();
    assert_eq!(result.outcomes[0].outcome, "rejected");
    assert_eq!(result.outcomes[1].outcome, "completed");
}

/// The whole machine run is a pure function of its inputs.
#[test]
fn machine_run_is_deterministic() {
    let build = || {
        let jobs = vec![
            JobSpec::at_start(small_job(40, 16, AnalysisKind::MsdFull)),
            JobSpec::at_start(small_job(41, 16, AnalysisKind::Vacf)),
            JobSpec::arriving(2, small_job(42, 12, AnalysisKind::Rdf)),
        ];
        Scheduler::new(machine(8, 700.0, Policy::EnergyFeedback), jobs)
            .expect("valid controllers")
            .with_job_faults(faults::JobFaultPlan::generate(5, 3, 20, 0.02))
    };
    let a = build().run();
    let b = build().run();
    assert_eq!(a, b);
}

/// Satellite regression for the kill-accounting contract: pin pool
/// occupancy and the budget sum across the epoch in which the job-kill
/// fault fires. The killed job's nodes must be back in the first-fit pool
/// and its envelope share renormalized onto survivors *in the same
/// epoch*, not one epoch later.
#[test]
fn kill_epoch_returns_nodes_and_renormalizes_budgets_in_place() {
    let jobs = vec![
        JobSpec::at_start(small_job(60, 40, AnalysisKind::MsdFull)),
        JobSpec::at_start(small_job(61, 40, AnalysisKind::Vacf)),
    ];
    let plan = faults::JobFaultPlan::from_events(vec![faults::JobFault { epoch: 3, job: 0 }]);
    let mut s = Scheduler::new(machine(4, 600.0, Policy::EnergyFeedback), jobs)
        .expect("valid controllers")
        .with_job_faults(plan);
    s.start();
    for _ in 0..3 {
        s.step_epoch();
    }
    // Before the kill: machine full, both jobs share the envelope.
    assert_eq!(s.free_nodes(), 0, "both 2-node jobs hold the 4 nodes");
    assert!(matches!(s.job_state(0), sched::JobState::Running { .. }));

    s.step_epoch(); // epoch 3: the kill fires at the head of this epoch
    assert!(matches!(s.job_state(0), sched::JobState::Killed));
    assert_eq!(s.free_nodes(), 2, "killed job's lease returned to the pool");

    let result = s.finish();
    let before = &result.epochs[2];
    let after = &result.epochs[3];
    assert_eq!(before.budgets.len(), 2, "epoch 2: both jobs budgeted");
    assert_eq!(after.budgets.len(), 1, "epoch 3: victim dropped from the budget set");
    assert!(after.budgets.iter().all(|&(job, _)| job != 0), "victim holds no share");
    // Renormalization in the kill epoch: the survivor absorbs the freed
    // share up to its ceiling (2 nodes × 215 W), instead of keeping its
    // old contended share.
    let survivor_before = before.budgets.iter().find(|&&(j, _)| j == 1).unwrap().1;
    let survivor_after = after.budgets[0].1;
    assert!(
        survivor_after > survivor_before + 1.0,
        "survivor share must grow in the kill epoch ({survivor_before} -> {survivor_after})"
    );
    assert!((survivor_after - 2.0 * 215.0).abs() < 1e-6, "alone, the survivor pins its ceiling");
    assert!((after.allocated_w + after.pool_w - 600.0).abs() < 1e-6, "envelope conserved");
}

/// The steppable seam is the same machine: driving
/// `start`/`step_epoch`/`finish` by hand reproduces `run()` byte for byte.
#[test]
fn steppable_drive_matches_run() {
    let build = || {
        let jobs = vec![
            JobSpec::at_start(small_job(70, 16, AnalysisKind::MsdFull)),
            JobSpec::at_start(small_job(71, 16, AnalysisKind::Vacf)),
            JobSpec::arriving(2, small_job(72, 12, AnalysisKind::Rdf)),
        ];
        Scheduler::new(machine(8, 700.0, Policy::PowerAware), jobs)
            .expect("valid controllers")
            .with_job_faults(faults::JobFaultPlan::generate(5, 3, 20, 0.02))
    };
    let a = build().run();
    let mut s = build();
    s.start();
    while !s.all_terminal() {
        s.step_epoch();
    }
    let b = s.finish();
    assert_eq!(a, b);
}

/// Evacuation checkpoints every live job at its last completed sync and
/// leaves the machine empty: all leases back, all budgets zero.
#[test]
fn evacuation_checkpoints_live_jobs_and_drains_the_machine() {
    let jobs = vec![
        JobSpec::at_start(small_job(80, 40, AnalysisKind::MsdFull)),
        JobSpec::at_start(small_job(81, 40, AnalysisKind::Vacf)),
        JobSpec::at_start(small_job(82, 40, AnalysisKind::Rdf)), // queued: 4 nodes full
    ];
    let mut s = Scheduler::new(machine(4, 600.0, Policy::EqualShare), jobs).expect("valid");
    s.start();
    for _ in 0..3 {
        s.step_epoch();
    }
    let evacuees = s.evacuate();
    assert_eq!(evacuees.len(), 3, "every non-terminal job evacuates");
    for e in &evacuees[..2] {
        assert_eq!(e.completed_syncs, 3 * 4, "checkpoint = 3 epochs × 4 syncs");
        assert!(e.energy_j > 0.0, "spent energy travels with the evacuee");
        assert!(e.job_time_s > 0.0);
    }
    assert_eq!(evacuees[2].completed_syncs, 0, "queued job evacuates from scratch");
    assert_eq!(s.free_nodes(), 4, "machine drained");
    assert!(s.all_terminal());
    let result = s.finish();
    for o in &result.outcomes {
        assert_eq!(o.outcome, "killed");
    }
}

/// Mid-run submission (fleet dispatch) enters the FIFO queue and runs
/// once space allows; resubmitted work is a plain job to the machine.
#[test]
fn mid_run_submission_is_admitted_next_epoch() {
    let jobs = vec![JobSpec::at_start(small_job(90, 24, AnalysisKind::Vacf))];
    let mut s = Scheduler::new(machine(4, 600.0, Policy::EqualShare), jobs).expect("valid");
    s.start();
    s.step_epoch();
    let id = s.submit(small_job(91, 8, AnalysisKind::Rdf)).expect("valid controller");
    assert_eq!(id, 1);
    assert!(matches!(s.job_state(id), sched::JobState::Queued));
    s.step_epoch();
    assert!(matches!(s.job_state(id), sched::JobState::Running { .. }));
    while !s.all_terminal() {
        s.step_epoch();
    }
    let result = s.finish();
    assert_eq!(result.outcomes[1].outcome, "completed");
}

/// A controller name outside `seesaw::CONTROLLER_NAMES` is a typed error
/// naming it, from a job list and from a submission alike; a rejected
/// submission takes no job id.
#[test]
fn unknown_controllers_are_typed_errors_naming_them() {
    let named = |name: &str| JobConfig {
        controller: name.to_string(),
        ..small_job(92, 8, AnalysisKind::Rdf)
    };
    let jobs = vec![JobSpec::at_start(named("seesaw")), JobSpec::arriving(1, named("nonsense"))];
    let err = Scheduler::new(machine(4, 600.0, Policy::EqualShare), jobs).err();
    assert_eq!(err.expect("an unknown name fails").name, "nonsense");

    let jobs = vec![JobSpec::at_start(named("seesaw"))];
    let mut s = Scheduler::new(machine(4, 600.0, Policy::EqualShare), jobs).expect("valid");
    assert_eq!(s.submit(named("Seesaw")).expect_err("names are case-sensitive").name, "Seesaw");
    assert_eq!(s.submit(named("static")).expect("valid controller"), 1);
}

/// The scheduler's trace is emitted on the machine clock and carries the
/// job lifecycle.
#[test]
fn scheduler_trace_records_job_lifecycle() {
    let jobs = vec![
        JobSpec::at_start(small_job(50, 8, AnalysisKind::Vacf)),
        JobSpec::arriving(1, small_job(51, 8, AnalysisKind::Vacf)),
    ];
    let tracer = obs::Tracer::enabled();
    let mut s = Scheduler::new(machine(4, 600.0, Policy::EnergyFeedback), jobs).expect("valid");
    s.set_tracer(&tracer);
    let _result = s.run();
    let events = tracer.events();
    let tags: Vec<&str> = events.iter().map(|e| e.ev.tag()).collect();
    assert!(tags.contains(&"job_arrived"));
    assert!(tags.contains(&"job_started"));
    assert!(tags.contains(&"job_completed"));
    assert!(tags.contains(&"machine_budget"));
}
