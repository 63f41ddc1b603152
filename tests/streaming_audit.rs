//! Gates for the streaming observability pipeline: the live audit that
//! rides [`obs::EventSubscriber`] must write the same run document as an
//! audit of the run's buffered events after the fact and as a replay of
//! its serialized trace — with no buffered trace of its own — and that
//! document (report, run-health snapshots, metric registry) must be
//! bit-identical across `POLIMER_THREADS` settings, the same contract
//! the results and trace files already obey.

mod common;

use audit::StreamAuditor;
use common::{audit_events, audit_jsonl};
use faults::{JobFault, JobFaultPlan};
use insitu::{run_job_traced, JobConfig};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind;
use obs::Tracer;
use sched::{JobSpec, MachineSpec, Policy, Scheduler};
use std::sync::{Arc, Mutex};

fn quick_cfg() -> JobConfig {
    let mut spec = WorkloadSpec::paper(16, 8, 1, &[AnalysisKind::Vacf]);
    spec.total_steps = 40;
    JobConfig::new(spec, "seesaw")
}

/// Live-audit one fixed-seed run at a worker-pool size. The tracer is
/// the streaming (buffer-less) one: every event flows through the
/// subscriber and is dropped, so the audit sees the run in constant
/// memory. Returns the run document.
fn live_outputs_at(threads: usize) -> String {
    par::with_threads(threads, || {
        let tracer = Tracer::streaming();
        let auditor = Arc::new(Mutex::new(StreamAuditor::new()));
        tracer.attach(Box::new(Arc::clone(&auditor)));
        run_job_traced(quick_cfg(), &tracer).expect("known controller");
        assert_eq!(tracer.len(), 0, "streaming tracer must keep no event buffer");
        drop(tracer);
        let auditor = Arc::try_unwrap(auditor)
            .unwrap_or_else(|_| panic!("tracer dropped, sole auditor handle remains"))
            .into_inner()
            .expect("auditor poisoned");
        auditor.finish().to_json()
    })
}

#[test]
fn live_audit_outputs_bit_identical_across_thread_counts() {
    let doc = live_outputs_at(1);
    let v = audit::json::parse(&doc).expect("the run document parses");
    assert!(["report", "health", "metrics"].iter().all(|k| v.get(k).is_some()), "{doc}");
    for threads in [2, 4, 7] {
        assert_eq!(doc, live_outputs_at(threads), "run document drifted at T={threads}");
    }
}

#[test]
fn live_audit_matches_batch_and_file_replay() {
    // One run, observed three ways: live through the subscriber seam,
    // batch over the tracer's buffered events after the run, and streamed
    // line-by-line from the serialized file. All three run documents must
    // be byte-identical.
    let tracer = Tracer::enabled();
    let live = Arc::new(Mutex::new(StreamAuditor::new()));
    tracer.attach(Box::new(Arc::clone(&live)));
    run_job_traced(quick_cfg(), &tracer).expect("known controller");
    let (events, jsonl) = (tracer.events(), tracer.to_jsonl());
    assert!(!jsonl.is_empty(), "buffered tracer still serializes the run");
    drop(tracer);

    let live = Arc::try_unwrap(live)
        .unwrap_or_else(|_| panic!("sole handle"))
        .into_inner()
        .expect("poisoned");
    let live = live.finish();

    let batch = audit_events(&events);
    let replay = audit_jsonl(&jsonl).expect("serialized lines re-parse");

    assert!(batch.report.clean(), "the reference run must audit clean");
    assert_eq!(live.to_json(), batch.to_json(), "live vs batch run document");
    assert_eq!(replay.to_json(), batch.to_json(), "file replay vs batch run document");
    assert!(!live.health.is_empty(), "a real run yields run-health snapshots");
}

#[test]
fn doctored_trace_fails_streaming_and_batch_alike() {
    // Shrink the advertised power budget in the run header: every real
    // allocation now exceeds it, so the budget checker (AUDIT0004) must
    // fire — identically whether the header is doctored in the tracer's
    // buffered events or in the serialized file's first line.
    let tracer = Tracer::enabled();
    run_job_traced(quick_cfg(), &tracer).expect("known controller");
    let (mut events, jsonl) = (tracer.events(), tracer.to_jsonl());
    let i = jsonl.find("\"budget_w\":").expect("run header carries a budget") + 11;
    let end = i + jsonl[i..].find(',').expect("header has more fields");
    let doctored = format!("{}1{}", &jsonl[..i], &jsonl[end..]);
    assert_ne!(doctored, jsonl, "the tamper must change the trace");
    match &mut events[0].ev {
        obs::Event::RunStart { budget_w, .. } => *budget_w = 1.0,
        ev => panic!("the run header comes first, not {}", ev.tag()),
    }

    let batch = audit_events(&events).report;
    let streamed = audit_jsonl(&doctored).expect("doctored lines still parse").report;

    assert!(!batch.clean(), "tampered budget must fail the batch audit");
    assert!(!streamed.clean(), "tampered budget must fail the streaming audit");
    assert!(
        streamed.violations.iter().any(|v| v.to_string().contains("AUDIT0004")),
        "budget diagnostic expected, got: {:?}",
        streamed.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>()
    );
    assert_eq!(streamed.to_json(), batch.to_json(), "engines must agree on the failure");
}

#[test]
fn killed_job_trace_audits_clean_live_and_replayed() {
    // sched's kill path on a trace: a two-job machine under a job-fault
    // plan that kills job 1 mid-run, audited live through the subscriber
    // seam and again by replaying the serialized lines.
    let job = |seed: u64, kind: AnalysisKind| {
        let mut spec = WorkloadSpec::paper(16, 4, 1, &[kind]);
        spec.total_steps = 30;
        JobSpec::at_start(JobConfig::new(spec, "seesaw").with_seed(seed, 0))
    };
    let spec = MachineSpec::new(8, 880.0, Policy::EnergyFeedback);
    let plan = JobFaultPlan::from_events(vec![JobFault { epoch: 3, job: 1 }]);
    let jobs = vec![job(11, AnalysisKind::Rdf), job(12, AnalysisKind::Vacf)];
    let mut sched = Scheduler::new(spec, jobs).expect("known controller").with_job_faults(plan);
    let tracer = Tracer::enabled();
    let live = Arc::new(Mutex::new(StreamAuditor::new()));
    tracer.attach(Box::new(Arc::clone(&live)));
    sched.set_tracer(&tracer);
    let result = sched.run();
    assert!(result.outcomes.iter().any(|o| o.outcome == "killed"), "{:?}", result.outcomes);
    let jsonl = tracer.to_jsonl();
    assert!(jsonl.contains("\"ev\":\"job_killed\""), "the kill must reach the trace");
    drop(tracer);

    let live = Arc::try_unwrap(live)
        .unwrap_or_else(|_| panic!("sole handle"))
        .into_inner()
        .expect("poisoned")
        .finish();
    assert!(live.report.clean(), "killed-job run must audit clean: {:?}", live.report.violations);
    let replay = audit_jsonl(&jsonl).expect("serialized lines re-parse");
    assert_eq!(replay.to_json(), live.to_json(), "file replay vs live run document");
}
