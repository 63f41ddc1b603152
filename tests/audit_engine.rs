//! End-to-end gates for the `audit` trace-analysis engine.
//!
//! Three kinds of assurance:
//!
//! 1. **Clean runs audit clean** — a fixed-seed SeeSAw job, a
//!    max-intensity fault-injection run, and a contended machine-scheduler
//!    run must all pass the full invariant battery with zero violations.
//! 2. **The battery has teeth** — seeded mutations of a real trace
//!    (a controller decision that overspends the budget; a cap outside
//!    the RAPL range) must be caught by the matching check. An audit that
//!    only ever passes proves nothing.
//! 3. **Reports are well-formed** — `audit_*.json` documents parse under
//!    the same strict JSON layer and the derived attribution closes
//!    against the run totals.

use audit::{check_all, AuditReport, Trace};
use insitu::{run_job_traced, FaultIntensity, FaultPlan, JobConfig};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind as K;
use obs::{Event, Tracer};
use sched::{JobSpec, MachineSpec, Policy, Scheduler};

fn quick_cfg() -> JobConfig {
    let mut spec = WorkloadSpec::paper(16, 8, 1, &[K::Vacf]);
    spec.total_steps = 40;
    JobConfig::new(spec, "seesaw")
}

/// Trace of one fixed-seed quick run.
fn quick_trace(cfg: JobConfig) -> Trace {
    let tracer = Tracer::enabled();
    run_job_traced(cfg, &tracer).expect("known controller");
    Trace::from_tracer(&tracer)
}

#[test]
fn clean_run_has_zero_violations() {
    let report = AuditReport::from_trace(&quick_trace(quick_cfg()));
    assert!(report.clean(), "clean run must audit clean: {:?}", report.violations);
    assert_eq!(report.syncs, 40);
    assert!(report.total_time_s > 0.0 && report.total_energy_j > 0.0);
    // Attribution closes: partition energies sum to the run total.
    let part_sum: f64 = report.partitions.iter().map(|p| p.energy_j).sum();
    assert!(
        (part_sum - report.total_energy_j).abs() <= 1e-6 * report.total_energy_j,
        "partition attribution must close against the total: {part_sum} vs {}",
        report.total_energy_j
    );
    assert!(report.summary().contains("0 violations"), "{}", report.summary());
}

#[test]
fn max_intensity_fault_run_has_zero_violations() {
    let cfg = quick_cfg();
    let nodes = 8;
    let plan = FaultPlan::generate(0xF00D, &FaultIntensity::scaled(1.0), nodes, 40);
    assert!(!plan.is_empty(), "max intensity must inject faults");
    let report = AuditReport::from_trace(&quick_trace(cfg.with_faults(plan)));
    assert!(report.clean(), "fault run must audit clean: {:?}", report.violations);
}

#[test]
fn machine_scheduler_run_has_zero_violations() {
    let job = |seed: u64, kind: K| {
        let mut spec = WorkloadSpec::paper(16, 4, 1, &[kind]);
        spec.total_steps = 30;
        JobSpec::at_start(JobConfig::new(spec, "seesaw").with_seed(seed, 0))
    };
    let spec = MachineSpec::new(8, 880.0, Policy::EnergyFeedback);
    let mut sched =
        Scheduler::new(spec, vec![job(11, K::Rdf), job(12, K::Vacf)]).expect("known controller");
    let tracer = Tracer::enabled();
    sched.set_tracer(&tracer);
    let result = sched.run();
    assert!(
        result.outcomes.iter().any(|o| o.outcome == "completed"),
        "jobs must complete: {:?}",
        result.outcomes
    );
    let trace = Trace::from_tracer(&tracer);
    let violations = check_all(&trace);
    assert!(violations.is_empty(), "machine run must audit clean: {violations:?}");
}

/// Mutate the first event matching `pick` and return the battery's output.
fn mutate_and_audit(
    mut trace: Trace,
    pick: impl Fn(&Event) -> bool,
    tamper: impl Fn(&mut Event),
) -> Vec<audit::Violation> {
    let ev = trace
        .events
        .iter_mut()
        .find(|e| pick(&e.ev))
        .expect("trace contains the event to tamper with");
    tamper(&mut ev.ev);
    check_all(&trace)
}

#[test]
fn budget_overspend_mutation_is_caught() {
    // Seeded mutation: rewrite one decision as if `split_with_limits` had
    // skipped the budget clamp and granted every node the TDP. The budget
    // conservation check must fire.
    let violations = mutate_and_audit(
        quick_trace(quick_cfg()),
        |k| matches!(k, Event::Decision(_)),
        |k| {
            if let Event::Decision(d) = k {
                d.sim_node_w = 215.0;
                d.analysis_node_w = 215.0;
            }
        },
    );
    assert!(
        violations.iter().any(|v| v.check() == "budget"),
        "budget check must catch the overspend: {violations:?}"
    );
}

#[test]
fn out_of_range_cap_mutation_is_caught() {
    // A granted cap below δ_min can only mean the clamp was bypassed.
    let violations = mutate_and_audit(
        quick_trace(quick_cfg()),
        |k| matches!(k, Event::CapRequest { .. }),
        |k| {
            if let Event::CapRequest { granted_w, .. } = k {
                *granted_w = 40.0;
            }
        },
    );
    assert!(
        violations.iter().any(|v| v.check() == "cap_range"),
        "cap range check must catch the rogue grant: {violations:?}"
    );
}

#[test]
fn energy_identity_mutation_is_caught() {
    let violations = mutate_and_audit(
        quick_trace(quick_cfg()),
        |k| matches!(k, Event::SyncEnergy { .. }),
        |k| {
            if let Event::SyncEnergy { energy_j, .. } = k {
                *energy_j *= 2.0;
            }
        },
    );
    assert!(
        violations.iter().any(|v| v.check() == "energy"),
        "energy identity must catch the doctored interval: {violations:?}"
    );
}

#[test]
fn serialized_and_tapped_traces_agree() {
    let tracer = Tracer::enabled();
    run_job_traced(quick_cfg(), &tracer).expect("known controller");
    let tapped = Trace::from_tracer(&tracer);
    let parsed = Trace::parse_jsonl(&tracer.to_jsonl()).expect("strict parse");
    assert_eq!(tapped.events, parsed.events, "tap and serialized path must agree");
}

#[test]
fn audit_report_json_is_strictly_parseable() {
    let report = AuditReport::from_trace(&quick_trace(quick_cfg()));
    let doc = report.to_json();
    let v = audit::json::parse(&doc).expect("audit report must be valid JSON");
    assert_eq!(
        v.get("events").and_then(|x| x.as_u64()),
        Some(report.events),
        "event count survives serialization"
    );
    assert_eq!(
        v.get("violations").and_then(|x| x.as_arr()).map(<[_]>::len),
        Some(0),
        "violations array present and empty"
    );
}
