//! Determinism and round-trip gates for the `obs` tracing subsystem.
//!
//! Traces are keyed on simulated time, so the serialized JSONL of a
//! fixed-seed run must be **byte-identical** across repeats. A job never
//! enters the `par` pool, so the pool width is no axis here: the trace of
//! a run that does enter it (`run_experiment`'s controller/baseline pair)
//! is compared across widths by that bin's own test and by
//! `scripts/verify.sh`. These tests also gate the zero-behavioural-footprint
//! property (tracing on/off never changes what the run computes) and the
//! exporters' well-formedness, validated by the schema's strict reader:
//! every line must round-trip **byte-for-byte** through
//! [`obs::TraceEvent::parse_line`], and the Chrome-trace document must
//! parse under [`audit::json`] with monotone timestamps.

use audit::StreamAuditor;
use insitu::{run_job, run_job_traced, FaultEvent, FaultKind, FaultPlan, JobConfig};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind;
use obs::{chrome_trace, TraceEvent, Tracer};
use std::sync::{Arc, Mutex};

fn quick_cfg(controller: &str) -> JobConfig {
    let mut spec = WorkloadSpec::paper(16, 8, 1, &[AnalysisKind::Vacf]);
    spec.total_steps = 40;
    JobConfig::new(spec, controller)
}

/// JSONL trace of one fixed-seed run.
fn trace() -> String {
    let tracer = Tracer::enabled();
    run_job_traced(quick_cfg("seesaw"), &tracer).expect("known controller");
    tracer.to_jsonl()
}

#[test]
fn jsonl_trace_byte_identical_across_repeats() {
    let first = trace();
    assert!(!first.is_empty(), "traced run must record events");
    assert_eq!(first, trace(), "same-seed repeat must serialize identically");
}

#[test]
fn tracing_has_zero_behavioural_footprint() {
    // The traced run must compute bit-for-bit the same result as the
    // untraced run: tracing only observes, never perturbs.
    let plain = run_job(quick_cfg("seesaw")).expect("known controller");
    let traced = run_job_traced(quick_cfg("seesaw"), &Tracer::enabled()).expect("known controller");
    assert_eq!(plain.total_time_s.to_bits(), traced.total_time_s.to_bits());
    assert_eq!(plain.total_energy_j.to_bits(), traced.total_energy_j.to_bits());
    assert_eq!(plain.syncs, traced.syncs);
    // And run_job's default path is the off-tracer path.
    let off = run_job_traced(quick_cfg("seesaw"), &Tracer::off()).expect("known controller");
    assert_eq!(off.total_time_s.to_bits(), plain.total_time_s.to_bits());
}

#[test]
fn traced_run_embeds_metrics_summary() {
    // The run's counters and series are whatever a subscriber folds from
    // the event stream; the auditor is the one accumulator there is.
    let tracer = Tracer::enabled();
    let auditor = Arc::new(Mutex::new(StreamAuditor::new()));
    tracer.attach(Box::new(Arc::clone(&auditor)));
    let r = run_job_traced(quick_cfg("seesaw"), &tracer).expect("known controller");
    let o = std::mem::take(&mut *auditor.lock().expect("auditor poisoned")).finish();
    assert_eq!(o.report.events, tracer.len() as u64);
    assert_eq!(o.report.syncs, r.syncs.len() as u64);
    let phase_spans: u64 =
        o.report.phases.iter().filter(|p| p.kind != "wait").map(|p| p.spans).sum();
    assert!(phase_spans > 0, "phase spans recorded");
    assert!(o.report.events >= phase_spans, "{:?}", o.report);
    assert!(o.registry.counter_value("samples") > 0, "power samples recorded");
    assert!(o.registry.gauge_value("allocated_w").is_some(), "seesaw made decisions");
    let waits = o.registry.get_histogram("wait_ns").expect("wait histogram recorded");
    assert!(waits.count > 0);
}

#[test]
fn injected_faults_appear_on_the_trace() {
    let plan =
        FaultPlan::from_events(vec![FaultEvent { sync: 2, node: 3, kind: FaultKind::SampleNan }]);
    let tracer = Tracer::enabled();
    run_job_traced(quick_cfg("seesaw").with_faults(plan), &tracer).expect("known controller");
    let jsonl = tracer.to_jsonl();
    assert!(jsonl.contains("\"ev\":\"fault\""), "fault event missing");
    assert!(jsonl.contains("\"tag\":\"sample_nan\""), "fault tag missing");
    assert!(jsonl.contains("\"ev\":\"recovery\""), "recovery event missing");
    assert!(jsonl.contains("\"ev\":\"sample_rejected\""), "plausibility gate missing");
}

/// One instance of every event variant comes from the schema table itself,
/// so a new variant is covered the moment its row exists.
#[test]
fn every_event_variant_round_trips_byte_for_byte() {
    let all = TraceEvent::one_of_each();
    // The fleet events (and the boxed decision) once sat outside this gate.
    for tag in [
        "fleet_start",
        "machine_down",
        "machine_up",
        "job_dispatched",
        "job_retry",
        "job_migrated",
        "job_failed",
        "envelope_renorm",
        "decision",
    ] {
        assert!(all.iter().any(|te| te.ev.tag() == tag), "sample set lacks {tag}");
    }
    for te in all {
        let line = te.to_json_line();
        let parsed = TraceEvent::parse_line(&line)
            .unwrap_or_else(|e| panic!("strict parser rejected {line}: {e}"));
        assert_eq!(parsed, te, "typed round trip drifted: {line}");
        assert_eq!(parsed.to_json_line(), line, "round trip not byte-identical");
        assert!(line.contains(&format!("\"ev\":\"{}\"", te.ev.tag())), "tag missing: {line}");
        assert!(line.starts_with(&format!("{{\"t\":{}", te.t.as_nanos())), "t missing: {line}");
    }
}

#[test]
fn audit_parser_rejects_schema_drift() {
    // The parser is strict: reordered, missing, or extra fields — the
    // classic silent-schema-drift failure modes — are all errors.
    assert!(TraceEvent::parse_line(r#"{"t":0,"ev":"sync_start","sync":1}"#).is_ok());
    assert!(TraceEvent::parse_line(r#"{"ev":"sync_start","t":0,"sync":1}"#).is_err(), "reordered");
    assert!(TraceEvent::parse_line(r#"{"t":0,"ev":"sync_start"}"#).is_err(), "missing field");
    assert!(
        TraceEvent::parse_line(r#"{"t":0,"ev":"sync_start","sync":1,"x":2}"#).is_err(),
        "extra field"
    );
    assert!(TraceEvent::parse_line(r#"{"t":0,"ev":"no_such_event"}"#).is_err(), "unknown tag");
}

/// Pull every `"ts":<number>` out of a Chrome-trace document, in order.
fn ts_values(doc: &str) -> Vec<f64> {
    let mut out = Vec::new();
    let mut rest = doc;
    while let Some(i) = rest.find("\"ts\":") {
        let tail = &rest[i + 5..];
        let end = tail.find([',', '}']).expect("number terminated");
        out.push(tail[..end].parse::<f64>().expect("numeric ts"));
        rest = &tail[end..];
    }
    out
}

#[test]
fn perfetto_export_is_valid_json_with_monotone_timestamps() {
    let doc = chrome_trace(&TraceEvent::one_of_each());
    audit::json::parse(&doc).expect("chrome trace must be valid JSON");
    let ts = ts_values(&doc);
    assert!(!ts.is_empty(), "export has timestamped entries");
    for w in ts.windows(2) {
        assert!(w[0] <= w[1], "ts not monotone: {} then {}", w[0], w[1]);
    }
}

#[test]
fn perfetto_export_of_a_real_run_has_cap_and_phase_lanes() {
    let tracer = Tracer::enabled();
    run_job_traced(quick_cfg("seesaw"), &tracer).expect("known controller");
    let doc = chrome_trace(&tracer.events());
    let v = audit::json::parse(&doc).expect("chrome trace must be valid JSON");
    let entries = v
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("chrome trace carries a traceEvents array");
    assert!(entries.len() > 100, "expected a dense export, got {} entries", entries.len());
    // Phase activity lanes (complete spans) and per-node cap counters.
    assert!(doc.contains("\"ph\":\"X\""), "phase spans missing");
    assert!(doc.contains("\"name\":\"cap_w\""), "cap counter track missing");
    assert!(doc.contains("\"name\":\"power_w\""), "power counter track missing");
    assert!(doc.contains("\"name\":\"process_name\""), "process metadata missing");
    assert!(doc.contains("controller"), "controller lane missing");
    let ts = ts_values(&doc);
    for w in ts.windows(2) {
        assert!(w[0] <= w[1], "ts not monotone: {} then {}", w[0], w[1]);
    }
}

#[test]
fn trace_jsonl_parses_strictly_and_round_trips() {
    let tracer = Tracer::enabled();
    run_job_traced(quick_cfg("seesaw"), &tracer).expect("known controller");
    let jsonl = tracer.to_jsonl();
    let parsed: Vec<TraceEvent> = jsonl
        .lines()
        .map(|l| TraceEvent::parse_line(l).expect("strict parse of a real trace"))
        .collect();
    assert!(parsed.len() > 100, "expected a dense trace, got {} events", parsed.len());
    assert_eq!(obs::to_jsonl(&parsed), jsonl, "whole-trace round trip not byte-identical");
    // The in-memory tap must agree with the serialized path.
    let tapped: Vec<TraceEvent> =
        tracer.events().iter().map(|e| e.wire_form().into_owned()).collect();
    assert_eq!(tapped, parsed);
}
