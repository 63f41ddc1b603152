//! End-to-end gates for the run explainer (`audit::diff`) over real
//! traces from the in-situ runtime.
//!
//! The unit tests in `audit::diff` pin the comparator's mechanics on
//! synthetic lines; these tests drive it with the genuine article — the
//! JSONL trace of a fixed-seed `run_job_traced` — and gate the contract
//! the determinism gates in `scripts/verify.sh` rely on:
//!
//! - identical runs produce an empty diff;
//! - a doctored trace (flipped value, dropped line, reordered events) is
//!   caught at the exact line with the right `DIFF00xx` code;
//! - a doctored run document is attributed to the phase and the counter
//!   that moved, and one of the retired per-document layouts is refused.

mod common;

use audit::diff::{diff_readers, Aspect, TraceDivergence, DEFAULT_CONTEXT};
use audit::diff_artifacts;
use audit::json::{self, Value};
use insitu::{run_job_traced, JobConfig};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind;
use obs::Tracer;

fn quick_cfg() -> JobConfig {
    let mut spec = WorkloadSpec::paper(16, 8, 1, &[AnalysisKind::Vacf]);
    spec.total_steps = 40;
    JobConfig::new(spec, "seesaw")
}

/// JSONL trace of one fixed-seed run.
fn trace() -> String {
    let tracer = Tracer::enabled();
    run_job_traced(quick_cfg(), &tracer).expect("known controller");
    tracer.to_jsonl()
}

fn diff_strs(a: &str, b: &str) -> Option<TraceDivergence> {
    diff_readers(a.as_bytes(), b.as_bytes(), DEFAULT_CONTEXT).expect("no io error")
}

#[test]
fn identical_runs_produce_an_empty_diff() {
    let a = trace();
    assert!(!a.is_empty(), "traced run must record events");
    let b = trace();
    assert_eq!(diff_strs(&a, &b), None, "same-seed runs must not diverge");
}

#[test]
fn flipped_value_in_a_real_trace_is_caught_at_the_exact_line() {
    let a = trace();
    let lines: Vec<&str> = a.lines().collect();
    // Doctor a line in the middle that carries a numeric payload field.
    let (idx, doctored) = lines
        .iter()
        .enumerate()
        .skip(lines.len() / 2)
        .find_map(|(i, l)| {
            l.contains("\"energy_j\":").then(|| {
                let field = l.split("\"energy_j\":").nth(1).expect("field present");
                let val: String = field.chars().take_while(|c| !matches!(c, ',' | '}')).collect();
                (i, l.replace(&format!("\"energy_j\":{val}"), "\"energy_j\":1e30"))
            })
        })
        .expect("trace has an energy event past the midpoint");
    let mut b_lines = lines.clone();
    b_lines[idx] = &doctored;
    let b = b_lines.join("\n") + "\n";

    let d = diff_strs(&a, &b).expect("doctored trace must diverge");
    assert_eq!(d.line, idx as u64 + 1, "divergence must land on the doctored line");
    assert_eq!(d.aspect, Aspect::Value);
    assert_eq!(d.field.as_deref(), Some("energy_j"));
    let diag = d.diagnostic();
    assert_eq!(diag.code_str(), "DIFF0001");
    assert!(diag.detail.contains(&format!("line {}", idx + 1)), "{}", diag.detail);
    assert!(!d.context.is_empty(), "a mid-trace divergence must carry context");
}

#[test]
fn dropped_line_is_caught_where_the_streams_skew() {
    let a = trace();
    let lines: Vec<&str> = a.lines().collect();
    let drop_at = lines.len() / 2;
    let b = lines
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != drop_at)
        .map(|(_, l)| *l)
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    let d = diff_strs(&a, &b).expect("dropped line must diverge");
    assert_eq!(d.line, drop_at as u64 + 1, "skew starts exactly at the dropped line");
    assert_eq!(d.diagnostic().code_str(), "DIFF0001");
}

#[test]
fn reordered_events_are_caught_at_the_swap_point() {
    let a = trace();
    let mut lines: Vec<&str> = a.lines().collect();
    let i = lines.len() / 2;
    // Adjacent trace lines are never byte-equal (timestamps or payloads
    // advance), so the swap is observable at position i.
    assert_ne!(lines[i], lines[i + 1], "adjacent events must differ for this gate");
    lines.swap(i, i + 1);
    let b = lines.join("\n") + "\n";
    let d = diff_strs(&a, &b).expect("reordered trace must diverge");
    assert_eq!(d.line, i as u64 + 1);
    assert_eq!(d.diagnostic().code_str(), "DIFF0001");
}

#[test]
fn truncated_trace_gets_the_truncation_code() {
    let a = trace();
    let lines: Vec<&str> = a.lines().collect();
    let keep = lines.len() - 3;
    let b = lines[..keep].join("\n") + "\n";
    let d = diff_strs(&a, &b).expect("truncated trace must diverge");
    assert_eq!(d.line, keep as u64 + 1);
    assert_eq!(d.aspect, Aspect::Truncation);
    assert_eq!(d.diagnostic().code_str(), "DIFF0002");
}

/// The field at `path` (object keys and array indices) of `v`.
fn field<'v>(v: &'v mut Value, path: &[&str]) -> &'v mut Value {
    path.iter().fold(v, |v, key| match v {
        Value::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).expect("key").1,
        Value::Arr(items) => &mut items[key.parse::<usize>().expect("index")],
        _ => panic!("no field {key}"),
    })
}

#[test]
fn doctored_run_document_is_attributed_and_the_old_layout_refused() {
    let run = common::audit_jsonl(&trace()).expect("the writer's lines");
    let doc = run.to_json();
    let mut doctored = json::parse(&doc).expect("the run document parses");
    let kind = field(&mut doctored, &["report", "phases", "0", "kind"]).clone();
    *field(&mut doctored, &["report", "phases", "0", "time_s"]) = Value::Num(1e3);
    *field(&mut doctored, &["metrics", "counters", "events"]) = Value::Int(7);

    let d = diff_artifacts(&doc, &doctored.pretty(), 0.0);
    let codes: Vec<&str> = d.diagnostics.iter().map(|x| x.code_str()).collect();
    assert_eq!(codes, ["DIFF0003", "DIFF0003"], "{:?}", d.diagnostics);
    let kind = kind.as_str().expect("a phase kind");
    assert!(
        d.notes.iter().any(|n| n.starts_with(&format!("phase `{kind}`: time "))),
        "{:?}",
        d.notes
    );
    assert!(d.notes.iter().any(|n| n.starts_with("counter `events`: ")), "{:?}", d.notes);

    // The report alone, as the retired `audit_*.json` carried it.
    let Value::Obj(mut old) = run.report.to_value() else { unreachable!("an object") };
    old.insert(0, ("schema_version".to_string(), Value::Int(1)));
    let d = diff_artifacts(&Value::Obj(old).pretty(), &doc, 0.0);
    let codes: Vec<&str> = d.diagnostics.iter().map(|x| x.code_str()).collect();
    assert_eq!(codes, ["DIFF0005"]);
}
