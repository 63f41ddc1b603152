//! Whole-crate tests: every workload at smoke size against the declared
//! surface, digest stability, and the API-surface rule.

use crate::harness::{self, RunArgs};
use crate::spec::{spec, Metric};
use crate::workloads::{Size, NAMES};
use audit::json::{self, Value};
use std::path::Path;

fn smoke_seeded(workload: &str, seed: u64, trace: bool, width: usize) -> (Value, Value) {
    let args =
        RunArgs { workload: workload.to_string(), seed, seconds: 0.0, trace, size: Size::Smoke };
    let out = harness::run_at_width(&args, width).expect("known workload");
    let doc = json::parse(&out.doc).expect("workload document is JSON");
    let contract = json::parse(&out.contract).expect("contract line is JSON");
    (doc, contract)
}

fn smoke(workload: &str, trace: bool, width: usize) -> (Value, Value) {
    smoke_seeded(workload, 1, trace, width)
}

fn keys(v: Option<&Value>) -> Vec<String> {
    let Some(Value::Obj(fields)) = v else { panic!("expected an object, got {v:?}") };
    fields.iter().map(|(k, _)| k.clone()).collect()
}

fn names(metrics: &[Metric]) -> Vec<String> {
    metrics.iter().map(|m| m.name.clone()).collect()
}

fn digest(doc: &Value) -> String {
    let d = doc.get("sim").and_then(|s| s.get("digest")).and_then(Value::as_str);
    d.expect("sim.digest").to_string()
}

/// The contract line carries exactly `correct`, `attempted`, `failed`,
/// `metrics`; the metrics are exactly the declared ones, with their units.
fn assert_contract(contract: &Value, declared: &[Metric]) {
    assert_eq!(keys(Some(contract)), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(contract.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(contract.get("failed").and_then(Value::as_u64), Some(0));
    assert!(contract.get("attempted").and_then(Value::as_u64).is_some_and(|n| n >= 1));
    assert_eq!(keys(contract.get("metrics")), names(declared));
    for m in declared {
        let got = contract.get("metrics").and_then(|x| x.get(&m.name)).expect("metric");
        assert_eq!(got.get("unit").and_then(Value::as_str), Some(m.unit.as_str()), "{}", m.name);
        let v = got.get("value").and_then(Value::as_f64).expect("value");
        assert!(v.is_finite(), "{} = {v}", m.name);
    }
}

#[test]
fn untraced_smoke_runs_emit_exactly_the_declared_end_to_end_metrics() {
    let s = spec();
    assert_eq!(s.workloads, NAMES);
    for name in NAMES {
        let (doc, contract) = smoke(name, false, 2);
        assert_eq!(doc.get("workload").and_then(Value::as_str), Some(name));
        assert_eq!(keys(doc.get("end_to_end")), names(&s.end_to_end), "{name}");
        assert_contract(&contract, &s.end_to_end);
        // No end-to-end metric may read 0. CPU time comes in 10 ms ticks,
        // which only a smoke-sized window can fall under.
        for m in s.end_to_end.iter().filter(|m| m.name != "cpu_ns_per_work") {
            let v = contract.get("metrics").and_then(|x| x.get(&m.name)?.get("value")?.as_f64());
            assert!(v.is_some_and(|v| v > 0.0), "{name}: {} must never be 0", m.name);
        }
    }
}

#[test]
fn traced_smoke_runs_emit_exactly_the_declared_per_layer_metrics() {
    let s = spec();
    for name in NAMES {
        let (doc, contract) = smoke(name, true, 2);
        assert_eq!(keys(doc.get("per_layer")), names(&s.per_layer), "{name}");
        // Zero failed ops also says the stepped path reproduced the plain
        // calls: a traced run replays the warm-up inputs and fails any op
        // whose digest differs.
        assert_contract(&contract, &s.per_layer);
        let layer = |metric: &str| {
            doc.get("per_layer").and_then(|l| l.get(metric)?.get("value")?.as_f64()).expect(metric)
        };
        // Every op is one root span and every call below it has its own.
        assert!(layer("bench.unattributed_pct") < 50.0, "{name}");
        // The layer each workload exists to exercise was entered …
        let entered = match name {
            "noisy_sweep" => ["insitu.step_sync_us", "core.on_sync_calls", "mdsim.step_work_calls"],
            "theta_quiet" => ["sched.new_us", "sched.step_epoch_us", "sched.epochs"],
            "md_insitu" => ["mdsim.step_work_us", "mdsim.workload_new_us", "insitu.finish_us"],
            "fleet_storm" => ["fleet.step_epoch_us", "fleet.epochs", "fleet.stream_seeded_us"],
            _ => ["audit.on_event_ns", "audit.feed_line_ns", "obs.events_per_op"],
        };
        for metric in entered {
            assert!(layer(metric) > 0.0, "{name}: {metric}");
        }
        // … and one it bypasses was not.
        let bypassed = if name == "fleet_storm" { "audit.on_event_ns" } else { "fleet.epochs" };
        assert_eq!(layer(bypassed), 0.0, "{name}: {bypassed}");
    }
}

#[test]
fn digests_repeat_across_runs_and_thread_counts() {
    for name in NAMES {
        let one = digest(&smoke(name, false, 1).0);
        assert_eq!(one, digest(&smoke(name, false, 2).0), "{name}: 1 vs 2 threads");
        assert_eq!(one, digest(&smoke(name, false, 2).0), "{name}: second run");
    }
}

#[test]
fn seeds_reach_the_workloads_and_unknown_names_are_errors() {
    let run = |seed| digest(&smoke_seeded("noisy_sweep", seed, false, 1).0);
    assert_ne!(run(1), run(7));
    let unknown = RunArgs {
        workload: "nope".to_string(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        size: Size::Smoke,
    };
    assert!(harness::run_at_width(&unknown, 1).is_err());
}

/// Identifier tokens of `src`, each with the bytes before and after it.
fn tokens(src: &str) -> Vec<(&str, &str, &str)> {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out = Vec::new();
    let mut rest = src;
    let mut offset = 0;
    while let Some(start) = rest.find(is_ident) {
        let len = rest[start..].find(|c| !is_ident(c)).unwrap_or(rest.len() - start);
        let (a, b) = (offset + start, offset + start + len);
        out.push((&src[a..b], &src[..a], &src[b..]));
        offset = b;
        rest = &src[b..];
    }
    out
}

/// The API-surface rule (see `api_denylist.txt`), enforced by grepping
/// this crate's own sources.
#[test]
fn sources_stay_inside_the_allowed_api_surface() {
    let list = include_str!("api_denylist.txt");
    let (mut anywhere, mut calls) = (Vec::new(), Vec::new());
    let mut section = None;
    for line in list.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
        match line {
            "[anywhere]" | "[calls]" => section = Some(line),
            name if section == Some("[anywhere]") => anywhere.push(name),
            name if section == Some("[calls]") => calls.push(name),
            other => panic!("api_denylist.txt: `{other}` outside a section"),
        }
    }
    assert!(anywhere.len() >= 7 && calls.len() > 100, "denylist was truncated");

    let mut files = Vec::new();
    let mut dirs = vec![Path::new(env!("CARGO_MANIFEST_DIR")).join("src")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("src is readable") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    assert!(files.len() >= 15, "found only {} source files", files.len());

    let sources: Vec<(String, String)> = files
        .iter()
        .map(|p| (p.display().to_string(), std::fs::read_to_string(p).expect("readable")))
        .collect();
    // Functions this crate defines itself may share a name with one it
    // must not call on the workspace.
    let mut local = Vec::new();
    for (_, src) in &sources {
        let toks = tokens(src);
        for pair in toks.windows(2) {
            if pair[0].0 == "fn" {
                local.push(pair[1].0.to_string());
            }
        }
    }
    let mut offences = Vec::new();
    for (file, src) in &sources {
        for (tok, before, after) in tokens(src) {
            if anywhere.contains(&tok) {
                offences.push(format!("{file}: names `{tok}`"));
            }
            // `x.name(…)`, `T::name(…)`, or `T::name` passed as a value; a
            // bare `x.name` is a field.
            let called = after.starts_with('(') || before.ends_with("::");
            if called && calls.contains(&tok) && !local.iter().any(|l| l == tok) {
                offences.push(format!("{file}: calls `{tok}`"));
            }
        }
    }
    assert!(offences.is_empty(), "outside the allowed API surface:\n{}", offences.join("\n"));
}
