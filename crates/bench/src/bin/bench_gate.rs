//! The perf-regression gate runner: diff fresh `BENCH_*.json` documents
//! against the committed baselines under `results/`.
//!
//! ```text
//! bench_gate --fresh /tmp/ci-results [--baseline results] [--quiet]
//! ```
//!
//! For every known benchmark document present in the baseline directory,
//! the fresh directory must contain a parseable counterpart that (a)
//! respects its own absolute `max` ceilings and `min` floors and (b) —
//! when both documents were produced under the same profile — stays
//! within each metric's declared `tolerance_pct` of the baseline value.
//! Failures are rendered as namespaced diagnostics (`error[BENCH0001]
//! bound: …`; kernel-promise violations — ns/pair ceilings and declared
//! floors like the T1 speedup — as `error[BENCH0005] kernel: …`). Exits
//! 1 on any failure, so `scripts/verify.sh` and CI can gate on it
//! directly.
//!
//! When the gate fails it also runs the run explainer's attribution
//! differ ([`audit::diff_artifacts`]) over whatever `run_*` run documents
//! exist in both directories, so the failure names the phases,
//! critical-path shift, and counters that moved — not just the violated
//! bound.

use audit::{diag, Diagnostic};
use bench::cli::{self, BenchGateArgs};
use bench::gate::{compare, BenchDoc};
use obs::Reporter;
use std::path::Path;

const BIN: &str = "bench_gate";

/// The benchmark documents the gate knows about.
const DOCS: &[&str] =
    &["BENCH_trace.json", "BENCH_kernels.json", "BENCH_scale.json", "BENCH_controllers.json"];

const USAGE: &str = "\
usage: bench_gate --fresh DIR [--baseline DIR] [--quiet]

  --fresh DIR      directory holding freshly produced BENCH_*.json documents
  --baseline DIR   committed baselines (default: the repo's results/)
  --quiet          suppress per-document notes

exits 1 when any fresh document is missing, malformed, over an absolute
bound, or (same profile only) outside a metric's drift tolerance, and when
no document was gated at all";

fn load(dir: &Path, name: &str) -> Result<BenchDoc, String> {
    let path = dir.join(name);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    BenchDoc::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let BenchGateArgs { fresh, baseline, quiet } =
        BenchGateArgs::parse(&argv).unwrap_or_else(|msg| cli::exit_usage(BIN, USAGE, &msg));
    let baseline = baseline.unwrap_or_else(bench::results_dir);
    let rep = Reporter::new(quiet);
    match gate(&fresh, &baseline, &rep) {
        Ok(checked) => rep.say(format!("{BIN}: {checked} document(s) pass")),
        Err(failures) => {
            eprintln!("{BIN}: {} failure(s):", failures.len());
            for f in &failures {
                eprintln!("  {f}");
            }
            attribute_drift(&fresh, &baseline);
            std::process::exit(1);
        }
    }
}

/// Gate every known document that has a committed baseline: `Ok` with
/// the number checked, or every failure. A run that checks nothing gated
/// nothing, and fails.
fn gate(fresh_dir: &Path, baseline_dir: &Path, rep: &Reporter) -> Result<usize, Vec<Diagnostic>> {
    let mut failures: Vec<Diagnostic> = Vec::new();
    let mut checked = 0;
    for name in DOCS {
        let baseline = match load(baseline_dir, name) {
            Ok(doc) => doc,
            Err(e) => {
                // No committed baseline yet: nothing to gate against.
                rep.note(format!("skipping {name}: {e}"));
                continue;
            }
        };
        match load(fresh_dir, name) {
            Ok(fresh) => {
                let fails = compare(&fresh, &baseline);
                rep.note(format!(
                    "{name}: {} metrics vs {} baseline ({} fresh profile, {} baseline) — {}",
                    fresh.metrics.len(),
                    baseline.metrics.len(),
                    fresh.profile,
                    baseline.profile,
                    if fails.is_empty() { "ok" } else { "FAIL" }
                ));
                failures.extend(fails);
                checked += 1;
            }
            Err(e) => failures.push(Diagnostic::new(diag::BENCH_PARSE, e)),
        }
    }
    if checked == 0 && failures.is_empty() {
        let msg = format!(
            "no benchmark document to gate: none of {DOCS:?} in {}",
            baseline_dir.display()
        );
        failures.push(Diagnostic::new(diag::BENCH_MISSING, msg));
    }
    if failures.is_empty() {
        Ok(checked)
    } else {
        Err(failures)
    }
}

/// On failure, explain *where* the run moved: diff every run document
/// present in both directories with a loose noise
/// threshold and print the attribution notes (per-phase time/energy
/// deltas, critical-path shift, counter/histogram movement).
fn attribute_drift(fresh_dir: &Path, baseline_dir: &Path) {
    // Wall-clock noise moves every float a little between runs; 2%
    // keeps the attribution to fields that actually drifted.
    let opts = audit::ArtifactDiffOptions { rel_tol: 0.02, ..Default::default() };
    let mut names: Vec<String> = match std::fs::read_dir(fresh_dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("run_") && n.ends_with(".json"))
            .collect(),
        Err(_) => return,
    };
    names.sort();
    for name in names {
        let Ok(fresh) = std::fs::read_to_string(fresh_dir.join(&name)) else { continue };
        let Ok(baseline) = std::fs::read_to_string(baseline_dir.join(&name)) else { continue };
        let d = audit::diff_artifacts(&baseline, &fresh, &opts);
        if d.identical() {
            continue;
        }
        eprintln!("{BIN}: attribution for {name} (baseline -> fresh):");
        for diag in &d.diagnostics {
            eprintln!("  {diag}");
        }
        for note in &d.notes {
            eprintln!("  note: {note}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Gating zero documents is a failure with a named diagnostic; the
    /// committed baselines gated against themselves all pass.
    #[test]
    fn a_gate_that_checks_nothing_fails() {
        let rep = Reporter::new(true);
        let empty = std::env::temp_dir().join(format!("bench-gate-empty-{}", std::process::id()));
        std::fs::create_dir_all(&empty).unwrap();
        let failures = gate(&empty, &empty, &rep).unwrap_err();
        std::fs::remove_dir(&empty).unwrap();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].to_string().contains("BENCH0003"), "{}", failures[0]);

        let results = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
        assert_eq!(gate(results, results, &rep), Ok(DOCS.len()));
    }
}
