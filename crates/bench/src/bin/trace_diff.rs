//! `trace_diff` — the run explainer's command-line face.
//!
//! Replaces the raw `diff` calls in the determinism gates: compares two
//! JSONL traces (default mode) or two JSON artifacts (`--artifact`)
//! and, instead of a silent exit code, explains the first divergence
//! with a namespaced `DIFF00xx` diagnostic.
//!
//! - **Trace mode** streams both files line-by-line in constant memory,
//!   stops at the first divergent line pair, and prints a
//!   compiler-grade report: the `DIFF0001`/`DIFF0002` diagnostic (line
//!   number, the field that moved, and whether it was the timestamp,
//!   the event kind, or a payload value) plus the last K events per
//!   involved node/machine/job before the divergence point.
//! - **Artifact mode** (`--artifact`) compares JSON documents — `run_*`
//!   run documents, `profile_*` stage profiles, figure rows:
//!   `schema_version` gate, per-field deltas under an optional
//!   `--rel-tol` noise threshold, and, for run documents, attribution
//!   notes (per-phase time/energy movement, critical-path shift, registry
//!   counter/histogram deltas).
//!
//! Exit status: 0 identical, 1 divergent, 2 usage or I/O error. The
//! output is a pure function of the two input files — byte-identical
//! across thread counts and hosts — so it can itself sit inside a
//! determinism gate.

use bench::cli::{self, TraceDiffArgs as Args};
use std::fs::File;
use std::io::BufReader;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: trace_diff [--artifact] [--context K] [--rel-tol X] [--quiet] A B\n\
  \n\
  \x20 A B            the two files to compare (JSONL traces, or JSON artifacts\n\
  \x20                with --artifact)\n\
  \x20 --artifact     compare JSON documents (run_/profile_ documents, figure\n\
  \x20                rows) and attribute a run document's deltas (phases,\n\
  \x20                critical path, counters)\n\
  \x20 --context K    events of causal context per involved entity (default 5,\n\
  \x20                at most 1000)\n\
  \x20 --rel-tol X    artifact mode: ignore numeric deltas within X relative\n\
  \x20                tolerance (default 0 = exact)\n\
  \x20 --quiet        print nothing; communicate by exit status only\n\
  \n\
  exit status: 0 identical, 1 divergent, 2 usage or I/O error";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv).unwrap_or_else(|msg| cli::exit_usage("trace_diff", USAGE, &msg));
    let result = if args.artifact { run_artifact(&args) } else { run_trace(&args) };
    match result {
        Ok(identical) => {
            if identical {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("trace_diff: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Trace mode: stream to the first divergence. Ok(true) = identical.
fn run_trace(args: &Args) -> Result<bool, String> {
    let open = |p: &PathBuf| {
        File::open(p).map(BufReader::new).map_err(|e| format!("cannot open {}: {e}", p.display()))
    };
    let (fa, fb) = (open(&args.a)?, open(&args.b)?);
    let divergence =
        audit::diff::diff_readers(fa, fb, args.context).map_err(|e| format!("read error: {e}"))?;
    match divergence {
        None => Ok(true),
        Some(d) => {
            if !args.quiet {
                print!(
                    "{}",
                    d.render(&args.a.display().to_string(), &args.b.display().to_string())
                );
            }
            Ok(false)
        }
    }
}

/// Artifact mode: whole-document attribution diff. Ok(true) = identical.
fn run_artifact(args: &Args) -> Result<bool, String> {
    let read = |p: &PathBuf| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let (ta, tb) = (read(&args.a)?, read(&args.b)?);
    let opts = audit::ArtifactDiffOptions {
        rel_tol: args.rel_tol,
        ..audit::ArtifactDiffOptions::default()
    };
    let d = audit::diff_artifacts(&ta, &tb, &opts);
    if d.identical() {
        return Ok(true);
    }
    if !args.quiet {
        println!("artifacts differ: {} vs {}", args.a.display(), args.b.display());
        for diag in &d.diagnostics {
            println!("{diag}");
        }
        for note in &d.notes {
            println!("  note: {note}");
        }
    }
    Ok(false)
}
