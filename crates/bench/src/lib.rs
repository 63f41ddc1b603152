//! # bench — the experiment harness
//!
//! `repro` regenerates every table and figure of the SeeSAw paper, and
//! the machine and fleet sweeps, from the table in [`experiments`].
//! Each experiment prints a human-readable table mirroring the paper's
//! presentation and writes the raw rows as JSON (some also an SVG chart)
//! under `results/`. Every JSON document the harness writes — figure
//! rows and run documents — is an [`obs::json::Value`]
//! printed by its one writer. Host timings are not this crate's job:
//! `perfbench` reports every one of them, end to end and per layer.
//!
//! ```text
//! cargo run --release -p bench --bin repro                  # everything
//! cargo run --release -p bench --bin repro -- fig3_analyses fig4_power_alloc
//! cargo run --release -p bench --bin repro -- machine_sweep_theta --audit
//! ./target/release/repro --check                            # results/ is a function of HEAD
//! ```
//!
//! Every file bound for `results/` goes through [`put_result`], which
//! writes it or, under `repro --check`, compares it with the committed
//! file and writes nothing. `repro` and `run_experiment` accept the same
//! common flags (parsed strictly — unknown flags are a usage error):
//! `--quiet` suppresses progress output, and
//! `--trace`/`--trace-perfetto`/`--audit` observe a representative run
//! (see [`cli`]); `repro`'s `--quick` shrinks steps/scales for
//! smoke-testing. Every bin exits 1 when an output
//! could not be written, or did not match.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod cli;
pub mod experiments;
mod svg;

use obs::json::Value;
use obs::Reporter;
use std::path::{Path, PathBuf};

/// Where experiment output lands, and where `--check` compares it
/// (`results/` at the workspace root, or `$SEESAW_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("SEESAW_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    // Walk up from the executable's cwd to find the workspace root.
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            return dir.join("results");
        }
        if !dir.pop() {
            return PathBuf::from("results");
        }
    }
}

/// The one place a results file goes: write `body` to `dir/<file>`
/// (creating `dir` if needed), or under `check` compare it with the file
/// already there and write nothing. A JSON file is compared field by field
/// ([`audit::diff_artifacts`], exact), anything else by its first
/// differing line. A failure — a write, a missing file, a difference — is
/// printed to stderr and returned, for the caller to count, so that it can
/// try every other file before exiting 1.
pub fn put_result(
    rep: &Reporter,
    dir: &Path,
    check: bool,
    file: &str,
    body: &str,
) -> Result<(), String> {
    let path = dir.join(file);
    if !check {
        if let Err(e) = std::fs::create_dir_all(dir) {
            rep.warn(format!("cannot create {}: {e}", dir.display()));
            return Err(e.to_string());
        }
        return write_file(rep, &path, body).map_err(|e| e.to_string());
    }
    let why = match std::fs::read_to_string(&path) {
        Ok(committed) if committed == body => {
            rep.note(format!("matches {}", display_rel(&path)));
            return Ok(());
        }
        Ok(committed) => {
            let mut why = Vec::new();
            if file.ends_with(".json") {
                let d = audit::diff_artifacts(&committed, body, 0.0);
                why.extend(d.diagnostics.iter().map(ToString::to_string));
                why.extend(d.notes.iter().map(|n| format!("note: {n}")));
            }
            if why.is_empty() {
                why.push(first_differing_line(&committed, body));
            }
            format!("{} differs from this run:\n  {}", display_rel(&path), why.join("\n  "))
        }
        Err(e) => format!("{} is missing: {e}", display_rel(&path)),
    };
    eprintln!("check: {why}");
    Err(why)
}

/// Where two unequal texts first part: the 1-based line and column, and
/// up to 60 characters of each from there.
fn first_differing_line(committed: &str, produced: &str) -> String {
    let (mut a, mut b) = (committed.split('\n'), produced.split('\n'));
    let mut line = 1;
    loop {
        match (a.next(), b.next()) {
            (Some(x), Some(y)) if x == y => line += 1,
            (x, y) => {
                let column = x.zip(y).map_or(0, |(x, y)| {
                    x.chars().zip(y.chars()).take_while(|(p, q)| p == q).count()
                });
                let rest = |s: Option<&str>| {
                    s.map_or("end of file".into(), |s| {
                        format!("{:?}", s.chars().skip(column).take(60).collect::<String>())
                    })
                };
                let (x, y) = (rest(x), rest(y));
                return format!("line {line}, column {}: committed {x}, produced {y}", column + 1);
            }
        }
    }
}

/// Write `body` to any `path`, its directory left as it is: a note on
/// success, a warning on failure.
pub fn write_file(rep: &Reporter, path: &Path, body: &str) -> std::io::Result<()> {
    match std::fs::write(path, body) {
        Ok(()) => {
            rep.note(format!("wrote {}", display_rel(path)));
            Ok(())
        }
        Err(e) => {
            rep.warn(format!("cannot write {}: {e}", path.display()));
            Err(e)
        }
    }
}

/// Per-sync rows as `run_experiment --dump-syncs` prints them: one
/// object per sync, fields in declaration order.
pub fn sync_rows(syncs: &[insitu::SyncRecord]) -> Value {
    let row = |s: &insitu::SyncRecord| {
        obs::json_fields!(
            s,
            index,
            start_s,
            end_s,
            sim_time_s,
            analysis_time_s,
            sim_cap_w,
            analysis_cap_w,
            sim_power_w,
            analysis_power_w,
            slack,
            overhead_s,
        )
    };
    Value::Arr(syncs.iter().map(row).collect())
}

fn display_rel(path: &Path) -> String {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(|p| p.display().to_string()))
        .unwrap_or_else(|| path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::parse;

    #[test]
    fn results_dir_is_formed() {
        let d = results_dir();
        assert!(d.ends_with("results"));
    }

    #[test]
    fn a_write_that_fails_returns_its_error() {
        let rep = Reporter::new(true);
        assert!(write_file(&rep, Path::new("/nonexistent/dir/x.json"), "{}").is_err());
        let path = std::env::temp_dir().join(format!("bench-write-{}.json", std::process::id()));
        assert!(write_file(&rep, &path, "{}").is_ok());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}");
        std::fs::remove_file(&path).unwrap();
    }

    const JSON: &str = "[\n  {\n    \"sim0_w\": 120.0\n  }\n]\n";
    const SVG: &str = "<svg>\n<rect x=\"1\"/>\n</svg>\n";
    const LOG: &str = "=== fig1_trace ===\nrow\n";

    /// A directory holding `JSON`, `SVG` and `LOG`, written through the
    /// sink as `repro` writes them.
    fn committed(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bench-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (file, body) in [("f.json", JSON), ("f.svg", SVG), ("full_run.log", LOG)] {
            put_result(&Reporter::new(true), &dir, false, file, body).unwrap();
        }
        dir
    }

    fn check(dir: &Path, file: &str, body: &str) -> Result<(), String> {
        put_result(&Reporter::new(true), dir, true, file, body)
    }

    #[test]
    fn a_check_of_identical_files_is_clean_and_writes_nothing() {
        let dir = committed("check-clean");
        for (file, body) in [("f.json", JSON), ("f.svg", SVG), ("full_run.log", LOG)] {
            assert_eq!(check(&dir, file, body), Ok(()), "{file}");
        }
        assert!(check(&dir, "f.svg", "<svg/>\n").is_err());
        assert_eq!(std::fs::read_to_string(dir.join("f.svg")).unwrap(), SVG);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_doctored_json_number_names_the_file_and_the_field() {
        let dir = committed("check-json");
        let err = check(&dir, "f.json", &JSON.replace("120.0", "9120.0")).unwrap_err();
        assert!(err.contains("f.json differs"), "{err}");
        assert!(err.contains("error[DIFF0003] artifact: [0].sim0_w: 120.0 -> 9120.0"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_doctored_svg_or_log_names_the_file_and_the_line() {
        let dir = committed("check-text");
        let err = check(&dir, "f.svg", &SVG.replace("x=\"1\"", "x=\"2\"")).unwrap_err();
        assert!(err.contains("f.svg differs"), "{err}");
        assert!(err.contains(r#"line 2, column 10: committed "1\"/>", produced "2\"/>""#), "{err}");
        let err = check(&dir, "full_run.log", &LOG.replace("row", "rose")).unwrap_err();
        assert!(err.contains("full_run.log differs"), "{err}");
        assert!(err.contains(r#"line 2, column 3: committed "w", produced "se""#), "{err}");
        let err = check(&dir, "full_run.log", "=== fig1_trace ===").unwrap_err();
        assert!(
            err.contains(r#"line 2, column 1: committed "row", produced end of file"#),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_missing_file_is_named() {
        let dir = committed("check-missing");
        let err = check(&dir, "run_fleet_sweep.json", JSON).unwrap_err();
        assert!(err.contains("run_fleet_sweep.json is missing"), "{err}");
        assert!(!dir.join("run_fleet_sweep.json").exists(), "a check writes nothing");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_sync_row_prints_its_fields_in_order_under_the_number_rule() {
        let sync = insitu::SyncRecord {
            index: 3,
            start_s: 12.0,
            end_s: 12.5,
            sim_time_s: 0.1,
            analysis_time_s: 1e15,
            sim_cap_w: 110.0,
            analysis_cap_w: 98.25,
            sim_power_w: f64::NAN,
            analysis_power_w: -0.0,
            slack: 1.0 / 3.0,
            overhead_s: 2.5e-5,
        };
        let want = r#"[
  {
    "index": 3,
    "start_s": 12.0,
    "end_s": 12.5,
    "sim_time_s": 0.1,
    "analysis_time_s": 1e15,
    "sim_cap_w": 110.0,
    "analysis_cap_w": 98.25,
    "sim_power_w": null,
    "analysis_power_w": 0.0,
    "slack": 0.3333333333333333,
    "overhead_s": 0.000025
  }
]"#;
        assert_eq!(sync_rows(&[sync]).pretty(), want);
    }

    /// Every kind of document the workspace writes reads back as the
    /// value it was printed from: a figure's rows, the run document's
    /// sections (a report with violations, health rows, a registry with a
    /// histogram). Non-finite floats, which print as `null`, are left out.
    #[test]
    fn every_written_document_reads_back() {
        let reads_back = |v: Value| assert_eq!(parse(&v.pretty()), Ok(v.clone()), "{}", v.pretty());

        let quick = crate::experiments::find("fig8_power_caps").expect("a row of the table");
        for (name, body) in &crate::experiments::run_selection(&[quick], true)[0].files {
            if name.ends_with(".json") {
                let rows = parse(body).expect("the figure's rows parse");
                assert_eq!(&rows.pretty(), body, "{name} prints back byte for byte");
            }
        }

        let mut auditor = audit::StreamAuditor::new();
        let events = obs::TraceEvent::one_of_each();
        events.iter().for_each(|e| auditor.feed(e));
        let run = auditor.finish();
        assert!(!run.report.violations.is_empty(), "one event of each kind breaks invariants");
        assert!(run.registry.get_histogram("phase_ns").is_some());
        reads_back(run.report.to_value());
        run.health.iter().for_each(|h| reads_back(h.to_value()));
        reads_back(run.registry.to_value());
        reads_back(parse(&run.to_json()).expect("the run document parses"));
    }
}
