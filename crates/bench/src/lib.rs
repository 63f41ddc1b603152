//! # bench — the experiment harness
//!
//! `repro` regenerates every table and figure of the SeeSAw paper from
//! the table in [`experiments`]; `benches/` holds the plain-`main`
//! micro-benchmarks behind `results/BENCH_*.json`. Each experiment prints
//! a human-readable table mirroring the paper's presentation and writes
//! the raw rows as JSON (some also an SVG chart) under `results/`.
//!
//! ```text
//! cargo run --release -p bench --bin repro                  # everything
//! cargo run --release -p bench --bin repro -- fig3_analyses fig4_power_alloc
//! ```
//!
//! Every binary accepts the same common flags (parsed strictly — unknown
//! flags are a usage error): `--quick` shrinks steps/scales for
//! smoke-testing, `--quiet` suppresses progress output, and
//! `--trace`/`--trace-perfetto` export an event trace of a representative
//! run (see [`cli`]).

#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod gate;
pub mod json;
pub mod svg;

use json::ToJson;
use obs::Reporter;
use std::path::{Path, PathBuf};

/// Where experiment output lands (`results/` at the workspace root, or
/// `$SEESAW_RESULTS_DIR`).
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

/// Serialize `rows` as pretty JSON into `results/<name>.json`.
pub fn write_json<T: ToJson + ?Sized>(rep: &Reporter, name: &str, rows: &T) {
    write_result(rep, &format!("{name}.json"), &rows.to_json().pretty());
}

/// Write `body` to `results/<file>`, creating the directory if needed.
pub fn write_result(rep: &Reporter, file: &str, body: &str) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        rep.warn(format!("cannot create {dir:?}: {e}"));
        return;
    }
    let path = dir.join(file);
    if let Err(e) = std::fs::write(&path, body) {
        rep.warn(format!("cannot write {path:?}: {e}"));
    } else {
        rep.note(format!("wrote {}", display_rel(&path)));
    }
}

// Shared JSON shape for per-sync rows (`run_experiment --dump-syncs` and
// any bin dumping raw sync traces).
json_struct!(insitu::SyncRecord {
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
});

fn display_rel(path: &Path) -> String {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(|p| p.display().to_string()))
        .unwrap_or_else(|| path.display().to_string())
}

/// `--quick` mode: shrink the experiment for CI smoke tests.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Steps to simulate: the paper's 400, or fewer under `--quick`.
pub fn total_steps() -> u64 {
    experiments::steps(quick_mode())
}

/// Print a markdown-style table through the reporter.
pub fn print_table(rep: &Reporter, headers: &[&str], rows: &[Vec<String>]) {
    for line in table_lines(headers, rows) {
        rep.say(line);
    }
}

/// The lines of a markdown-style table.
pub(crate) fn table_lines(headers: &[&str], rows: &[Vec<String>]) -> Vec<String> {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        format!("| {} |", padded.join(" | "))
    };
    let rule = widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|");
    let mut lines =
        vec![line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()), format!("|{rule}|")];
    lines.extend(rows.iter().map(|row| line(row)));
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_formed() {
        let d = results_dir();
        assert!(d.ends_with("results"));
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(&Reporter::default(), &["a", "bb"], &[vec!["1".into(), "2".into()]]);
    }
}
