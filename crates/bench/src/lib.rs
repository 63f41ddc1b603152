//! # bench — the experiment harness
//!
//! `repro` regenerates every table and figure of the SeeSAw paper, and
//! the machine and fleet sweeps, from the table in [`experiments`];
//! `benches/` holds the plain-`main` micro-benchmarks behind
//! `results/BENCH_*.json`. Each experiment prints a human-readable table
//! mirroring the paper's presentation and writes the raw rows as JSON
//! (some also an SVG chart) under `results/`. Every JSON document the
//! harness writes — figure rows, run documents, bench records, stage
//! profiles — is an [`obs::json::Value`] printed by its one writer.
//!
//! ```text
//! cargo run --release -p bench --bin repro                  # everything
//! cargo run --release -p bench --bin repro -- fig3_analyses fig4_power_alloc
//! cargo run --release -p bench --bin repro -- machine_sweep_theta --audit
//! ```
//!
//! `repro` and `run_experiment` accept the same common flags (parsed
//! strictly — unknown flags are a usage error): `--quick` shrinks
//! steps/scales for smoke-testing, `--quiet` suppresses progress output,
//! and `--trace`/`--trace-perfetto`/`--audit` observe a representative
//! run (see [`cli`]). Every bin exits 1 when an output could not be
//! written.

#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod gate;
pub mod json;
mod svg;

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

/// Write `body` to `results/<file>`, creating the directory if needed: a
/// note on success, a warning on failure. The `Err` is for the caller to
/// count, so that it can try every other write before exiting 1.
pub fn write_result(rep: &Reporter, file: &str, body: &str) -> std::io::Result<()> {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        rep.warn(format!("cannot create {}: {e}", dir.display()));
        return Err(e);
    }
    write_file(rep, &dir.join(file), body)
}

/// [`write_result`] to any `path`, its directory left as it is.
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

// Shared JSON shape for per-sync rows (`run_experiment --dump-syncs`).
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
