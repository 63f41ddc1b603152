//! Audit one or more JSONL trace files from disk: parse strictly, run the
//! invariant battery, print the derived summary.
//!
//! ```text
//! audit_trace [--json DIR] [--quiet] FILE...
//! ```
//!
//! Exits 1 when any file fails to parse or any invariant is violated —
//! the offline counterpart of the `--audit` flag the experiment bins
//! carry. Each file is audited line by line in constant memory (never
//! materialized as a `Vec` of events); `--json` writes the run document —
//! the report, the run-health snapshots and the metric registry — the
//! same `run_<name>.json` a bin's live `--audit` writes.

use audit::{diag, AuditReport, Diagnostic, StreamAuditor};
use bench::cli::{self, AuditTraceArgs};
use obs::Reporter;
use std::io::BufRead;
use std::path::Path;

const BIN: &str = "audit_trace";

const USAGE: &str = "\
usage: audit_trace [--json DIR] [--quiet] FILE...

  --json DIR   also write run_<file-stem>.json (the report, the
               per-interval run-health snapshots and the metric
               registry) into DIR
  --quiet      only print failures

feeds each JSONL trace line by line, in constant memory, through the
strict parser and the invariant battery, and prints the derived report
summary; a malformed line is reported as AUDIT0013 with its line
number; exits 1 on parse errors or violations";

/// Feed the file line by line through a [`StreamAuditor`]; peak memory is
/// one line plus the incremental checker state (O(active spans + nodes)),
/// independent of trace length. A malformed line is diagnosed as
/// `AUDIT0013` and aborts this file's audit.
fn audit_file(path: &Path, rep: &Reporter, json_dir: Option<&Path>) -> Result<AuditReport, ()> {
    let file = std::fs::File::open(path).map_err(|e| {
        eprintln!("{BIN}: cannot read {}: {e}", path.display());
    })?;
    let mut auditor = StreamAuditor::new();
    let mut reader = std::io::BufReader::new(file);
    // One buffer for every line, each cut where `lines()` would cut it.
    let mut buf = String::new();
    for line_no in 1.. {
        buf.clear();
        let read = reader.read_line(&mut buf).map_err(|e| {
            eprintln!("{BIN}: cannot read {}: {e}", path.display());
        })?;
        if read == 0 {
            break;
        }
        let line = buf.strip_suffix('\n').map_or(&*buf, |l| l.strip_suffix('\r').unwrap_or(l));
        if let Err(e) = auditor.feed_line(line) {
            let d = Diagnostic::new(diag::STREAM, format!("line {line_no}: {e}"));
            eprintln!("{BIN}: {}: {d}", path.display());
            return Err(());
        }
    }
    let outcome = auditor.finish();
    if let Some(dir) = json_dir {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
        let path = dir.join(format!("run_{stem}.json"));
        bench::write_file(rep, &path, &outcome.to_json()).map_err(drop)?;
    }
    Ok(outcome.report)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let AuditTraceArgs { files, json_dir, quiet } =
        AuditTraceArgs::parse(&argv).unwrap_or_else(|msg| cli::exit_usage(BIN, USAGE, &msg));
    let rep = Reporter::new(quiet);

    let mut failed = false;
    for path in &files {
        let Ok(report) = audit_file(path, &rep, json_dir.as_deref()) else {
            failed = true;
            continue;
        };
        rep.say(format!("{}: {}", path.display(), report.summary()));
        if !report.clean() {
            eprintln!("{BIN}: {}: {} violation(s)", path.display(), report.violations.len());
            for v in &report.violations {
                eprintln!("  {v}");
            }
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
