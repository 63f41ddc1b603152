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
//! materialized as a `Vec` of events); `--json` writes the report, the
//! run-health snapshots and the metric registry.

use audit::{diag, AuditReport, Diagnostic, StreamAuditor};
use obs::Reporter;
use std::io::BufRead;
use std::path::{Path, PathBuf};

const BIN: &str = "audit_trace";

fn usage() -> ! {
    eprintln!(
        "usage: {BIN} [--json DIR] [--quiet] FILE...\n\
         \n\
         \x20 --json DIR   also write audit_<file-stem>.json (the report),\n\
         \x20              health_<file-stem>.json (per-interval run-health\n\
         \x20              snapshots) and metrics_<file-stem>.json (the metric\n\
         \x20              registry) into DIR\n\
         \x20 --quiet      only print failures\n\
         \n\
         feeds each JSONL trace line by line, in constant memory, through the\n\
         strict parser and the invariant battery, and prints the derived report\n\
         summary; a malformed line is reported as AUDIT0013 with its line\n\
         number; exits 1 on parse errors or violations"
    );
    std::process::exit(2);
}

fn write_json(rep: &Reporter, out: &Path, body: &str) -> bool {
    match std::fs::write(out, body) {
        Ok(()) => {
            rep.note(format!("wrote {}", out.display()));
            true
        }
        Err(e) => {
            eprintln!("{BIN}: cannot write {}: {e}", out.display());
            false
        }
    }
}

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
        let writes = [
            (format!("audit_{stem}.json"), outcome.report.to_json()),
            (format!("health_{stem}.json"), audit::health_to_json(&outcome.health)),
            (format!("metrics_{stem}.json"), outcome.registry.to_json()),
        ];
        for (name, body) in writes {
            if !write_json(rep, &dir.join(name), &body) {
                return Err(());
            }
        }
    }
    Ok(outcome.report)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<PathBuf> = Vec::new();
    let mut json_dir: Option<PathBuf> = None;
    let mut quiet = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--json" => {
                i += 1;
                json_dir = Some(PathBuf::from(argv.get(i).cloned().unwrap_or_else(|| usage())));
            }
            "--quiet" => quiet = true,
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => usage(),
            file => files.push(PathBuf::from(file)),
        }
        i += 1;
    }
    if files.is_empty() {
        usage();
    }
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
