//! Shared CLI handling for the experiment bins.
//!
//! Every bin accepts the same common flags — `--quick`, `--quiet`,
//! `--trace FILE`, `--trace-perfetto FILE`, `--audit` — parsed strictly:
//! an unknown flag is a usage error (exit 2), never silently ignored.
//! When the trace flags are absent the `SEESAW_TRACE` /
//! `SEESAW_TRACE_PERFETTO` environment variables supply the paths, so
//! sweeps driven by scripts can opt into tracing without touching each
//! invocation; `SEESAW_AUDIT=1` likewise turns on `--audit` and
//! `SEESAW_PROFILE=1` turns on `--profile` (the wall-clock stage
//! profiler, written to `results/profile_<bin>.json` — the one artifact
//! deliberately excluded from the byte-determinism gates).

use crate::experiments::{self, Experiment};
use obs::Reporter;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Flags shared by every experiment bin.
#[derive(Debug, Clone, Default)]
pub struct CommonArgs {
    /// Shrink the experiment for CI smoke tests (`--quick`).
    pub quick: bool,
    /// Suppress progress output (`--quiet`); `results/*` is still written.
    pub quiet: bool,
    /// Write the JSONL event trace of a representative run here.
    pub trace: Option<PathBuf>,
    /// Write a Chrome-trace/Perfetto JSON export of the same run here.
    pub perfetto: Option<PathBuf>,
    /// Audit the representative run live (`--audit`): stream its events
    /// through the incremental invariant battery, write
    /// `results/audit_<bin>.json` plus run-health snapshots and the
    /// metric registry, and exit nonzero on any violation.
    pub audit: bool,
    /// Profile wall-clock stage timings (`--profile`): opt-in monotonic
    /// timers around the pipeline stages feed log₂-bucket histograms,
    /// written to `results/profile_<bin>.json`. Wall-clock readings are
    /// inherently nondeterministic, so this artifact never enters a
    /// byte-diff gate.
    pub profile: bool,
}

impl CommonArgs {
    /// Parse the process arguments, accepting only the common flags.
    /// Unknown flags print a usage error and exit with status 2.
    pub fn parse(bin: &str) -> CommonArgs {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match try_parse(&argv) {
            Ok(mut args) => {
                args.env_fallback();
                args
            }
            Err(msg) => usage_error(bin, &msg),
        }
    }

    /// The progress reporter configured by `--quiet`.
    pub fn reporter(&self) -> Reporter {
        Reporter::new(self.quiet)
    }

    /// Whether either trace output was requested.
    pub fn wants_trace(&self) -> bool {
        self.trace.is_some() || self.perfetto.is_some()
    }

    /// Fill unset trace paths from `SEESAW_TRACE` / `SEESAW_TRACE_PERFETTO`,
    /// the audit flag from `SEESAW_AUDIT`, and the profile flag from
    /// `SEESAW_PROFILE` — then arm the process-global stage profiler to
    /// match, so stage timers deep in the engine crates need no plumbing.
    /// Every bin (including the ones with custom argv handling) calls
    /// this before running.
    pub fn env_fallback(&mut self) {
        if self.trace.is_none() {
            if let Ok(p) = std::env::var("SEESAW_TRACE") {
                if !p.is_empty() {
                    self.trace = Some(PathBuf::from(p));
                }
            }
        }
        if self.perfetto.is_none() {
            if let Ok(p) = std::env::var("SEESAW_TRACE_PERFETTO") {
                if !p.is_empty() {
                    self.perfetto = Some(PathBuf::from(p));
                }
            }
        }
        if !self.audit {
            if let Ok(p) = std::env::var("SEESAW_AUDIT") {
                if p == "1" || p.eq_ignore_ascii_case("true") {
                    self.audit = true;
                }
            }
        }
        if !self.profile {
            if let Ok(p) = std::env::var("SEESAW_PROFILE") {
                if p == "1" || p.eq_ignore_ascii_case("true") {
                    self.profile = true;
                }
            }
        }
        obs::profile::set_enabled(self.profile);
    }
}

/// Parse `argv` accepting only the common flags; `Err` carries the
/// offending-flag message. Exposed (and exit-free) for unit tests.
pub fn try_parse(argv: &[String]) -> Result<CommonArgs, String> {
    parse_with(argv, unknown_flag)
}

fn unknown_flag(arg: &str) -> Result<(), String> {
    Err(format!("unknown flag {arg:?}"))
}

/// The experiments and flags one `repro` command line asks for.
#[derive(Debug)]
pub struct Selection {
    /// The experiments to run, in table order: the named ones, or all.
    pub experiments: Vec<&'static Experiment>,
    /// The common flags.
    pub args: CommonArgs,
}

impl Selection {
    /// Parse `repro`'s `argv`: the common flags plus experiment names as
    /// positional arguments, each checked against the table. Exit-free and
    /// blind to the environment, like [`try_parse`].
    pub fn parse(argv: &[String]) -> Result<Selection, String> {
        let mut named: Vec<&str> = Vec::new();
        let args = parse_with(argv, |arg| {
            if arg.starts_with('-') {
                return unknown_flag(arg);
            }
            let known =
                experiments::find(arg).ok_or_else(|| format!("unknown experiment {arg:?}"))?;
            if named.contains(&known.name) {
                return Err(format!("experiment {arg:?} named twice"));
            }
            named.push(known.name);
            Ok(())
        })?;
        let selected = |e: &&Experiment| named.is_empty() || named.contains(&e.name);
        let selection =
            Selection { experiments: experiments::TABLE.iter().filter(selected).collect(), args };
        selection.check_trace_target()?;
        Ok(selection)
    }

    /// A trace file records one run — the representative run of one
    /// experiment — so asking for one with any other selection is an
    /// error. `repro` checks again once the environment has had its say.
    pub fn check_trace_target(&self) -> Result<(), String> {
        if self.args.wants_trace() && self.experiments.len() != 1 {
            return Err(format!(
                "a trace file records one experiment's representative run; {} are selected",
                self.experiments.len()
            ));
        }
        Ok(())
    }
}

/// The common-flag parser; anything that is not a common flag goes to `other`.
fn parse_with(
    argv: &[String],
    mut other: impl FnMut(&str) -> Result<(), String>,
) -> Result<CommonArgs, String> {
    let mut out = CommonArgs::default();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => out.quick = true,
            "--quiet" => out.quiet = true,
            "--audit" => out.audit = true,
            "--profile" => out.profile = true,
            "--trace" => {
                i += 1;
                let p = argv.get(i).ok_or("--trace requires a file path")?;
                out.trace = Some(PathBuf::from(p));
            }
            "--trace-perfetto" => {
                i += 1;
                let p = argv.get(i).ok_or("--trace-perfetto requires a file path")?;
                out.perfetto = Some(PathBuf::from(p));
            }
            "--help" | "-h" => return Err(String::new()),
            arg => other(arg)?,
        }
        i += 1;
    }
    Ok(out)
}

/// The usage text for a bin accepting only the common flags. `<name>`
/// in it is the bin, or for `repro` the experiment.
pub fn usage(bin: &str) -> String {
    format!(
        "usage: {bin} [--quick] [--quiet] [--trace FILE] [--trace-perfetto FILE] [--audit] [--profile]\n\
         \n\
         \x20 --quick                 shrink the experiment for smoke tests\n\
         \x20 --quiet                 suppress progress output (results/* still written)\n\
         \x20 --trace FILE            write the JSONL event trace of a representative run\n\
         \x20 --trace-perfetto FILE   write a Chrome-trace/Perfetto JSON export\n\
         \x20 --audit                 audit the representative run live (streaming invariant\n\
         \x20                         battery; writes results/audit_<name>.json plus\n\
         \x20                         health_<name>.json and metrics_<name>.json, exits 1 on\n\
         \x20                         violations)\n\
         \x20 --profile               time pipeline stages with monotonic wall clocks and\n\
         \x20                         write results/profile_<name>.json (nondeterministic by\n\
         \x20                         nature; never byte-diffed)\n\
         \n\
         env: SEESAW_TRACE / SEESAW_TRACE_PERFETTO supply the paths when the flags are\n\
         absent; SEESAW_AUDIT=1 turns on --audit; SEESAW_PROFILE=1 turns on --profile"
    )
}

/// Print `msg` (if any) and the usage text to stderr, then exit 2.
pub fn usage_error(bin: &str, msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("{bin}: {msg}");
    }
    eprintln!("{}", usage(bin));
    std::process::exit(2);
}

/// One representative run's observability wiring: a tracer for the run
/// to emit into, plus (under `--audit`) a live [`audit::StreamAuditor`]
/// attached as a subscriber. The tracer buffers only when a trace file
/// was requested; `--audit` alone uses a streaming (constant-memory)
/// tracer — events flow through the auditor and are dropped, so the
/// audited run never materializes a full `Vec` of events.
pub struct TraceSession {
    /// Hand this to the run (`set_tracer` / `run_job_traced`).
    pub tracer: obs::Tracer,
    auditor: Option<Arc<Mutex<audit::StreamAuditor>>>,
}

/// Build the observability wiring for one representative run from the
/// common flags. The returned session is inert (tracer off, no auditor)
/// when neither trace files nor `--audit` were requested.
pub fn trace_session(args: &CommonArgs) -> TraceSession {
    let tracer = if args.wants_trace() {
        obs::Tracer::enabled()
    } else if args.audit {
        obs::Tracer::streaming()
    } else {
        obs::Tracer::off()
    };
    let auditor = if args.audit {
        let auditor = Arc::new(Mutex::new(audit::StreamAuditor::new()));
        tracer.attach(Box::new(Arc::clone(&auditor)));
        Some(auditor)
    } else {
        None
    };
    TraceSession { tracer, auditor }
}

/// Finish a session after the run: write the requested trace exports,
/// then (under `--audit`) finalize the streaming auditor and write
/// `results/audit_<bin>.json`, `results/health_<bin>.json` (per-interval
/// run-health snapshots), and `results/metrics_<bin>.json` (the metric
/// registry). **Exits the process with status 1** when the audit finds
/// violations.
pub fn finish_session(bin: &str, args: &CommonArgs, rep: &Reporter, session: TraceSession) {
    let TraceSession { tracer, auditor } = session;
    write_trace_files(args, rep, &tracer);
    if args.profile {
        let path = crate::results_dir().join(format!("profile_{bin}.json"));
        match std::fs::write(&path, obs::profile::to_json()) {
            Ok(()) => rep.note(format!("wrote {} (wall-clock; not byte-gated)", path.display())),
            Err(e) => rep.warn(format!("cannot write {}: {e}", path.display())),
        }
    }
    let Some(auditor) = auditor else { return };
    // The run may still hold tracer clones (scheduler handles), so take
    // the auditor's state out through the shared cell rather than trying
    // to unwrap the Arc.
    let auditor = std::mem::take(&mut *auditor.lock().expect("auditor poisoned"));
    let outcome = auditor.finish();
    let dir = crate::results_dir();
    let writes = [
        (dir.join(format!("audit_{bin}.json")), outcome.report.to_json()),
        (dir.join(format!("health_{bin}.json")), audit::health_to_json(&outcome.health)),
        (dir.join(format!("metrics_{bin}.json")), outcome.registry.to_json()),
    ];
    for (path, body) in writes {
        match std::fs::write(&path, body) {
            Ok(()) => rep.note(format!("wrote {}", path.display())),
            Err(e) => rep.warn(format!("cannot write {}: {e}", path.display())),
        }
    }
    let report = outcome.report;
    rep.note(report.summary());
    if !report.clean() {
        eprintln!("{bin}: trace audit FAILED with {} violation(s)", report.violations.len());
        for v in &report.violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}

/// Run one representative traced run of `cfg`, write the requested
/// exports, and audit the trace when `--audit` is on — live, through the
/// streaming subscriber seam, not by re-walking a buffered trace. Called
/// *after* a bin's main sweep so the sweep's own output (tables,
/// `results/*.json`) is byte-identical whether or not tracing is on —
/// the traced run is an extra run, not an instrumented sweep member.
///
/// **Exits the process with status 1** when the audit finds violations.
pub fn export_trace(bin: &str, args: &CommonArgs, rep: &Reporter, cfg: &insitu::JobConfig) {
    if !args.wants_trace() && !args.audit && !args.profile {
        return;
    }
    let session = trace_session(args);
    if let Err(e) = insitu::run_job_traced(cfg.clone(), &session.tracer) {
        rep.warn(format!("trace run failed: {e}"));
        return;
    }
    finish_session(bin, args, rep, session);
}

/// Write the JSONL and/or Perfetto exports of an already-filled tracer.
pub fn write_trace_files(args: &CommonArgs, rep: &Reporter, tracer: &obs::Tracer) {
    if let Some(path) = &args.trace {
        match std::fs::write(path, tracer.to_jsonl()) {
            Ok(()) => rep.note(format!("wrote trace {} ({} events)", path.display(), tracer.len())),
            Err(e) => rep.warn(format!("cannot write {}: {e}", path.display())),
        }
    }
    if let Some(path) = &args.perfetto {
        match std::fs::write(path, obs::chrome_trace(&tracer.events())) {
            Ok(()) => rep.note(format!("wrote perfetto trace {}", path.display())),
            Err(e) => rep.warn(format!("cannot write {}: {e}", path.display())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn common_flags_parse() {
        let a = try_parse(&argv(&["--quick", "--quiet"])).unwrap();
        assert!(a.quick && a.quiet);
        assert!(a.trace.is_none() && a.perfetto.is_none());
        assert!(!a.audit);
        let a = try_parse(&argv(&["--trace", "t.jsonl", "--trace-perfetto", "p.json"])).unwrap();
        assert_eq!(a.trace.as_deref(), Some(std::path::Path::new("t.jsonl")));
        assert_eq!(a.perfetto.as_deref(), Some(std::path::Path::new("p.json")));
        assert!(a.wants_trace());
    }

    #[test]
    fn audit_flag_parses() {
        let a = try_parse(&argv(&["--audit"])).unwrap();
        assert!(a.audit);
        assert!(!a.wants_trace(), "--audit alone requests no trace files");
    }

    #[test]
    fn profile_flag_parses() {
        let a = try_parse(&argv(&["--profile"])).unwrap();
        assert!(a.profile);
        assert!(!a.audit && !a.wants_trace());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = try_parse(&argv(&["--bogus"])).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        // A value-less --trace is also an error, not a silent skip.
        assert!(try_parse(&argv(&["--trace"])).is_err());
    }

    #[test]
    fn selection_names_are_checked_against_the_table() {
        let all = Selection::parse(&argv(&["--quick"])).unwrap();
        assert_eq!(all.experiments.len(), experiments::TABLE.len());
        // Named experiments run in table order, whatever the argv order.
        let two = Selection::parse(&argv(&["fault_sweep", "--quiet", "fig1_trace"])).unwrap();
        let names: Vec<&str> = two.experiments.iter().map(|e| e.name).collect();
        assert_eq!(names, ["fig1_trace", "fault_sweep"]);
        assert!(two.args.quiet);

        let err = |args: &[&str]| Selection::parse(&argv(args)).unwrap_err();
        assert!(err(&["no_such_experiment"]).contains("no_such_experiment"));
        assert!(err(&["fig1_trace", "fig1_trace"]).contains("twice"));
        assert!(err(&["--bogus"]).contains("--bogus"));
        assert_eq!(err(&["--help"]), "");
    }

    #[test]
    fn a_trace_file_needs_exactly_one_experiment() {
        let parse = |args: &[&str]| Selection::parse(&argv(args));
        assert!(parse(&["--trace", "t.jsonl"]).unwrap_err().contains("12 are selected"));
        assert!(parse(&["fig1_trace", "ablation", "--trace-perfetto", "p.json"]).is_err());
        assert!(parse(&["fig1_trace", "--trace", "t.jsonl"]).is_ok());
        // The environment can name a trace file too: the check runs again
        // on the flags as `env_fallback` left them.
        let mut all = parse(&[]).unwrap();
        all.args.trace = Some("t.jsonl".into());
        assert!(all.check_trace_target().is_err());
    }

    #[test]
    fn empty_argv_is_fine() {
        let a = try_parse(&[]).unwrap();
        assert!(!a.quick && !a.quiet && !a.wants_trace());
    }
}
