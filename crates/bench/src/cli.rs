//! Shared CLI handling for the bins.
//!
//! Every argv parser walks one [`Argv`] cursor and returns
//! `Result<_, String>`: a bad command line never exits from inside a
//! parser, and each bin hands the `Err` to [`exit_usage`] (usage text,
//! exit 2). The common flags — `--quick`, `--quiet`, `--trace FILE`,
//! `--trace-perfetto FILE`, `--audit`, `--profile` — are parsed strictly:
//! an unknown flag is a usage error, never silently ignored. When the
//! trace flags are absent the `SEESAW_TRACE` / `SEESAW_TRACE_PERFETTO`
//! environment variables supply the paths; `SEESAW_AUDIT=1` likewise
//! turns on `--audit` and `SEESAW_PROFILE=1` turns on `--profile` (the
//! wall-clock stage profiler, written to `results/profile_<name>.json` —
//! the one artifact deliberately excluded from the byte-determinism
//! gates).

use crate::experiments::{self, Experiment};
use obs::Reporter;
use std::fmt::Debug;
use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::{Arc, Mutex};

/// An exit-free cursor over a command line: the next token, a flag's
/// value, or a flag's value as a number inside an inclusive range.
pub struct Argv<'a>(std::slice::Iter<'a, String>);

impl<'a> Argv<'a> {
    /// A cursor at the first token of `argv` (program name already gone).
    pub fn new(argv: &'a [String]) -> Self {
        Argv(argv.iter())
    }

    /// The token after `flag`, which requires one.
    pub fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next().ok_or_else(|| format!("{flag} requires a value"))
    }

    /// The token after `flag` as a number in `range`. NaN is in no range.
    pub fn number<T: FromStr + PartialOrd + Debug>(
        &mut self,
        flag: &str,
        range: RangeInclusive<T>,
    ) -> Result<T, String> {
        let v = self.value(flag)?;
        let n: T = v.parse().map_err(|_| format!("{flag}: not a valid number: {v:?}"))?;
        if range.contains(&n) {
            Ok(n)
        } else if n > *range.end() {
            Err(format!("{flag} must be at most {:?}", range.end()))
        } else {
            Err(format!("{flag} must be at least {:?}", range.start()))
        }
    }
}

impl<'a> Iterator for Argv<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }
}

/// Print `msg` (if any; `--help` has none) and `usage` to stderr, then
/// exit 2: where every bin's argv `Err` ends.
pub fn exit_usage(bin: &str, usage: &str, msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("{bin}: {msg}");
    }
    eprintln!("{usage}");
    std::process::exit(2);
}

/// Flags shared by `repro` and `run_experiment`.
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
    /// through the incremental invariant battery, write the run document
    /// `results/run_<name>.json` (report, run-health snapshots and metric
    /// registry), and exit nonzero on any violation.
    pub audit: bool,
    /// Profile wall-clock stage timings (`--profile`): opt-in monotonic
    /// timers around the pipeline stages feed log₂-bucket histograms,
    /// written to `results/profile_<name>.json`. Wall-clock readings are
    /// inherently nondeterministic, so this artifact never enters a
    /// byte-diff gate.
    pub profile: bool,
}

impl CommonArgs {
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
    /// Every bin calls this once its argv has parsed.
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
/// offending-flag message. Exit-free and blind to the environment.
pub fn try_parse(argv: &[String]) -> Result<CommonArgs, String> {
    parse_with(argv, |arg| Err(unknown_flag(arg)))
}

fn unknown_flag(arg: &str) -> String {
    format!("unknown flag {arg:?}")
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
                return Err(unknown_flag(arg));
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
    let mut args = Argv::new(argv);
    while let Some(arg) = args.next() {
        match arg {
            "--quick" => out.quick = true,
            "--quiet" => out.quiet = true,
            "--audit" => out.audit = true,
            "--profile" => out.profile = true,
            "--trace" => out.trace = Some(args.value(arg)?.into()),
            "--trace-perfetto" => out.perfetto = Some(args.value(arg)?.into()),
            "--help" | "-h" => return Err(String::new()),
            arg => other(arg)?,
        }
    }
    Ok(out)
}

/// `audit_trace`'s command line: `[--json DIR] [--quiet] FILE...`.
#[derive(Debug)]
pub struct AuditTraceArgs {
    /// The traces to audit, at least one.
    pub files: Vec<PathBuf>,
    /// Where to write each file's run document.
    pub json_dir: Option<PathBuf>,
    /// Only print failures.
    pub quiet: bool,
}

impl AuditTraceArgs {
    /// Parse `audit_trace`'s `argv`, exit-free.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut out = AuditTraceArgs { files: Vec::new(), json_dir: None, quiet: false };
        let mut args = Argv::new(argv);
        while let Some(arg) = args.next() {
            match arg {
                "--json" => out.json_dir = Some(args.value(arg)?.into()),
                "--quiet" => out.quiet = true,
                "--help" | "-h" => return Err(String::new()),
                flag if flag.starts_with("--") => return Err(unknown_flag(flag)),
                file => out.files.push(file.into()),
            }
        }
        if out.files.is_empty() {
            return Err("no trace FILE given".into());
        }
        Ok(out)
    }
}

/// `trace_diff`'s command line: `[--artifact] [--context K] [--rel-tol X]
/// [--quiet] A B`.
#[derive(Debug)]
pub struct TraceDiffArgs {
    /// The first file.
    pub a: PathBuf,
    /// The second file.
    pub b: PathBuf,
    /// Compare JSON artifacts instead of JSONL traces.
    pub artifact: bool,
    /// Events of causal context kept per involved entity.
    pub context: usize,
    /// Artifact mode: relative tolerance for numeric deltas.
    pub rel_tol: f64,
    /// Print nothing; answer by exit status only.
    pub quiet: bool,
}

impl TraceDiffArgs {
    /// Largest `--context`. The context rings are what keeps trace mode
    /// in constant memory; an unbounded K would let them hold the trace.
    pub const MAX_CONTEXT: usize = 1_000;

    /// Parse `trace_diff`'s `argv`, exit-free.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let (mut artifact, mut quiet) = (false, false);
        let (mut context, mut rel_tol) = (audit::diff::DEFAULT_CONTEXT, 0.0);
        let mut paths: Vec<PathBuf> = Vec::new();
        let mut args = Argv::new(argv);
        while let Some(arg) = args.next() {
            match arg {
                "--artifact" => artifact = true,
                "--quiet" => quiet = true,
                "--context" => context = args.number(arg, 0..=Self::MAX_CONTEXT)?,
                "--rel-tol" => rel_tol = args.number(arg, 0.0..=f64::MAX)?,
                "--help" | "-h" => return Err(String::new()),
                flag if flag.starts_with("--") => return Err(unknown_flag(flag)),
                path => paths.push(path.into()),
            }
        }
        let [a, b]: [PathBuf; 2] = paths
            .try_into()
            .map_err(|p: Vec<PathBuf>| format!("expected exactly 2 files, got {}", p.len()))?;
        Ok(TraceDiffArgs { a, b, artifact, context, rel_tol, quiet })
    }
}

/// `bench_gate`'s command line: `--fresh DIR [--baseline DIR] [--quiet]`.
#[derive(Debug)]
pub struct BenchGateArgs {
    /// Freshly produced `BENCH_*.json` documents.
    pub fresh: PathBuf,
    /// The committed baselines (default: the results directory).
    pub baseline: Option<PathBuf>,
    /// Suppress per-document notes.
    pub quiet: bool,
}

impl BenchGateArgs {
    /// Parse `bench_gate`'s `argv`, exit-free.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let (mut fresh, mut baseline, mut quiet) = (None, None, false);
        let mut args = Argv::new(argv);
        while let Some(arg) = args.next() {
            match arg {
                "--fresh" => fresh = Some(args.value(arg)?.into()),
                "--baseline" => baseline = Some(args.value(arg)?.into()),
                "--quiet" => quiet = true,
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unexpected argument {other:?}")),
            }
        }
        let fresh = fresh.ok_or("--fresh DIR is required")?;
        Ok(BenchGateArgs { fresh, baseline, quiet })
    }
}

/// Run `run` under the observation the common flags ask for, then write
/// what it recorded. The tracer `run` gets buffers only when a trace file
/// was requested; `--audit` alone streams events through a live
/// [`audit::StreamAuditor`] and drops them, so an audited run never
/// materializes its events; with neither it is off. Afterwards: the trace
/// exports, `results/profile_<name>.json` under `--profile`, and under
/// `--audit` the run document `results/run_<name>.json` (the report, the
/// per-interval run-health snapshots and the metric registry). Every
/// write is attempted. Returns the number of failures — writes that
/// failed, plus one for an audit with violations — for the caller to exit
/// 1 on.
pub fn observe(
    name: &str,
    args: &CommonArgs,
    rep: &Reporter,
    run: impl FnOnce(&obs::Tracer),
) -> usize {
    let tracer = if args.wants_trace() {
        obs::Tracer::enabled()
    } else if args.audit {
        obs::Tracer::streaming()
    } else {
        obs::Tracer::off()
    };
    let auditor = args.audit.then(|| Arc::new(Mutex::new(audit::StreamAuditor::new())));
    if let Some(auditor) = &auditor {
        tracer.attach(Box::new(Arc::clone(auditor)));
    }
    run(&tracer);

    let mut written = Vec::new();
    if let Some(path) = &args.trace {
        written.push(crate::write_file(rep, path, &tracer.to_jsonl()));
    }
    if let Some(path) = &args.perfetto {
        written.push(crate::write_file(rep, path, &obs::chrome_trace(&tracer.events())));
    }
    let mut documents = Vec::new();
    if args.profile {
        documents.push((format!("profile_{name}.json"), obs::profile::to_value().pretty()));
    }
    let mut violated = false;
    if let Some(auditor) = auditor {
        // The run may have left tracer clones behind (scheduler handles),
        // so take the auditor's state out through the shared cell rather
        // than trying to unwrap the Arc.
        let outcome = std::mem::take(&mut *auditor.lock().expect("auditor poisoned")).finish();
        documents.push((format!("run_{name}.json"), outcome.to_json()));
        let report = outcome.report;
        rep.note(report.summary());
        if !report.clean() {
            eprintln!("{name}: trace audit FAILED with {} violation(s)", report.violations.len());
            for v in &report.violations {
                eprintln!("  {v}");
            }
            violated = true;
        }
    }
    for (file, body) in documents {
        written.push(crate::write_result(rep, &file, &body));
    }
    written.iter().filter(|w| w.is_err()).count() + usize::from(violated)
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
        assert!(parse(&["--trace", "t.jsonl"]).unwrap_err().contains("15 are selected"));
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

    /// A trace export that cannot be written is counted, not just warned
    /// about: the bin exits 1 on it.
    #[test]
    fn a_failed_trace_write_is_a_failure() {
        let args =
            CommonArgs { trace: Some("/nonexistent/dir/t.jsonl".into()), ..Default::default() };
        assert_eq!(observe("t", &args, &Reporter::new(true), |_| {}), 1);
    }
}
