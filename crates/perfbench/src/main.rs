//! `perfbench` — seeded end-to-end and per-layer host-time benchmark of
//! the SeeSAw stack. See `README.md` beside this crate and
//! `BENCHMARK.json` at the workspace root.
//!
//! All times are host time; simulated time appears only under `sim`.

mod compare;
mod digest;
mod harness;
mod host;
mod json;
mod probes;
mod seams;
mod span;
mod spec;
mod stats;
mod workloads;

#[cfg(test)]
mod tests;

use harness::RunArgs;
use std::process::{Command, ExitCode, Stdio};
use workloads::Size;

/// The seed `run` and `repeat` use when none is given. Seed 7 is held
/// out: no size or bound in this crate was chosen by looking at it.
const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "\
usage:
  perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
      measure one workload in this process; the last line of output is
      {\"correct\", \"attempted\", \"failed\", \"metrics\"}
  perfbench run [--seed N] [--seconds S] [--trace] [--smoke] [--out FILE]
      every workload, each in its own child process; one JSON document
  perfbench compare BASELINE.json CANDIDATE.json
      one row per (end-to-end metric, workload) against the metric's bound;
      exits 1 if any is exceeded, an op failed, or a digest moved
  perfbench repeat --sets N [--seed N] [--seconds S] [--smoke]
      run N full sets and compare each later set against the first
workloads: noisy_sweep theta_quiet md_insitu fleet_storm traced_audit";

/// Parsed command-line flags (each command reads the ones it takes).
#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    /// `--trace` alone (`run`) or `--trace 0|1` (single-workload form).
    trace: Option<bool>,
    smoke: bool,
    out: Option<String>,
    sets: Option<usize>,
    positional: Vec<String>,
}

impl Flags {
    /// Strict: an unknown flag, a missing value or a malformed number is
    /// an error, never a panic and never ignored.
    fn parse(args: &[String], trace_takes_value: bool) -> Result<Flags, String> {
        let mut f = Flags::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value =
                |what: &str| it.next().cloned().ok_or(format!("`{arg}` needs a value ({what})"));
            match arg.as_str() {
                "--workload" => f.workload = Some(value("a workload name")?),
                "--seed" => {
                    let v = value("a whole number")?;
                    f.seed = Some(v.parse().map_err(|_| format!("bad --seed `{v}`"))?);
                }
                "--seconds" => {
                    let v = value("seconds")?;
                    let s: f64 = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?;
                    if !(s.is_finite() && (0.0..=3600.0).contains(&s)) {
                        return Err(format!("--seconds `{v}` is outside [0, 3600]"));
                    }
                    f.seconds = Some(s);
                }
                "--trace" if trace_takes_value => {
                    f.trace = Some(match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("bad --trace `{v}` (0 or 1)")),
                    });
                }
                "--trace" => f.trace = Some(true),
                "--smoke" => f.smoke = true,
                "--out" => f.out = Some(value("a file path")?),
                "--sets" => {
                    let v = value("a count")?;
                    let n: usize = v.parse().map_err(|_| format!("bad --sets `{v}`"))?;
                    if !(2..=64).contains(&n) {
                        return Err(format!("--sets `{v}` is outside [2, 64]"));
                    }
                    f.sets = Some(n);
                }
                flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
                _ => f.positional.push(arg.clone()),
            }
        }
        Ok(f)
    }

    fn size(&self) -> Size {
        if self.smoke {
            Size::Smoke
        } else {
            Size::Full
        }
    }

    fn seconds_or_default(&self) -> f64 {
        self.seconds.unwrap_or(spec::spec().run_seconds as f64)
    }
}

/// The single-workload form the benchmark driver calls.
fn cmd_workload(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::parse(args, true)?;
    let need = |what: &str| format!("missing {what}");
    if !f.positional.is_empty() || f.out.is_some() || f.sets.is_some() {
        return Err("unexpected argument".to_string());
    }
    let run = RunArgs {
        workload: f.workload.clone().ok_or(need("--workload"))?,
        seed: f.seed.ok_or(need("--seed"))?,
        seconds: f.seconds.ok_or(need("--seconds"))?,
        trace: f.trace.ok_or(need("--trace"))?,
        size: f.size(),
    };
    let outcome = harness::run(&run)?;
    println!("{}", outcome.doc);
    println!("{}", outcome.contract);
    Ok(ExitCode::SUCCESS)
}

/// Run every workload, each in a child process of its own so that peak
/// RSS is per workload, and return their documents.
fn run_set(seed: u64, seconds: f64, trace: bool, smoke: bool) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut docs = Vec::new();
    for name in workloads::NAMES {
        eprintln!("perfbench: {name} (seed {seed}, {seconds} s, trace {})", u8::from(trace));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if smoke {
            cmd.arg("--smoke");
        }
        let out = cmd.output().map_err(|e| format!("cannot run {name}: {e}"))?;
        if !out.status.success() {
            return Err(format!("{name}: child exited with {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let doc = stdout.lines().next().ok_or(format!("{name}: child printed nothing"))?;
        docs.push(doc.to_string());
    }
    Ok(docs)
}

/// True when no workload document reports a failed op.
fn all_correct(docs: &[String]) -> bool {
    let failed = |d: &String| audit::json::parse(d).ok()?.get("failed")?.as_u64();
    docs.iter().all(|d| failed(d) == Some(0))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::parse(args, false)?;
    if !f.positional.is_empty() || f.workload.is_some() || f.sets.is_some() {
        return Err("unexpected argument".to_string());
    }
    let (seed, seconds, trace) =
        (f.seed.unwrap_or(DEFAULT_SEED), f.seconds_or_default(), f.trace.unwrap_or(false));
    let docs = run_set(seed, seconds, trace, f.smoke)?;
    let doc = harness::run_document(seed, seconds, trace, &docs);
    println!("{doc}");
    if let Some(path) = &f.out {
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(if all_correct(&docs) { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::parse(args, false)?;
    let [a, b] = f.positional.as_slice() else {
        return Err("compare takes exactly two files".to_string());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let c = compare::compare(&read(a)?, &read(b)?)?;
    print!("{}", c.report);
    Ok(if c.ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn cmd_repeat(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::parse(args, false)?;
    if !f.positional.is_empty() || f.workload.is_some() || f.trace.is_some() || f.out.is_some() {
        return Err("unexpected argument".to_string());
    }
    let sets = f.sets.ok_or("missing --sets")?;
    let (seed, seconds) = (f.seed.unwrap_or(DEFAULT_SEED), f.seconds_or_default());
    let mut ok = true;
    let mut first: Option<String> = None;
    for set in 1..=sets {
        eprintln!("perfbench: set {set} of {sets}");
        let docs = run_set(seed, seconds, false, f.smoke)?;
        ok &= all_correct(&docs);
        let doc = harness::run_document(seed, seconds, false, &docs);
        match &first {
            None => first = Some(doc),
            Some(base) => {
                let c = compare::compare(base, &doc)?;
                println!("set {set} against set 1");
                print!("{}", c.report);
                ok &= c.ok;
            }
        }
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("repeat") => cmd_repeat(&args[1..]),
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => cmd_workload(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
