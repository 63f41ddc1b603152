//! Regenerate the paper's tables and figures, and the machine and fleet
//! sweeps:
//!
//! ```text
//! cargo run --release -p bench --bin repro                  # everything, in table order
//! cargo run --release -p bench --bin repro -- fig3_analyses fig4_power_alloc
//! ```
//!
//! Each selected experiment (see `bench::experiments::TABLE`) prints its
//! table under an `=== name ===` line and writes `results/<name>.json`,
//! some an SVG beside it; every distinct simulation the selection needs
//! runs once, in one batch. Stdout carries no path and no timing — it is
//! committed as `results/full_run.log` and regenerated byte for byte.
//! The common flags apply to every selected experiment; `--trace` /
//! `--trace-perfetto` need exactly one. Exits 1 when an output could not
//! be written or an audit found violations.

use bench::{cli, experiments};

const USAGE: &str = "\
usage: repro [NAME...] [--quick] [--quiet] [--trace FILE] [--trace-perfetto FILE] [--audit] [--profile]

  --quick                 shrink the experiments for smoke tests
  --quiet                 suppress progress output (results/* still written)
  --trace FILE            write the JSONL event trace of the representative run
  --trace-perfetto FILE   write a Chrome-trace/Perfetto JSON export
  --audit                 audit each representative run live (streaming invariant
                          battery; writes the run document results/run_<name>.json,
                          exits 1 on violations)
  --profile               time pipeline stages with monotonic wall clocks and
                          write results/profile_<name>.json (nondeterministic by
                          nature; never byte-diffed)

env: SEESAW_TRACE / SEESAW_TRACE_PERFETTO supply the paths when the flags are
absent; SEESAW_AUDIT=1 turns on --audit; SEESAW_PROFILE=1 turns on --profile";

fn usage_error(msg: &str) -> ! {
    let names: Vec<&str> = experiments::TABLE.iter().map(|e| e.name).collect();
    let usage = format!("{USAGE}\n\nNAME: {} (none = all)", names.join(" "));
    cli::exit_usage("repro", &usage, msg)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut selection = cli::Selection::parse(&argv).unwrap_or_else(|msg| usage_error(&msg));
    selection.args.env_fallback();
    selection.check_trace_target().unwrap_or_else(|msg| usage_error(&msg));
    let cli::Selection { experiments, args } = selection;
    let rep = args.reporter();

    let outputs = experiments::run_selection(&experiments, args.quick);
    let mut failures = 0;
    for (e, out) in experiments.iter().zip(&outputs) {
        rep.say(format!("=== {} ===", e.name));
        for line in &out.lines {
            rep.say(line);
        }
        for (file, body) in &out.files {
            failures += usize::from(bench::write_result(&rep, file, body).is_err());
        }
        // The representative run is an extra run after the sweep, so the
        // sweep's own output never depends on tracing.
        if args.wants_trace() || args.audit || args.profile {
            failures += cli::observe(e.name, &args, &rep, |tracer| e.trace(args.quick, tracer));
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
