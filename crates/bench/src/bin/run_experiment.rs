//! General-purpose experiment CLI: explore any configuration without
//! writing code.
//!
//! ```text
//! cargo run --release -p bench --bin run_experiment -- \
//!     --controller seesaw --nodes 128 --dim 16 --analyses msd \
//!     --steps 400 --budget 110 --window 1 --sync-every 1 --seed 1
//! ```
//!
//! Prints the run summary and the improvement over a paired static
//! baseline. `--trace FILE` writes the JSONL event trace of the controller
//! run, `--trace-perfetto FILE` a Chrome-trace export of the same run
//! (`chrome://tracing` / <https://ui.perfetto.dev>), and `--dump-syncs`
//! prints the per-sync records as JSON. Unknown flags are a usage error.

use bench::cli;
use insitu::{improvement_pct, run_job_traced, run_paired_traced, JobConfig, RunResult};
use mdsim::workload::WorkloadSpec;
use mdsim::{AnalysisKind, AnalysisSchedule};
use obs::Reporter;

const BIN: &str = "run_experiment";

fn usage() -> ! {
    eprintln!(
        "usage: run_experiment [--controller seesaw|time-aware|power-aware|static|hierarchical-seesaw|probing-seesaw]
                      [--nodes N] [--dim D] [--steps S] [--sync-every J]
                      [--analyses rdf,vacf,msd,msd1d,msd2d] [--budget W]
                      [--window W] [--seed S] [--sim-cap W --analysis-cap W]
                      [--no-baseline] [--dump-syncs] [--quiet]
                      [--quiet-noise]
                      [--trace FILE] [--trace-perfetto FILE] [--audit] [--profile]

env: SEESAW_TRACE / SEESAW_TRACE_PERFETTO supply trace paths when the flags are
absent; SEESAW_AUDIT=1 turns on --audit (invariant battery over the controller
run's trace; writes results/audit_run_experiment.json, exits 1 on violations);
SEESAW_PROFILE=1 turns on --profile (wall-clock stage timers, writes
results/profile_run_experiment.json — never byte-gated)"
    );
    std::process::exit(2);
}

fn parse_kind(name: &str) -> AnalysisKind {
    match name {
        "rdf" => AnalysisKind::Rdf,
        "vacf" => AnalysisKind::Vacf,
        "msd" => AnalysisKind::MsdFull,
        "msd1d" => AnalysisKind::Msd1d,
        "msd2d" => AnalysisKind::Msd2d,
        other => {
            eprintln!("{BIN}: unknown analysis {other:?}");
            usage()
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut controller = "seesaw".to_string();
    let mut nodes = 128usize;
    let mut dim = 16u32;
    let mut steps = 400u64;
    let mut sync_every = 1u64;
    let mut kinds = vec![AnalysisKind::MsdFull];
    let mut budget = 110.0f64;
    let mut window = 1usize;
    let mut seed = 1u64;
    let mut sim_cap = None;
    let mut analysis_cap = None;
    let mut baseline = true;
    let mut dump_syncs = false;
    let mut quiet_noise = false;
    let mut common = cli::CommonArgs::default();

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--controller" => controller = val(),
            "--nodes" => nodes = val().parse().unwrap_or_else(|_| usage()),
            "--dim" => dim = val().parse().unwrap_or_else(|_| usage()),
            "--steps" => steps = val().parse().unwrap_or_else(|_| usage()),
            "--sync-every" => sync_every = val().parse().unwrap_or_else(|_| usage()),
            "--budget" => budget = val().parse().unwrap_or_else(|_| usage()),
            "--window" => window = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage()),
            "--sim-cap" => sim_cap = Some(val().parse::<f64>().unwrap_or_else(|_| usage())),
            "--analysis-cap" => {
                analysis_cap = Some(val().parse::<f64>().unwrap_or_else(|_| usage()))
            }
            "--analyses" => {
                kinds = val().split(',').map(parse_kind).collect();
            }
            "--no-baseline" => baseline = false,
            "--dump-syncs" => dump_syncs = true,
            "--quiet-noise" => quiet_noise = true,
            "--quiet" => common.quiet = true,
            "--trace" => common.trace = Some(val().into()),
            "--trace-perfetto" => common.perfetto = Some(val().into()),
            "--audit" => common.audit = true,
            "--profile" => common.profile = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("{BIN}: unknown flag {other:?}");
                usage()
            }
        }
    }
    common.env_fallback();
    let rep = common.reporter();

    let mut spec = WorkloadSpec::paper(dim, nodes, sync_every, &[]);
    spec.analyses = kinds.iter().map(|&k| AnalysisSchedule::every_sync(k)).collect();
    spec.total_steps = steps;
    let mut cfg = JobConfig::new(spec, &controller).with_budget(budget).with_window(window);
    if quiet_noise {
        cfg = cfg.with_quiet_noise();
    }
    cfg.seed.job = seed;
    if let (Some(s), Some(a)) = (sim_cap, analysis_cap) {
        cfg = cfg.with_initial_caps(s, a);
    }

    // The controller run itself carries the tracer: `--trace` captures the
    // exact run being summarized, not a separate representative run. Under
    // `--audit` a streaming auditor rides the subscriber seam.
    let session = cli::trace_session(&common);
    let tracer = session.tracer.clone();

    if baseline && controller != "static" {
        let (ctl, base) = match run_paired_traced(&cfg, &tracer) {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("{BIN}: error: {e}");
                std::process::exit(2);
            }
        };
        let imp = improvement_pct(base.total_time_s, ctl.total_time_s);
        print_summary(&rep, &ctl);
        rep.say(format!(
            "baseline (static): {:.1} s  →  improvement {:+.2} %",
            base.total_time_s, imp
        ));
        if dump_syncs {
            println!("{}", bench::json::ToJson::to_json(&ctl.syncs).pretty());
        }
    } else {
        let r = match run_job_traced(cfg, &tracer) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{BIN}: error: {e}");
                std::process::exit(2);
            }
        };
        print_summary(&rep, &r);
        if dump_syncs {
            println!("{}", bench::json::ToJson::to_json(&r.syncs).pretty());
        }
    }
    drop(tracer);
    cli::finish_session(BIN, &common, &rep, session);
}

fn print_summary(rep: &Reporter, r: &RunResult) {
    let last = r.syncs.last().expect("at least one sync");
    rep.say(format!(
        "{}: total {:.1} s, energy {:.2} MJ, {} syncs, end caps S/A {:.1}/{:.1} W, late slack {:.1} %",
        r.controller,
        r.total_time_s,
        r.total_energy_j / 1e6,
        r.syncs.len(),
        last.sim_cap_w,
        last.analysis_cap_w,
        r.mean_slack_from(10) * 100.0
    ));
    if let Some(m) = &r.metrics {
        rep.note(format!(
            "trace: {} events, {} phases, {} samples, {} decisions",
            m.events,
            m.counter("phases"),
            m.counter("samples"),
            m.counter("decisions")
        ));
    }
}
