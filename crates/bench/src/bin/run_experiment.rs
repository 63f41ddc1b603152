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
use insitu::{improvement_pct, run_job_traced, JobConfig, RunResult};
use mdsim::workload::WorkloadSpec;
use mdsim::{AnalysisKind, AnalysisSchedule};
use obs::{Reporter, Tracer};
use seesaw::UnknownController;
use std::ops::RangeInclusive;

const BIN: &str = "run_experiment";

const USAGE: &str =
    "usage: run_experiment [--controller seesaw|time-aware|power-aware|static|hierarchical-seesaw]
                      [--nodes N] [--dim D] [--steps S] [--sync-every J]
                      [--analyses rdf,vacf,msd,msd1d,msd2d] [--budget W]
                      [--window W] [--seed S] [--sim-cap W --analysis-cap W]
                      [--no-baseline] [--dump-syncs] [--quiet]
                      [--quiet-noise]
                      [--trace FILE] [--trace-perfetto FILE] [--audit]";

/// Largest `--nodes`: 15× Theta's 4 392. Beyond it the cluster model
/// dies in the allocator instead of answering.
const MAX_NODES: usize = 65_536;

/// Largest `--dim` (the paper's largest is 48). A value in the billions
/// saturates the simulated nanosecond clock and `u64::MAX` ns is printed
/// as if it were a result.
const MAX_DIM: u32 = 4_096;

/// A wattage: finite and above 0.
const WATTS: RangeInclusive<f64> = f64::MIN_POSITIVE..=f64::MAX;

/// What the command line asked for, range-checked: a value that would
/// trip an `assert!` in the engine crates never leaves [`parse`].
struct Opts {
    cfg: JobConfig,
    baseline: bool,
    dump_syncs: bool,
    common: cli::CommonArgs,
}

/// The analysis `name` names, scheduled every sync.
fn parse_kind(name: &str) -> Result<AnalysisSchedule, String> {
    let kind = AnalysisKind::ALL.into_iter().find(|k| k.name() == name);
    Ok(AnalysisSchedule::every_sync(kind.ok_or_else(|| format!("unknown analysis {name:?}"))?))
}

/// Parse `argv` without exiting or reading the environment; `Err` carries
/// the message for the usage error (empty for `--help`).
fn parse(argv: &[String]) -> Result<Opts, String> {
    let spec = WorkloadSpec::paper(16, 128, 1, &[AnalysisKind::MsdFull]);
    let mut cfg = JobConfig::new(spec, "seesaw");
    let (mut baseline, mut dump_syncs) = (true, false);
    let common = cli::parse_with(argv, |flag, args| {
        match flag {
            "--controller" => cfg.controller = args.value(flag)?.to_string(),
            "--nodes" => {
                let n = args.number(flag, 2..=MAX_NODES)?;
                if !n.is_multiple_of(2) {
                    return Err("--nodes must be even (two equal partitions)".into());
                }
                (cfg.workload.sim_nodes, cfg.workload.analysis_nodes) = (n / 2, n / 2);
            }
            "--dim" => cfg.workload.dim = args.number(flag, 1..=MAX_DIM)?,
            "--steps" => cfg.workload.total_steps = args.number(flag, 1..=u64::MAX)?,
            "--sync-every" => cfg.workload.sync_every = args.number(flag, 1..=u64::MAX)?,
            "--budget" => cfg.budget_per_node_w = args.number(flag, WATTS)?,
            "--window" => cfg.window = args.number(flag, 1..=usize::MAX)?,
            "--seed" => cfg.seed.job = args.number(flag, 0..=u64::MAX)?,
            "--sim-cap" => cfg.initial_sim_cap_w = Some(args.number(flag, WATTS)?),
            "--analysis-cap" => cfg.initial_analysis_cap_w = Some(args.number(flag, WATTS)?),
            "--analyses" => {
                cfg.workload.analyses =
                    args.value(flag)?.split(',').map(parse_kind).collect::<Result<_, _>>()?;
            }
            "--no-baseline" => baseline = false,
            "--dump-syncs" => dump_syncs = true,
            "--quiet-noise" => cfg.quiet_noise = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
        Ok(())
    })?;
    if cfg.initial_sim_cap_w.is_some() != cfg.initial_analysis_cap_w.is_some() {
        return Err("--sim-cap and --analysis-cap only come as a pair".to_string());
    }
    if cfg.workload.sync_count() == 0 {
        return Err("--steps must reach the first sync (at least --sync-every)".to_string());
    }
    Ok(Opts { cfg, baseline, dump_syncs, common })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Opts { cfg, baseline, dump_syncs, common } =
        parse(&argv).unwrap_or_else(|msg| cli::exit_usage(BIN, USAGE, &msg));
    let rep = common.reporter();

    // The controller run itself carries the tracer: `--trace` captures the
    // exact run being summarized, not a separate representative run. Under
    // `--audit` a streaming auditor rides the subscriber seam.
    let (mut failures, document) = cli::observe(BIN, &common, &rep, |tracer| {
        let fail = |e| -> ! {
            eprintln!("{BIN}: error: {e}");
            std::process::exit(2);
        };
        let r = if baseline && cfg.controller != "static" {
            let (ctl, base) = run_pair(&cfg, tracer).unwrap_or_else(|e| fail(e));
            print_summary(&rep, &ctl, tracer);
            let imp = improvement_pct(base.total_time_s, ctl.total_time_s);
            rep.say(format!(
                "baseline (static): {:.1} s  →  improvement {:+.2} %",
                base.total_time_s, imp
            ));
            ctl
        } else {
            let r = run_job_traced(cfg, tracer).unwrap_or_else(|e| fail(e));
            print_summary(&rep, &r, tracer);
            r
        };
        if dump_syncs {
            println!("{}", bench::sync_rows(&r.syncs).pretty());
        }
    });
    if let Some((file, body)) = &document {
        let dir = bench::results_dir();
        failures += usize::from(bench::put_result(&rep, &dir, false, file, body).is_err());
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

/// `cfg`'s run and its paired static baseline (`JobConfig::static_baseline`,
/// §VII-A), as two independent runs on the pool. Only the controller run
/// carries `tracer`: the baseline's timeline is not the object of study,
/// and one sink shared by concurrent runs would interleave their events.
/// An unknown controller is reported before either run starts.
fn run_pair(cfg: &JobConfig, tracer: &Tracer) -> Result<(RunResult, RunResult), UnknownController> {
    seesaw::check_controller_name(&cfg.controller)?;
    let runs = [(cfg.clone(), tracer.clone()), (cfg.static_baseline(), Tracer::off())];
    let mut results = par::global()
        .par_map_indexed(runs.len(), |i| run_job_traced(runs[i].0.clone(), &runs[i].1))
        .into_iter();
    let ctl = results.next().expect("two results")?;
    Ok((ctl, results.next().expect("two results")?))
}

fn print_summary(rep: &Reporter, r: &RunResult, tracer: &Tracer) {
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
    // A streaming (`--audit`-only) tracer keeps no buffer; there the
    // auditor's own summary line carries the event count.
    let buffered = tracer.len();
    if buffered > 0 {
        rep.note(format!("trace: {buffered} events"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::Rng;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    /// What `main` relies on after an `Ok`: nothing downstream asserts.
    fn assert_in_range(o: &Opts) {
        let (cfg, w) = (&o.cfg, &o.cfg.workload);
        assert!(w.sim_nodes >= 1 && w.sim_nodes == w.analysis_nodes);
        assert!(w.nodes_total() <= MAX_NODES && w.dim <= MAX_DIM);
        assert!(w.dim >= 1 && cfg.window >= 1 && w.sync_every >= 1);
        assert!(w.total_steps >= w.sync_every, "steps {} < j {}", w.total_steps, w.sync_every);
        assert!(!w.analyses.is_empty());
        assert_eq!(cfg.initial_sim_cap_w.is_some(), cfg.initial_analysis_cap_w.is_some());
        for watts in
            [Some(cfg.budget_per_node_w), cfg.initial_sim_cap_w, cfg.initial_analysis_cap_w]
        {
            assert!(watts.is_none_or(|w| w.is_finite() && w > 0.0), "wattage {watts:?}");
        }
    }

    #[test]
    fn defaults_and_a_full_command_line_parse() {
        let o = parse(&[]).unwrap();
        assert_in_range(&o);
        let spec = WorkloadSpec::paper(16, 128, 1, &[AnalysisKind::MsdFull]);
        assert_eq!(o.cfg.workload, spec);
        assert!(o.baseline && !o.dump_syncs && !o.common.quiet);

        let o = parse(&argv(
            "--controller time-aware --nodes 8 --dim 4 --steps 20 --sync-every 5 \
             --analyses rdf,msd2d --budget 105.5 --window 3 --seed 9 --sim-cap 120 \
             --analysis-cap 100 --no-baseline --dump-syncs --quiet-noise --quiet \
             --trace t.jsonl --audit",
        ))
        .unwrap();
        assert_in_range(&o);
        let mut spec = WorkloadSpec::paper(4, 8, 5, &[AnalysisKind::Rdf, AnalysisKind::Msd2d]);
        spec.total_steps = 20;
        assert_eq!(o.cfg.workload, spec);
        assert_eq!((o.cfg.controller.as_str(), o.cfg.window, o.cfg.seed.job), ("time-aware", 3, 9));
        assert_eq!(o.cfg.budget_per_node_w, 105.5);
        assert_eq!(
            (o.cfg.initial_sim_cap_w, o.cfg.initial_analysis_cap_w),
            (Some(120.0), Some(100.0))
        );
        assert!(!o.baseline && o.dump_syncs && o.cfg.quiet_noise);
        assert!(o.common.quiet && o.common.audit && o.common.wants_trace());
    }

    fn quick_cfg(controller: &str) -> JobConfig {
        let mut spec = WorkloadSpec::paper(16, 8, 1, &[AnalysisKind::Vacf]);
        spec.total_steps = 40;
        JobConfig::new(spec, controller)
    }

    /// Only the controller run writes to the pair's trace: what it records
    /// is the controller run's own trace, byte for byte, at width 1 and 4.
    #[test]
    fn the_pair_traces_only_the_controller_run() {
        let alone = Tracer::enabled();
        run_job_traced(quick_cfg("seesaw"), &alone).unwrap();
        let alone = alone.to_jsonl();
        assert!(!alone.is_empty());
        for threads in [1, 4] {
            let tracer = Tracer::enabled();
            let (ctl, base) =
                par::with_threads(threads, || run_pair(&quick_cfg("seesaw"), &tracer)).unwrap();
            assert!(tracer.to_jsonl() == alone, "pair trace differs at T={threads}");
            assert_eq!((ctl.controller.as_str(), base.controller.as_str()), ("seesaw", "static"));
        }
    }

    /// An off tracer records nothing, each run of the pair is the run
    /// alone, bit for bit, and an unknown controller is the pair's error.
    #[test]
    fn an_untraced_pair_is_its_two_runs() {
        let (cfg, off) = (quick_cfg("seesaw"), Tracer::off());
        let (ctl, base) = run_pair(&cfg, &off).unwrap();
        assert!(off.is_empty());
        for (run, alone) in [(ctl, cfg.clone()), (base, cfg.static_baseline())] {
            let alone = insitu::run_job(alone).unwrap();
            assert_eq!(run.total_time_s.to_bits(), alone.total_time_s.to_bits());
            assert_eq!(run.total_energy_j.to_bits(), alone.total_energy_j.to_bits());
            assert_eq!(run.syncs, alone.syncs);
        }
        let err = run_pair(&quick_cfg("nonsense"), &off).expect_err("unknown controller");
        assert_eq!(err.name, "nonsense");
    }

    /// The controller is checked before the pair is dispatched: the
    /// baseline of a job no run can be built from (no simulation nodes)
    /// would panic, and would cost a whole run on a large one.
    #[test]
    fn an_unknown_controller_fails_before_either_run() {
        let mut cfg = quick_cfg("nonsense");
        cfg.workload.sim_nodes = 0;
        let err = run_pair(&cfg, &Tracer::off()).expect_err("unknown controller");
        assert_eq!(err.name, "nonsense");
    }

    /// Each of these used to reach an `assert!` (or an `expect`) in the
    /// engine crates and abort the binary with exit 101.
    #[test]
    fn out_of_range_flags_are_usage_errors() {
        let hostile = [
            "--nodes 0",
            "--nodes 1",
            "--nodes 3",
            "--steps 0",
            "--sync-every 0",
            "--window 0",
            "--budget -5",
            "--sim-cap 120",
            "--analysis-cap 100",
            "--dim 0",
            "--budget 1e999",
            "--steps 3 --sync-every 5",
            "--analyses rdf,",
            "--nodes 4000000000 --steps 2",
            "--nodes 8 --dim 4000000000 --steps 2",
            "--profile",
        ];
        for args in hostile {
            let msg = parse(&argv(args)).err().unwrap_or_else(|| panic!("{args:?} parsed"));
            assert!(!msg.is_empty(), "{args:?} must say what is wrong");
        }
        assert_eq!(parse(&argv("--help")).err().as_deref(), Some(""));
        let nan = parse(&argv("--budget nan")).err();
        assert_eq!(nan.as_deref(), Some("--budget: not a valid number: \"nan\""));
    }

    /// The common flags are one set: each parses in this bin and in
    /// `repro` to the same `CommonArgs`, `--quick` is `repro`'s alone, and
    /// every analysis name round-trips through `--analyses`.
    #[test]
    fn every_common_flag_parses_in_both_bins() {
        let flags = ["--quiet", "--audit", "--trace t.jsonl", "--trace-perfetto p.json"];
        let unset = format!("{:?}", cli::CommonArgs::default());
        for flag in flags {
            let here = parse(&argv(flag)).unwrap_or_else(|e| panic!("{flag}: {e}"));
            let repro = cli::Selection::parse(&argv(&format!("fig1_trace {flag}")));
            let repro = repro.unwrap_or_else(|e| panic!("repro {flag}: {e}"));
            let common = format!("{:?}", here.common);
            assert_ne!(common, unset, "{flag} set nothing");
            assert_eq!(common, format!("{:?}", repro.args), "{flag}");
        }
        assert!(cli::Selection::parse(&argv("--quick")).unwrap().quick);
        assert!(parse(&argv("--quick")).err().is_some_and(|e| e.contains("--quick")));
        for kind in AnalysisKind::ALL {
            let o = parse(&argv(&format!("--analyses {}", kind.name()))).unwrap();
            assert_eq!(o.cfg.workload.analyses, [AnalysisSchedule::every_sync(kind)]);
        }
    }

    /// Seeded mutation of valid command lines through every argv parser
    /// of the `bench` crate (this bin's, `repro`'s,
    /// `audit_trace`'s, `trace_diff`'s): the outcome is `Ok` (and then in
    /// range) or `Err(msg)`, never a panic.
    #[test]
    fn mutated_argv_never_panics_a_parser() {
        let big = "9".repeat(64 << 10);
        let tokens = [
            "",
            "-1",
            "nan",
            "1e999",
            "18446744073709551616",
            "4000000000",
            "0",
            "--",
            "--nodes",
            "--dim",
            "--trace",
            "--json",
            "--context",
            "--rel-tol",
            "--check",
            "--quick",
            "fig1_trace",
            "no_such_experiment",
            big.as_str(),
        ];
        let valid = [
            argv(
                "--controller seesaw --nodes 8 --dim 4 --steps 20 --sync-every 2 \
                 --analyses rdf,vacf --budget 110 --window 2 --seed 3 --sim-cap 115 \
                 --analysis-cap 105 --dump-syncs",
            ),
            argv("--quick --quiet --trace t.jsonl --trace-perfetto p.json"),
            argv("--audit --no-baseline --quiet-noise"),
            argv("fig1_trace --quick --trace t.jsonl"),
            argv("fig3_analyses fault_sweep --quiet --audit"),
            argv("--check --quiet"),
            argv("fleet_sweep --check --audit --trace t.jsonl"),
            argv("--json out --quiet a.jsonl b.jsonl"),
            argv("--artifact --context 7 --rel-tol 0.02 --quiet a.json b.json"),
        ];
        for seed in [1, 7] {
            let mut rng = Rng::seed_from_u64(seed);
            let (mut accepted, mut rejected, mut selected) = (0, 0, 0);
            let mut tools = [0; 2];
            for _ in 0..2000 {
                let mut args = valid[rng.next_below(valid.len() as u64) as usize].clone();
                for _ in 0..=rng.next_below(2) {
                    let at = rng.next_below(args.len() as u64) as usize;
                    match rng.next_below(3) {
                        0 => drop(args.remove(at)),
                        1 => args.insert(at, args[at].clone()),
                        _ => args[at] = tokens[rng.next_below(tokens.len() as u64) as usize].into(),
                    }
                    if args.is_empty() {
                        break;
                    }
                }
                match parse(&args) {
                    Ok(o) => {
                        assert_in_range(&o);
                        accepted += 1;
                    }
                    Err(_) => rejected += 1,
                }
                if let Ok(sel) = cli::Selection::parse(&args) {
                    assert!(!sel.experiments.is_empty());
                    assert!(!sel.args.wants_trace() || sel.experiments.len() == 1);
                    assert!(!sel.check || !sel.quick);
                    selected += 1;
                }
                if let Ok(a) = cli::AuditTraceArgs::parse(&args) {
                    assert!(!a.files.is_empty());
                    tools[0] += 1;
                }
                if let Ok(a) = cli::TraceDiffArgs::parse(&args) {
                    assert!(a.context <= cli::TraceDiffArgs::MAX_CONTEXT);
                    assert!(a.rel_tol.is_finite() && a.rel_tol >= 0.0, "--rel-tol {}", a.rel_tol);
                    tools[1] += 1;
                }
            }
            assert!(accepted > 0 && rejected > 0, "seed {seed}: {accepted} ok, {rejected} err");
            assert!(selected > 0, "seed {seed}: repro's parser accepted nothing");
            assert!(
                !tools.contains(&0),
                "seed {seed}: a tool's parser accepted nothing: {tools:?}"
            );
        }
    }
}
