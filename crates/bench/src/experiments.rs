//! The experiment table behind `repro`: one row per table/figure of the
//! paper's evaluation (§VII), the ablation and fault studies, and the
//! machine and fleet sweeps.
//!
//! A row names its *run keys* — every simulation it needs, in a fixed
//! order — and reduces the finished runs, positionally matching those
//! keys, to console lines and artifact files. [`run_selection`] collects
//! the keys of the selected rows, runs each structurally distinct key
//! once in one flat batch, and hands every row its runs: a static
//! baseline shared by three controllers, or a run two figures both plot,
//! is simulated once.

use crate::json::ToJson;
use crate::svg::{bar_chart, line_chart, Series};
use fleet::FleetResult;
use insitu::{improvement_pct, median, JobConfig, RunResult, SyncRecord};
use mdsim::workload::WorkloadSpec;
use mdsim::{AnalysisKind as K, AnalysisSchedule};
use obs::json::Value;
use sched::{MachineResult, Policy};
use seesaw::EwmaMode;
use std::fmt::Display;

/// How a job key's configuration is executed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    /// [`insitu::run_job`]: space-shared, the controller named in the config.
    Job,
    /// Space-shared under a SeeSAw controller built with this Eq. 4 reading.
    Ewma(EwmaMode),
    /// [`insitu::run_time_shared`]; emits no trace events.
    TimeShared,
    /// [`insitu::run_colocated`]; emits no trace events.
    Colocated,
}

/// One simulation an experiment needs. Two equal keys are the same
/// simulation (a run is a pure function of its key) and run once.
#[allow(clippy::large_enum_variant)] // a few hundred keys, each built once
#[derive(Debug, Clone, PartialEq)]
enum RunKey {
    /// One job, through an `insitu` entry point.
    Job(JobConfig, Entry),
    /// One `sched` machine: scenario `scenario` of the machine sweep under
    /// `policy`, every job `steps` steps long.
    Machine { scenario: usize, policy: Policy, steps: u64 },
    /// One seed of a fleet cell: storm `storm` of the fleet sweep over
    /// `machines` members under `policy`, every job `steps` steps long.
    Fleet { storm: usize, machines: usize, policy: Policy, seed: u64, steps: u64 },
}

impl From<JobConfig> for RunKey {
    fn from(cfg: JobConfig) -> Self {
        RunKey::job(cfg)
    }
}

impl RunKey {
    fn job(cfg: JobConfig) -> Self {
        RunKey::Job(cfg, Entry::Job)
    }

    /// Run the key with `tracer` attached: off for the batch, on for a
    /// representative run.
    fn run(&self, tracer: &obs::Tracer) -> Run {
        match *self {
            RunKey::Job(ref cfg, entry) => Run::Job(match entry {
                Entry::Job => {
                    insitu::run_job_traced(cfg.clone(), tracer).expect("known controller")
                }
                Entry::Ewma(ewma) => {
                    let controller = Box::new(seesaw::SeeSaw::new(seesaw::SeeSawConfig {
                        budget_w: cfg.budget_w(),
                        window: cfg.window,
                        limits: seesaw::Limits::theta(),
                        ewma,
                        skip_step_zero: true,
                    }));
                    let mut rt = insitu::Runtime::with_controller(cfg.clone(), controller);
                    rt.set_tracer(tracer);
                    rt.run()
                }
                Entry::TimeShared => insitu::run_time_shared(cfg.clone()),
                Entry::Colocated => insitu::run_colocated(cfg.clone()).expect("known controller"),
            }),
            RunKey::Machine { scenario, policy, steps } => {
                Run::Machine(machine_sweep::run(scenario, policy, steps, tracer))
            }
            RunKey::Fleet { storm, machines, policy, seed, steps } => {
                Run::Fleet(fleet_sweep::run(storm, machines, policy, seed, steps, tracer))
            }
        }
    }
}

/// A finished run, of its key's family.
#[derive(Debug)]
enum Run {
    Job(RunResult),
    Machine(MachineResult),
    Fleet(FleetResult),
}

/// A family's result type: a row's reducer reads its runs as one.
trait Family {
    fn of(run: &Run) -> &Self;
}

impl Family for RunResult {
    fn of(run: &Run) -> &Self {
        let Run::Job(r) = run else { unreachable!("a row's keys are of one family") };
        r
    }
}

impl Family for MachineResult {
    fn of(run: &Run) -> &Self {
        let Run::Machine(r) = run else { unreachable!("a row's keys are of one family") };
        r
    }
}

impl Family for FleetResult {
    fn of(run: &Run) -> &Self {
        let Run::Fleet(r) = run else { unreachable!("a row's keys are of one family") };
        r
    }
}

/// Hand `reduce` the runs as its family's results.
fn reduce_as<T: Family>(reduce: fn(bool, &[&T]) -> Output, quick: bool, runs: &[&Run]) -> Output {
    reduce(quick, &runs.iter().map(|r| T::of(r)).collect::<Vec<_>>())
}

/// What one experiment produced: its console output and its files.
#[derive(Debug, Default, PartialEq)]
pub struct Output {
    /// Console lines, in order.
    pub lines: Vec<String>,
    /// `(file name under results/, contents)` in writing order.
    pub files: Vec<(String, String)>,
}

impl Output {
    fn say(&mut self, line: impl Display) {
        self.lines.push(line.to_string());
    }

    fn blank(&mut self) {
        self.lines.push(String::new());
    }

    /// A table, set off from the text above it by a blank line.
    fn table(&mut self, headers: &[&str], rows: &[Vec<String>]) {
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
        self.blank();
        self.lines.push(line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
        self.lines.push(format!("|{rule}|"));
        self.lines.extend(rows.iter().map(|row| line(row)));
    }

    fn svg(&mut self, name: &str, svg: String) {
        self.files.push((format!("{name}.svg"), svg));
    }

    fn json<T: ToJson + ?Sized>(&mut self, name: &str, rows: &T) {
        self.files.push((format!("{name}.json"), rows.to_json().pretty()));
    }
}

/// One row of the table.
#[derive(Debug)]
pub struct Experiment {
    /// The name on `repro`'s command line; also the `results/<name>.*`
    /// stem and the `run_/profile_<name>.json` suffix.
    pub name: &'static str,
    /// Every run the experiment needs, in a fixed order.
    keys: fn(quick: bool) -> Vec<RunKey>,
    /// From the finished runs, positionally matching `keys(quick)`, to
    /// the experiment's console output and files.
    reduce: fn(quick: bool, runs: &[&Run]) -> Output,
    /// The run `--trace` / `--audit` / `--profile` observe — an extra run
    /// after the sweep, so the sweep's output never depends on tracing.
    representative: fn(quick: bool) -> RunKey,
}

impl Experiment {
    /// Run the representative run with `tracer` attached.
    pub fn trace(&self, quick: bool, tracer: &obs::Tracer) {
        (self.representative)(quick).run(tracer);
    }
}

macro_rules! table {
    ($($name:ident),* $(,)?) => {
        /// Every experiment: the paper's in paper order, then the sweeps.
        pub static TABLE: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            keys: $name::keys,
            reduce: |quick, runs| reduce_as($name::reduce, quick, runs),
            representative: |quick| $name::representative(quick).into(),
        }),*];
    };
}
table!(
    fig1_trace,
    table1_variability,
    fig3_analyses,
    fig4_power_alloc,
    fig5_scale,
    fig6_sensitivity,
    table2_mixed,
    fig7_initial_power,
    fig8_power_caps,
    fig9_overhead,
    ablation,
    fault_sweep,
    machine_sweep,
    machine_sweep_theta,
    fleet_sweep,
);

/// The row called `name`.
pub(crate) fn find(name: &str) -> Option<&'static Experiment> {
    TABLE.iter().find(|e| e.name == name)
}

/// The distinct runs a selection needs, and where each experiment finds its own.
struct Plan {
    /// Structurally distinct keys, in first-request order.
    distinct: Vec<RunKey>,
    /// Per selected experiment, the index into `distinct` of each of its keys.
    index: Vec<Vec<usize>>,
}

/// Collect the selection's keys and dedupe them by `PartialEq` — a linear
/// scan, a few hundred keys at most.
fn plan(selected: &[&Experiment], quick: bool) -> Plan {
    let mut distinct: Vec<RunKey> = Vec::new();
    let index = selected
        .iter()
        .map(|e| {
            let slots = (e.keys)(quick).into_iter().map(|key| {
                distinct.iter().position(|k| *k == key).unwrap_or_else(|| {
                    distinct.push(key);
                    distinct.len() - 1
                })
            });
            slots.collect()
        })
        .collect();
    Plan { distinct, index }
}

/// Run every distinct key of the selection as one flat batch on the
/// worker pool, then reduce each experiment in selection order. Results
/// are slotted by index, so the outputs are identical at any pool width.
pub fn run_selection(selected: &[&Experiment], quick: bool) -> Vec<Output> {
    let Plan { distinct, index } = plan(selected, quick);
    let results =
        par::global().par_map_indexed(distinct.len(), |i| distinct[i].run(&obs::Tracer::off()));
    let reduce = |(e, slots): (&&Experiment, &Vec<usize>)| {
        let runs: Vec<&Run> = slots.iter().map(|&i| &results[i]).collect();
        (e.reduce)(quick, &runs)
    };
    selected.iter().zip(&index).map(reduce).collect()
}

const ALL: [K; 4] = [K::Rdf, K::Msd1d, K::Msd2d, K::Vacf];

/// Steps to simulate: the paper's 400, or 60 under `--quick`.
fn steps(quick: bool) -> u64 {
    [400, 60][quick as usize]
}

/// Jobs per median: the paper's 3, or 1 under `--quick`.
fn jobs(quick: bool) -> u64 {
    [3, 1][quick as usize]
}

fn spec(quick: bool, dim: u32, nodes: usize, j: u64, kinds: &[K]) -> WorkloadSpec {
    let mut s = WorkloadSpec::paper(dim, nodes, j, kinds);
    s.total_steps = steps(quick);
    s
}

/// The at-scale job Figures 5, 6 and 9 share: all analyses, dim = 48.
fn at_scale(quick: bool, nodes: usize, j: u64, controller: &str) -> JobConfig {
    JobConfig::new(spec(quick, 48, nodes, j, &ALL), controller)
}

/// The paper's recipe (§VII-A) as keys: `jobs` different jobs (job seeds
/// 1 000 apart), each a static baseline then the controller run.
fn paired(cfg: &JobConfig, jobs: u64) -> Vec<RunKey> {
    let pair = |r| {
        let mut c = cfg.clone();
        c.seed.job = cfg.seed.job + 1000 * r;
        [RunKey::job(c.static_baseline()), RunKey::job(c)]
    };
    (0..jobs).flat_map(pair).collect()
}

/// Per cell of `jobs` (baseline, controller) pairs, the median improvement.
fn improvements<'a>(runs: &'a [&RunResult], jobs: u64) -> impl Iterator<Item = f64> + 'a {
    let improvement =
        |pair: &[&RunResult]| improvement_pct(pair[0].total_time_s, pair[1].total_time_s);
    runs.chunks_exact(2 * jobs as usize)
        .map(move |cell| median(&cell.chunks_exact(2).map(improvement).collect::<Vec<_>>()))
}

fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len() as f64;
    values.sum::<f64>() / n
}

/// One table line from displayable cells.
fn line<const N: usize>(cells: [&dyn Display; N]) -> Vec<String> {
    cells.iter().map(|c| c.to_string()).collect()
}

/// One JSON row: `row!(a, b = x)` is the object `{"a": a, "b": x}`.
macro_rules! row {
    ($($key:ident $(= $val:expr)?),+ $(,)?) => {
        Value::obj([$((stringify!($key), row!(@ $key $($val)?).to_json())),+])
    };
    (@ $key:ident) => { $key };
    (@ $key:ident $val:expr) => { $val };
}

/// Figure 1: partial power trace of simulation and analysis on separate
/// nodes, exposing the periodic synchronization — the analysis idles at
/// ~105 W for much of each step.
mod fig1_trace {
    use super::*;

    /// One 200 ms sample of mean per-node power.
    struct Sample {
        t_s: f64,
        sim_w_per_node: f64,
        analysis_w_per_node: f64,
    }
    crate::json_struct!(Sample { t_s, sim_w_per_node, analysis_w_per_node });

    // A VACF-style low-demand analysis exposes the idle clearly: it
    // finishes early and waits at ~105 W.
    pub(super) fn representative(quick: bool) -> JobConfig {
        let mut spec = WorkloadSpec::paper(16, 128, 1, &[K::Vacf]);
        spec.total_steps = [12, 8][quick as usize];
        JobConfig::new(spec, "static")
    }

    pub(super) fn keys(quick: bool) -> Vec<RunKey> {
        vec![RunKey::job(representative(quick).with_traces())]
    }

    pub(super) fn reduce(quick: bool, runs: &[&RunResult]) -> Output {
        let spec = representative(quick).workload;
        let sim = runs[0].sim_trace.as_ref().expect("traces recorded");
        let ana = runs[0].analysis_trace.as_ref().expect("traces recorded");
        let samples: Vec<Sample> = sim
            .iter()
            .zip(ana.iter())
            .map(|((t, s), (_, a))| Sample {
                t_s: t.as_secs_f64(),
                sim_w_per_node: s / spec.sim_nodes as f64,
                analysis_w_per_node: a / spec.analysis_nodes as f64,
            })
            .collect();

        let mut out = Output::default();
        out.say("Fig. 1 — power trace, 200 ms sampling, static 110 W caps");
        out.say("(sim '#', analysis 'o'; x-axis 95–115 W)");
        out.blank();
        let strip = |w: f64| -> usize { (((w - 95.0) / 20.0).clamp(0.0, 1.0) * 50.0) as usize };
        for s in samples.iter().take(120) {
            let mut lane = vec![b' '; 52];
            lane[strip(s.sim_w_per_node)] = b'#';
            lane[strip(s.analysis_w_per_node)] = b'o';
            out.say(format!("{:7.1}s |{}|", s.t_s, String::from_utf8_lossy(&lane)));
        }

        // Summary the paper's figure conveys: the analysis spends a large
        // fraction of each interval near the 105 W wait level.
        let idle = samples.iter().filter(|s| s.analysis_w_per_node < 106.5).count() as f64
            / samples.len() as f64;
        let sim_mean = mean(samples.iter().map(|s| s.sim_w_per_node));
        let ana_mean = mean(samples.iter().map(|s| s.analysis_w_per_node));
        let summary = [
            ("analysis samples near wait power (<106.5 W)", format!("{:.0} %", idle * 100.0)),
            ("sim mean W/node", format!("{sim_mean:.1}")),
            ("analysis mean W/node", format!("{ana_mean:.1}")),
        ];
        out.table(&["metric", "value"], &summary.map(|(metric, value)| line([&metric, &value])));
        let series = |label, color, f: fn(&Sample) -> f64| {
            Series::new(label, color, samples.iter().map(|s| (s.t_s, f(s))).collect())
        };
        out.svg(
            "fig1_trace",
            line_chart(
                "Fig. 1 — partial power trace (200 ms sampling)",
                "time (s)",
                "power (W/node)",
                &[
                    series("simulation", "#1f77b4", |s| s.sim_w_per_node),
                    series("analysis", "#d62728", |s| s.analysis_w_per_node),
                ],
            ),
        );
        out.json("fig1_trace", &samples);
        out
    }
}

/// Table I: run-to-run vs job-to-job variability of LAMMPS runtime on 128
/// nodes, for {no cap, long-term 110 W, long+short-term 110 W} × dim
/// {36, 48}, across 7 runs: `(max − min) / median × 100` of total runtime.
mod table1_variability {
    use super::*;
    use theta_sim::CapMode;

    const N_RUNS: u64 = 7;
    const CASES: [(&str, CapMode); 3] = [
        ("None", CapMode::None),
        ("Long (110 W)", CapMode::Long),
        ("Long and Short (110 W each)", CapMode::LongShort),
    ];
    const DIMS: [u32; 2] = [36, 48];

    fn job(quick: bool, dim: u32, cap_mode: CapMode, job: u64, run: u64) -> JobConfig {
        let mut spec = WorkloadSpec::paper(dim, 128, 1, &[K::Rdf, K::Vacf]);
        spec.total_steps = [200, 40][quick as usize];
        let mut cfg = JobConfig::new(spec, "static").with_seed(job, run);
        cfg.cap_mode = cap_mode;
        if cap_mode == CapMode::None {
            // Uncapped: nodes run at demand; budget bookkeeping is irrelevant.
            cfg.budget_per_node_w = 215.0;
        }
        cfg
    }

    pub(super) fn representative(quick: bool) -> JobConfig {
        job(quick, 36, CapMode::Long, 1, 0)
    }

    pub(super) fn keys(quick: bool) -> Vec<RunKey> {
        let mut keys = Vec::new();
        for (_, mode) in CASES {
            for dim in DIMS {
                let base = 42 + dim as u64 * 7919;
                // Run-to-run: same job (placement), different runs; then
                // job-to-job: different jobs, first run of each.
                let within = (0..N_RUNS).map(|r| (base, r));
                let across = (0..N_RUNS).map(|j| (base + 100 + j, 0));
                let seeds = within.chain(across);
                keys.extend(seeds.map(|(j, r)| RunKey::job(job(quick, dim, mode, j, r))));
            }
        }
        keys
    }

    pub(super) fn reduce(_quick: bool, runs: &[&RunResult]) -> Output {
        let times: Vec<f64> = runs.iter().map(|r| r.total_time_s).collect();
        let mut samples = times.chunks_exact(N_RUNS as usize);
        let (mut rows, mut table) = (Vec::new(), Vec::new());
        for (cap, _) in CASES {
            for dim in DIMS {
                for variability_type in ["run-to-run", "job-to-job"] {
                    let sample = samples.next().expect("one sample per row");
                    let variability_pct = insitu::variability_pct(sample);
                    rows.push(row!(cap, dim, variability_type, variability_pct));
                    let pct = format!("{variability_pct:.1}");
                    table.push(line([&cap, &dim, &variability_type, &pct]));
                }
            }
        }

        let mut out = Output::default();
        out.say(format!("Table I — variability across {N_RUNS} runs, 128 nodes"));
        out.table(&["Power Cap", "dim", "Variability Type", "Variability %"], &table);
        out.blank();
        out.say("paper reference: run-to-run 0.2–0.8 (None/Long), 2.1–5.5 (Long+Short);");
        out.say("                 job-to-job 0.8–2.0 (None), 5.7–6.0 (Long), 2.4–8.7 (Long+Short)");
        out.json("table1_variability", &rows);
        out
    }
}

/// Figure 3: runtime improvement over the static baseline for SeeSAw,
/// time-aware and power-aware — (a) different analyses on 128 nodes
/// (`w = 1`, `j = 1`), median of 3; (b) scale study at 256/512/1024 nodes
/// for full MSD, all analyses, and VACF.
mod fig3_analyses {
    use super::*;

    const CONTROLLERS: [(&str, &str); 3] =
        [("seesaw", "#1f77b4"), ("time-aware", "#d62728"), ("power-aware", "#2ca02c")];
    /// (name, dim, analyses).
    type Workload = (&'static str, u32, &'static [K]);
    const WORKLOADS_A: [Workload; 6] = [
        ("rdf", 36, &[K::Rdf]),
        ("vacf", 36, &[K::Vacf]),
        ("msd1d", 16, &[K::Msd1d]),
        ("msd2d", 16, &[K::Msd2d]),
        ("msd", 16, &[K::MsdFull]),
        ("all", 36, &ALL),
    ];
    const WORKLOADS_B: [Workload; 3] =
        [("msd", 16, &[K::MsdFull]), ("all", 48, &ALL), ("vacf", 48, &[K::Vacf])];
    const SCALES: [&[usize]; 2] = [&[256, 512, 1024], &[256]];

    /// Every (panel, nodes, workload) of both panels, in row order; each
    /// is measured under every controller.
    fn cells(quick: bool) -> impl Iterator<Item = (&'static str, usize, Workload)> {
        let a = WORKLOADS_A.iter().map(|&w| ("a", 128, w));
        let scales = SCALES[quick as usize].iter();
        a.chain(scales.flat_map(|&n| WORKLOADS_B.iter().map(move |&w| ("b", n, w))))
    }

    fn job(quick: bool, dim: u32, nodes: usize, kinds: &[K], controller: &str) -> JobConfig {
        JobConfig::new(spec(quick, dim, nodes, 1, kinds), controller)
    }

    pub(super) fn representative(quick: bool) -> JobConfig {
        job(quick, 16, 128, &[K::MsdFull], "seesaw")
    }

    pub(super) fn keys(quick: bool) -> Vec<RunKey> {
        let mut keys = Vec::new();
        for (_, nodes, (_, dim, kinds)) in cells(quick) {
            for (ctl, _) in CONTROLLERS {
                keys.extend(paired(&job(quick, dim, nodes, kinds, ctl), jobs(quick)));
            }
        }
        keys
    }

    pub(super) fn reduce(quick: bool, runs: &[&RunResult]) -> Output {
        let mut improvements = improvements(runs, jobs(quick));
        let (mut rows, mut bars) = (Vec::new(), Vec::new());
        let (mut table_a, mut table_b) = (Vec::new(), Vec::new());
        for (panel, nodes, (workload, dim, _)) in cells(quick) {
            for (controller, color) in CONTROLLERS {
                let improvement_pct = improvements.next().expect("one improvement per row");
                rows.push(row!(panel, workload, nodes, dim, controller, improvement_pct));
                let pct = format!("{improvement_pct:+.2}");
                let table = if panel == "a" { &mut table_a } else { &mut table_b };
                table.push(line([&workload, &nodes, &dim, &controller, &pct]));
                if panel == "a" {
                    let label = format!("{workload}/{}", &controller[..controller.len().min(4)]);
                    bars.push((label, improvement_pct, color.to_string()));
                }
            }
        }

        let mut out = Output::default();
        let headers = ["workload", "nodes", "dim", "controller", "improvement %"];
        out.say(format!(
            "Fig. 3a — % improvement over static, 128 nodes (median of {})",
            jobs(quick)
        ));
        out.table(&headers, &table_a);
        out.blank();
        out.say("Fig. 3b — scale study");
        out.table(&headers, &table_b);
        out.blank();
        out.say("paper reference: power-aware slows LAMMPS in all cases (up to ~25%);");
        out.say("time-aware −60…+13%; SeeSAw +4…30%, ahead of time-aware on full MSD.");
        let title = "Fig. 3a — improvement over static, 128 nodes \
                     (blue seesaw, red time-aware, green power-aware)";
        out.svg("fig3_analyses", bar_chart(title, "improvement (%)", &bars));
        out.json("fig3_analyses", &rows);
        out
    }
}

/// Figure 4: per-node power allocation and normalized slack at each
/// synchronization for LAMMPS + full MSD on 128 nodes (dim = 16, j = 1),
/// under SeeSAw (a), time-aware (b) and power-aware (c); plus the static
/// baseline's per-interval time and power for the first 10 syncs (d, e).
mod fig4_power_alloc {
    use super::*;

    /// (controller, color of its simulation cap, of its analysis cap).
    const CONTROLLERS: [(&str, &str, &str); 3] = [
        ("seesaw", "#1f77b4", "#9ecae1"),
        ("time-aware", "#d62728", "#ff9896"),
        ("power-aware", "#2ca02c", "#98df8a"),
    ];

    fn job(quick: bool, controller: &str) -> JobConfig {
        JobConfig::new(spec(quick, 16, 128, 1, &[K::MsdFull]), controller)
    }

    // The SeeSAw configuration of panel (a): its Perfetto export shows the
    // per-node cap and phase lanes.
    pub(super) fn representative(quick: bool) -> JobConfig {
        job(quick, "seesaw")
    }

    pub(super) fn keys(quick: bool) -> Vec<RunKey> {
        let controllers = CONTROLLERS.iter().map(|c| c.0).chain(["static"]);
        controllers.map(|ctl| RunKey::job(job(quick, ctl))).collect()
    }

    pub(super) fn reduce(_quick: bool, runs: &[&RunResult]) -> Output {
        let mut out = Output::default();
        out.say("Fig. 4 — LAMMPS + full MSD, 128 nodes, dim 16, j = 1, w = 1");
        out.blank();
        out.say("Per-sync power allocation (every 10th sync shown):");
        out.blank();
        let (mut points, mut summary, mut series) = (Vec::new(), Vec::new(), Vec::new());
        for ((controller, sim_color, ana_color), r) in CONTROLLERS.into_iter().zip(runs) {
            out.say(format!("  {controller}:"));
            for s in r.syncs.iter().filter(|s| s.index <= 5 || s.index % 10 == 0).take(20) {
                out.say(format!(
                    "    sync {:3}: caps S {:5.1} / A {:5.1} W   measured S {:5.1} / A {:5.1} W   slack {:4.1} %",
                    s.index, s.sim_cap_w, s.analysis_cap_w, s.sim_power_w, s.analysis_power_w, s.slack * 100.0
                ));
            }
            points.extend(r.syncs.iter().map(|s| {
                row!(
                    controller,
                    sync = s.index,
                    sim_cap_w = s.sim_cap_w,
                    analysis_cap_w = s.analysis_cap_w,
                    sim_power_w = s.sim_power_w,
                    analysis_power_w = s.analysis_power_w,
                    slack = s.slack
                )
            }));
            let last = r.syncs.last().expect("at least one sync");
            summary.push(vec![
                controller.to_string(),
                format!("{:.1}", last.sim_cap_w),
                format!("{:.1}", last.analysis_cap_w),
                format!("{:.1} %", r.mean_slack_from(10) * 100.0),
                format!("{:.0}", r.total_time_s),
            ]);
            let caps = |f: fn(&SyncRecord) -> f64| -> Vec<(f64, f64)> {
                r.syncs.iter().map(|s| (s.index as f64, f(s))).collect()
            };
            series.extend([
                Series::new(&format!("{controller} S"), sim_color, caps(|s| s.sim_cap_w)),
                Series::new(&format!("{controller} A"), ana_color, caps(|s| s.analysis_cap_w)),
            ]);
        }
        out.blank();
        out.say("End-state summary:");
        out.table(
            &["controller", "sim cap W", "analysis cap W", "slack (sync ≥ 10)", "total s"],
            &summary,
        );

        // Panels (d)/(e): static baseline time & power over the first 10 syncs.
        let (mut baseline, mut table) = (Vec::new(), Vec::new());
        for s in runs[CONTROLLERS.len()].syncs.iter().take(10) {
            baseline.push(row!(
                sync = s.index,
                sim_time_s = s.sim_time_s,
                analysis_time_s = s.analysis_time_s,
                sim_power_w = s.sim_power_w,
                analysis_power_w = s.analysis_power_w
            ));
            table.push(vec![
                s.index.to_string(),
                format!("{:.2}", s.sim_time_s),
                format!("{:.2}", s.analysis_time_s),
                format!("{:.1}", s.sim_power_w),
                format!("{:.1}", s.analysis_power_w),
            ]);
        }
        out.blank();
        out.say("Baseline (static 110 W) first 10 syncs — paper panels (d)/(e):");
        out.table(
            &["sync", "sim t (s)", "analysis t (s)", "sim W/node", "analysis W/node"],
            &table,
        );
        out.blank();
        out.say("paper reference: SeeSAw settles within ~20 syncs giving analysis more");
        out.say("power, slack ≈ 0.8%; time-aware moves the wrong way early and cannot");
        out.say("return; power-aware slack fluctuates 0.2–40%.");
        out.svg(
            "fig4_power_alloc",
            line_chart(
                "Fig. 4 — per-node power allocation, full MSD, 128 nodes",
                "synchronization",
                "cap (W/node)",
                &series,
            ),
        );
        out.json("fig4_power_alloc", &points);
        out.json("fig4_baseline", &baseline);
        out
    }
}

/// Figure 5: allocated vs measured power per node between synchronizations
/// at scale (all analyses, dim = 48), SeeSAw vs time-aware, with
/// normalized slack — the paper's demonstration that low time difference
/// at low power is not an energy-efficient state. Swept over node counts
/// so the artifact records how the gap and slack behave as the partition
/// grows.
mod fig5_scale {
    use super::*;

    const NODE_COUNTS: [&[usize]; 2] = [&[128, 256, 512, 1024], &[128]];

    fn cells(quick: bool) -> impl Iterator<Item = (usize, &'static str)> {
        NODE_COUNTS[quick as usize].iter().flat_map(|&n| ["seesaw", "time-aware"].map(|c| (n, c)))
    }

    pub(super) fn representative(quick: bool) -> JobConfig {
        at_scale(quick, *NODE_COUNTS[quick as usize].last().expect("non-empty sweep"), 1, "seesaw")
    }

    pub(super) fn keys(quick: bool) -> Vec<RunKey> {
        cells(quick).map(|(nodes, ctl)| RunKey::job(at_scale(quick, nodes, 1, ctl))).collect()
    }

    pub(super) fn reduce(quick: bool, runs: &[&RunResult]) -> Output {
        let (mut points, mut summary) = (Vec::new(), Vec::new());
        for ((nodes, controller), r) in cells(quick).zip(runs) {
            points.extend(r.syncs.iter().map(|s| {
                row!(
                    nodes,
                    controller,
                    sync = s.index,
                    sim_cap_w = s.sim_cap_w,
                    sim_measured_w = s.sim_power_w,
                    analysis_cap_w = s.analysis_cap_w,
                    analysis_measured_w = s.analysis_power_w,
                    slack = s.slack
                )
            }));
            let tail: Vec<&SyncRecord> = r.syncs.iter().filter(|s| s.index >= 10).collect();
            let avg = |f: fn(&SyncRecord) -> f64| mean(tail.iter().map(|s| f(s)));
            summary.push(vec![
                nodes.to_string(),
                controller.to_string(),
                format!("{:.1}", avg(|s| s.sim_cap_w)),
                format!("{:.1}", avg(|s| s.sim_power_w)),
                format!("{:.1}", avg(|s| s.analysis_cap_w)),
                format!("{:.1}", avg(|s| s.analysis_power_w)),
                format!("{:.1} %", avg(|s| s.slack) * 100.0),
                format!("{:.0}", r.total_time_s),
            ]);
        }

        let mut out = Output::default();
        out.say(format!(
            "Fig. 5 — allocated vs measured power, {:?} nodes, all analyses, dim 48",
            NODE_COUNTS[quick as usize]
        ));
        out.table(
            &[
                "nodes",
                "controller",
                "S cap W",
                "S measured W",
                "A cap W",
                "A measured W",
                "slack",
                "total s",
            ],
            &summary,
        );
        out.blank();
        out.say("paper reference: SeeSAw allocates more power to analysis; simulation");
        out.say("at scale has lower power utilization (measured < allocated). The");
        out.say("time-aware approach drives the gap to δ_min and degrades severely even");
        out.say("though its normalized slack looks near zero.");
        out.json("fig5_scale", &points);
        out
    }
}

/// Figure 6: sensitivity of SeeSAw to its window `w` and to the LAMMPS
/// synchronization rate `j`, on 1024 nodes with all analyses, dim = 48.
/// The paper's findings: allocating frequently beats infrequent
/// reallocation; `1 < w < 10` damps over-reaction when syncs are frequent;
/// with infrequent syncs (large `j`), allocate as often as possible.
mod fig6_sensitivity {
    use super::*;

    /// (nodes, the `j` axis, the `w` axis), full and `--quick`.
    const GRID: [(usize, &[u64], &[usize]); 2] =
        [(1024, &[1, 5, 10, 20], &[1, 2, 5, 10]), (64, &[1, 5], &[1, 2])];

    fn job(quick: bool, j: u64, w: usize) -> JobConfig {
        at_scale(quick, GRID[quick as usize].0, j, "seesaw").with_window(w)
    }

    pub(super) fn representative(quick: bool) -> JobConfig {
        job(quick, 1, GRID[quick as usize].2[0])
    }

    pub(super) fn keys(quick: bool) -> Vec<RunKey> {
        let (_, js, ws) = GRID[quick as usize];
        js.iter()
            .flat_map(|&j| ws.iter().flat_map(move |&w| paired(&job(quick, j, w), 1)))
            .collect()
    }

    pub(super) fn reduce(quick: bool, runs: &[&RunResult]) -> Output {
        let (nodes, js, ws) = GRID[quick as usize];
        let mut improvements = improvements(runs, 1);
        let (mut rows, mut table, mut series) = (Vec::new(), Vec::new(), Vec::new());
        for (&j, color) in js.iter().zip(["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]) {
            let (mut cells, mut points) = (vec![format!("j = {j}")], Vec::new());
            for &w in ws {
                let improvement_pct = improvements.next().expect("one improvement per cell");
                rows.push(row!(j, w, improvement_pct));
                cells.push(format!("{improvement_pct:+.2} %"));
                points.push((w as f64, improvement_pct));
            }
            table.push(cells);
            series.push(Series::new(&format!("j = {j}"), color, points));
        }

        let mut out = Output::default();
        out.say(format!("Fig. 6 — SeeSAw w × j sensitivity, {nodes} nodes, all analyses, dim 48"));
        let headers: Vec<String> =
            [String::new()].into_iter().chain(ws.iter().map(|w| format!("w = {w}"))).collect();
        out.table(&headers.iter().map(String::as_str).collect::<Vec<_>>(), &table);
        out.blank();
        out.say("paper reference: frequent allocation wins; moderate w damps noise at");
        out.say("j = 1; at large j there are few chances to correct, so improvements fall.");
        out.svg(
            "fig6_sensitivity",
            line_chart(
                "Fig. 6 — SeeSAw w × j sensitivity (all analyses, dim 48)",
                "window w",
                "improvement over static (%)",
                &series,
            ),
        );
        out.json("fig6_sensitivity", &rows);
        out
    }
}

/// Table II: SeeSAw improvement with mixed analysis intervals on 128 nodes
/// (dim 16, w = 1). One sweep varies only full MSD's interval j ∈
/// {4, 20, 100} with RDF + VACF at every step; the other varies only
/// VACF's interval with RDF + full MSD at every step.
mod table2_mixed {
    use super::*;

    const JS: [u64; 3] = [4, 20, 100];
    /// (label, the analysis whose interval varies, the one at every step).
    const VARIED: [(&str, K, K); 2] = [("msd", K::MsdFull, K::Vacf), ("vacf", K::Vacf, K::MsdFull)];

    fn job(quick: bool, varied: K, fixed: K, j: u64) -> JobConfig {
        let mut spec = spec(quick, 16, 128, 1, &[K::Rdf, fixed]);
        spec.analyses.push(AnalysisSchedule { kind: varied, every: j });
        JobConfig::new(spec, "seesaw")
    }

    pub(super) fn representative(quick: bool) -> JobConfig {
        job(quick, K::MsdFull, K::Vacf, 4)
    }

    pub(super) fn keys(quick: bool) -> Vec<RunKey> {
        let mut keys = Vec::new();
        for (_, varied, fixed) in VARIED {
            for j in JS {
                keys.extend(paired(&job(quick, varied, fixed, j), jobs(quick)));
            }
        }
        keys
    }

    pub(super) fn reduce(quick: bool, runs: &[&RunResult]) -> Output {
        let mut improvements = improvements(runs, jobs(quick));
        let (mut rows, mut table) = (Vec::new(), Vec::new());
        for (varied, ..) in VARIED {
            let mut cells = vec![format!("{varied} % improvement over static")];
            for j in JS {
                let improvement_pct = improvements.next().expect("one improvement per cell");
                rows.push(row!(varied, j, improvement_pct));
                cells.push(format!("{improvement_pct:+.2}"));
            }
            table.push(cells);
        }

        let mut out = Output::default();
        out.say("Table II — SeeSAw improvement with mixed intervals, 128 nodes, w = 1, dim 16");
        out.table(&["varied analysis", "j = 4", "j = 20", "j = 100"], &table);
        out.blank();
        out.say("paper reference: MSD-varied 5.03 / 0.94 / 0.90 %; VACF-varied");
        out.say("16.76 / 15.09 / 16.24 % — infrequent high-demand analyses make w = 1");
        out.say("over-reactive, while a low-demand analysis at any interval is benign.");
        out.json("table2_mixed", &rows);
        out
    }
}

/// Figure 7: unbalanced initial power distributions on 128 nodes
/// (all analyses, dim 36, w = 2, j = 1): S = 120 / A = 100,
/// S = 100 / A = 120, and the equal split — SeeSAw vs keeping the initial
/// distribution static.
mod fig7_initial_power {
    use super::*;

    const CASES: [(&str, f64, f64); 3] = [
        ("simulation starts with more", 120.0, 100.0),
        ("analysis starts with more", 100.0, 120.0),
        ("equal start", 110.0, 110.0),
    ];

    fn job(quick: bool, sim0_w: f64, analysis0_w: f64) -> JobConfig {
        JobConfig::new(spec(quick, 36, 128, 1, &ALL), "seesaw")
            .with_window(2)
            .with_initial_caps(sim0_w, analysis0_w)
    }

    pub(super) fn representative(quick: bool) -> JobConfig {
        job(quick, 120.0, 100.0)
    }

    // This figure's own pairing: the static run keeps the unbalanced
    // start and is run 0 of jobs 500, 501, …; SeeSAw is run 1.
    pub(super) fn keys(quick: bool) -> Vec<RunKey> {
        let mut keys = Vec::new();
        for (_, sim0_w, analysis0_w) in CASES {
            for r in 0..jobs(quick) {
                let ctl = job(quick, sim0_w, analysis0_w).with_seed(500 + r, 1);
                let mut base = ctl.clone().with_seed(500 + r, 0);
                base.controller = "static".to_string();
                keys.extend([RunKey::job(base), RunKey::job(ctl)]);
            }
        }
        keys
    }

    pub(super) fn reduce(quick: bool, runs: &[&RunResult]) -> Output {
        let (mut rows, mut table, mut bars) = (Vec::new(), Vec::new(), Vec::new());
        for ((case, sim0_w, analysis0_w), improvement_pct) in
            CASES.into_iter().zip(improvements(runs, jobs(quick)))
        {
            rows.push(row!(case, sim0_w, analysis0_w, improvement_pct));
            let (s0, a0) = (format!("{sim0_w:.0}"), format!("{analysis0_w:.0}"));
            table.push(line([&case, &s0, &a0, &format!("{improvement_pct:+.2}")]));
            bars.push((format!("S{s0}/A{a0}"), improvement_pct, "#1f77b4".to_string()));
        }

        let mut out = Output::default();
        out.say("Fig. 7 — unbalanced initial power, 128 nodes, all analyses, dim 36, w = 2");
        out.table(&["initial distribution", "S₀ W", "A₀ W", "SeeSAw improvement %"], &table);
        out.blank();
        out.say("paper reference: 28.26 % (S more), 19.21 % (A more), 8.94 % (equal) —");
        out.say("the worse the starting distribution, the more SeeSAw recovers.");
        out.svg(
            "fig7_initial_power",
            bar_chart(
                "Fig. 7 — SeeSAw improvement from unbalanced initial power",
                "improvement over static (%)",
                &bars,
            ),
        );
        out.json("fig7_initial_power", &rows);
        out
    }
}

/// Figure 8: SeeSAw improvement over the static baseline across per-node
/// power budgets (LAMMPS + full MSD + all analyses, 128 nodes, dim 16,
/// w = 1, j = 1) — diminishing returns with more power headroom.
mod fig8_power_caps {
    use super::*;

    const BUDGETS: [&[f64]; 2] =
        [&[98.0, 105.0, 110.0, 115.0, 120.0, 130.0, 140.0, 150.0], &[100.0, 110.0, 140.0]];

    fn job(quick: bool, budget_w: f64) -> JobConfig {
        let kinds = [K::MsdFull, K::Rdf, K::Msd1d, K::Msd2d, K::Vacf];
        JobConfig::new(spec(quick, 16, 128, 1, &kinds), "seesaw").with_budget(budget_w)
    }

    pub(super) fn representative(quick: bool) -> JobConfig {
        job(quick, 110.0)
    }

    pub(super) fn keys(quick: bool) -> Vec<RunKey> {
        BUDGETS[quick as usize].iter().flat_map(|&w| paired(&job(quick, w), jobs(quick))).collect()
    }

    pub(super) fn reduce(quick: bool, runs: &[&RunResult]) -> Output {
        let (mut rows, mut table, mut points) = (Vec::new(), Vec::new(), Vec::new());
        for (&budget_per_node_w, improvement_pct) in
            BUDGETS[quick as usize].iter().zip(improvements(runs, jobs(quick)))
        {
            rows.push(row!(budget_per_node_w, improvement_pct));
            let bar_len = (improvement_pct.max(0.0) * 2.0) as usize;
            let bar = "#".repeat(bar_len.min(60));
            let (budget, pct) =
                (format!("{budget_per_node_w:.0}"), format!("{improvement_pct:+.2}"));
            table.push(line([&budget, &pct, &bar]));
            points.push((budget_per_node_w, improvement_pct));
        }

        let mut out = Output::default();
        out.say("Fig. 8 — SeeSAw improvement vs per-node power budget, 128 nodes, dim 16");
        out.table(&["budget W/node", "improvement %", ""], &table);
        out.blank();
        out.say("paper reference: highest improvements in the 110–120 W range; little");
        out.say("to gain beyond 140 W (LAMMPS cannot use the extra power) and none at");
        out.say("98 W (δ_min — no headroom to shift).");
        out.svg(
            "fig8_power_caps",
            line_chart(
                "Fig. 8 — SeeSAw improvement vs per-node power budget",
                "budget (W/node)",
                "improvement over static (%)",
                &[Series::new("SeeSAw vs static", "#1f77b4", points)],
            ),
        );
        out.json("fig8_power_caps", &rows);
        out
    }
}

/// Figure 9a: SeeSAw's allocation overhead as a percentage of each
/// synchronization interval, 128 vs 1024 nodes (all analyses, dim 48,
/// w = 1, j = 1) — the simulated cost including the measurement
/// exchange. (9b, the pure compute cost of one allocation step on the
/// host, is the `controllers` bench.)
mod fig9_overhead {
    use super::*;

    const SCALES: [&[usize]; 2] = [&[128, 1024], &[128]];

    pub(super) fn representative(quick: bool) -> JobConfig {
        at_scale(quick, 128, 1, "seesaw")
    }

    pub(super) fn keys(quick: bool) -> Vec<RunKey> {
        let job = |&nodes| RunKey::job(at_scale(quick, nodes, 1, "seesaw"));
        SCALES[quick as usize].iter().map(job).collect()
    }

    pub(super) fn reduce(quick: bool, runs: &[&RunResult]) -> Output {
        let (mut rows, mut table) = (Vec::new(), Vec::new());
        for (&nodes, r) in SCALES[quick as usize].iter().zip(runs) {
            let mean_overhead = mean(r.syncs.iter().map(|s| s.overhead_s));
            let mean_interval_s = mean(r.syncs.iter().map(|s| s.end_s - s.start_s));
            let mean_overhead_ms = mean_overhead * 1e3;
            let overhead_pct = mean_overhead / mean_interval_s * 100.0;
            rows.push(row!(nodes, mean_overhead_ms, mean_interval_s, overhead_pct));
            table.push(vec![
                nodes.to_string(),
                format!("{mean_overhead_ms:.3}"),
                format!("{mean_interval_s:.2}"),
                format!("{overhead_pct:.4}"),
            ]);
        }

        let mut out = Output::default();
        out.say("Fig. 9a — SeeSAw allocation overhead per synchronization");
        out.table(&["nodes", "overhead ms", "interval s", "overhead %"], &table);
        out.blank();
        out.say("paper reference: communication dominates at 1024 nodes — higher");
        out.say("absolute overhead, smaller relative overhead; negligible either way.");
        out.blank();
        out.say("Fig. 9b (host-measured controller step cost across caps) is produced");
        out.say("by `cargo bench -p bench --bench controllers`; the tracing on/off");
        out.say("overhead comparison by `cargo bench -p bench --bench trace_overhead`.");
        out.json("fig9_overhead", &rows);
        out
    }
}

/// Ablation study of the reproduction's design choices, beyond the paper's
/// own figures:
///
/// * **Eq. 4 interpretation** — the EWMA as printed (degenerate, jumps to
///   the optimum) vs the evident intent (blend with the previous
///   allocation);
/// * **controller extensions** — plain SeeSAw vs the §VIII future-work
///   variants (hierarchical level-2, local-optimum probing);
/// * **sharing mode** — space-shared (the paper's setting) vs time-shared
///   vs per-half-socket co-located execution of the same workload (§III).
mod ablation {
    use super::*;

    const EWMA: [(&str, EwmaMode); 2] =
        [("paper-literal", EwmaMode::PaperLiteral), ("blend-previous", EwmaMode::BlendPrevious)];
    const FAMILY: [&str; 4] = ["seesaw", "hierarchical-seesaw", "probing-seesaw", "time-aware"];
    /// After the space-shared static run 0 of a job, its runs 1–3.
    const SHARING: [(&str, &str, Entry); 3] = [
        ("space-shared seesaw", "seesaw", Entry::Job),
        ("time-shared", "static", Entry::TimeShared),
        ("co-located seesaw", "seesaw", Entry::Colocated),
    ];
    const SHARED: [(K, u32); 2] = [(K::Vacf, 36), (K::MsdFull, 16)];

    fn job(quick: bool, dim: u32, kind: K, controller: &str) -> JobConfig {
        JobConfig::new(spec(quick, dim, [128, 32][quick as usize], 1, &[kind]), controller)
    }

    pub(super) fn representative(quick: bool) -> JobConfig {
        job(quick, 16, K::MsdFull, "seesaw")
    }

    /// Every row is a (baseline, variant) pair of keys.
    pub(super) fn keys(quick: bool) -> Vec<RunKey> {
        let mut keys = Vec::new();
        // Eq. 4, noisy MSD workload: static is run 0, the variant run 1.
        for (_, mode) in EWMA {
            let cfg = representative(quick).with_seed(1, 1);
            keys.push(RunKey::job(job(quick, 16, K::MsdFull, "static")));
            keys.push(RunKey::Job(cfg, Entry::Ewma(mode)));
        }
        // Controller family on the local-optimum-prone low-demand case.
        keys.extend(FAMILY.iter().flat_map(|ctl| paired(&job(quick, 36, K::Vacf, ctl), 1)));
        for (kind, dim) in SHARED {
            for (run, (_, ctl, entry)) in (1..).zip(SHARING) {
                keys.push(RunKey::job(job(quick, dim, kind, "static")));
                keys.push(RunKey::Job(job(quick, dim, kind, ctl).with_seed(1, run), entry));
            }
        }
        keys
    }

    pub(super) fn reduce(quick: bool, runs: &[&RunResult]) -> Output {
        let ewma = EWMA.iter().map(|(label, _)| ("eq4-ewma", label.to_string()));
        let family = FAMILY.iter().map(|ctl| ("controller-family", ctl.to_string()));
        let sharing = SHARED.iter().flat_map(|(kind, _)| {
            SHARING.map(|(label, ..)| ("sharing-mode", format!("{}: {label}", kind.name())))
        });
        let (mut rows, mut table) = (Vec::new(), Vec::new());
        for ((study, variant), improvement_pct) in
            ewma.chain(family).chain(sharing).zip(improvements(runs, 1))
        {
            table.push(line([&study, &variant, &format!("{improvement_pct:+.2}")]));
            rows.push(row!(study, variant, improvement_pct));
        }

        let mut out = Output::default();
        let nodes = representative(quick).workload.nodes_total();
        out.say(format!("Ablations ({nodes} nodes, improvement vs space-shared static)"));
        out.table(&["study", "variant", "improvement %"], &table);
        out.json("ablation", &rows);
        out
    }
}

/// Fault sweep: how much of SeeSAw's improvement over the static baseline
/// survives as fault intensity rises. For each intensity a deterministic
/// plan (fixed seed, [`FaultIntensity::scaled`] profile mixing node
/// crashes, stragglers, RAPL actuation faults, corrupt samples, monitor
/// deaths and exchange faults) is injected into both the SeeSAw run and
/// its paired static baseline — so the comparison isolates the
/// controller's resilience, not its luck.
mod fault_sweep {
    use super::*;
    use insitu::{FaultIntensity, FaultPlan};

    /// Seed for every plan in the sweep (one knob, reproducible runs).
    const PLAN_SEED: u64 = 0xFA17;
    const INTENSITIES: [&[f64]; 2] = [&[0.0, 0.1, 0.25, 0.5, 0.75, 1.0], &[0.0, 0.5, 1.0]];

    fn job(quick: bool, intensity: f64) -> JobConfig {
        let spec = spec(quick, 16, 8, 1, &[K::Vacf]);
        let profile = FaultIntensity::scaled(intensity);
        let plan = FaultPlan::generate(PLAN_SEED, &profile, spec.nodes_total(), spec.sync_count());
        JobConfig::new(spec, "seesaw").with_faults(plan)
    }

    // The run under the heaviest plan.
    pub(super) fn representative(quick: bool) -> JobConfig {
        job(quick, 1.0)
    }

    // Same placement, same plan for both runs of a pair.
    pub(super) fn keys(quick: bool) -> Vec<RunKey> {
        INTENSITIES[quick as usize].iter().flat_map(|&x| paired(&job(quick, x), 1)).collect()
    }

    pub(super) fn reduce(quick: bool, runs: &[&RunResult]) -> Output {
        let (mut rows, mut table, mut points) = (Vec::new(), Vec::new(), Vec::new());
        for (&intensity, pair) in INTENSITIES[quick as usize].iter().zip(runs.chunks_exact(2)) {
            let (base, ctl) = (pair[0], pair[1]);
            let faults_injected = ctl.fault_events.len();
            let recoveries = ctl.recovery_events.len();
            let fault_kinds = ctl.fault_tags().len();
            let (seesaw_time_s, static_time_s) = (ctl.total_time_s, base.total_time_s);
            let improvement_pct = improvement_pct(static_time_s, seesaw_time_s);
            rows.push(row!(
                intensity,
                faults_injected,
                recoveries,
                fault_kinds,
                seesaw_time_s,
                static_time_s,
                improvement_pct
            ));
            table.push(vec![
                format!("{intensity:.2}"),
                faults_injected.to_string(),
                recoveries.to_string(),
                fault_kinds.to_string(),
                format!("{seesaw_time_s:.1}"),
                format!("{static_time_s:.1}"),
                format!("{improvement_pct:+.2}"),
            ]);
            points.push((intensity, improvement_pct));
        }

        let mut out = Output::default();
        out.say("Fault sweep — SeeSAw vs static under injected faults, 8 nodes, dim 16");
        out.table(
            &[
                "intensity",
                "faults",
                "recoveries",
                "kinds",
                "seesaw s",
                "static s",
                "improvement %",
            ],
            &table,
        );
        out.blank();
        out.say("At intensity 0 the run is byte-identical to the fault-free path; as");
        out.say("intensity rises both runs degrade under the same plan and the retained");
        out.say("improvement shows how gracefully the controller's feedback loop fails.");
        out.svg(
            "fault_sweep",
            line_chart(
                "Fault sweep — SeeSAw improvement vs fault intensity",
                "fault intensity",
                "improvement over static (%)",
                &[Series::new("improvement retained", "#d62728", points)],
            ),
        );
        out.json("fault_sweep", &rows);
        out
    }
}

/// Machine sweep: how much does machine-level energy feedback buy over
/// static power partitioning when N in-situ jobs share one envelope?
///
/// Each scenario is a job mix (widths, analysis weights, arrival times,
/// an optional mid-run kill) run under the same contended machine
/// envelope once per [`Policy`]: static equal-share, SeeSAw's energy
/// feedback lifted to the machine level (`P_j ∝ E_j`), and SLURM-style
/// power-aware (`P_j ∝ P̄_j`). Same job seeds, same fault plan, same
/// admission order: the policy is the only thing that differs within a
/// scenario.
mod machine_sweep {
    use super::*;
    use faults::{JobFault, JobFaultPlan};
    use sched::{JobSpec, MachineSpec, Scheduler};

    /// (name, nodes, envelope W, kills, quiet noise): the four job mixes,
    /// then the full Theta machine. Each mix's envelope is contended
    /// (below `Σ nⱼ · δ_max`, above `Σ nⱼ · δ_min` for the concurrent set),
    /// so the governor's division of power always binds.
    pub(super) const SCENARIOS: [(&str, usize, f64, &[JobFault], bool); 5] = [
        ("mixed", 16, 1760.0, &[], false),
        ("uniform", 16, 1760.0, &[], false),
        ("staggered", 8, 1100.0, &[], false),
        ("failure", 8, 1100.0, &[JobFault { epoch: 3, job: 1 }], false),
        ("theta-4392", 4392, 110.0 * 4392.0, &[], true),
    ];
    pub(super) const THETA: usize = 4;

    /// (scenario, arrival epoch, seed, dim, nodes, analyses).
    type Job = (usize, u64, u64, u32, usize, &'static [K]);
    const JOBS: [Job; 16] = [
        // Two heavy compute-bound RDF jobs (larger problem, high power
        // sensitivity) next to two light VACF jobs. Energy feedback
        // shifts watts toward the heavy jobs that pace the machine and
        // convert them into speed almost 1:1.
        (0, 0, 11, 24, 4, &[K::Rdf]),
        (0, 0, 12, 24, 4, &[K::Rdf]),
        (0, 0, 13, 16, 4, &[K::Vacf]),
        (0, 0, 14, 16, 4, &[K::Vacf]),
        // Four identical jobs. Feedback should at worst match equal-share
        // here (the fair split is the right answer).
        (1, 0, 21, 16, 4, &[K::Vacf]),
        (1, 0, 22, 16, 4, &[K::Vacf]),
        (1, 0, 23, 16, 4, &[K::Vacf]),
        (1, 0, 24, 16, 4, &[K::Vacf]),
        // Staggered arrivals over an 8-node machine: jobs queue, backfill
        // and depart, so the governor re-divides a shifting population.
        (2, 0, 31, 24, 4, &[K::Rdf]),
        (2, 0, 32, 16, 2, &[K::Vacf]),
        (2, 2, 33, 16, 2, &[K::Rdf]),
        (2, 4, 34, 16, 4, &[K::Vacf]),
        // A mid-run kill frees half the machine; the governor must fold
        // the dead job's watts back into the survivors.
        (3, 0, 41, 24, 4, &[K::Rdf]),
        (3, 0, 42, 24, 4, &[K::Rdf]),
        (3, 1, 43, 16, 4, &[K::Vacf]),
        // Theta's 4392 nodes in one job, under quiet noise so the
        // homogeneous partitions share a handful of walks per interval
        // instead of walking every node.
        (4, 0, 404, 48, 4392, &[K::Rdf, K::Vacf]),
    ];

    /// Scenario `index` under `policy`, every job `steps` steps long,
    /// with `tracer` on the scheduler.
    pub(super) fn run(
        index: usize,
        policy: Policy,
        steps: u64,
        tracer: &obs::Tracer,
    ) -> MachineResult {
        let (_, nodes, envelope_w, kills, quiet) = SCENARIOS[index];
        let job = |&(_, epoch, seed, dim, width, kinds): &Job| {
            let mut spec = WorkloadSpec::paper(dim, width, 1, kinds);
            spec.total_steps = steps;
            let cfg = JobConfig::new(spec, "seesaw").with_seed(seed, 0);
            JobSpec::arriving(epoch, if quiet { cfg.with_quiet_noise() } else { cfg })
        };
        let jobs = JOBS.iter().filter(|j| j.0 == index).map(job).collect();
        let spec =
            MachineSpec { syncs_per_epoch: 5, ..MachineSpec::new(nodes, envelope_w, policy) };
        let kills = JobFaultPlan::from_events(kills.to_vec());
        let mut machine =
            Scheduler::new(spec, jobs).expect("known controllers").with_job_faults(kills);
        machine.set_tracer(tracer);
        machine.run()
    }

    // Jobs half the paper's length: 200 steps, or 30 under `--quick`.
    fn key(quick: bool, scenario: usize, policy: Policy) -> RunKey {
        RunKey::Machine { scenario, policy, steps: steps(quick) / 2 }
    }

    // The mixed scenario under energy feedback.
    pub(super) fn representative(quick: bool) -> RunKey {
        key(quick, 0, Policy::EnergyFeedback)
    }

    pub(super) fn keys(quick: bool) -> Vec<RunKey> {
        (0..THETA).flat_map(|s| Policy::all().map(|p| key(quick, s, p))).collect()
    }

    pub(super) fn reduce(_quick: bool, runs: &[&MachineResult]) -> Output {
        let mut out = Output::default();
        out.say("Machine sweep — N concurrent in-situ jobs under one power envelope");
        let policies = Policy::all();
        let rows = table(&mut out, 0..THETA, &policies, runs);
        out.blank();
        // `Policy::all()` is equal-share, energy-feedback, power-aware.
        for ((name, ..), cell) in SCENARIOS.iter().zip(runs.chunks_exact(policies.len())) {
            let (base, fb) = (cell[0].makespan_s, cell[1].makespan_s);
            out.say(format!(
                "  {name:<10} energy-feedback vs equal-share makespan: {:+.2}%",
                100.0 * (base - fb) / base
            ));
        }
        out.json("machine_sweep", &rows);
        out
    }

    /// A table with one line per run, scenario-major over `scenarios` ×
    /// `policies`; returns the JSON rows.
    pub(super) fn table(
        out: &mut Output,
        scenarios: std::ops::Range<usize>,
        policies: &[Policy],
        runs: &[&MachineResult],
    ) -> Vec<Value> {
        let cells = scenarios.flat_map(|s| policies.iter().map(move |p| (SCENARIOS[s].0, p.tag())));
        let (mut rows, mut table) = (Vec::new(), Vec::new());
        for ((scenario, policy), r) in cells.zip(runs) {
            let count = |tag| r.outcomes.iter().filter(|o| o.outcome == tag).count();
            let (jobs, completed, killed) = (r.outcomes.len(), count("completed"), count("killed"));
            let (makespan_s, total_energy_j) = (r.makespan_s, r.total_energy_j);
            let mean_completion_s = r.mean_completion_s();
            let makespan = format!("{makespan_s:.1}");
            let (mean, mj) =
                (format!("{mean_completion_s:.1}"), format!("{:.2}", total_energy_j / 1e6));
            table.push(line([
                &scenario, &policy, &jobs, &completed, &killed, &makespan, &mean, &mj,
            ]));
            rows.push(row!(
                scenario,
                policy,
                jobs,
                completed,
                killed,
                makespan_s,
                mean_completion_s,
                total_energy_j
            ));
        }
        let headers =
            ["scenario", "policy", "jobs", "done", "killed", "makespan s", "mean done s", "MJ"];
        out.table(&headers, &table);
        rows
    }
}

/// The paper's full machine under each policy: one 4392-node job spanning
/// Theta. Its representative run streams through the live auditor in
/// constant memory under `--audit`.
mod machine_sweep_theta {
    use super::*;
    use machine_sweep::THETA;

    fn key(quick: bool, policy: Policy) -> RunKey {
        RunKey::Machine { scenario: THETA, policy, steps: [200, 20][quick as usize] }
    }

    /// Every policy, or under `--quick` energy feedback alone.
    fn policies(quick: bool) -> Vec<Policy> {
        if quick {
            vec![Policy::EnergyFeedback]
        } else {
            Policy::all().to_vec()
        }
    }

    pub(super) fn representative(quick: bool) -> RunKey {
        key(quick, Policy::EnergyFeedback)
    }

    pub(super) fn keys(quick: bool) -> Vec<RunKey> {
        policies(quick).into_iter().map(|policy| key(quick, policy)).collect()
    }

    pub(super) fn reduce(quick: bool, runs: &[&MachineResult]) -> Output {
        let mut out = Output::default();
        out.say("Machine sweep — full Theta (4392 nodes), one machine-spanning job");
        let rows = machine_sweep::table(&mut out, THETA..THETA + 1, &policies(quick), runs);
        out.json("machine_sweep_theta", &rows);
        out
    }
}

/// Fleet chaos soak: what does machine loss cost a federated fleet, and
/// how fast does it recover?
///
/// Seeded machine-fault storms (crash / partition / slow / mixed) hit
/// fleets of 2 and 3 machines under every governor policy. The job
/// stream, the storm and the scheduler are all pure functions of the
/// seed, so every cell is replayable. Each row aggregates three seeds;
/// the baseline `none` storm rows give the no-fault makespan and goodput
/// the others are read against.
mod fleet_sweep {
    use super::*;
    use faults::{MachineFaultIntensity as Storm, MachineFaultPlan};
    use fleet::{Fleet, FleetSpec, JobStream};
    use sched::MachineSpec;

    const SEEDS: [u64; 3] = [1, 2, 3];
    const MACHINES: [usize; 2] = [2, 3];
    const STORM_EPOCHS: u64 = 40;
    const JOBS_PER_RUN: u64 = 6;
    const ARRIVAL_HORIZON_EPOCHS: u64 = 6;
    /// Where [`storms`] puts the mixed weather profile.
    const MIXED: usize = 4;

    /// The storm menu: one no-fault baseline plus one storm per fault kind
    /// and the mixed weather profile.
    fn storms() -> [(&'static str, Storm); 5] {
        [
            ("none", Storm::none()),
            ("crash", Storm { crash: 0.1, partition: 0.0, slow: 0.0 }),
            ("partition", Storm { crash: 0.0, partition: 0.06, slow: 0.0 }),
            ("slow", Storm { crash: 0.0, partition: 0.0, slow: 0.08 }),
            ("mixed", Storm::storm(1.0)),
        ]
    }

    /// One seed of a cell: a stream of 4-node jobs, each with its own
    /// seed, under the storm's seeded plan; `tracer` on the fleet.
    pub(super) fn run(
        storm: usize,
        machines: usize,
        policy: Policy,
        seed: u64,
        steps: u64,
        tracer: &obs::Tracer,
    ) -> FleetResult {
        let job = |k| {
            let mut spec = WorkloadSpec::paper(16, 4, 1, &[K::Vacf]);
            spec.total_steps = steps;
            JobConfig::new(spec, "seesaw").with_seed(seed * 1000 + k, 0)
        };
        let jobs = (0..JOBS_PER_RUN).map(job).collect();
        let stream = JobStream::seeded(seed, jobs, ARRIVAL_HORIZON_EPOCHS);
        let plan = MachineFaultPlan::generate(seed, &storms()[storm].1, machines, STORM_EPOCHS);
        let member = MachineSpec { syncs_per_epoch: 4, ..MachineSpec::new(8, 1100.0, policy) };
        // Contended: below `machines × 1100 W`, so the renormalized shares
        // actually bind and losing a member reshapes every survivor.
        let spec = FleetSpec::new(vec![member; machines], 900.0 * machines as f64);
        let spec = FleetSpec { max_epochs: 400, ..spec };
        let mut fleet = Fleet::new(spec, stream, plan).expect("known controllers");
        fleet.set_tracer(tracer);
        fleet.run()
    }

    /// Every (storm, machines, policy) cell, in row order.
    fn cells() -> impl Iterator<Item = (usize, usize, Policy)> {
        let machines = |s| MACHINES.into_iter().flat_map(move |m| Policy::all().map(|p| (s, m, p)));
        (0..storms().len()).flat_map(machines)
    }

    // Per-job steps — the fleet multiplies them: 16, or 2 under `--quick`.
    fn key(quick: bool, (storm, machines, policy): (usize, usize, Policy), seed: u64) -> RunKey {
        RunKey::Fleet { storm, machines, policy, seed, steps: steps(quick) / 25 }
    }

    // Three machines in the mixed storm under energy feedback.
    pub(super) fn representative(quick: bool) -> RunKey {
        key(quick, (MIXED, 3, Policy::EnergyFeedback), SEEDS[0])
    }

    // Each seed of a cell is its own key.
    pub(super) fn keys(quick: bool) -> Vec<RunKey> {
        cells().flat_map(|cell| SEEDS.map(|seed| key(quick, cell, seed))).collect()
    }

    pub(super) fn reduce(_quick: bool, runs: &[&FleetResult]) -> Output {
        let (mut rows, mut table, mut feedback) = (Vec::new(), Vec::new(), Vec::new());
        for ((s, machines, policy), seeds) in cells().zip(runs.chunks_exact(SEEDS.len())) {
            let count = |f: fn(&FleetResult) -> u64| seeds.iter().map(|r| f(r)).sum::<u64>();
            let sum = |f: fn(&FleetResult) -> f64| seeds.iter().map(|r| f(r)).sum::<f64>();
            let avg = |f| sum(f) / SEEDS.len() as f64;
            let (storm, jobs) = (storms()[s].0, JOBS_PER_RUN * SEEDS.len() as u64);
            let (completed, failed) =
                (count(|r| r.completed() as u64), count(|r| r.failed() as u64));
            let (retries, migrations) = (count(|r| r.retries), count(|r| r.migrations));
            let (makespan_s, goodput) = (avg(|r| r.makespan_s), avg(FleetResult::goodput));
            let mean_recovery_epochs = avg(|r| r.mean_recovery_epochs);
            let total_energy_j = sum(|r| r.total_energy_j);
            if policy == Policy::EnergyFeedback {
                feedback.push((s, machines, makespan_s, goodput, mean_recovery_epochs));
            }
            let policy = policy.tag();
            let makespan = format!("{makespan_s:.1}");
            let (g, r) = (format!("{goodput:.3}"), format!("{mean_recovery_epochs:.2}"));
            table.push(line([
                &storm,
                &machines,
                &policy,
                &jobs,
                &completed,
                &failed,
                &retries,
                &migrations,
                &makespan,
                &g,
                &r,
            ]));
            rows.push(row!(
                storm,
                machines,
                policy,
                jobs,
                completed,
                failed,
                retries,
                migrations,
                makespan_s,
                goodput,
                mean_recovery_epochs,
                total_energy_j
            ));
        }

        let mut out = Output::default();
        out.say("Fleet chaos soak — seeded machine-fault storms over a federated fleet");
        let headers = "storm|mach|policy|jobs|done|failed|retry|migr|makespan s|goodput|recov ep";
        out.table(&headers.split('|').collect::<Vec<_>>(), &table);
        out.blank();
        for machines in MACHINES {
            let of = |storm| feedback.iter().find(|c| c.0 == storm && c.1 == machines);
            let (&(.., base_s, base_goodput, _), &(.., mixed_s, goodput, recovery)) =
                (of(0).expect("a cell"), of(MIXED).expect("a cell"));
            out.say(format!(
                "  {machines} machines: mixed-storm makespan {:+.1}% vs no faults, goodput \
                 {goodput:.3} (from {base_goodput:.3}), mean recovery {recovery:.2} epochs",
                100.0 * (mixed_s - base_s) / base_s,
            ));
        }
        out.json("fleet_sweep", &rows);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> Vec<&'static Experiment> {
        TABLE.iter().collect()
    }

    /// (keys requested, distinct keys) of a selection.
    fn counts(selected: &[&Experiment], quick: bool) -> (usize, usize) {
        let plan = plan(selected, quick);
        (plan.index.iter().map(Vec::len).sum(), plan.distinct.len())
    }

    /// The counts are functions of the table alone. A change here is a
    /// change to what `repro` simulates: say why in the same commit.
    #[test]
    fn each_distinct_simulation_is_planned_once() {
        // 15 cells × 3 controllers × 3 jobs × (controller + baseline);
        // the three controllers of a cell share each job's baseline.
        assert_eq!(counts(&[find("fig3_analyses").unwrap()], false), (270, 180));
        // The sweeps add 105 distinct keys (103 quick), none shared: 4
        // scenarios × 3 policies, 3 Theta policies (1 quick), and 5 storms
        // × 2 fleet sizes × 3 policies × 3 seeds, each seed its own key.
        assert_eq!(counts(&all(), false), (644, 528));
        assert_eq!(counts(&all(), true), (311, 280));
        // A key repeated inside one experiment or across two resolves to
        // the first request's slot.
        let plan = plan(&all(), true);
        for (e, slots) in all().iter().zip(&plan.index) {
            for (key, &slot) in (e.keys)(true).iter().zip(slots) {
                assert_eq!(*key, plan.distinct[slot], "{}", e.name);
            }
        }
        for (i, key) in plan.distinct.iter().enumerate() {
            assert!(!plan.distinct[..i].contains(key), "distinct[{i}] is a repeat");
        }
    }

    /// Dedupe and pool width never change an answer: under `--quick`,
    /// every experiment's console lines and files are identical run
    /// alone, inside the full selection, and at 1 vs 4 threads.
    #[test]
    fn outputs_do_not_depend_on_selection_or_pool_width() {
        let serial = par::with_threads(1, || run_selection(&all(), true));
        let wide = par::with_threads(4, || run_selection(&all(), true));
        assert!(serial == wide, "full selection differs between 1 and 4 threads");
        // Each experiment alone, the experiments side by side on the pool
        // (each one's own batch then runs serially).
        let alone =
            par::global().par_map_indexed(TABLE.len(), |i| run_selection(&[&TABLE[i]], true));
        for ((e, together), alone) in all().iter().zip(&serial).zip(&alone) {
            assert!(alone[0] == *together, "{} differs alone vs in the full selection", e.name);
        }

        // Every file is claimed by exactly one experiment, under its name.
        let mut files: Vec<&str> = Vec::new();
        for (e, out) in all().iter().zip(&serial) {
            assert!(!out.lines.is_empty() && !out.files.is_empty(), "{}", e.name);
            for (file, body) in &out.files {
                assert!(
                    file.starts_with(e.name.split('_').next().unwrap()),
                    "{file} of {}",
                    e.name
                );
                assert!(!files.contains(&file.as_str()), "{file} is written twice");
                assert!(!body.is_empty(), "{file}");
                files.push(file);
            }
        }
        assert_eq!(files.len(), 23, "16 JSON + 7 SVG: {files:?}");
    }

    /// Names are unique and resolvable, and every `--bin repro -- ARGS`
    /// README and EXPERIMENTS tell the reader to type is a command line
    /// `repro` accepts (ARGS runs to the end of the code: a backtick, a
    /// `#` comment or the line).
    #[test]
    fn names_are_unique_and_the_documented_ones_resolve() {
        for (i, e) in TABLE.iter().enumerate() {
            assert!(std::ptr::eq(find(e.name).unwrap(), e), "{} resolves to another row", e.name);
            assert!(TABLE[..i].iter().all(|other| other.name != e.name), "{} twice", e.name);
            assert!(!(e.keys)(false).is_empty() && !(e.keys)(true).is_empty(), "{}", e.name);
        }
        let mut documented: Vec<&str> = Vec::new();
        for doc in ["README.md", "EXPERIMENTS.md"] {
            let path = format!("{}/../../{doc}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            for (n, line) in text.lines().enumerate() {
                for (_, rest) in
                    line.match_indices("--bin repro -- ").map(|(at, m)| line.split_at(at + m.len()))
                {
                    let code = rest.split(['`', '#']).next().unwrap_or(rest);
                    let argv: Vec<String> = code.split_whitespace().map(str::to_string).collect();
                    let selection = crate::cli::Selection::parse(&argv)
                        .unwrap_or_else(|msg| panic!("{doc}:{}: `repro {code}`: {msg}", n + 1));
                    assert!(
                        selection.experiments.len() < TABLE.len(),
                        "{doc}:{}: names nothing",
                        n + 1
                    );
                    documented.extend(selection.experiments.iter().map(|e| e.name));
                }
            }
        }
        for e in TABLE {
            assert!(documented.contains(&e.name), "no documented invocation names {}", e.name);
        }
    }

    /// The pairing rule exists once: `JobConfig::static_baseline` is the
    /// baseline `run_paired` runs, bit for bit, and what `paired` keys.
    #[test]
    fn the_baseline_rule_cannot_fork() {
        let cfg = JobConfig::new(spec(true, 16, 8, 1, &[K::Vacf]), "seesaw").with_seed(7, 3);
        let (ctl, base) = insitu::run_paired(&cfg).unwrap();
        let keys = paired(&cfg, 1);
        assert_eq!(keys, [RunKey::job(cfg.static_baseline()), RunKey::job(cfg.clone())]);
        for (key, expected) in keys.iter().zip([&base, &ctl]) {
            let run = key.run(&obs::Tracer::off());
            let run = RunResult::of(&run);
            assert_eq!(run.controller, expected.controller);
            assert_eq!(run.total_time_s.to_bits(), expected.total_time_s.to_bits());
            assert_eq!(run.total_energy_j.to_bits(), expected.total_energy_j.to_bits());
            assert_eq!(run.syncs, expected.syncs);
        }
        assert_eq!(base.controller, "static");
    }

    /// The sweep rows' representative runs — what `repro <row> --audit`
    /// observes — stream through the live invariant battery clean.
    #[test]
    fn the_sweeps_representative_runs_audit_clean() {
        for name in ["machine_sweep", "machine_sweep_theta", "fleet_sweep"] {
            let tracer = obs::Tracer::streaming();
            let auditor = std::sync::Arc::new(std::sync::Mutex::new(audit::StreamAuditor::new()));
            tracer.attach(Box::new(std::sync::Arc::clone(&auditor)));
            find(name).unwrap().trace(true, &tracer);
            let report = std::mem::take(&mut *auditor.lock().unwrap()).finish().report;
            assert!(report.events > 0, "{name}: no events");
            assert!(report.clean(), "{name}: {:?}", report.violations);
        }
    }
}
