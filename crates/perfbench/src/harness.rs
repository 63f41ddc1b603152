//! One measured run of one workload: set-up (three times), the timed
//! closed-loop window (one client, ops back to back, no think time), and
//! — traced — the span fold and the probes.

use crate::digest::Fnv;
use crate::json::{self, Obj};
use crate::span::{self, Name};
use crate::spec::{spec, Metric};
use crate::workloads::{self, OpOut, Size, Workload};
use crate::{host, probes, stats};
use insitu::median;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The traced window is this fraction of the untraced one.
const TRACED_WINDOW_SHARE: f64 = 1.0 / 3.0;
/// Failed-op messages echoed to stderr before the rest are only counted.
const MAX_ERRORS_SHOWN: u64 = 5;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Length of the untraced timed window, seconds.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// The result of one run, serialized.
#[derive(Debug)]
pub struct Outcome {
    /// The full workload document, one line of JSON.
    pub doc: String,
    /// The driver's contract line: `correct`, `attempted`, `failed`, `metrics`.
    pub contract: String,
}

/// Ops attempted and failed. Panics, `Err`s and failed output checks all
/// count as failed ops.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn fail(&mut self, what: &str) {
        self.failed += 1;
        if self.failed <= MAX_ERRORS_SHOWN {
            eprintln!("perfbench: failed op: {what}");
        }
    }

    fn attempt(&mut self, f: impl FnOnce() -> Result<OpOut, String>) -> Option<OpOut> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(out)) if out.work > 0 => Some(out),
            Ok(Ok(_)) => {
                self.fail("op completed no work");
                None
            }
            Ok(Err(e)) => {
                self.fail(&e);
                None
            }
            Err(_) => {
                self.fail("op panicked");
                None
            }
        }
    }
}

/// The warm-up round of the set-up that was kept.
struct Warm {
    workload: Box<dyn Workload>,
    digests: Vec<Option<u64>>,
    digest: u64,
    sim_time_s: f64,
    sim_energy_j: f64,
}

/// Run `args.workload` once with the worker pool pinned to
/// [`host::pool_width`]. `Err` only for an unknown workload name.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    run_at_width(args, host::pool_width())
}

/// [`run`] at an explicit pool width (tests compare widths).
pub fn run_at_width(args: &RunArgs, width: usize) -> Result<Outcome, String> {
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (known: {})",
            args.workload,
            workloads::NAMES.join(", ")
        ));
    }
    Ok(par::with_threads(width, || measure(args)))
}

fn measure(args: &RunArgs) -> Outcome {
    if args.trace {
        span::start();
    }
    let mut tally = Tally::default();

    // Set-up: generate the inputs from the seed and run the warm-up round,
    // untraced. Repeating it gives `setup_s` a median and proves the
    // round's simulated results repeat bit for bit.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    // Per warm-up op, its untraced ns per work unit in each set-up.
    let mut untraced: Vec<Vec<f64>> = Vec::new();
    let mut warm: Option<Warm> = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let mut workload = workloads::build(&args.workload, args.seed, args.size)
            .expect("workload name was checked");
        let mut h = Fnv::default();
        let (mut sim_time_s, mut sim_energy_j) = (0.0, 0.0);
        let mut digests = Vec::with_capacity(workload.warmup_ops());
        untraced.resize(workload.warmup_ops(), Vec::new());
        for (i, plain) in untraced.iter_mut().enumerate() {
            let out = tally.attempt(|| workload.op(i));
            digests.push(out.map(|o| o.digest));
            if let Some(o) = out {
                h.u64(o.digest);
                sim_time_s += o.sim_time_s;
                sim_energy_j += o.sim_energy_j;
                plain.push(o.wall_ns as f64 / o.work as f64);
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        if warm.as_ref().is_some_and(|w| w.digest != h.value()) {
            tally.fail("the warm-up round's digest changed between two set-ups");
        }
        warm = Some(Warm { workload, digests, digest: h.value(), sim_time_s, sim_energy_j });
    }
    let Warm { mut workload, digests, digest, sim_time_s, sim_energy_j } =
        warm.expect("SETUP_REPS >= 1");

    // The timed window. Untraced it continues after the warm-up round;
    // traced it replays from input 0, so the stepped path's digests can be
    // held against the plain calls'.
    let window_s = if args.trace { args.seconds * TRACED_WINDOW_SHARE } else { args.seconds };
    let first = if args.trace { 0 } else { workload.warmup_ops() };
    let granule = workload.granule();
    // One latency sample per granule: host ns per work unit over its ops.
    let mut ns_per_work = Vec::new();
    let (mut granule_ns, mut granule_work) = (0u64, 0u64);
    // Traced over untraced time of the same input, per replayed warm-up op.
    let mut traced_ratio = Vec::new();
    let mut work = 0u64;
    let cpu0 = host::cpu_time_s();
    let t0 = Instant::now();
    let mut done = 0usize;
    loop {
        if done > 0 && done.is_multiple_of(granule) && t0.elapsed().as_secs_f64() >= window_s {
            break;
        }
        let i = first + done;
        span::set_op(done as u32);
        let out = tally.attempt(|| if args.trace { workload.op_traced(i) } else { workload.op(i) });
        if let Some(o) = out {
            if args.trace && digests.get(i).is_some_and(|&d| d != Some(o.digest)) {
                tally.fail("the stepped op's digest differs from the plain call's");
            }
            if let Some(plain) = untraced.get(i).filter(|_| args.trace) {
                traced_ratio.push(o.wall_ns as f64 / o.work as f64 / median(plain));
            }
            granule_ns += o.wall_ns;
            granule_work += o.work;
            work += o.work;
        }
        done += 1;
        if done.is_multiple_of(granule) && granule_work > 0 {
            ns_per_work.push(granule_ns as f64 / granule_work as f64);
            (granule_ns, granule_work) = (0, 0);
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::cpu_time_s() - cpu0;
    let peak_rss_mb = host::peak_rss_mb();

    let s = spec();
    let correct = tally.failed == 0;
    let mut doc = Obj::new();
    doc.str("workload", &args.workload)
        .num("seed", args.seed as f64)
        .num("seconds", args.seconds)
        .bool("trace", args.trace)
        .str("size", if args.size == Size::Full { "full" } else { "smoke" })
        .str("work_unit", workload.work_unit())
        .num("attempted", tally.attempted as f64)
        .num("failed", tally.failed as f64)
        .num("failed_ops_pct", 100.0 * tally.failed as f64 / tally.attempted as f64)
        .bool("correct", correct)
        .num("window_ops", done as f64)
        .num("window_s", wall_s)
        .num("samples", ns_per_work.len() as f64);

    let metrics = if args.trace {
        let overhead_pct = 100.0 * (median(&traced_ratio) - 1.0);
        let layers = layer_metrics(&span::take(), workload.as_ref(), overhead_pct, args.size);
        let json = metrics_json(&s.per_layer, &layers);
        doc.raw("per_layer", &json);
        json
    } else {
        let mut e2e = BTreeMap::new();
        e2e.insert("work_per_s", work as f64 / wall_s);
        e2e.insert("ns_per_work_p50", median(&ns_per_work));
        e2e.insert("cpu_ns_per_work", cpu_s * 1e9 / work as f64);
        e2e.insert("peak_rss_mb", peak_rss_mb);
        e2e.insert("setup_s", median(&setup_s));
        let json = metrics_json(&s.end_to_end, &e2e);
        doc.raw("end_to_end", &json).num("cpu_s", cpu_s);
        if let Some(p95) = stats::tail_percentile(&ns_per_work, 95.0) {
            doc.num("ns_per_work_p95", p95);
        }
        json
    };

    let mut sim = Obj::new();
    sim.str("digest", &format!("{digest:#018x}"))
        .num("total_time_s", sim_time_s)
        .num("total_energy_j", sim_energy_j);
    workload.sim_stats(&mut sim);
    doc.raw("sim", &sim.finish()).raw("env", &host::env_json());

    let mut contract = Obj::new();
    contract
        .bool("correct", correct)
        .num("attempted", tally.attempted as f64)
        .num("failed", tally.failed as f64)
        .raw("metrics", &metrics);
    Outcome { doc: doc.finish(), contract: contract.finish() }
}

/// `{name: {value, unit}}` for exactly the `declared` metrics. A value the
/// code did not produce, or produced under an undeclared name, is a bug.
fn metrics_json(declared: &[Metric], values: &BTreeMap<&'static str, f64>) -> String {
    for name in values.keys() {
        assert!(declared.iter().any(|m| m.name == *name), "metric `{name}` is not declared");
    }
    let mut o = Obj::new();
    for m in declared {
        let v = values.get(m.name.as_str());
        o.metric(
            &m.name,
            *v.unwrap_or_else(|| panic!("metric `{}` was not measured", m.name)),
            &m.unit,
        );
    }
    o.finish()
}

/// Span means reported in microseconds.
const SPAN_US: [(Name, &str); 15] = [
    (Name::InsituNew, "insitu.new_us"),
    (Name::InsituStepSync, "insitu.step_sync_us"),
    (Name::InsituCompactHistory, "insitu.compact_history_us"),
    (Name::InsituFinish, "insitu.finish_us"),
    (Name::MdsimStepWork, "mdsim.step_work_us"),
    (Name::MdsimWorkloadNew, "mdsim.workload_new_us"),
    (Name::SchedNew, "sched.new_us"),
    (Name::SchedStepEpoch, "sched.step_epoch_us"),
    (Name::SchedFinish, "sched.finish_us"),
    (Name::FleetNew, "fleet.new_us"),
    (Name::FleetStepEpoch, "fleet.step_epoch_us"),
    (Name::FleetFinish, "fleet.finish_us"),
    (Name::FleetStreamSeeded, "fleet.stream_seeded_us"),
    (Name::FaultsPlanGenerate, "faults.plan_generate_us"),
    (Name::AuditFinish, "audit.finish_us"),
];
/// Span means reported in nanoseconds.
const SPAN_NS: [(Name, &str); 2] =
    [(Name::CoreOnSync, "core.on_sync_ns"), (Name::AuditOnEvent, "audit.on_event_ns")];
/// Calls per op that made any.
const SPAN_CALLS: [(Name, &str); 4] = [
    (Name::CoreOnSync, "core.on_sync_calls"),
    (Name::MdsimStepWork, "mdsim.step_work_calls"),
    (Name::SchedStepEpoch, "sched.epochs"),
    (Name::FleetStepEpoch, "fleet.epochs"),
];

/// Every per-layer metric: span folds, the workload's counts, the probes.
/// A layer this workload never entered reads 0.
fn layer_metrics(
    spans: &[span::Span],
    workload: &dyn Workload,
    trace_overhead_pct: f64,
    size: Size,
) -> BTreeMap<&'static str, f64> {
    let agg = span::aggregate(spans);
    let of = |n: Name| agg.get(&n).copied().unwrap_or_default();
    let mut m = BTreeMap::new();
    for (n, metric) in SPAN_US {
        m.insert(metric, of(n).mean_ns() / 1e3);
    }
    for (n, metric) in SPAN_NS {
        m.insert(metric, of(n).mean_ns());
    }
    for (n, metric) in SPAN_CALLS {
        m.insert(metric, of(n).calls_per_op());
    }
    let op = of(Name::Op);
    let pct_of_op = |ns: u64| 100.0 * ns as f64 / op.total_ns.max(1) as f64;
    m.insert("insitu.step_sync_self_pct", pct_of_op(of(Name::InsituStepSync).self_ns));
    m.insert("bench.unattributed_pct", pct_of_op(op.self_ns));
    m.insert("bench.trace_overhead_pct", trace_overhead_pct);
    // The live auditor saw each event once; serializing and re-reading
    // them are one span per op, reported per event.
    let per_event = |n: Name| of(n).total_ns as f64 / of(Name::AuditOnEvent).calls.max(1) as f64;
    m.insert("obs.to_jsonl_ns_per_event", per_event(Name::ObsToJsonl));
    m.insert("audit.feed_line_ns", per_event(Name::AuditFeedLines));
    for zero in [
        "fleet.retries",
        "fleet.migrations",
        "fleet.jobs_failed",
        "obs.events_per_op",
        "obs.bytes_per_event",
    ] {
        m.insert(zero, 0.0);
    }
    workload.layer_counts(&mut m);
    probes::run(&mut m, size);
    m
}

/// Serialize several workload documents as one run document.
pub fn run_document(seed: u64, seconds: f64, trace: bool, docs: &[String]) -> String {
    let mut o = Obj::new();
    o.num("perfbench", 1.0).num("seed", seed as f64).num("seconds", seconds).bool("trace", trace);
    o.raw("workloads", &json::array(docs.iter().cloned()));
    o.finish()
}
