//! Full-Theta scaling benchmark for the cluster stepping core.
//!
//! Runs a quiet-noise job at machine width — the case where almost every
//! node adopts another's walk — and reports the sustained
//! synchronization-epoch rate (minimum wall time over a few passes).
//!
//! Results land in `results/BENCH_scale.json` in the unified
//! [`bench::gate`] schema, and the benchmark **exits nonzero** when the
//! epoch rate falls under its floor.
//!
//! It also records, ungated, the table `sched`'s stepping work grain is
//! read from: one machine epoch's stepping region — a few equal
//! default-noise jobs, five syncs each, one `par_fill` item per job — at
//! pool width 1 and 2, from 40 to 10 240 node-syncs per epoch.
//!
//! Plain timing harness (`harness = false`): the offline build carries no
//! criterion.

use bench::gate::{BenchDoc, Metric};
use insitu::{run_job, JobConfig, Runtime};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind as K;
use std::hint::black_box;
use std::time::Instant;

/// Absolute floor on the epoch rate, epochs per second of wall
/// time. The reference host sustains hundreds per second at full-Theta
/// width; the floor guards order-of-magnitude regressions (an O(nodes)
/// touch sneaking back into the hot loop), not host-to-host drift.
const EPOCHS_PER_S_MIN: f64 = 20.0;

fn cfg(nodes: usize, steps: u64) -> JobConfig {
    let mut spec = WorkloadSpec::paper(48, nodes, 1, &[K::Rdf, K::Vacf]);
    spec.total_steps = steps;
    JobConfig::new(spec, "seesaw").with_quiet_noise()
}

/// Wall time of one call to `f`, in seconds.
fn time_s(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Syncs per epoch in the stepping-region table.
const STEP_SYNCS: u64 = 5;

/// `(jobs, nodes per job)` of the stepping-region table, smallest epoch
/// first: 40, 80, 640, 2 560, 5 120, 10 240 and 10 240 node-syncs.
const STEP_SHAPES: [(usize, usize); 7] =
    [(2, 4), (4, 4), (2, 64), (4, 128), (2, 512), (2, 1024), (4, 512)];

/// Minimum over five epochs, in µs, of stepping `jobs` equal `nodes`-node
/// default-noise jobs [`STEP_SYNCS`] syncs each as one `par` region of `width`
/// workers — the region `sched::Scheduler::step_epoch` either dispatches
/// or keeps on the calling thread. Both widths time the same syncs of
/// the same jobs; the first epoch is warm-up.
fn step_region_us(width: usize, jobs: usize, nodes: usize) -> f64 {
    const EPOCHS: u64 = 6;
    let mut runtimes: Vec<Runtime> = (0..jobs)
        .map(|k| {
            let mut spec = WorkloadSpec::paper(36, nodes, 1, &[K::Vacf]);
            spec.total_steps = STEP_SYNCS * EPOCHS;
            Runtime::new(JobConfig::new(spec, "seesaw").with_seed(k as u64, 0))
                .expect("known controller")
        })
        .collect();
    let mut epoch = || {
        par::with_threads(width, || {
            par::global().par_fill(&mut runtimes, 1, |_, rt| {
                for _ in 0..STEP_SYNCS {
                    assert!(rt[0].step_sync(), "job ran out of syncs");
                }
                rt[0].compact_history();
            })
        })
    };
    epoch();
    (1..EPOCHS).map(|_| time_s(&mut epoch)).fold(f64::MAX, f64::min) * 1e6
}

fn main() {
    let rep = obs::Reporter::default();
    let quick = bench::quick_mode();
    // Full profile runs the paper's machine width (Theta: 4392 nodes).
    let (nodes, steps, passes) = if quick { (1024, 30, 3) } else { (4392, 40, 3) };

    let run = || {
        let r = run_job(cfg(nodes, steps)).expect("known controller");
        assert_eq!(r.syncs.len() as u64, steps, "job must run every sync");
        black_box(r);
    };

    // Warm-up, then keep the fastest pass.
    run();
    let run_s = (0..passes).map(|_| time_s(run)).fold(f64::MAX, f64::min);
    let rate = steps as f64 / run_s;
    println!("scale {nodes:>5} nodes {steps:>3} epochs  {run_s:>8.3} s  ({rate:>8.1} epochs/s)");

    // Wall-clock minima are noisy across hosts → a floor only where we make
    // a hard promise, no drift tolerance.
    let mut metrics = vec![
        Metric::info("run_s", run_s, "s"),
        Metric { min: Some(EPOCHS_PER_S_MIN), ..Metric::info("epochs_per_s", rate, "epochs/s") },
    ];
    for (jobs, job_nodes) in STEP_SHAPES {
        let serial = step_region_us(1, jobs, job_nodes);
        let threaded = step_region_us(2, jobs, job_nodes);
        println!(
            "step  {jobs} x {job_nodes:>4} nodes {:>6} node-syncs  width 1 {serial:>8.1} us  \
             width 2 {threaded:>8.1} us  (x{:.2})",
            (jobs * job_nodes) as u64 * STEP_SYNCS,
            serial / threaded
        );
        metrics.push(Metric::info(&format!("step_us_{jobs}x{job_nodes}_w1"), serial, "us"));
        metrics.push(Metric::info(&format!("step_us_{jobs}x{job_nodes}_w2"), threaded, "us"));
    }
    let doc = BenchDoc {
        bench: "scale".to_string(),
        profile: if quick { "quick" } else { "full" }.to_string(),
        metrics,
    };
    doc.persist_and_gate("BENCH_scale.json", &rep);
}
