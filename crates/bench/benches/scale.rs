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
//! Plain timing harness (`harness = false`): the offline build carries no
//! criterion.

use bench::gate::{BenchDoc, Metric};
use insitu::{run_job, JobConfig};
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
    let doc = BenchDoc {
        bench: "scale".to_string(),
        profile: if quick { "quick" } else { "full" }.to_string(),
        metrics: vec![
            Metric::info("run_s", run_s, "s"),
            Metric {
                min: Some(EPOCHS_PER_S_MIN),
                ..Metric::info("epochs_per_s", rate, "epochs/s")
            },
        ],
    };
    doc.persist_and_gate("BENCH_scale.json", &rep);
}
