//! A complete in-situ run with the *real* mini-LAMMPS engine: molecular
//! dynamics of the water + ions benchmark coupled to RDF, VACF and MSD
//! analyses through the Verlet-Splitanalysis protocol, executed on a
//! simulated 16-node Theta partition under the SeeSAw power controller.
//!
//! Unlike the experiment binaries (which use the calibrated analytic
//! workload for paper-scale jobs), this example drives the coupled runtime
//! from measured per-step work of an actual MD integration — and prints
//! real science output (RDF peak, MSD diffusion, VACF decorrelation) at
//! the end.
//!
//! ```text
//! cargo run --release -p insitu --example lammps_insitu
//! ```

use insitu::{JobConfig, Runtime};
use mdsim::workload::{MeasuredWorkload, WorkloadSpec};
use mdsim::{Analysis, AnalysisKind, MdEngine, SplitAnalysis};

fn main() {
    println!("mini-LAMMPS in-situ run under SeeSAw\n");

    // Virtual job: 16 nodes (8 sim + 8 analysis), dim 16 problem, with the
    // work profile measured from a real dim = 1 engine run (1568 atoms).
    let kinds = [AnalysisKind::Rdf, AnalysisKind::Vacf, AnalysisKind::MsdFull];
    let mut spec = WorkloadSpec::paper(16, 16, 1, &kinds);
    spec.total_steps = 60;
    let workload = MeasuredWorkload::new(spec.clone(), 1, 2026);
    let cfg = JobConfig::new(spec, "seesaw");
    let result = Runtime::with_workload(cfg, Box::new(workload)).expect("known controller").run();

    println!(
        "simulated {} synchronizations, total {:.1} s, {:.2} MJ",
        result.syncs.len(),
        result.total_time_s,
        result.total_energy_j / 1e6
    );
    println!("\npower allocation trajectory (every 10th sync):");
    for s in result.syncs.iter().filter(|s| s.index % 10 == 0 || s.index <= 3) {
        println!(
            "  sync {:3}: sim {:5.1} W/node, analysis {:5.1} W/node, slack {:4.1} %",
            s.index,
            s.sim_cap_w,
            s.analysis_cap_w,
            s.slack * 100.0
        );
    }

    // --- Now the science: run the same coupled MD + analyses directly and
    // report what the analysis partition computed.
    println!("\nanalysis output from the real engine:");
    let engine = MdEngine::water_ion_benchmark(1, 2026);
    let mut insitu = SplitAnalysis::new(
        engine,
        kinds.iter().map(|&k| mdsim::AnalysisSchedule::every_sync(k)).collect(),
        1,
    );
    for _ in 0..60 {
        insitu.advance();
    }
    let thermo = insitu.engine().thermo();
    println!(
        "  thermo     : step {} T = {:.3} E = {:.2} P = {:.3}",
        thermo.step, thermo.temperature, thermo.total, thermo.pressure
    );

    // Each scheduled analysis, as its accumulator.
    let analysis = |kind| insitu.analysis(kind).expect("every kind is scheduled above");
    let (Analysis::Rdf(rdf), Analysis::Vacf(vacf), Analysis::Msd(msd)) =
        (analysis(AnalysisKind::Rdf), analysis(AnalysisKind::Vacf), analysis(kinds[2]))
    else {
        panic!("each kind builds its own accumulator");
    };

    // RDF: locate the first solvation peak of the hydronium–water g(r).
    let g = rdf.g_hydronium();
    let r = rdf.r_centers();
    let (peak_r, peak_g) = r
        .iter()
        .zip(&g)
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(r, g)| (*r, *g))
        .unwrap();
    println!("  rdf        : first hydronium–water peak g({peak_r:.2}σ) = {peak_g:.2}");

    // MSD: how far the particles moved, averaged over the time origins.
    println!("  msd        : all-particle MSD {:.4} σ² after 60 steps", msd.overall());

    // VACF: the normalized correlation at the last lag, and the first lag
    // at which it fell below 1/e.
    let &(lag, c) = vacf.series().last().expect("the VACF observed every sync");
    let decorrelated = vacf.series().iter().find(|&&(_, c)| c < (-1.0f64).exp());
    match decorrelated {
        Some((at, _)) => println!("  vacf       : C({lag}) = {c:.3}, below 1/e from lag {at}"),
        None => println!("  vacf       : C({lag}) = {c:.3}, above 1/e throughout"),
    }
    println!("\ndone.");
}
