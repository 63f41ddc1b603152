//! `noisy_sweep`: the `fig3_analyses` shape — one `insitu::run_job` per
//! cell of {128, 512} nodes × {rdf, vacf, msd, all} × four controllers,
//! under default noise, so the dense stepper walks every node through
//! every phase and draws from the shared noise RNG.

use super::{run_outcome, run_stepped, timed, OpOut, Size, Workload};
use crate::json::Obj;
use crate::seams::{SpanController, SpanWorkload};
use crate::span::{scope, Name};
use insitu::{build_controller, improvement_pct, run_job, JobConfig, Runtime};
use mdsim::workload::{AnalyticWorkload, WorkloadSpec};
use mdsim::AnalysisKind as K;

/// Controller-major, so the warm-up round (the first 16 ops) holds every
/// seesaw cell and its static pair.
const CONTROLLERS: [&str; 4] = ["seesaw", "static", "time-aware", "power-aware"];
const ANALYSES: [(&str, u32, &[K]); 4] = [
    ("rdf", 36, &[K::Rdf]),
    ("vacf", 36, &[K::Vacf]),
    ("msd", 16, &[K::MsdFull]),
    ("all", 36, &[K::Rdf, K::Msd1d, K::Msd2d, K::Vacf]),
];
const CELLS: usize = CONTROLLERS.len() * ANALYSES.len() * 2;

pub struct NoisySweep {
    inputs: Vec<JobConfig>,
    /// Simulated total time of each warm-up op (seesaw cells then static).
    warm_time_s: Vec<f64>,
}

impl NoisySweep {
    pub fn generate(seed: u64, size: Size) -> Self {
        let (nodes, steps, rounds): ([usize; 2], u64, u64) = match size {
            Size::Full => ([128, 512], 400, 8),
            Size::Smoke => ([4, 8], 12, 1),
        };
        let mut inputs = Vec::with_capacity(CELLS * rounds as usize);
        for round in 0..rounds {
            for ctl in CONTROLLERS {
                for (_, dim, kinds) in ANALYSES {
                    for n in nodes {
                        let mut spec = WorkloadSpec::paper(dim, n, 1, kinds);
                        spec.total_steps = steps;
                        inputs.push(JobConfig::new(spec, ctl).with_seed(seed, round));
                    }
                }
            }
        }
        NoisySweep { inputs, warm_time_s: vec![0.0; CELLS / 2] }
    }

    fn outcome(&mut self, i: usize, wall_ns: u64, r: &insitu::RunResult) -> Result<OpOut, String> {
        let cfg = &self.inputs[i % self.inputs.len()];
        let spec = &cfg.workload;
        let work = spec.nodes_total() as u64 * spec.sync_count();
        if let Some(slot) = self.warm_time_s.get_mut(i) {
            *slot = r.total_time_s;
        }
        run_outcome(wall_ns, r, cfg, work)
    }
}

impl Workload for NoisySweep {
    fn work_unit(&self) -> &'static str {
        "node-sync"
    }

    fn warmup_ops(&self) -> usize {
        CELLS / 2
    }

    /// One full round. Cells differ in cost per node-sync by node count,
    /// by analysis and by controller (cap changes leave history behind),
    /// so only a whole round is the same mix every time.
    fn granule(&self) -> usize {
        CELLS
    }

    fn op(&mut self, i: usize) -> Result<OpOut, String> {
        let cfg = self.inputs[i % self.inputs.len()].clone();
        let (wall_ns, r) = timed(|| run_job(cfg));
        self.outcome(i, wall_ns, &r.map_err(|e| e.to_string())?)
    }

    /// `Runtime` takes a custom controller or a custom workload, not both,
    /// so even ops carry the controller seam and odd ops the workload seam.
    fn op_traced(&mut self, i: usize) -> Result<OpOut, String> {
        let cfg = self.inputs[i % self.inputs.len()].clone();
        let (wall_ns, r) = timed(|| {
            scope(Name::Op, || {
                let rt = scope(Name::InsituNew, || {
                    if i.is_multiple_of(2) {
                        let ctl = build_controller(&cfg)?;
                        Ok(Runtime::with_controller(cfg, Box::new(SpanController(ctl))))
                    } else {
                        let gen = SpanWorkload(AnalyticWorkload::new(cfg.workload.clone()));
                        Runtime::with_workload(cfg, Box::new(gen))
                    }
                });
                rt.map(run_stepped)
            })
        });
        self.outcome(i, wall_ns, &r.map_err(|e| e.to_string())?)
    }

    /// The paper's headline statistic, from the warm-up round's cells:
    /// seesaw's improvement over static per analysis, mean of the two
    /// node counts.
    fn sim_stats(&self, out: &mut Obj) {
        let per_ctl = CELLS / CONTROLLERS.len();
        let (seesaw, fixed) = self.warm_time_s.split_at(per_ctl);
        let mut pct = Obj::new();
        for (a, (name, _, _)) in ANALYSES.iter().enumerate() {
            let mean =
                (0..2).map(|n| improvement_pct(fixed[2 * a + n], seesaw[2 * a + n])).sum::<f64>()
                    / 2.0;
            pct.num(name, mean);
        }
        out.raw("seesaw_vs_static_pct", &pct.finish());
    }
}
