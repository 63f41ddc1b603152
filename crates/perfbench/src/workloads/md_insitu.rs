//! `md_insitu`: the only workload that runs the real MD — force kernel,
//! neighbor rebuild on both partitions every sync, analyses and
//! `SplitAnalysis` — behind a 16-virtual-node in-situ job. Small ops
//! (1 568 atoms) keep the kernels in cache; every ninth op is large
//! (12 544 atoms, pair list ≈ 4 MB) and puts the same kernels out of it.

use super::{run_outcome, run_stepped, timed, OpOut, Size, Workload};
use crate::seams::SpanWorkload;
use crate::span::{scope, Name};
use insitu::{JobConfig, Runtime};
use mdsim::workload::{MeasuredWorkload, WorkloadSpec};
use mdsim::AnalysisKind as K;

/// Atoms in the real engine per unit of `dim³`.
const ATOMS_PER_CELL: u64 = 1568;

struct Input {
    cfg: JobConfig,
    /// Edge of the real engine's box, in unit cells.
    real_dim: usize,
    engine_seed: u64,
}

pub struct MdInsitu {
    /// Ops per round: `round - 1` small ones, then one large.
    round: usize,
    inputs: Vec<Input>,
}

impl MdInsitu {
    pub fn generate(seed: u64, size: Size) -> Self {
        // (small steps, large steps, large box edge, ops per round, rounds)
        let (small_steps, large_steps, large_dim, round, rounds) = match size {
            Size::Full => (20, 10, 2, 9, 25),
            Size::Smoke => (2, 1, 1, 2, 1),
        };
        let inputs = (0..round * rounds)
            .map(|op| {
                let large = op % round == round - 1;
                let mut spec = WorkloadSpec::paper(16, 16, 1, &[K::Rdf, K::Vacf, K::MsdFull]);
                spec.total_steps = if large { large_steps } else { small_steps };
                Input {
                    cfg: JobConfig::new(spec, "seesaw").with_seed(seed, op as u64),
                    real_dim: if large { large_dim } else { 1 },
                    engine_seed: seed + op as u64,
                }
            })
            .collect();
        MdInsitu { round, inputs }
    }

    fn input(&self, i: usize) -> (JobConfig, MeasuredWorkload, u64) {
        let inp = &self.inputs[i % self.inputs.len()];
        let spec = inp.cfg.workload.clone();
        let atom_steps = ATOMS_PER_CELL * (inp.real_dim as u64).pow(3) * spec.total_steps;
        (inp.cfg.clone(), MeasuredWorkload::new(spec, inp.real_dim, inp.engine_seed), atom_steps)
    }
}

impl Workload for MdInsitu {
    fn work_unit(&self) -> &'static str {
        "atom-step"
    }

    fn warmup_ops(&self) -> usize {
        self.round
    }

    fn op(&mut self, i: usize) -> Result<OpOut, String> {
        let cfg = self.inputs[i % self.inputs.len()].cfg.clone();
        let (wall_ns, (r, work)) = timed(|| {
            // Building the engine (lattice, first neighbor list, first
            // force evaluation) is part of what a user of this call waits on.
            let (cfg, measured, work) = self.input(i);
            (Runtime::with_workload(cfg, Box::new(measured)).map(Runtime::run), work)
        });
        run_outcome(wall_ns, &r.map_err(|e| e.to_string())?, &cfg, work)
    }

    fn op_traced(&mut self, i: usize) -> Result<OpOut, String> {
        let cfg = self.inputs[i % self.inputs.len()].cfg.clone();
        let (wall_ns, (r, work)) = timed(|| {
            scope(Name::Op, || {
                let (cfg, measured, work) = scope(Name::MdsimWorkloadNew, || self.input(i));
                let rt = scope(Name::InsituNew, || {
                    Runtime::with_workload(cfg, Box::new(SpanWorkload(measured)))
                });
                (rt.map(run_stepped), work)
            })
        });
        run_outcome(wall_ns, &r.map_err(|e| e.to_string())?, &cfg, work)
    }
}
