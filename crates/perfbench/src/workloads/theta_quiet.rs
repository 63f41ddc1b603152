//! `theta_quiet`: the full-Theta run of `machine_sweep --theta` — one
//! 4392-node quiet-noise job under the machine scheduler. Event-driven
//! bucketing skips the per-node walk, so what is left is the O(nodes)
//! `polimer` feedback, adoption copies, history compaction and the
//! `sched` governor. Also the memory workload.

use super::{timed, OpOut, Size, Workload};
use crate::digest::Fnv;
use crate::span::{scope, Name};
use insitu::JobConfig;
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind as K;
use sched::{JobSpec, MachineResult, MachineSpec, Policy, Scheduler};

pub struct ThetaQuiet {
    nodes: usize,
    syncs: u64,
    inputs: Vec<JobConfig>,
}

impl ThetaQuiet {
    pub fn generate(seed: u64, size: Size) -> Self {
        let (nodes, syncs, ops) = match size {
            Size::Full => (4392, 60, 200),
            Size::Smoke => (64, 10, 2),
        };
        let inputs = (0..ops)
            .map(|op| {
                let mut spec = WorkloadSpec::paper(48, nodes, 1, &[K::Rdf, K::Vacf]);
                spec.total_steps = syncs;
                JobConfig::new(spec, "seesaw").with_seed(seed, op).with_quiet_noise()
            })
            .collect();
        ThetaQuiet { nodes, syncs, inputs }
    }

    fn machine(&self) -> MachineSpec {
        let mut spec =
            MachineSpec::new(self.nodes, 110.0 * self.nodes as f64, Policy::EnergyFeedback);
        spec.syncs_per_epoch = 5;
        spec
    }

    fn job(&self, i: usize) -> Vec<JobSpec> {
        vec![JobSpec::at_start(self.inputs[i % self.inputs.len()].clone())]
    }

    fn outcome(&self, wall_ns: u64, r: &MachineResult) -> Result<OpOut, String> {
        // One job submitted: it must be terminal, complete, and account
        // for every sync (completed + failed == submitted).
        let [job] = r.outcomes.as_slice() else {
            return Err(format!("{} outcomes for 1 submitted job", r.outcomes.len()));
        };
        if job.outcome != "completed" || job.syncs_done != self.syncs {
            return Err(format!("job {}: {} after {} syncs", job.job, job.outcome, job.syncs_done));
        }
        if !(r.makespan_s.is_finite() && r.makespan_s > 0.0 && r.total_energy_j > 0.0) {
            return Err(format!("makespan {} s, energy {} J", r.makespan_s, r.total_energy_j));
        }
        let mut h = Fnv::default();
        h.str(job.outcome);
        h.u64(job.syncs_done);
        for v in [job.start_s, job.finish_s, job.job_time_s, job.energy_j] {
            h.f64(v);
        }
        for e in &r.epochs {
            h.u64(e.epoch);
            h.f64(e.start_s);
            h.f64(e.allocated_w);
            h.f64(e.pool_w);
            for &(j, w) in &e.budgets {
                h.u64(j as u64);
                h.f64(w);
            }
        }
        h.f64(r.makespan_s);
        h.f64(r.total_energy_j);
        Ok(OpOut {
            wall_ns,
            work: self.nodes as u64 * self.syncs,
            digest: h.value(),
            sim_time_s: r.makespan_s,
            sim_energy_j: r.total_energy_j,
        })
    }
}

impl Workload for ThetaQuiet {
    fn work_unit(&self) -> &'static str {
        "node-sync"
    }

    fn warmup_ops(&self) -> usize {
        self.inputs.len().min(8)
    }

    fn op(&mut self, i: usize) -> Result<OpOut, String> {
        let (spec, jobs) = (self.machine(), self.job(i));
        let (wall_ns, r) = timed(|| Scheduler::new(spec, jobs).map(Scheduler::run));
        self.outcome(wall_ns, &r.map_err(|e| e.to_string())?)
    }

    /// `run()` is `start`, `step_epoch` until every job is terminal, then
    /// `finish`. One job of `syncs` syncs at `syncs_per_epoch` a step is
    /// terminal after exactly ⌈syncs / syncs_per_epoch⌉ epochs.
    fn op_traced(&mut self, i: usize) -> Result<OpOut, String> {
        let (spec, jobs) = (self.machine(), self.job(i));
        let epochs = self.syncs.div_ceil(spec.syncs_per_epoch);
        let (wall_ns, r) = timed(|| {
            scope(Name::Op, || {
                let mut s = scope(Name::SchedNew, || Scheduler::new(spec, jobs))
                    .map_err(|e| e.to_string())?;
                s.start();
                for _ in 0..epochs {
                    scope(Name::SchedStepEpoch, || s.step_epoch());
                }
                Ok::<_, String>(scope(Name::SchedFinish, || s.finish()))
            })
        });
        self.outcome(wall_ns, &r?)
    }
}
