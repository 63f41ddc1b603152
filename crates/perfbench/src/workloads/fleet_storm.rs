//! `fleet_storm`: the fleet soak — 48 four-node jobs through 3 machines
//! × 8 nodes under a mixed crash/partition/slow storm. The same
//! `insitu`/`sched` layers as `theta_quiet` used the opposite way:
//! thousands of tiny short-lived runtimes, so per-job constants dominate.

use super::{timed, OpOut, Size, Workload};
use crate::digest::Fnv;
use crate::span::{scope, Name};
use faults::{MachineFaultIntensity, MachineFaultPlan};
use fleet::{Fleet, FleetResult, FleetSpec, JobStream};
use insitu::JobConfig;
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind as K;
use sched::{MachineSpec, Policy};
use std::collections::BTreeMap;

const MACHINES: usize = 3;
const ARRIVAL_HORIZON_EPOCHS: u64 = 40;
const STORM_EPOCHS: u64 = 80;

struct Input {
    stream: JobStream,
    plan: MachineFaultPlan,
    /// Fleet epochs the run takes, once an untraced run has shown it.
    epochs: Option<u64>,
}

pub struct FleetStorm {
    jobs: usize,
    inputs: Vec<Input>,
    /// Simulated storm statistics over every op run so far.
    ops_run: u64,
    retries: u64,
    migrations: u64,
    jobs_failed: u64,
}

impl FleetStorm {
    pub fn generate(seed: u64, size: Size) -> Self {
        let (jobs, steps, ops) = match size {
            Size::Full => (48, 16, 240),
            Size::Smoke => (6, 8, 2),
        };
        let inputs = (0..ops)
            .map(|op| {
                let s = seed.wrapping_mul(1_000_003).wrapping_add(op);
                let configs = (0..jobs as u64)
                    .map(|k| {
                        let mut spec = WorkloadSpec::paper(16, 4, 1, &[K::Vacf]);
                        spec.total_steps = steps;
                        JobConfig::new(spec, "seesaw").with_seed(s.wrapping_mul(1000) + k, 0)
                    })
                    .collect();
                let stream = scope(Name::FleetStreamSeeded, || {
                    JobStream::seeded(s, configs, ARRIVAL_HORIZON_EPOCHS)
                });
                let plan = scope(Name::FaultsPlanGenerate, || {
                    let storm = MachineFaultIntensity::storm(1.0);
                    MachineFaultPlan::generate(s, &storm, MACHINES, STORM_EPOCHS)
                });
                Input { stream, plan, epochs: None }
            })
            .collect();
        FleetStorm { jobs, inputs, ops_run: 0, retries: 0, migrations: 0, jobs_failed: 0 }
    }

    fn spec() -> FleetSpec {
        let members = (0..MACHINES)
            .map(|_| {
                let mut m = MachineSpec::new(8, 1100.0, Policy::EnergyFeedback);
                m.syncs_per_epoch = 4;
                m
            })
            .collect();
        // Below 3 × 1100 W, so the renormalized shares bind.
        let mut spec = FleetSpec::new(members, 2700.0);
        spec.max_epochs = 400;
        spec
    }

    fn outcome(&mut self, wall_ns: u64, r: &FleetResult) -> Result<OpOut, String> {
        // Every job terminal and goodput accounting closed. Jobs the
        // simulated storm fails are a simulated statistic, not failed ops.
        if r.outcomes.len() != self.jobs || r.completed() + r.failed() != self.jobs {
            return Err(format!(
                "{} completed + {} failed of {} outcomes, {} submitted",
                r.completed(),
                r.failed(),
                r.outcomes.len(),
                self.jobs
            ));
        }
        let mut h = Fnv::default();
        for o in &r.outcomes {
            if o.outcome == "completed" && o.syncs_done != o.syncs_target {
                return Err(format!(
                    "job {} completed at {}/{}",
                    o.job, o.syncs_done, o.syncs_target
                ));
            }
            h.str(o.outcome);
            for v in [o.job as u64, o.dispatches, o.syncs_done, o.syncs_target] {
                h.u64(v);
            }
            h.f64(o.job_time_s);
            h.f64(o.energy_j);
        }
        for v in [r.epochs, r.retries, r.migrations, r.machines_down as u64] {
            h.u64(v);
        }
        for v in [r.makespan_s, r.total_energy_j, r.mean_recovery_epochs] {
            h.f64(v);
        }
        self.ops_run += 1;
        self.retries += r.retries;
        self.migrations += r.migrations;
        self.jobs_failed += r.failed() as u64;
        Ok(OpOut {
            wall_ns,
            work: self.jobs as u64,
            digest: h.value(),
            sim_time_s: r.makespan_s,
            sim_energy_j: r.total_energy_j,
        })
    }
}

impl Workload for FleetStorm {
    fn work_unit(&self) -> &'static str {
        "job"
    }

    fn warmup_ops(&self) -> usize {
        self.inputs.len().min(60)
    }

    fn op(&mut self, i: usize) -> Result<OpOut, String> {
        let k = i % self.inputs.len();
        let (stream, plan) = (self.inputs[k].stream.clone(), self.inputs[k].plan.clone());
        let (wall_ns, r) = timed(|| Fleet::new(Self::spec(), stream, plan).map(Fleet::run));
        let r = r.map_err(|e| e.to_string())?;
        self.inputs[k].epochs = Some(r.epochs);
        self.outcome(wall_ns, &r)
    }

    /// `run()` is `start`, `step_epoch` until every job is terminal, then
    /// `finish`. When that happens depends on the storm, so an untraced
    /// run of the same input (outside the timed op) supplies the count.
    fn op_traced(&mut self, i: usize) -> Result<OpOut, String> {
        let k = i % self.inputs.len();
        let epochs = match self.inputs[k].epochs {
            Some(e) => e,
            None => {
                self.op(i)?;
                self.inputs[k].epochs.expect("op() records the epoch count")
            }
        };
        let (stream, plan) = (self.inputs[k].stream.clone(), self.inputs[k].plan.clone());
        let (wall_ns, r) = timed(|| {
            scope(Name::Op, || {
                let mut f = scope(Name::FleetNew, || Fleet::new(Self::spec(), stream, plan))
                    .map_err(|e| e.to_string())?;
                f.start();
                for _ in 0..epochs {
                    scope(Name::FleetStepEpoch, || f.step_epoch());
                }
                Ok::<_, String>(scope(Name::FleetFinish, || f.finish()))
            })
        });
        self.outcome(wall_ns, &r?)
    }

    fn layer_counts(&self, out: &mut BTreeMap<&'static str, f64>) {
        let per_op = |v: u64| v as f64 / self.ops_run.max(1) as f64;
        out.insert("fleet.retries", per_op(self.retries));
        out.insert("fleet.migrations", per_op(self.migrations));
        out.insert("fleet.jobs_failed", per_op(self.jobs_failed));
    }
}
