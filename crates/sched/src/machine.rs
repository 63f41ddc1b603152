//! The epoch-driven machine scheduler.

use crate::queue::{JobSpec, JobState};
use des::SimTime;
use faults::JobFaultPlan;
use insitu::{JobConfig, Runtime};
use seesaw::{water_fill, UnknownController};
use theta_sim::MachineNodes;

/// How the governor divides the envelope across running jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Static node-proportional share: `P_j ∝ n_j`, fixed for the epoch
    /// regardless of what the jobs do with it.
    EqualShare,
    /// SeeSAw's feedback one level up: `P_j ∝ E_j`, the energy the job
    /// consumed over the previous epoch (N-ary Eq. 2).
    EnergyFeedback,
    /// SLURM-style power-aware: `P_j ∝ P̄_j`, the job's mean power draw
    /// over the previous epoch (usage-proportional, time-blind).
    PowerAware,
}

impl Policy {
    /// Stable lowercase tag for serialized results.
    pub fn tag(&self) -> &'static str {
        match self {
            Policy::EqualShare => "equal-share",
            Policy::EnergyFeedback => "energy-feedback",
            Policy::PowerAware => "power-aware",
        }
    }

    /// All policies, in comparison order.
    pub fn all() -> [Policy; 3] {
        [Policy::EqualShare, Policy::EnergyFeedback, Policy::PowerAware]
    }
}

/// Machine-level configuration.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    /// Node count the admission gate leases against.
    pub nodes: usize,
    /// Machine power envelope, watts.
    pub envelope_w: f64,
    /// Synchronization intervals each running job executes per epoch.
    pub syncs_per_epoch: u64,
    /// Governor policy.
    pub policy: Policy,
    /// Hard epoch bound (safety net against misconfigured workloads).
    pub max_epochs: u64,
}

impl MachineSpec {
    /// A machine of `nodes` Theta nodes with an `envelope_w` envelope.
    pub fn new(nodes: usize, envelope_w: f64, policy: Policy) -> Self {
        MachineSpec { nodes, envelope_w, syncs_per_epoch: 1, policy, max_epochs: 10_000 }
    }
}

/// Per-epoch scheduler telemetry (also the budget-invariant test surface).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch ordinal.
    pub epoch: u64,
    /// Machine clock at the start of the epoch, seconds.
    pub start_s: f64,
    /// Jobs running during the epoch.
    pub running: usize,
    /// Jobs queued (arrived, not admitted).
    pub queued: usize,
    /// Envelope handed to running jobs, watts (`Σ budgets`).
    pub allocated_w: f64,
    /// Envelope no running job could absorb, watts.
    pub pool_w: f64,
    /// Per-job budgets in force this epoch, `(job id, watts)`.
    pub budgets: Vec<(usize, f64)>,
}

/// Final accounting for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Job id (submission ordinal).
    pub job: usize,
    /// Controller the job ran.
    pub controller: String,
    /// Nodes the job asked for.
    pub nodes: usize,
    /// Terminal state tag (`completed` / `killed` / `rejected`).
    pub outcome: &'static str,
    /// Machine clock when the job started, seconds (0 if never admitted).
    pub start_s: f64,
    /// Machine clock when the job left, seconds.
    pub finish_s: f64,
    /// The job's own simulated time at departure, seconds.
    pub job_time_s: f64,
    /// Energy the job consumed, joules.
    pub energy_j: f64,
    /// Synchronizations the job completed.
    pub syncs_done: u64,
}

/// Result of one machine run.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineResult {
    /// One outcome per submitted job, in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Per-epoch telemetry.
    pub epochs: Vec<EpochRecord>,
    /// Machine clock at the end, seconds.
    pub makespan_s: f64,
    /// Total energy across all jobs, joules.
    pub total_energy_j: f64,
}

impl MachineResult {
    /// Mean machine time from arrival-eligibility to departure over jobs
    /// that completed (the scheduling-quality headline).
    pub fn mean_completion_s(&self) -> f64 {
        let done: Vec<&JobOutcome> =
            self.outcomes.iter().filter(|o| o.outcome == "completed").collect();
        if done.is_empty() {
            return 0.0;
        }
        done.iter().map(|o| o.finish_s).sum::<f64>() / done.len() as f64
    }
}

/// A non-terminal job pulled off a machine that left the fleet: its
/// checkpoint state for resubmission elsewhere. The checkpoint is the last
/// *completed* synchronization interval — work past it is lost and must be
/// re-run on the new machine.
#[derive(Debug, Clone)]
pub struct Evacuee {
    /// Job id on the evacuated machine (submission ordinal there).
    pub job: usize,
    /// Synchronizations completed before the machine was lost.
    pub completed_syncs: u64,
    /// Energy already spent on the lost machine, joules.
    pub energy_j: f64,
    /// Simulated job time already spent there, seconds.
    pub job_time_s: f64,
}

struct JobSlot {
    spec: JobSpec,
    state: JobState,
    runtime: Option<Runtime>,
    budget_w: f64,
    /// Feedback from the previous epoch.
    last_energy_j: f64,
    last_dt_s: f64,
    has_feedback: bool,
    start_s: f64,
    finish_s: f64,
    job_time_s: f64,
    energy_j: f64,
    syncs_done: u64,
}

impl JobSlot {
    /// A job that has not run: no runtime, budget or feedback yet.
    fn new(spec: JobSpec, state: JobState) -> Self {
        JobSlot {
            spec,
            state,
            runtime: None,
            budget_w: 0.0,
            last_energy_j: 0.0,
            last_dt_s: 0.0,
            has_feedback: false,
            start_s: 0.0,
            finish_s: 0.0,
            job_time_s: 0.0,
            energy_j: 0.0,
            syncs_done: 0,
        }
    }

    fn floor_w(&self) -> f64 {
        self.spec.nodes() as f64 * self.spec.config.machine.min_cap_w
    }

    fn ceil_w(&self) -> f64 {
        self.spec.nodes() as f64 * self.spec.config.machine.max_cap_w()
    }
}

/// The machine scheduler.
///
/// Two driving styles share one epoch body: [`Scheduler::run`] owns the
/// loop (single-machine sweeps), while the steppable seam —
/// [`Scheduler::start`] / [`Scheduler::step_epoch`] /
/// [`Scheduler::finish`] — lets a fleet front end interleave many
/// machines, inject membership changes between epochs
/// ([`Scheduler::submit`], [`Scheduler::evacuate`],
/// [`Scheduler::set_envelope_w`]), and read progress without disturbing
/// the run ([`Scheduler::job_progress`]). `run()` is exactly
/// `start`/`step_epoch`-until-terminal/`finish`, so both styles produce
/// byte-identical traces and results.
pub struct Scheduler {
    spec: MachineSpec,
    jobs: Vec<JobSlot>,
    pool: MachineNodes,
    job_faults: JobFaultPlan,
    tracer: obs::Tracer,
    machine_t: SimTime,
    records: Vec<EpochRecord>,
    next_epoch: u64,
    started: bool,
    /// Wall-clock multiplier on every epoch (slow-machine faults; 1.0 is
    /// bit-exact identity).
    time_dilation: f64,
}

impl Scheduler {
    /// Build a scheduler for a machine and a job list. Fails fast with
    /// [`UnknownController`] if any job names a controller outside
    /// [`seesaw::CONTROLLER_NAMES`]; each job's controller is built when
    /// it is admitted, so a name checked here never fails in the loop.
    pub fn new(spec: MachineSpec, jobs: Vec<JobSpec>) -> Result<Self, UnknownController> {
        assert!(spec.nodes > 0 && spec.envelope_w > 0.0 && spec.syncs_per_epoch > 0);
        for j in &jobs {
            seesaw::check_controller_name(&j.config.controller)?;
        }
        let pool = MachineNodes::new(spec.nodes);
        let jobs = jobs.into_iter().map(|spec| JobSlot::new(spec, JobState::Waiting)).collect();
        Ok(Scheduler {
            spec,
            jobs,
            pool,
            job_faults: JobFaultPlan::none(),
            tracer: obs::Tracer::off(),
            machine_t: SimTime::ZERO,
            records: Vec::new(),
            next_epoch: 0,
            started: false,
            time_dilation: 1.0,
        })
    }

    /// Attach a job-level fault plan (kills).
    pub fn with_job_faults(mut self, plan: JobFaultPlan) -> Self {
        self.job_faults = plan;
        self
    }

    /// Attach a trace sink. Only the scheduler emits into it; jobs run
    /// untraced.
    pub fn set_tracer(&mut self, tracer: &obs::Tracer) {
        self.tracer = tracer.clone();
    }

    /// Run the machine until every job is terminal (or `max_epochs`).
    pub fn run(mut self) -> MachineResult {
        self.start();
        while self.next_epoch < self.spec.max_epochs {
            self.step_epoch();
            if self.all_terminal() {
                break;
            }
        }
        self.finish()
    }

    /// Emit the machine-start event. Idempotent; `step_epoch` calls it on
    /// first use, so external drivers only call it to pin the event before
    /// emitting their own.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        if self.tracer.is_enabled() {
            self.tracer.set_now(self.machine_t);
            self.tracer.emit(obs::Event::MachineStart {
                nodes: self.spec.nodes,
                envelope_w: self.spec.envelope_w,
            });
        }
    }

    /// Execute one scheduling epoch: fire job-kill faults, admit arrivals
    /// and the queue, govern the envelope, step every running job, reap
    /// completions. Safe to call past `max_epochs` (no-op) so external
    /// drivers need no bound bookkeeping of their own.
    pub fn step_epoch(&mut self) {
        self.start();
        if self.next_epoch >= self.spec.max_epochs {
            return;
        }
        let epoch = self.next_epoch;
        self.fire_kills(epoch);
        self.admit_arrivals(epoch);
        self.admit_queue();
        // Nothing starts or leaves until `reap_completed`: governor and
        // stepping share one view of who is running.
        let running: Vec<usize> = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| matches!(j.state, JobState::Running { .. }))
            .map(|(i, _)| i)
            .collect();
        let (allocated_w, pool_w, budgets) = self.govern(&running);
        self.tracer.set_now(self.machine_t);
        if self.tracer.is_enabled() {
            self.tracer.emit(obs::Event::MachineBudget { epoch, allocated_w, pool_w });
        }
        let queued = self.jobs.iter().filter(|j| matches!(j.state, JobState::Queued)).count();
        self.records.push(EpochRecord {
            epoch,
            start_s: self.machine_t.as_secs_f64(),
            running: running.len(),
            queued,
            allocated_w,
            pool_w,
            budgets,
        });
        self.step_running(&running);
        self.reap_completed();
        self.next_epoch = epoch + 1;
    }

    /// True once every submitted job is in a terminal state.
    pub fn all_terminal(&self) -> bool {
        self.jobs.iter().all(|j| j.state.is_terminal())
    }

    /// Kill anything still live and build the final accounting.
    pub fn finish(mut self) -> MachineResult {
        // Anything still live at the epoch bound is accounted as killed.
        let leftover: Vec<usize> = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| !j.state.is_terminal())
            .map(|(i, _)| i)
            .collect();
        for i in leftover {
            self.kill_job(i);
        }

        let outcomes = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| JobOutcome {
                job: i,
                controller: j.spec.config.controller.clone(),
                nodes: j.spec.nodes(),
                outcome: j.state.tag(),
                start_s: j.start_s,
                finish_s: j.finish_s,
                job_time_s: j.job_time_s,
                energy_j: j.energy_j,
                syncs_done: j.syncs_done,
            })
            .collect::<Vec<_>>();
        let total_energy_j = outcomes.iter().map(|o| o.energy_j).sum();
        MachineResult {
            outcomes,
            epochs: self.records,
            makespan_s: self.machine_t.as_secs_f64(),
            total_energy_j,
        }
    }

    /// Machine clock, seconds.
    pub fn now_s(&self) -> f64 {
        self.machine_t.as_secs_f64()
    }

    /// Nodes currently free in the lease pool.
    pub fn free_nodes(&self) -> usize {
        self.pool.free_count()
    }

    /// Retarget the machine's power envelope (fleet renormalization after
    /// a membership change). Takes effect at the next `govern` call, i.e.
    /// the next epoch. Running jobs whose floors exceed the new envelope
    /// are pinned at their floors by `water_fill` (physics cannot shed
    /// below idle power); admission stays gated on the new value.
    pub fn set_envelope_w(&mut self, envelope_w: f64) {
        assert!(envelope_w.is_finite() && envelope_w >= 0.0, "envelope must be finite and >= 0");
        self.spec.envelope_w = envelope_w;
    }

    /// Dilate the machine's wall clock: every epoch takes `factor` times
    /// longer (slow-machine fault). `1.0` restores bit-exact identity.
    pub fn set_time_dilation(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "dilation must be finite and > 0");
        self.time_dilation = factor;
    }

    /// Submit a new job mid-run (fleet dispatch / resubmission). The job
    /// enters the FIFO queue directly — structural rejection is the
    /// caller's concern, since a fleet router only dispatches jobs that
    /// fit. Returns the machine-local job id.
    pub fn submit(&mut self, config: JobConfig) -> Result<usize, UnknownController> {
        seesaw::check_controller_name(&config.controller)?;
        let job = self.jobs.len();
        self.jobs.push(JobSlot::new(JobSpec::arriving(self.next_epoch, config), JobState::Queued));
        Ok(job)
    }

    /// Lifecycle state of job `job`.
    pub fn job_state(&self, job: usize) -> JobState {
        self.jobs[job].state
    }

    /// Progress snapshot of job `job`: `(completed syncs, energy in
    /// joules, simulated job time in seconds)`. Reads the live runtime for
    /// running jobs, the captured accounting otherwise.
    pub fn job_progress(&self, job: usize) -> (u64, f64, f64) {
        let slot = &self.jobs[job];
        match &slot.runtime {
            Some(rt) => {
                (rt.completed_syncs(), rt.energy_since(SimTime::ZERO), { rt.now().as_secs_f64() })
            }
            None => (slot.syncs_done, slot.energy_j, slot.job_time_s),
        }
    }

    /// Pull every non-terminal job off the machine (machine loss). Each
    /// job is checkpointed at its last completed synchronization and
    /// killed locally; the returned [`Evacuee`]s carry what a fleet needs
    /// to resubmit the remaining work elsewhere. Leases return to the
    /// pool, budgets zero out.
    pub fn evacuate(&mut self) -> Vec<Evacuee> {
        let live: Vec<usize> = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| !j.state.is_terminal())
            .map(|(i, _)| i)
            .collect();
        let mut out = Vec::with_capacity(live.len());
        for job in live {
            self.kill_job(job);
            self.enforce_kill_accounting(job);
            let slot = &self.jobs[job];
            out.push(Evacuee {
                job,
                completed_syncs: slot.syncs_done,
                energy_j: slot.energy_j,
                job_time_s: slot.job_time_s,
            });
        }
        out
    }

    fn fire_kills(&mut self, epoch: u64) {
        let victims: Vec<usize> = self.job_faults.at(epoch).iter().map(|k| k.job).collect();
        for job in victims {
            if job < self.jobs.len() && !self.jobs[job].state.is_terminal() {
                self.kill_job(job);
                self.enforce_kill_accounting(job);
                self.tracer.set_now(self.machine_t);
                if self.tracer.is_enabled() {
                    self.tracer.emit(obs::Event::JobKilled { job });
                }
            }
        }
    }

    /// Post-kill accounting contract: the victim holds no runtime and no
    /// envelope share (repaired if violated — both are idempotent zeroes),
    /// and its lease really returned to the pool (asserted — a leaked node
    /// cannot be repaired without risking a double release). Kills fire
    /// before `govern`, so the envelope renormalizes across survivors in
    /// the same epoch.
    fn enforce_kill_accounting(&mut self, job: usize) {
        let slot = &mut self.jobs[job];
        slot.budget_w = 0.0;
        slot.runtime = None;
        let leased: usize = self
            .jobs
            .iter()
            .filter_map(|j| match j.state {
                JobState::Running { lease } => Some(lease.count),
                _ => None,
            })
            .sum();
        assert_eq!(
            self.pool.free_count() + leased,
            self.spec.nodes,
            "job {job} kill leaked nodes: {} free + {} leased != {} total",
            self.pool.free_count(),
            leased,
            self.spec.nodes
        );
    }

    fn kill_job(&mut self, job: usize) {
        let slot = &mut self.jobs[job];
        if let JobState::Running { lease } = slot.state {
            self.pool.release(lease);
            if let Some(rt) = slot.runtime.take() {
                slot.energy_j = rt.energy_since(SimTime::ZERO);
                slot.syncs_done = rt.completed_syncs();
                slot.job_time_s = rt.now().as_secs_f64();
            }
        }
        slot.finish_s = self.machine_t.as_secs_f64();
        slot.state = JobState::Killed;
        slot.budget_w = 0.0;
    }

    fn admit_arrivals(&mut self, epoch: u64) {
        for job in 0..self.jobs.len() {
            let slot = &mut self.jobs[job];
            if !matches!(slot.state, JobState::Waiting) || slot.spec.arrival_epoch != epoch {
                continue;
            }
            // Structurally impossible jobs are rejected at arrival so the
            // loop can terminate (they would otherwise queue forever).
            if slot.spec.nodes() > self.spec.nodes || slot.floor_w() > self.spec.envelope_w {
                slot.state = JobState::Rejected;
                slot.finish_s = self.machine_t.as_secs_f64();
                continue;
            }
            slot.state = JobState::Queued;
            self.tracer.set_now(self.machine_t);
            if self.tracer.is_enabled() {
                self.tracer.emit(obs::Event::JobArrived { job });
            }
        }
    }

    /// FIFO admission with backfill: walk the queue in submission order;
    /// a job that does not fit (nodes or power floor) is skipped and later
    /// jobs may backfill around it.
    fn admit_queue(&mut self) {
        let mut floor_in_use: f64 = self
            .jobs
            .iter()
            .filter(|j| matches!(j.state, JobState::Running { .. }))
            .map(|j| j.floor_w())
            .sum();
        for job in 0..self.jobs.len() {
            if !matches!(self.jobs[job].state, JobState::Queued) {
                continue;
            }
            let need_nodes = self.jobs[job].spec.nodes();
            let need_floor = self.jobs[job].floor_w();
            if floor_in_use + need_floor > self.spec.envelope_w + 1e-9 {
                continue;
            }
            let Some(lease) = self.pool.lease(need_nodes) else {
                continue;
            };
            let rt = Runtime::new(self.jobs[job].spec.config.clone())
                .expect("controller name checked by new or submit");
            let slot = &mut self.jobs[job];
            slot.runtime = Some(rt);
            slot.state = JobState::Running { lease };
            slot.start_s = self.machine_t.as_secs_f64();
            slot.budget_w = slot.spec.config.budget_w();
            floor_in_use += need_floor;
            self.tracer.set_now(self.machine_t);
            if self.tracer.is_enabled() {
                self.tracer.emit(obs::Event::JobStarted {
                    job,
                    nodes: need_nodes,
                    budget_w: slot.budget_w,
                });
            }
        }
    }

    /// Divide the envelope across the `running` jobs per the policy, push
    /// the shares through each job's budget seam, and return
    /// `(allocated, pool, per-job budgets)`.
    fn govern(&mut self, running: &[usize]) -> (f64, f64, Vec<(usize, f64)>) {
        if running.is_empty() {
            return (0.0, self.spec.envelope_w, Vec::new());
        }
        let lo: Vec<f64> = running.iter().map(|&i| self.jobs[i].floor_w()).collect();
        let hi: Vec<f64> = running.iter().map(|&i| self.jobs[i].ceil_w()).collect();
        let total_nodes: f64 = running.iter().map(|&i| self.jobs[i].spec.nodes() as f64).sum();

        // Weights: node count for jobs without feedback yet; the policy's
        // metric otherwise, rescaled so the two kinds mix on one scale
        // (a no-feedback job weighs as much as the mean feedback job
        // does per node).
        let metric = |i: usize| -> Option<f64> {
            let j = &self.jobs[i];
            if !j.has_feedback {
                return None;
            }
            match self.spec.policy {
                Policy::EqualShare => None,
                Policy::EnergyFeedback => (j.last_energy_j > 0.0).then_some(j.last_energy_j),
                Policy::PowerAware => (j.last_dt_s > 0.0).then(|| j.last_energy_j / j.last_dt_s),
            }
        };
        let with_metric: Vec<(usize, f64)> =
            running.iter().filter_map(|&i| metric(i).map(|m| (i, m))).collect();
        let mean_per_node: f64 = if with_metric.is_empty() {
            1.0
        } else {
            with_metric.iter().map(|&(_, m)| m).sum::<f64>()
                / with_metric.iter().map(|&(i, _)| self.jobs[i].spec.nodes() as f64).sum::<f64>()
        };
        let weights: Vec<f64> = running
            .iter()
            .map(|&i| metric(i).unwrap_or_else(|| mean_per_node * self.jobs[i].spec.nodes() as f64))
            .collect();
        let weight_sum: f64 = weights.iter().sum();
        let desired: Vec<f64> = if weight_sum > 0.0 {
            weights.iter().map(|w| self.spec.envelope_w * w / weight_sum).collect()
        } else {
            running
                .iter()
                .map(|&i| self.spec.envelope_w * self.jobs[i].spec.nodes() as f64 / total_nodes)
                .collect()
        };

        let budgets = water_fill(&desired, &lo, &hi, self.spec.envelope_w);
        let mut out = Vec::with_capacity(running.len());
        for (k, &i) in running.iter().enumerate() {
            let b = budgets[k];
            self.jobs[i].budget_w = b;
            if let Some(rt) = self.jobs[i].runtime.as_mut() {
                rt.set_budget_w(b);
            }
            out.push((i, b));
        }
        let allocated: f64 = budgets.iter().sum();
        let pool = (self.spec.envelope_w - allocated).max(0.0);
        (allocated, pool, out)
    }

    /// Step every `running` job `syncs_per_epoch` intervals, in index
    /// order on the calling thread. Each job owns its runtime and RNG
    /// streams and takes its own feedback; the machine clock advances by
    /// the slowest job's progress (the epoch is a gang barrier).
    fn step_running(&mut self, running: &[usize]) {
        let syncs = self.spec.syncs_per_epoch;
        let mut epoch_dt = 0.0f64;
        for &i in running {
            let slot = &mut self.jobs[i];
            let rt = slot.runtime.as_mut().expect("running job has a runtime");
            let t0 = rt.now();
            for _ in 0..syncs {
                if !rt.step_sync() {
                    break;
                }
            }
            slot.last_dt_s = rt.now().saturating_since(t0).as_secs_f64();
            slot.last_energy_j = rt.energy_since(t0);
            slot.has_feedback = true;
            // The epoch's windowed read is done; the next epoch's window
            // starts here.
            rt.compact_history();
            epoch_dt = epoch_dt.max(slot.last_dt_s);
        }
        self.machine_t += des::SimDuration::from_secs_f64(epoch_dt * self.time_dilation);
    }

    fn reap_completed(&mut self) {
        for job in 0..self.jobs.len() {
            let done = matches!(self.jobs[job].state, JobState::Running { .. })
                && self.jobs[job].runtime.as_ref().is_some_and(|rt| rt.is_done());
            if !done {
                continue;
            }
            let slot = &mut self.jobs[job];
            let JobState::Running { lease } = slot.state else { unreachable!() };
            let rt = slot.runtime.take().expect("running job has a runtime");
            let time_s = rt.now().as_secs_f64();
            slot.energy_j = rt.energy_since(SimTime::ZERO);
            slot.syncs_done = rt.completed_syncs();
            slot.job_time_s = time_s;
            slot.finish_s = slot.start_s + time_s;
            slot.state = JobState::Completed;
            slot.budget_w = 0.0;
            self.pool.release(lease);
            self.tracer.set_now(self.machine_t);
            if self.tracer.is_enabled() {
                self.tracer.emit(obs::Event::JobCompleted { job, time_s });
            }
        }
    }
}
