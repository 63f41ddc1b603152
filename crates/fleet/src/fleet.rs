//! The fleet federation engine: N machine schedulers behind one
//! deterministic front end that survives machine loss.
//!
//! ## Failure-domain model
//!
//! Each [`sched::Scheduler`] is one failure domain. The fleet drives the
//! members epoch-by-epoch and tracks their health from heartbeats on the
//! shared fleet clock:
//!
//! - **Crash** — the machine dies at the fault epoch and never returns.
//! - **Partition** — the machine is unreachable for a span of epochs. A
//!   partitioned member *pauses* (it detects isolation and halts, so a
//!   job can never run on both sides of a partition — split-brain
//!   double-execution is impossible by construction). When the partition
//!   heals the member rejoins empty: its jobs were checkpointed off-
//!   machine and reassigned while it was gone.
//! - **Slow** — the machine stays reachable but its epochs dilate by a
//!   factor; no recovery action, just honest clocks.
//!
//! A member that misses [`FleetSpec::miss_threshold`] consecutive
//! heartbeats is declared down: its live jobs are checkpointed at their
//! last completed synchronization ([`sched::Scheduler::evacuate`]) and
//! re-enter the fleet queue under the capped-exponential
//! [`RetryPolicy`]. The global envelope renormalizes across the
//! surviving members by exact water-filling on every membership change,
//! so `Σ member shares == min(envelope, Σ member caps)` at all times —
//! the audit's `AUDIT0010` battery checks exactly this, plus
//! no-job-lost, no-double-run, and the retry/backoff contract, from the
//! trace alone.

use crate::backoff::RetryPolicy;
use crate::stream::JobStream;
use des::SimTime;
use faults::{MachineFaultKind, MachineFaultPlan};
use insitu::JobConfig;
use obs::Event;
use sched::{JobState, MachineSpec, Scheduler};
use seesaw::{water_fill, UnknownController};

/// Fleet-level configuration.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Member machine configurations. Each member's `envelope_w` acts as
    /// its power *cap*; the actual share in force is set by the fleet's
    /// renormalization and never exceeds the cap.
    pub machines: Vec<MachineSpec>,
    /// Global fleet power envelope, watts.
    pub envelope_w: f64,
    /// Consecutive missed heartbeats before a member is declared down.
    pub miss_threshold: u64,
    /// Retry/backoff schedule for evacuated jobs.
    pub retry: RetryPolicy,
    /// Hard fleet epoch bound (safety net; leftover jobs are reported
    /// failed, never silently dropped).
    pub max_epochs: u64,
}

impl FleetSpec {
    /// A fleet of `machines` under a global `envelope_w`, with the
    /// default heartbeat threshold (2) and retry policy (1–8 epochs
    /// doubling, 3 retries).
    pub fn new(machines: Vec<MachineSpec>, envelope_w: f64) -> Self {
        FleetSpec {
            machines,
            envelope_w,
            miss_threshold: 2,
            retry: RetryPolicy::default_policy(),
            max_epochs: 10_000,
        }
    }
}

/// Terminal accounting for one fleet job.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetJobOutcome {
    /// Fleet-global job id (stream ordinal).
    pub job: usize,
    /// `"completed"` or `"failed"`.
    pub outcome: &'static str,
    /// Dispatch attempts consumed (0 if never dispatched).
    pub dispatches: u64,
    /// Synchronizations completed across all attempts.
    pub syncs_done: u64,
    /// Synchronizations the job needed in total.
    pub syncs_target: u64,
    /// Simulated job time accumulated across all attempts, seconds.
    pub job_time_s: f64,
    /// Energy accumulated across all attempts, joules.
    pub energy_j: f64,
}

/// Result of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// One outcome per job, in stream order.
    pub outcomes: Vec<FleetJobOutcome>,
    /// Fleet epochs executed.
    pub epochs: u64,
    /// Fleet clock at the end (slowest member), seconds.
    pub makespan_s: f64,
    /// Total energy across all jobs and attempts, joules.
    pub total_energy_j: f64,
    /// Retry events across all jobs.
    pub retries: u64,
    /// Cross-machine migrations across all jobs.
    pub migrations: u64,
    /// Members still declared down at the end (crashed or partitioned
    /// past the horizon).
    pub machines_down: usize,
    /// Mean fleet epochs from eviction to re-dispatch over all
    /// recoveries (0 when nothing was ever evicted).
    pub mean_recovery_epochs: f64,
}

impl FleetResult {
    /// Jobs that completed.
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.outcome == "completed").count()
    }

    /// Jobs reported failed.
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.outcome == "failed").count()
    }

    /// Fraction of submitted synchronization work that completed
    /// (checkpointed progress of failed jobs does not count — it was
    /// paid for but never delivered).
    pub fn goodput(&self) -> f64 {
        let target: u64 = self.outcomes.iter().map(|o| o.syncs_target).sum();
        if target == 0 {
            return 1.0;
        }
        let done: u64 =
            self.outcomes.iter().filter(|o| o.outcome == "completed").map(|o| o.syncs_done).sum();
        done as f64 / target as f64
    }
}

/// One member machine plus its health bookkeeping.
struct Member {
    sched: Scheduler,
    /// Power cap (the member spec's own envelope).
    cap_w: f64,
    nodes: usize,
    crashed: bool,
    /// First epoch at which an active partition has healed (inert once
    /// in the past).
    unreachable_until: u64,
    /// Epoch at which an active slowdown ends.
    slow_until: Option<u64>,
    misses: u64,
    down: bool,
    /// Machine-local slot id → fleet job id.
    slots: Vec<usize>,
}

impl Member {
    /// True while the member cannot be reached (crashed, or inside a
    /// partition span) at fleet epoch `epoch`.
    fn unreachable(&self, epoch: u64) -> bool {
        self.crashed || epoch < self.unreachable_until
    }

    /// True when the member can take dispatches and be stepped.
    fn serving(&self, epoch: u64) -> bool {
        !self.down && !self.unreachable(epoch)
    }
}

/// Where a fleet job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    NotArrived,
    Pending { ready_epoch: u64 },
    Running { machine: usize, slot: usize },
    Completed,
    Failed,
}

struct JobTrack {
    arrival_epoch: u64,
    config: JobConfig,
    /// Synchronizations the full job needs.
    target_syncs: u64,
    /// Checkpointed synchronizations accumulated across attempts.
    synced: u64,
    energy_j: f64,
    job_time_s: f64,
    dispatches: u64,
    last_machine: Option<usize>,
    /// Set at eviction, cleared at re-dispatch (recovery latency).
    evicted_epoch: Option<u64>,
    phase: Phase,
}

impl JobTrack {
    /// Fold one attempt's checkpointed progress — `(completed syncs,
    /// energy in joules, simulated job time in seconds)` — into the ledger.
    fn bank(&mut self, (syncs, energy_j, time_s): (u64, f64, f64)) {
        self.synced += syncs;
        self.energy_j += energy_j;
        self.job_time_s += time_s;
    }
}

/// The fleet scheduler. See the module docs for the model.
pub struct Fleet {
    spec: FleetSpec,
    members: Vec<Member>,
    jobs: Vec<JobTrack>,
    plan: MachineFaultPlan,
    tracer: obs::Tracer,
    epoch: u64,
    fleet_t: SimTime,
    started: bool,
    retries_total: u64,
    migrations_total: u64,
    recovery_sum_epochs: u64,
    recovery_count: u64,
    /// Per-member dispatch scratch: nodes promised to jobs queued on it.
    committed: Vec<i64>,
}

impl Fleet {
    /// Build a fleet. Fails fast if any job in the stream names an
    /// unknown controller, so the dispatch loop never sees one.
    pub fn new(
        spec: FleetSpec,
        stream: JobStream,
        plan: MachineFaultPlan,
    ) -> Result<Self, UnknownController> {
        assert!(!spec.machines.is_empty(), "a fleet needs at least one machine");
        assert!(spec.envelope_w > 0.0 && spec.envelope_w.is_finite());
        assert!(spec.miss_threshold >= 1, "zero threshold would declare healthy machines down");
        let mut members = Vec::with_capacity(spec.machines.len());
        for mspec in &spec.machines {
            let mut mspec = mspec.clone();
            // The fleet drives the epoch loop; members must never stop
            // stepping before it does.
            mspec.max_epochs = spec.max_epochs;
            members.push(Member {
                cap_w: mspec.envelope_w,
                nodes: mspec.nodes,
                sched: Scheduler::new(mspec, Vec::new())?,
                crashed: false,
                unreachable_until: 0,
                slow_until: None,
                misses: 0,
                down: false,
                slots: Vec::new(),
            });
        }
        let mut jobs = Vec::with_capacity(stream.len());
        for entry in stream.entries() {
            seesaw::check_controller_name(&entry.config.controller)?;
            let w = &entry.config.workload;
            jobs.push(JobTrack {
                arrival_epoch: entry.arrival_epoch,
                config: entry.config.clone(),
                target_syncs: w.total_steps.div_ceil(w.sync_every),
                synced: 0,
                energy_j: 0.0,
                job_time_s: 0.0,
                dispatches: 0,
                last_machine: None,
                evicted_epoch: None,
                phase: Phase::NotArrived,
            });
        }
        Ok(Fleet {
            committed: vec![0; members.len()],
            spec,
            members,
            jobs,
            plan,
            tracer: obs::Tracer::off(),
            epoch: 0,
            fleet_t: SimTime::ZERO,
            started: false,
            retries_total: 0,
            migrations_total: 0,
            recovery_sum_epochs: 0,
            recovery_count: 0,
        })
    }

    /// Attach a trace sink. Only the fleet emits (members run untraced:
    /// the fleet owns the shared clock, and interleaving per-machine
    /// events would not be meaningful on it).
    pub fn set_tracer(&mut self, tracer: &obs::Tracer) {
        self.tracer = tracer.clone();
    }

    /// Run to completion (every job terminal, or `max_epochs`).
    pub fn run(mut self) -> FleetResult {
        self.start();
        while self.epoch < self.spec.max_epochs {
            self.step_epoch();
            if self.all_jobs_terminal() {
                break;
            }
        }
        self.finish()
    }

    fn emit(&self, ev: Event) {
        if self.tracer.is_enabled() {
            self.tracer.emit(ev);
        }
    }

    /// Emit the fleet header. Idempotent; `step_epoch` calls it.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.tracer.set_now(self.fleet_t);
        self.emit(Event::FleetStart {
            machines: self.members.len(),
            envelope_w: self.spec.envelope_w,
            retry_base_epochs: self.spec.retry.base_epochs,
            retry_cap_epochs: self.spec.retry.cap_epochs,
            max_retries: self.spec.retry.max_retries,
        });
    }

    /// True once every job is terminal.
    pub(crate) fn all_jobs_terminal(&self) -> bool {
        self.jobs.iter().all(|j| matches!(j.phase, Phase::Completed | Phase::Failed))
    }

    /// Execute one fleet epoch: fire machine faults, heal partitions,
    /// track heartbeats and declare lost members (evacuating their
    /// jobs), renormalize the envelope on membership change, admit
    /// arrivals, dispatch pending jobs, step the serving members, and
    /// collect completions.
    pub fn step_epoch(&mut self) {
        self.start();
        if self.epoch >= self.spec.max_epochs {
            return;
        }
        let e = self.epoch;
        self.tracer.set_now(self.fleet_t);
        let mut membership_changed = e == 0;

        // 1. Machine faults scheduled for this epoch.
        for f in self.plan.at(e) {
            let m = &mut self.members[f.machine];
            match f.kind {
                MachineFaultKind::Crash => m.crashed = true,
                MachineFaultKind::Partition { epochs } => {
                    m.unreachable_until = m.unreachable_until.max(e + epochs);
                }
                MachineFaultKind::Slow { factor, epochs } => {
                    m.sched.set_time_dilation(factor);
                    m.slow_until = Some(e + epochs);
                }
            }
        }

        // 2. Heals: partitions that ended rejoin (empty — their jobs
        // were reassigned); slowdowns that ended restore their clocks.
        for i in 0..self.members.len() {
            if !self.members[i].crashed && self.members[i].unreachable_until <= e {
                self.members[i].misses = 0;
                if self.members[i].down {
                    self.members[i].down = false;
                    membership_changed = true;
                    self.emit(Event::MachineUp { machine: i, epoch: e });
                }
            }
            if self.members[i].slow_until.is_some_and(|until| until <= e) {
                self.members[i].sched.set_time_dilation(1.0);
                self.members[i].slow_until = None;
            }
        }

        // 3. Heartbeats: unreachable members accumulate misses; past the
        // threshold they are declared down and their jobs evacuated into
        // the retry pipeline.
        for i in 0..self.members.len() {
            if !self.members[i].unreachable(e) {
                continue;
            }
            self.members[i].misses += 1;
            if self.members[i].down || self.members[i].misses < self.spec.miss_threshold {
                continue;
            }
            self.members[i].down = true;
            membership_changed = true;
            self.emit(Event::MachineDown { machine: i, epoch: e });
            let evacuees = self.members[i].sched.evacuate();
            for ev in evacuees {
                let job = self.members[i].slots[ev.job];
                let t = &mut self.jobs[job];
                debug_assert!(matches!(t.phase, Phase::Running { machine, .. } if machine == i));
                t.bank((ev.completed_syncs, ev.energy_j, ev.job_time_s));
                self.retry_or_fail(job, e);
            }
        }

        // 4. Renormalize the global envelope across the members not
        // declared down (exact water-fill against each member's cap).
        if membership_changed {
            self.renormalize(e);
        }

        // 5. Arrivals.
        for job in 0..self.jobs.len() {
            if self.jobs[job].arrival_epoch == e {
                debug_assert!(matches!(self.jobs[job].phase, Phase::NotArrived));
                self.jobs[job].phase = Phase::Pending { ready_epoch: e };
                self.emit(Event::JobArrived { job });
            }
        }

        // 6. Dispatch pending jobs whose backoff has elapsed: route to
        // the serving member with the most effectively free nodes —
        // leased-free minus the demand already queued on it (including
        // this epoch's earlier dispatches) — ties to the lowest index.
        // A job nothing can serve stays pending.
        self.committed.fill(0);
        for t in &self.jobs {
            if let Phase::Running { machine, slot } = t.phase {
                if matches!(
                    self.members[machine].sched.job_state(slot),
                    JobState::Waiting | JobState::Queued
                ) {
                    self.committed[machine] += t.config.workload.nodes_total() as i64;
                }
            }
        }
        for job in 0..self.jobs.len() {
            let Phase::Pending { ready_epoch } = self.jobs[job].phase else { continue };
            if ready_epoch > e {
                continue;
            }
            let nodes_needed = self.jobs[job].config.workload.nodes_total();
            let mut best: Option<(i64, usize)> = None; // (effective free nodes, member)
            for (i, m) in self.members.iter().enumerate() {
                if !m.serving(e) || m.nodes < nodes_needed {
                    continue;
                }
                let free = m.sched.free_nodes() as i64 - self.committed[i];
                if best.is_none_or(|(bf, _)| free > bf) {
                    best = Some((free, i));
                }
            }
            let Some((_, target)) = best else { continue };
            if let Some(from) = self.jobs[job].last_machine {
                if from != target {
                    self.migrations_total += 1;
                    self.emit(Event::JobMigrated { job, from_machine: from, to_machine: target });
                }
            }
            if let Some(evicted) = self.jobs[job].evicted_epoch.take() {
                self.recovery_sum_epochs += e - evicted;
                self.recovery_count += 1;
            }
            self.emit(Event::JobDispatched { job, machine: target });
            let config = self.remaining_config(job);
            let slot =
                self.members[target].sched.submit(config).expect("controller validated in new()");
            debug_assert_eq!(slot, self.members[target].slots.len());
            self.members[target].slots.push(job);
            self.committed[target] += nodes_needed as i64;
            let t = &mut self.jobs[job];
            t.phase = Phase::Running { machine: target, slot };
            t.dispatches += 1;
            t.last_machine = Some(target);
        }

        // 7. Step the serving members, serially and in index order (a
        // member steps its jobs on this thread too, so the fleet is
        // byte-identical at any thread count).
        for i in 0..self.members.len() {
            if self.members[i].serving(e) {
                self.members[i].sched.step_epoch();
            }
        }

        // 8. Collect terminal jobs off the members.
        for job in 0..self.jobs.len() {
            let Phase::Running { machine, slot } = self.jobs[job].phase else { continue };
            match self.members[machine].sched.job_state(slot) {
                JobState::Completed => {
                    let t = &mut self.jobs[job];
                    t.bank(self.members[machine].sched.job_progress(slot));
                    t.phase = Phase::Completed;
                    let time_s = t.job_time_s;
                    self.emit(Event::JobCompleted { job, time_s });
                }
                // A member may still kill or reject a submission (e.g. a
                // power floor its renormalized share cannot cover); the
                // fleet treats it like an eviction with whatever
                // checkpoint the member banked.
                JobState::Killed | JobState::Rejected => {
                    self.jobs[job].bank(self.members[machine].sched.job_progress(slot));
                    self.retry_or_fail(job, e);
                }
                _ => {}
            }
        }

        // The fleet clock is the slowest member's clock (members pause
        // while partitioned, so the max is what an outside observer
        // waits for).
        let horizon = self
            .members
            .iter()
            .map(|m| SimTime::from_secs_f64(m.sched.now_s()))
            .max()
            .unwrap_or(SimTime::ZERO);
        self.fleet_t = self.fleet_t.max(horizon);
        self.epoch = e + 1;
    }

    /// Decide an evicted (or rejected) job's fate: completed if its
    /// checkpoints already cover the work, failed if the retry budget is
    /// exhausted, otherwise back to pending under capped-exponential
    /// backoff.
    fn retry_or_fail(&mut self, job: usize, e: u64) {
        let t = &mut self.jobs[job];
        let attempts = t.dispatches;
        if t.synced >= t.target_syncs {
            t.phase = Phase::Completed;
            let time_s = t.job_time_s;
            self.emit(Event::JobCompleted { job, time_s });
        } else if attempts > self.spec.retry.max_retries {
            t.phase = Phase::Failed;
            self.emit(Event::JobFailed { job, attempts });
        } else {
            let backoff_epochs = self.spec.retry.backoff_epochs(attempts);
            t.phase = Phase::Pending { ready_epoch: e + backoff_epochs };
            t.evicted_epoch = Some(e);
            self.retries_total += 1;
            self.emit(Event::JobRetry { job, attempt: attempts, backoff_epochs });
        }
    }

    /// Divide the fleet envelope across the members not declared down:
    /// node-proportional desire, exact water-fill against each member's
    /// cap, so shares sum to `min(envelope, Σ caps)` to the last bit.
    fn renormalize(&mut self, e: u64) {
        let alive: Vec<usize> =
            (0..self.members.len()).filter(|&i| !self.members[i].down).collect();
        if alive.is_empty() {
            return;
        }
        let nodes_total: f64 = alive.iter().map(|&i| self.members[i].nodes as f64).sum();
        let desired: Vec<f64> = alive
            .iter()
            .map(|&i| self.spec.envelope_w * self.members[i].nodes as f64 / nodes_total)
            .collect();
        let lo = vec![0.0; alive.len()];
        let hi: Vec<f64> = alive.iter().map(|&i| self.members[i].cap_w).collect();
        let shares = water_fill(&desired, &lo, &hi, self.spec.envelope_w);
        for (k, &i) in alive.iter().enumerate() {
            self.members[i].sched.set_envelope_w(shares[k]);
            self.emit(Event::EnvelopeRenorm {
                epoch: e,
                machine: i,
                share_w: shares[k],
                cap_w: self.members[i].cap_w,
            });
        }
    }

    /// The job's remaining work as a fresh config (checkpoint-resume:
    /// completed synchronizations are subtracted from the step count).
    fn remaining_config(&self, job: usize) -> JobConfig {
        let t = &self.jobs[job];
        let mut config = t.config.clone();
        config.workload.total_steps = config
            .workload
            .total_steps
            .saturating_sub(t.synced.saturating_mul(config.workload.sync_every));
        config
    }

    /// Close the run: report leftover jobs failed (nothing is ever
    /// silently dropped) and assemble the result.
    pub fn finish(mut self) -> FleetResult {
        self.start();
        self.tracer.set_now(self.fleet_t);
        for job in 0..self.jobs.len() {
            let t = &self.jobs[job];
            match t.phase {
                Phase::Completed | Phase::Failed => continue,
                Phase::Running { machine, slot } => {
                    self.jobs[job].bank(self.members[machine].sched.job_progress(slot));
                }
                Phase::NotArrived | Phase::Pending { .. } => {}
            }
            let t = &mut self.jobs[job];
            t.phase = Phase::Failed;
            let attempts = t.dispatches;
            self.emit(Event::JobFailed { job, attempts });
        }
        let outcomes: Vec<FleetJobOutcome> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(job, t)| FleetJobOutcome {
                job,
                outcome: if t.phase == Phase::Completed { "completed" } else { "failed" },
                dispatches: t.dispatches,
                syncs_done: t.synced,
                syncs_target: t.target_syncs,
                job_time_s: t.job_time_s,
                energy_j: t.energy_j,
            })
            .collect();
        let total_energy_j = outcomes.iter().map(|o| o.energy_j).sum();
        FleetResult {
            epochs: self.epoch,
            makespan_s: self.fleet_t.as_secs_f64(),
            total_energy_j,
            retries: self.retries_total,
            migrations: self.migrations_total,
            machines_down: self.members.iter().filter(|m| m.down).count(),
            mean_recovery_epochs: if self.recovery_count == 0 {
                0.0
            } else {
                self.recovery_sum_epochs as f64 / self.recovery_count as f64
            },
            outcomes,
        }
    }
}
