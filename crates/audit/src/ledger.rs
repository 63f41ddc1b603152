//! The run's protocol state, kept once.
//!
//! Every check in the battery and every health row of the report reads
//! the same facts about where the run stands: which headers have arrived,
//! the budget in force, the open interval, the `run_end` totals, the
//! envelope renormalization in progress, each job's state, and which
//! machines are down. [`Ledger`] is the one owner of those facts. It
//! applies each event once, after the battery has judged the event
//! against the state before it.
//!
//! Per-job state is recorded once a machine or fleet header has arrived.
//! A real trace carries at most one of the two; a trace that mixes them
//! shares one record per job id between both protocols.

use obs::{Event, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};

/// `run_start`'s limits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunHeader {
    pub min_cap_w: f64,
    pub max_cap_w: f64,
    pub actuation_ns: u64,
}

/// `fleet_start`'s contract.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FleetHeader {
    pub envelope_w: f64,
    pub retry_cap_epochs: u64,
    pub max_retries: u64,
}

/// One fleet envelope renormalization: consecutive `envelope_renorm`
/// events of one epoch. Any other event, or another epoch, closes it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RenormGroup {
    pub epoch: u64,
    /// Σ shares handed out, watts.
    pub share_w: f64,
    /// Σ member caps, watts.
    pub cap_w: f64,
    /// Stamp of the group's last event.
    pub t_ns: u64,
}

/// `run_end`'s totals.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunEnd {
    pub time_s: f64,
    pub energy_j: f64,
    /// Stream index of the `run_end` event.
    pub event: u64,
}

/// One job, under the machine protocol (`running`) and the fleet
/// protocol (`dispatched` and the retry schedule) alike.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Job {
    pub arrived: bool,
    /// Started on a machine, and neither completed nor killed since.
    pub running: bool,
    /// Dispatched by the fleet, and neither retried, completed nor failed
    /// since.
    pub dispatched: bool,
    pub dispatches: u64,
    pub retries: u64,
    pub last_backoff: u64,
    pub last_machine: Option<usize>,
    pub terminal: bool,
}

#[derive(Debug, Default)]
pub(crate) struct Ledger {
    /// Events applied so far: the stream index of the next one.
    pub events: u64,
    pub run: Option<RunHeader>,
    /// `machine_start`'s envelope, watts.
    pub machine_envelope_w: Option<f64>,
    pub fleet: Option<FleetHeader>,
    /// The budget the latest header or renormalization put in force: the
    /// run's power budget, the machine envelope or the fleet envelope.
    pub budget_w: f64,
    /// The open interval: (sync, start stamp in ns).
    pub open: Option<(u64, u64)>,
    pub last_opened: Option<u64>,
    pub run_end: Option<RunEnd>,
    pub renorm: Option<RenormGroup>,
    pub jobs: BTreeMap<usize, Job>,
    /// Starts and dispatches minus completions, kills, retries and
    /// failures, floored at 0: the health rows' running count.
    pub jobs_running: u64,
    /// Fleet machines declared down and not up since.
    pub down: BTreeSet<usize>,
    /// The header's machine count, minus downs, plus ups, floored at 0.
    pub machines_up: u64,
}

impl Ledger {
    /// Job `id`'s record (a fresh one if it has none yet).
    pub(crate) fn job(&self, id: usize) -> Job {
        self.jobs.get(&id).copied().unwrap_or_default()
    }

    /// Take the renormalization group `ev` closes, if it closes one.
    /// Called before [`Ledger::apply`] on every event.
    pub(crate) fn close_renorm(&mut self, ev: &Event) -> Option<RenormGroup> {
        match (ev, &self.renorm) {
            (Event::EnvelopeRenorm { epoch, .. }, Some(g)) if g.epoch == *epoch => None,
            _ => self.renorm.take(),
        }
    }

    /// Apply one event.
    pub(crate) fn apply(&mut self, ev: &TraceEvent) {
        let t_ns = ev.t.as_nanos();
        match &ev.ev {
            Event::RunStart { budget_w, min_cap_w, max_cap_w, actuation_ns, .. } => {
                let (min_cap_w, max_cap_w, actuation_ns) = (*min_cap_w, *max_cap_w, *actuation_ns);
                self.run = Some(RunHeader { min_cap_w, max_cap_w, actuation_ns });
                self.budget_w = *budget_w;
            }
            Event::BudgetRenormalized { budget_w } => self.budget_w = *budget_w,
            Event::MachineStart { envelope_w, .. } => {
                self.machine_envelope_w = Some(*envelope_w);
                self.budget_w = *envelope_w;
                self.machines_up = 1;
            }
            Event::FleetStart { machines, envelope_w, retry_cap_epochs, max_retries, .. } => {
                let (envelope_w, retry_cap_epochs, max_retries) =
                    (*envelope_w, *retry_cap_epochs, *max_retries);
                self.fleet = Some(FleetHeader { envelope_w, retry_cap_epochs, max_retries });
                self.budget_w = envelope_w;
                self.machines_up = *machines as u64;
            }
            Event::SyncStart { sync } => {
                self.open = Some((*sync, t_ns));
                self.last_opened = Some(*sync);
            }
            Event::SyncEnd { .. } => self.open = None,
            Event::RunEnd { total_time_s, total_energy_j } => {
                let (time_s, energy_j) = (*total_time_s, *total_energy_j);
                self.run_end = Some(RunEnd { time_s, energy_j, event: self.events });
            }
            Event::EnvelopeRenorm { epoch, share_w, cap_w, .. } => match &mut self.renorm {
                Some(g) => {
                    g.share_w += share_w;
                    g.cap_w += cap_w;
                    g.t_ns = t_ns;
                }
                None => {
                    let (epoch, share_w, cap_w) = (*epoch, *share_w, *cap_w);
                    self.renorm = Some(RenormGroup { epoch, share_w, cap_w, t_ns });
                }
            },
            Event::MachineDown { machine, .. } => {
                if self.fleet.is_some() {
                    self.down.insert(*machine);
                }
                self.machines_up = self.machines_up.saturating_sub(1);
            }
            Event::MachineUp { machine, .. } => {
                if self.fleet.is_some() {
                    self.down.remove(machine);
                }
                self.machines_up += 1;
            }
            _ => {}
        }
        match &ev.ev {
            Event::JobStarted { .. } | Event::JobDispatched { .. } => self.jobs_running += 1,
            Event::JobCompleted { .. }
            | Event::JobKilled { .. }
            | Event::JobRetry { .. }
            | Event::JobFailed { .. } => self.jobs_running = self.jobs_running.saturating_sub(1),
            _ => {}
        }
        if self.machine_envelope_w.is_some() || self.fleet.is_some() {
            self.apply_job(&ev.ev);
        }
        self.events += 1;
    }

    fn apply_job(&mut self, ev: &Event) {
        let id = match ev {
            Event::JobArrived { job }
            | Event::JobStarted { job, .. }
            | Event::JobCompleted { job, .. }
            | Event::JobKilled { job }
            | Event::JobDispatched { job, .. }
            | Event::JobRetry { job, .. }
            | Event::JobFailed { job, .. } => *job,
            _ => return,
        };
        let j = self.jobs.entry(id).or_default();
        match ev {
            Event::JobArrived { .. } => j.arrived = true,
            Event::JobStarted { .. } => j.running = true,
            Event::JobCompleted { .. } => {
                (j.running, j.dispatched, j.terminal) = (false, false, true)
            }
            Event::JobKilled { .. } => (j.running, j.terminal) = (false, true),
            Event::JobDispatched { machine, .. } => {
                (j.dispatched, j.last_machine) = (true, Some(*machine));
                j.dispatches += 1;
            }
            Event::JobRetry { attempt, backoff_epochs, .. } => {
                (j.dispatched, j.retries, j.last_backoff) = (false, *attempt, *backoff_epochs);
            }
            Event::JobFailed { .. } => (j.dispatched, j.terminal) = (false, true),
            _ => {}
        }
    }
}
