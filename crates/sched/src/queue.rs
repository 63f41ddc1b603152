//! Job specifications and lifecycle states.

use insitu::JobConfig;
use theta_sim::NodeLease;

/// One job submitted to the machine.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Scheduling epoch (0-based) at which the job enters the queue.
    pub arrival_epoch: u64,
    /// The job itself (workload, controller, per-node budget, faults).
    pub config: JobConfig,
}

impl JobSpec {
    /// A job arriving at epoch 0.
    pub fn at_start(config: JobConfig) -> Self {
        JobSpec { arrival_epoch: 0, config }
    }

    /// A job arriving at `epoch`.
    pub fn arriving(epoch: u64, config: JobConfig) -> Self {
        JobSpec { arrival_epoch: epoch, config }
    }

    /// Node count the job needs.
    pub(crate) fn nodes(&self) -> usize {
        self.config.workload.nodes_total()
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobState {
    /// Not yet arrived.
    Waiting,
    /// In the FIFO queue, not yet admitted.
    Queued,
    /// Running on a node lease.
    Running {
        /// The leased node range.
        lease: NodeLease,
    },
    /// Finished every synchronization (or halted gracefully).
    Completed,
    /// Killed by the job-level fault plan.
    Killed,
    /// Rejected at arrival: can never run on this machine (more nodes
    /// than the machine has, or a power floor above the envelope).
    Rejected,
}

impl JobState {
    /// True once the job can no longer run.
    pub(crate) fn is_terminal(&self) -> bool {
        matches!(self, JobState::Completed | JobState::Killed | JobState::Rejected)
    }

    /// Stable lowercase tag for serialized results.
    pub(crate) fn tag(&self) -> &'static str {
        match self {
            JobState::Waiting => "waiting",
            JobState::Queued => "queued",
            JobState::Running { .. } => "running",
            JobState::Completed => "completed",
            JobState::Killed => "killed",
            JobState::Rejected => "rejected",
        }
    }
}
