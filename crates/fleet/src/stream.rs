//! The deterministic job stream feeding the fleet front end.

use des::Rng;
use insitu::JobConfig;

/// One job in the stream: when it arrives and what it is.
#[derive(Debug, Clone)]
pub struct JobEntry {
    /// Fleet scheduling epoch (0-based) at which the job arrives.
    pub arrival_epoch: u64,
    /// The job itself.
    pub config: JobConfig,
}

/// An ordered, fully materialized job arrival schedule.
///
/// Like the fault plans, the stream is built up front from its seed, so
/// replaying a run never consults an RNG: the fleet's inputs are a pure
/// function of `(stream, fault plan, spec)`.
#[derive(Debug, Clone)]
pub struct JobStream {
    entries: Vec<JobEntry>,
}

impl JobStream {
    /// Every job arrives at epoch 0 (a batch submission).
    pub fn at_start(configs: Vec<JobConfig>) -> Self {
        JobStream {
            entries: configs
                .into_iter()
                .map(|config| JobEntry { arrival_epoch: 0, config })
                .collect(),
        }
    }

    /// Scatter arrivals uniformly over `[0, horizon_epochs]` with a
    /// seeded RNG (domain-separated from every other stream in the
    /// workspace). Deterministic in all arguments; job ids keep the
    /// input order so two storms over the same config list stay
    /// comparable job-by-job.
    pub fn seeded(seed: u64, configs: Vec<JobConfig>, horizon_epochs: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5EED_57EA_4AB1_7E50);
        JobStream {
            entries: configs
                .into_iter()
                .map(|config| JobEntry {
                    arrival_epoch: rng.next_below(horizon_epochs + 1),
                    config,
                })
                .collect(),
        }
    }

    /// The schedule, in job-id order.
    pub fn entries(&self) -> &[JobEntry] {
        &self.entries
    }

    /// Number of jobs in the stream.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}
