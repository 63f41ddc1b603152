//! # fleet — multi-machine scheduling that survives machine loss
//!
//! Federates N [`sched::Scheduler`] machines (each its own failure
//! domain) behind one deterministic job-stream front end:
//!
//! - **Health tracking** — members heartbeat on the shared fleet clock;
//!   a member missing [`FleetSpec::miss_threshold`] consecutive beats is
//!   declared down and evacuated.
//! - **Checkpoint-resubmit** — evacuated jobs restart elsewhere from
//!   their last completed synchronization, under a capped-exponential
//!   [`RetryPolicy`] with a hard retry budget. No job is ever lost or
//!   run twice; exhausting the budget reports the job failed exactly
//!   once.
//! - **Envelope renormalization** — the global power envelope
//!   re-divides across surviving members by exact water-filling on
//!   every membership change.
//!
//! Everything is a pure function of the spec, the seeded
//! [`JobStream`], and the materialized
//! [`faults::MachineFaultPlan`] (read one epoch's slice at a time,
//! [`faults::Plan::at`]) — byte-identical at any
//! `POLIMER_THREADS`, replayable from the trace, and checked end-to-end
//! by the `AUDIT0010` fleet battery in the `audit` crate.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod backoff;
mod fleet;
mod stream;

pub use backoff::RetryPolicy;
pub use fleet::{Fleet, FleetJobOutcome, FleetResult, FleetSpec};
pub use stream::{JobEntry, JobStream};
