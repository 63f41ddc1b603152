//! # sched — machine-level power scheduling for concurrent in-situ jobs
//!
//! SeeSAw (paper §IV) divides *one job's* budget between its simulation
//! and analysis partitions using energy feedback (`E = T·P`, Eqs. 1–2).
//! This crate adds the level above: a machine running N concurrent
//! in-situ jobs — each an [`insitu::Runtime`] with its own controller —
//! under a single machine power envelope, the production setting the
//! paper's §VIII hierarchical future work points at.
//!
//! The scheduler is a deterministic epoch loop:
//!
//! 1. **failures** — the [`faults::JobFaultPlan`] kills the jobs its
//!    epoch's slice ([`faults::Plan::at`]) names;
//! 2. **arrivals** — jobs enter a FIFO queue at their arrival epoch;
//! 3. **admission** — FIFO with backfill against the machine's node pool
//!    ([`theta_sim::MachineNodes`], first-fit contiguous leases), gated on
//!    the envelope covering every admitted job's power floor `n·δ_min`;
//! 4. **governor** — the envelope is re-divided across running jobs by
//!    the configured [`Policy`] and pushed down through each job's
//!    [`insitu::Runtime::set_budget_w`] renormalization seam;
//! 5. **stepping** — every running job executes `syncs_per_epoch`
//!    synchronization intervals (epochs are gang barriers: the machine
//!    clock advances by the slowest job's progress), in index order on
//!    the calling thread — no workload in the repo has an epoch worth a
//!    thread spawn — so the outcome cannot depend on `POLIMER_THREADS`;
//! 6. **departures** — completed and killed jobs release their nodes and
//!    their budget returns to the pool for the next epoch.
//!
//! The governor's [`Policy::EnergyFeedback`] is SeeSAw's own metric lifted
//! one level: each running job's share of the envelope is proportional to
//! the energy it consumed over the previous epoch (`P_j ∝ E_j`, the
//! N-ary generalization of Eq. 2's `P_S = C·E_S/(E_S+E_A)`), projected
//! onto the per-job feasible box `[n_j·δ_min, n_j·δ_max]` by the exact
//! water-filling in [`seesaw::water_fill`].

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod machine;
mod queue;

pub use machine::{
    EpochRecord, Evacuee, JobOutcome, MachineResult, MachineSpec, Policy, Scheduler,
};
pub use queue::{JobSpec, JobState};
