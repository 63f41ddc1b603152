//! # polimer — application-level power management for in-situ jobs
//!
//! A reimplementation of the PoLiMER library (Marincic et al., E2SC 2017)
//! as extended for SeeSAw: it lets an in-situ application expose two pieces
//! of knowledge — *which partition each process belongs to* and *when the
//! partitions synchronize* — and handles everything else: designating one
//! monitor rank per node, exchanging time/power measurements at each
//! synchronization, invoking a pluggable allocation [`seesaw::Controller`], and
//! accounting the overhead of doing so (paper §VI-B, Fig. 9).
//!
//! The application-facing API mirrors the paper's two-line instrumentation:
//!
//! ```
//! use mpisim::{Communicator, JobLayout};
//! use polimer::{PowerManager, PowerManagerConfig};
//! use seesaw::Role;
//!
//! // poli_init_power_manager(universe->uworld, universe->me, master, cap)
//! let world = Communicator::world(JobLayout::new(8, 2));
//! let mut mgr = PowerManager::init(
//!     &world,
//!     |rank| if rank < 4 { Role::Simulation } else { Role::Analysis },
//!     PowerManagerConfig::with_controller("seesaw"),
//! )
//! .expect("known controller");
//! assert_eq!(mgr.monitor_ranks().len(), 4); // one per node
//! ```
//!
//! `power_alloc()` is then called immediately before each synchronization;
//! the runtime supplies the per-node feedback and applies the returned
//! caps.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod manager;

pub use manager::{
    AllocOutcome, ExchangeFaults, PowerManager, PowerManagerConfig, MAX_COLLECTIVE_RETRIES,
};

/// Raw feedback for one node over one synchronization interval: the
/// slowest rank's time on the node, its measured mean power and the cap in
/// force. The manager hands it to the controller as is, with the previous
/// exchange's overhead added to its time.
pub type NodeInterval = seesaw::NodeSample;
