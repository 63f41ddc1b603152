//! # mdsim — mini-LAMMPS with the Verlet-Splitanalysis in-situ protocol
//!
//! A real molecular-dynamics engine standing in for LAMMPS in the SeeSAw
//! reproduction: the paper's water + ions benchmark (1568 atoms replicated
//! `dim³` times), linked-cell neighbor lists, Lennard-Jones + damped
//! shifted-force Coulomb interactions, velocity-Verlet integration, and
//! the five built-in analyses the paper evaluates (hydronium/ion RDF,
//! VACF, and full/1-D/2-D MSD).
//!
//! Two layers matter to the power-management study:
//!
//! * [`SplitAnalysis`] runs the 8-step Verlet-Splitanalysis flow on real
//!   particle data, recording per-phase work counts;
//! * [`workload`] converts work into per-node [`theta_sim::Work`] quanta —
//!   either analytically (scaled to paper-size jobs) or measured from a
//!   real engine run — which the cluster model executes under power caps.
//!
//! ```
//! use mdsim::{MdEngine, SplitAnalysis, AnalysisSchedule, AnalysisKind};
//!
//! let engine = MdEngine::water_ion_benchmark(1, 42);
//! let mut insitu = SplitAnalysis::new(
//!     engine,
//!     vec![AnalysisSchedule::every_sync(AnalysisKind::Rdf)],
//!     1,
//! );
//! let record = insitu.advance();
//! assert!(record.synced && record.force_pairs > 0);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod analysis;
mod cell_list;
mod engine;
mod force;
mod integrate;
mod neighbor;
mod species;
mod splitanalysis;
mod system;
mod thermo;
mod vec3;
pub mod workload;

pub use analysis::{
    msd::Msd, rdf::Rdf, vacf::Vacf, Analysis, AnalysisKind, AnalysisWork, Snapshot,
};
pub use engine::{EngineStepCounts, MdEngine};
pub use force::{compute_forces_into, CoeffTable, ForceEval, ForceParams, ForceScratch};
pub use neighbor::NeighborList;
pub use species::PairTable;
pub use splitanalysis::{AnalysisSchedule, SplitAnalysis, StepRecord};
pub use system::{water_ion_box, System};
pub use thermo::{thermo, ThermoRecord};
pub use vec3::Vec3;
