//! Built-in analyses (paper §VI-C): radial distribution functions for the
//! hydronium and counter-ion, velocity auto-correlation, and mean-squared
//! displacement in full, 1-D-binned and 2-D-binned variants.
//!
//! Each analysis consumes the particle snapshot the simulation partition
//! ships at a synchronization (step 2 of the Verlet-Splitanalysis flow) and
//! reports the work it performed, which the cluster model converts into
//! simulated time under the analysis partition's power cap.

pub(crate) mod msd;
pub(crate) mod rdf;
pub(crate) mod vacf;

use msd::{Msd, MsdConfig};
use rdf::{Rdf, RdfConfig};
use vacf::{Vacf, VacfConfig};

use crate::species::Species;
use crate::vec3::Vec3;

/// A read-only particle snapshot delivered to the analysis partition.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot<'a> {
    /// Periodic box side.
    pub box_len: f64,
    /// Species per particle.
    pub(crate) species: &'a [Species],
    /// Wrapped positions.
    pub pos: &'a [Vec3],
    /// Unwrapped positions (for displacement analyses).
    pub unwrapped: &'a [Vec3],
    /// Velocities.
    pub vel: &'a [Vec3],
}

impl<'a> Snapshot<'a> {
    /// Snapshot of a full system.
    pub fn of(sys: &'a crate::system::System) -> Self {
        Snapshot {
            box_len: sys.box_len,
            species: &sys.species,
            pos: &sys.pos,
            unwrapped: &sys.unwrapped,
            vel: &sys.vel,
        }
    }

    /// Number of particles.
    pub(crate) fn len(&self) -> usize {
        self.pos.len()
    }

    /// True if the snapshot is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Bytes a simulation rank must ship for this snapshot: positions and
    /// velocities (step 2 of the flow), 6 `f64` per particle.
    pub(crate) fn wire_bytes(&self) -> u64 {
        (self.len() * 6 * std::mem::size_of::<f64>()) as u64
    }
}

/// Work performed by one analysis invocation (fed to the cluster model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnalysisWork {
    /// Arithmetic operations on particle data (distance evaluations, dot
    /// products, …).
    pub ops: u64,
}

/// The analysis kinds of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalysisKind {
    /// Hydronium + ion radial distribution functions.
    Rdf,
    /// Velocity auto-correlation function.
    Vacf,
    /// Full MSD (1-D + 2-D components + final all-particle averaging).
    MsdFull,
    /// 1-D spatially binned MSD.
    Msd1d,
    /// 2-D spatially binned MSD.
    Msd2d,
}

impl AnalysisKind {
    /// All kinds in the paper's Fig. 3 order.
    pub const ALL: [AnalysisKind; 5] = [
        AnalysisKind::Rdf,
        AnalysisKind::Vacf,
        AnalysisKind::Msd1d,
        AnalysisKind::Msd2d,
        AnalysisKind::MsdFull,
    ];

    /// The matching machine phase classification.
    pub(crate) fn phase_kind(self) -> theta_sim::PhaseKind {
        match self {
            AnalysisKind::Rdf => theta_sim::PhaseKind::AnalysisRdf,
            AnalysisKind::Vacf => theta_sim::PhaseKind::AnalysisVacf,
            AnalysisKind::MsdFull => theta_sim::PhaseKind::AnalysisMsd,
            AnalysisKind::Msd1d => theta_sim::PhaseKind::AnalysisMsd1d,
            AnalysisKind::Msd2d => theta_sim::PhaseKind::AnalysisMsd2d,
        }
    }

    /// Stable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            AnalysisKind::Rdf => "rdf",
            AnalysisKind::Vacf => "vacf",
            AnalysisKind::MsdFull => "msd",
            AnalysisKind::Msd1d => "msd1d",
            AnalysisKind::Msd2d => "msd2d",
        }
    }
}

/// One analysis instance with the benchmark's defaults: each kind's
/// accumulator, matched on to read its results.
#[derive(Debug, Clone)]
pub enum Analysis {
    /// [`AnalysisKind::Rdf`].
    Rdf(Rdf),
    /// [`AnalysisKind::Vacf`].
    Vacf(Vacf),
    /// [`AnalysisKind::MsdFull`], [`AnalysisKind::Msd1d`] or
    /// [`AnalysisKind::Msd2d`].
    Msd(Msd),
}

impl Analysis {
    /// Build the analysis `kind` names.
    pub fn new(kind: AnalysisKind) -> Self {
        match kind {
            AnalysisKind::Rdf => Analysis::Rdf(Rdf::new(RdfConfig::default())),
            AnalysisKind::Vacf => Analysis::Vacf(Vacf::new(VacfConfig::default())),
            AnalysisKind::MsdFull => Analysis::Msd(Msd::new(MsdConfig::full())),
            AnalysisKind::Msd1d => Analysis::Msd(Msd::new(MsdConfig::one_d())),
            AnalysisKind::Msd2d => Analysis::Msd(Msd::new(MsdConfig::two_d())),
        }
    }

    /// Process one snapshot; returns the work done.
    pub fn observe(&mut self, snap: &Snapshot<'_>) -> AnalysisWork {
        match self {
            Analysis::Rdf(a) => a.observe(snap),
            Analysis::Vacf(a) => a.observe(snap),
            Analysis::Msd(a) => a.observe(snap),
        }
    }
}
