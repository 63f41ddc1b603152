//! Work phases.
//!
//! The controller under study never sees physics — it sees *phases*: spans
//! of work with a characteristic maximum useful power draw ("demand"). A
//! compute-bound force loop can convert extra watts into speed up to a high
//! demand; a communication or I/O phase saturates near the machine's wait
//! power and gains nothing from a generous cap. This module defines the
//! phase vocabulary the MD proxy emits and the cluster model consumes.

use crate::config::MachineConfig;

/// Classification of a span of work on a node.
///
/// Demands follow the paper's characterization (§VI-C): MSD has high CPU and
/// memory utilization, MSD2D is memory-intensive (less than MSD), RDF is
/// compute-bound with higher memory needs than VACF and MSD1D, which have
/// low memory and CPU utilization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Velocity-Verlet initial/final integration (compute-bound).
    Integrate,
    /// Pairwise force computation (compute-bound; LAMMPS saturates ~140 W).
    Force,
    /// Neighbor-list rebuild (communication + memory intensive).
    NeighborRebuild,
    /// Simulation↔analysis synchronization exchange (steps 2–4 of the
    /// Verlet-Splitanalysis flow; communication-bound, low power).
    SyncExchange,
    /// Thermodynamic output at end of step (communication- and I/O-bound).
    ThermoIo,
    /// Radial distribution function analysis (compute-bound, higher memory
    /// than VACF/MSD1D).
    AnalysisRdf,
    /// Velocity auto-correlation analysis (low CPU and memory).
    AnalysisVacf,
    /// Full mean-squared-displacement analysis (high CPU and memory).
    AnalysisMsd,
    /// 1-D binned MSD (low CPU and memory).
    AnalysisMsd1d,
    /// 2-D binned MSD (memory-intensive, less than full MSD).
    AnalysisMsd2d,
    /// Blocked at a synchronization point waiting for the peer partition.
    Wait,
}

impl PhaseKind {
    /// Maximum useful power draw for this phase on the given machine, watts.
    /// Capping above the demand yields no further speedup; the node also
    /// never draws more than the demand.
    pub(crate) fn demand_w(self, m: &MachineConfig) -> f64 {
        m.power_scale() * self.base_demand_w(m)
    }

    fn base_demand_w(self, m: &MachineConfig) -> f64 {
        match self {
            PhaseKind::Integrate => 142.0,
            PhaseKind::Force => 145.0,
            PhaseKind::NeighborRebuild => 124.0,
            PhaseKind::SyncExchange => 108.0,
            PhaseKind::ThermoIo => 106.0,
            PhaseKind::AnalysisRdf => 135.0,
            PhaseKind::AnalysisVacf => 114.0,
            PhaseKind::AnalysisMsd => 145.0,
            PhaseKind::AnalysisMsd1d => 112.0,
            PhaseKind::AnalysisMsd2d => 125.0,
            PhaseKind::Wait => m.wait_power_w / m.power_scale(),
        }
    }

    /// Power *sensitivity*: the fraction of this phase's progress rate that
    /// scales with power. Compute-bound kernels convert extra watts into
    /// speed almost 1:1; memory- and communication-bound phases barely
    /// respond (on KNL the MCDRAM and the NIC do not speed up with a higher
    /// package cap). This is the paper's "power utilization" effect: the
    /// simulation "is not able to utilize the assigned 120 W" (§VII-B1) and
    /// low time difference at low power "is not indicative of an
    /// energy-efficient state" (§VII-B3).
    pub(crate) fn sensitivity(self) -> f64 {
        match self {
            PhaseKind::Integrate => 0.95,
            PhaseKind::Force => 1.0,
            PhaseKind::NeighborRebuild => 0.55,
            PhaseKind::SyncExchange => 0.30,
            PhaseKind::ThermoIo => 0.25,
            PhaseKind::AnalysisRdf => 0.85,
            PhaseKind::AnalysisVacf => 0.60,
            PhaseKind::AnalysisMsd => 0.50,
            PhaseKind::AnalysisMsd1d => 0.60,
            PhaseKind::AnalysisMsd2d => 0.35,
            PhaseKind::Wait => 0.0,
        }
    }

    /// True for phases that represent blocking rather than forward progress.
    pub(crate) fn is_wait(self) -> bool {
        matches!(self, PhaseKind::Wait)
    }

    /// Stable lowercase tag for serialized traces.
    pub fn tag(self) -> &'static str {
        match self {
            PhaseKind::Integrate => "integrate",
            PhaseKind::Force => "force",
            PhaseKind::NeighborRebuild => "neighbor_rebuild",
            PhaseKind::SyncExchange => "sync_exchange",
            PhaseKind::ThermoIo => "thermo_io",
            PhaseKind::AnalysisRdf => "analysis_rdf",
            PhaseKind::AnalysisVacf => "analysis_vacf",
            PhaseKind::AnalysisMsd => "analysis_msd",
            PhaseKind::AnalysisMsd1d => "analysis_msd1d",
            PhaseKind::AnalysisMsd2d => "analysis_msd2d",
            PhaseKind::Wait => "wait",
        }
    }

    /// All productive (non-wait) phase kinds; useful for tests and sweeps.
    pub fn all_productive() -> &'static [PhaseKind] {
        &[
            PhaseKind::Integrate,
            PhaseKind::Force,
            PhaseKind::NeighborRebuild,
            PhaseKind::SyncExchange,
            PhaseKind::ThermoIo,
            PhaseKind::AnalysisRdf,
            PhaseKind::AnalysisVacf,
            PhaseKind::AnalysisMsd,
            PhaseKind::AnalysisMsd1d,
            PhaseKind::AnalysisMsd2d,
        ]
    }
}

/// A quantum of work to execute on one node.
///
/// `ref_secs` is the wall time the work takes at the machine's reference
/// effective power ([`MachineConfig::ref_power_w`]) on a nominal node;
/// the actual duration scales with the power cap through the linear
/// power→rate model of [`rate`](crate::rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Work {
    /// Phase classification (fixes demand ceiling and power sensitivity).
    pub kind: PhaseKind,
    /// Duration at reference power, seconds.
    pub ref_secs: f64,
    /// Multiplier on the phase's demand ceiling (≤ 1 for small per-node
    /// problems that cannot keep all 64 KNL cores fed — the workload
    /// generator sets this from atoms-per-node).
    pub demand_scale: f64,
}

impl Work {
    /// A work quantum of `ref_secs` seconds at reference power, with the
    /// kind's nominal demand.
    pub fn new(kind: PhaseKind, ref_secs: f64) -> Self {
        Self::scaled(kind, ref_secs, 1.0)
    }

    /// A work quantum with an explicit demand scale.
    pub fn scaled(kind: PhaseKind, ref_secs: f64, demand_scale: f64) -> Self {
        assert!(
            ref_secs.is_finite() && ref_secs >= 0.0,
            "work must be finite and non-negative, got {ref_secs}"
        );
        assert!(
            demand_scale.is_finite() && demand_scale > 0.0,
            "demand scale must be positive, got {demand_scale}"
        );
        Work { kind, ref_secs, demand_scale }
    }

    /// Zero-length work (useful as a neutral element when composing).
    pub(crate) fn none(kind: PhaseKind) -> Self {
        Work { kind, ref_secs: 0.0, demand_scale: 1.0 }
    }

    /// Effective demand ceiling on the given machine, watts (never below
    /// the machine's wait power — an active phase draws at least that).
    pub(crate) fn demand_w(&self, m: &MachineConfig) -> f64 {
        (self.kind.demand_w(m) * self.demand_scale).max(m.wait_power_w.min(self.kind.demand_w(m)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_ordering_matches_paper_characterization() {
        let m = MachineConfig::theta();
        let d = |k: PhaseKind| k.demand_w(&m);
        // MSD is the high-demand analysis.
        assert!(d(PhaseKind::AnalysisMsd) > d(PhaseKind::AnalysisMsd2d));
        // MSD2D memory-intensive but less than MSD; more than the low-demand pair.
        assert!(d(PhaseKind::AnalysisMsd2d) > d(PhaseKind::AnalysisMsd1d));
        assert!(d(PhaseKind::AnalysisMsd2d) > d(PhaseKind::AnalysisVacf));
        // RDF compute-bound: above VACF and MSD1D.
        assert!(d(PhaseKind::AnalysisRdf) > d(PhaseKind::AnalysisVacf));
        assert!(d(PhaseKind::AnalysisRdf) > d(PhaseKind::AnalysisMsd1d));
        // Communication phases sit near wait power.
        assert!(d(PhaseKind::SyncExchange) < d(PhaseKind::NeighborRebuild));
        assert!((d(PhaseKind::ThermoIo) - m.wait_power_w).abs() < 5.0);
    }

    #[test]
    fn demands_are_within_machine_range() {
        let m = MachineConfig::theta();
        for &k in PhaseKind::all_productive() {
            let d = k.demand_w(&m);
            assert!(d > m.floor_w && d <= m.tdp_w, "{k:?} demand {d} out of range");
        }
    }

    #[test]
    #[should_panic]
    fn work_rejects_negative() {
        let _ = Work::new(PhaseKind::Force, -1.0);
    }

    #[test]
    fn wait_is_wait() {
        assert!(PhaseKind::Wait.is_wait());
        assert!(!PhaseKind::Force.is_wait());
    }
}
