//! Job configuration for one in-situ run.

use faults::FaultPlan;
use mdsim::workload::WorkloadSpec;
use theta_sim::{CapMode, MachineConfig, NoiseSeed};

/// Everything needed to execute one run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobConfig {
    /// The workload (problem size, partitions, analyses, j).
    pub workload: WorkloadSpec,
    /// Controller: one of [`seesaw::CONTROLLER_NAMES`].
    pub controller: String,
    /// Global budget per node, watts (budget C = this × total nodes).
    pub budget_per_node_w: f64,
    /// SeeSAw's window `w` (ignored by controllers it does not apply to).
    pub window: usize,
    /// RAPL capping mode.
    pub cap_mode: CapMode,
    /// Initial per-node cap for simulation nodes (defaults to the budget
    /// per node; Fig. 7 starts unbalanced).
    pub initial_sim_cap_w: Option<f64>,
    /// Initial per-node cap for analysis nodes.
    pub initial_analysis_cap_w: Option<f64>,
    /// Noise seed (job identity + run identity).
    pub seed: NoiseSeed,
    /// Record 200 ms power traces (Fig. 1's `fig1_trace` and the
    /// `power_trace` example set it); costs memory.
    pub record_traces: bool,
    /// The machine model (a Theta node by default; a scaled config models
    /// finer power domains, e.g. per-half-socket co-location — §III).
    pub machine: MachineConfig,
    /// Deterministic fault schedule. [`FaultPlan::none`] (the default)
    /// injects nothing and leaves the run byte-identical to a fault-free
    /// build.
    pub faults: FaultPlan,
    /// Silence the noise model entirely (all sigmas zero, nominal
    /// efficiencies). The nodes of a quiet partition capped at or above
    /// [`theta_sim::CLIFF_START_W`] draw no jitter, and share one
    /// operating-point evaluation per distinct cap and phase
    /// ([`theta_sim::Cluster::walk`]) — the scaling configuration for
    /// full-Theta node counts.
    pub quiet_noise: bool,
}

impl JobConfig {
    /// Paper-default configuration for a workload and controller.
    pub fn new(workload: WorkloadSpec, controller: &str) -> Self {
        JobConfig {
            workload,
            controller: controller.to_string(),
            budget_per_node_w: 110.0,
            window: 1,
            cap_mode: CapMode::Long,
            initial_sim_cap_w: None,
            initial_analysis_cap_w: None,
            seed: NoiseSeed::new(1, 0),
            record_traces: false,
            machine: MachineConfig::theta(),
            faults: FaultPlan::none(),
            quiet_noise: false,
        }
    }

    /// Global power budget, watts.
    pub fn budget_w(&self) -> f64 {
        self.budget_per_node_w * self.workload.nodes_total() as f64
    }

    /// Initial per-node cap on the simulation partition.
    pub(crate) fn sim_cap0_w(&self) -> f64 {
        self.initial_sim_cap_w.unwrap_or(self.budget_per_node_w)
    }

    /// Initial per-node cap on the analysis partition.
    pub(crate) fn analysis_cap0_w(&self) -> f64 {
        self.initial_analysis_cap_w.unwrap_or(self.budget_per_node_w)
    }

    /// The static baseline this run is paired with: the same job
    /// (identical placement), controller `static`, the next run seed —
    /// how the paper sidesteps job-to-job variability (§VII-A).
    pub fn static_baseline(&self) -> Self {
        let mut base = self.clone();
        base.controller = "static".to_string();
        base.seed.run = self.seed.run + 1;
        base
    }

    /// Builder: set the seed.
    pub fn with_seed(mut self, job: u64, run: u64) -> Self {
        self.seed = NoiseSeed::new(job, run);
        self
    }

    /// Builder: set the per-node budget (Fig. 8 sweeps this).
    pub fn with_budget(mut self, per_node_w: f64) -> Self {
        self.budget_per_node_w = per_node_w;
        self
    }

    /// Builder: set SeeSAw's window `w`.
    pub fn with_window(mut self, w: usize) -> Self {
        self.window = w;
        self
    }

    /// Builder: unbalanced initial caps (Fig. 7).
    pub fn with_initial_caps(mut self, sim_w: f64, analysis_w: f64) -> Self {
        self.initial_sim_cap_w = Some(sim_w);
        self.initial_analysis_cap_w = Some(analysis_w);
        self
    }

    /// Builder: enable trace recording.
    pub fn with_traces(mut self) -> Self {
        self.record_traces = true;
        self
    }

    /// Builder: attach a deterministic fault schedule.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Builder: silence the noise model (a partition's nodes then share one
    /// operating-point evaluation per distinct cap and phase).
    pub fn with_quiet_noise(mut self) -> Self {
        self.quiet_noise = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::AnalysisKind;

    #[test]
    fn defaults_match_paper() {
        let spec = WorkloadSpec::paper(16, 128, 1, &[AnalysisKind::MsdFull]);
        let cfg = JobConfig::new(spec, "seesaw");
        assert_eq!(cfg.budget_per_node_w, 110.0);
        assert_eq!(cfg.budget_w(), 110.0 * 128.0);
        assert_eq!(cfg.sim_cap0_w(), 110.0);
        assert_eq!(cfg.window, 1);
        assert_eq!(cfg.cap_mode, CapMode::Long);
    }

    #[test]
    fn builders_apply() {
        let spec = WorkloadSpec::paper(16, 8, 1, &[AnalysisKind::Vacf]);
        let cfg = JobConfig::new(spec, "static")
            .with_budget(120.0)
            .with_window(5)
            .with_initial_caps(120.0, 100.0)
            .with_seed(7, 3);
        assert_eq!(cfg.budget_w(), 120.0 * 8.0);
        assert_eq!(cfg.window, 5);
        assert_eq!(cfg.sim_cap0_w(), 120.0);
        assert_eq!(cfg.analysis_cap0_w(), 100.0);
        assert_eq!(cfg.seed, theta_sim::NoiseSeed::new(7, 3));
    }
}
