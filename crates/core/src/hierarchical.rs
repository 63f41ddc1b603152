//! Hierarchical SeeSAw (paper §VIII, future work).
//!
//! "To add support for heterogeneous hardware within the simulation
//! (analysis) partition, power should be allocated through a hierarchical
//! decision-making process that breaks down SeeSAw's power allocation to
//! the individual compute units."
//!
//! Level 1 is exactly SeeSAw: the energy split between the two partitions.
//! Level 2 redistributes each partition's total across its *own* nodes in
//! proportion to their observed time (slower nodes — lower-binned silicon,
//! noisier neighborhoods — receive more than the partition mean), clamped
//! to the hardware limits and renormalized so the partition total is
//! preserved.

use crate::controller::Controller;
use crate::seesaw::{SeeSaw, SeeSawConfig};
use crate::types::{Allocation, Role, SyncObservation};

/// Hierarchical configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HierarchicalConfig {
    /// The partition-level SeeSAw configuration.
    pub seesaw: SeeSawConfig,
    /// Intra-partition skew exponent: per-node weight is
    /// `(t_node / t_mean)^gamma`. 0 disables level 2 (uniform split);
    /// 1 is fully proportional.
    pub gamma: f64,
}

/// The two-level controller.
#[derive(Debug, Clone)]
pub(crate) struct HierarchicalSeeSaw {
    cfg: HierarchicalConfig,
    inner: SeeSaw,
}

impl HierarchicalSeeSaw {
    /// Build the controller.
    pub(crate) fn new(cfg: HierarchicalConfig) -> Self {
        assert!(cfg.gamma >= 0.0, "gamma must be non-negative");
        HierarchicalSeeSaw { cfg, inner: SeeSaw::new(cfg.seesaw) }
    }

    /// Distribute `total_w` over the partition's nodes by time-proportional
    /// weights, clamped to limits and exactly renormalized.
    fn level2(&self, obs: &SyncObservation, role: Role, per_node_mean_w: f64) -> Vec<(usize, f64)> {
        let limits = self.cfg.seesaw.limits;
        let nodes: Vec<(usize, f64)> =
            obs.nodes.iter().filter(|n| n.role == role).map(|n| (n.node, n.time_s)).collect();
        if nodes.is_empty() {
            return Vec::new();
        }
        let n = nodes.len() as f64;
        let total_w = per_node_mean_w * n;
        let t_mean = nodes.iter().map(|&(_, t)| t).sum::<f64>() / n;
        if t_mean <= 0.0 || self.cfg.gamma == 0.0 {
            return nodes.iter().map(|&(id, _)| (id, per_node_mean_w)).collect();
        }
        // Raw time-proportional desires, then an exact water-filling
        // projection onto the δ box with the partition total as the sum
        // constraint: conservation is analytic (no residue loop, no leak),
        // and the total exceeds the level-1 share only when every node
        // pinned at δ_min makes it infeasible — a hardware floor the
        // level-1 clamp already accounts for.
        let desired: Vec<f64> = nodes
            .iter()
            .map(|&(_, t)| per_node_mean_w * (t / t_mean).powf(self.cfg.gamma))
            .collect();
        let caps =
            crate::waterfill::water_fill_uniform(&desired, limits.min_w, limits.max_w, total_w);
        nodes.iter().zip(caps).map(|(&(id, _), w)| (id, w)).collect()
    }
}

impl Controller for HierarchicalSeeSaw {
    fn name(&self) -> &'static str {
        "hierarchical-seesaw"
    }

    fn on_sync(&mut self, obs: &SyncObservation) -> Option<Allocation> {
        let mut alloc = self.inner.on_sync(obs)?;
        let mut per_node = self.level2(obs, Role::Simulation, alloc.sim_node_w);
        per_node.extend(self.level2(obs, Role::Analysis, alloc.analysis_node_w));
        alloc.per_node_w = per_node;
        Some(alloc)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn budget_w(&self) -> Option<f64> {
        self.inner.budget_w()
    }

    fn set_budget_w(&mut self, budget_w: f64) {
        if budget_w.is_finite() && budget_w > 0.0 {
            self.cfg.seesaw.budget_w = budget_w;
        }
        self.inner.set_budget_w(budget_w);
    }

    fn attach_tracer(&mut self, tracer: obs::Tracer) {
        self.inner.attach_tracer(tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Limits, NodeSample};

    fn obs_with_straggler() -> SyncObservation {
        SyncObservation {
            step: 1,
            nodes: vec![
                NodeSample {
                    node: 0,
                    role: Role::Simulation,
                    time_s: 4.0,
                    power_w: 108.0,
                    cap_w: 110.0,
                },
                NodeSample {
                    node: 1,
                    role: Role::Simulation,
                    time_s: 5.0,
                    power_w: 108.0,
                    cap_w: 110.0,
                },
                NodeSample {
                    node: 2,
                    role: Role::Analysis,
                    time_s: 2.0,
                    power_w: 100.0,
                    cap_w: 110.0,
                },
                NodeSample {
                    node: 3,
                    role: Role::Analysis,
                    time_s: 2.0,
                    power_w: 100.0,
                    cap_w: 110.0,
                },
            ],
        }
    }

    fn cfg() -> HierarchicalConfig {
        HierarchicalConfig {
            seesaw: SeeSawConfig {
                budget_w: 440.0,
                window: 1,
                limits: Limits::theta(),
                ewma: crate::seesaw::EwmaMode::BlendPrevious,
                skip_step_zero: false,
            },
            gamma: 1.0,
        }
    }

    #[test]
    fn slower_node_gets_more_power_within_partition() {
        let mut c = HierarchicalSeeSaw::new(cfg());
        let alloc = c.on_sync(&obs_with_straggler()).unwrap();
        let cap0 = alloc.cap_for(0, Role::Simulation);
        let cap1 = alloc.cap_for(1, Role::Simulation);
        assert!(cap1 > cap0, "straggler node 1 should get more: {cap0} vs {cap1}");
        // Equal-time analysis nodes stay equal.
        let cap2 = alloc.cap_for(2, Role::Analysis);
        let cap3 = alloc.cap_for(3, Role::Analysis);
        assert!((cap2 - cap3).abs() < 1e-9);
    }

    #[test]
    fn partition_total_is_preserved_by_level2() {
        let mut c = HierarchicalSeeSaw::new(cfg());
        let alloc = c.on_sync(&obs_with_straggler()).unwrap();
        let sim_total: f64 = [0, 1].iter().map(|&n| alloc.cap_for(n, Role::Simulation)).sum();
        assert!(
            (sim_total - 2.0 * alloc.sim_node_w).abs() < 1e-6,
            "level 2 must conserve the level-1 total: {sim_total} vs {}",
            2.0 * alloc.sim_node_w
        );
    }

    #[test]
    fn extreme_straggler_conserves_partition_total() {
        // Node 1 is 25x slower than node 0: its desire saturates at δ_max
        // and the water-filling must hand the residue back to node 0 so the
        // partition total is conserved exactly (the old residue loop leaked
        // here), unless δ bounds make conservation infeasible.
        let mut c = HierarchicalSeeSaw::new(cfg());
        let mut o = obs_with_straggler();
        o.nodes[1].time_s = 100.0;
        let alloc = c.on_sync(&o).unwrap();
        let sim_total: f64 = [0, 1].iter().map(|&n| alloc.cap_for(n, Role::Simulation)).sum();
        let share = 2.0 * alloc.sim_node_w;
        let l = Limits::theta();
        if share >= 2.0 * l.min_w && share <= 2.0 * l.max_w {
            assert!(
                (sim_total - share).abs() < 1e-6,
                "extreme straggler must not leak power: {sim_total} vs {share}"
            );
        }
        assert!(alloc.cap_for(1, Role::Simulation) >= alloc.cap_for(0, Role::Simulation));
    }

    #[test]
    fn gamma_zero_degenerates_to_plain_seesaw() {
        let mut hier = HierarchicalSeeSaw::new(HierarchicalConfig { gamma: 0.0, ..cfg() });
        let mut plain = SeeSaw::new(cfg().seesaw);
        let o = obs_with_straggler();
        let a = hier.on_sync(&o).unwrap();
        let b = plain.on_sync(&o).unwrap();
        assert_eq!(a.sim_node_w, b.sim_node_w);
        for n in 0..2 {
            assert!((a.cap_for(n, Role::Simulation) - b.sim_node_w).abs() < 1e-9);
        }
    }

    #[test]
    fn all_caps_respect_limits() {
        let mut c = HierarchicalSeeSaw::new(cfg());
        // Extreme straggler.
        let mut o = obs_with_straggler();
        o.nodes[1].time_s = 100.0;
        let alloc = c.on_sync(&o).unwrap();
        for n in 0..4 {
            let role = if n < 2 { Role::Simulation } else { Role::Analysis };
            let w = alloc.cap_for(n, role);
            assert!((98.0..=215.0).contains(&w), "node {n}: {w}");
        }
    }
}
