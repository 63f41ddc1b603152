//! The strictly power-aware baseline (SLURM-style, paper §II).
//!
//! SLURM's power management shifts excess power from nodes *below* their
//! cap to nodes *at* their cap, dividing the excess evenly among the nodes
//! that need more, at fixed intervals. It is application-oblivious: it only
//! ever looks at measured power, so it "takes action only if nodes are at
//! the power cap, otherwise it assumes the application has available
//! power" (paper §VII-A) — and it has no notion of whether a recipient can
//! convert the extra watts into speed.
//!
//! Per the paper's methodology (§VI-B), this implementation is invoked at
//! each simulation↔analysis synchronization (not on a wall-clock timer,
//! which would behave even worse with non-uniform workloads), and the
//! window `w` applies.

use crate::controller::Controller;
use crate::node_map::NodeMap;
use crate::types::{Allocation, Limits, SyncObservation};

/// Power-aware configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PowerAwareConfig {
    /// Global power budget, watts (only used to seed missing cap state).
    pub budget_w: f64,
    /// Reallocate every `window` synchronizations.
    pub window: usize,
    /// Hardware per-node cap limits.
    pub limits: Limits,
    /// A node counts as "at the cap" when its measured power is within this
    /// margin of its cap, watts.
    pub at_cap_margin_w: f64,
    /// Headroom left above a donor's measured power when lowering its cap,
    /// watts.
    pub headroom_w: f64,
}

impl PowerAwareConfig {
    /// Defaults mirroring the paper's setup.
    pub(crate) fn paper_default(n_nodes: usize) -> Self {
        PowerAwareConfig {
            budget_w: 110.0 * n_nodes as f64,
            window: 1,
            limits: Limits::theta(),
            at_cap_margin_w: 2.0,
            headroom_w: 1.0,
        }
    }
}

/// The SLURM-style power-aware controller.
#[derive(Debug, Clone)]
pub struct PowerAware {
    cfg: PowerAwareConfig,
    /// Current per-node caps, watts.
    pub(crate) caps: NodeMap,
    /// Measured power summed over the window so far.
    pub(crate) window_power: NodeMap,
    window_count: usize,
    /// Per-decision scratch: below-cap nodes with their mean power, and
    /// the nodes pinned at their cap.
    donors: Vec<(usize, f64)>,
    claimants: Vec<usize>,
}

impl PowerAware {
    /// Build a controller.
    pub(crate) fn new(cfg: PowerAwareConfig) -> Self {
        assert!(cfg.window >= 1);
        PowerAware {
            cfg,
            caps: NodeMap::default(),
            window_power: NodeMap::default(),
            window_count: 0,
            donors: Vec::new(),
            claimants: Vec::new(),
        }
    }

    /// Shift the window's excess from donors to claimants. Returns whether
    /// any cap moved. `denom` is the number of syncs in the window.
    fn rebalance(&mut self, obs: &SyncObservation, denom: f64) -> bool {
        // Partition nodes into donors (below cap) and claimants (at cap).
        self.donors.clear();
        self.claimants.clear();
        for s in &obs.nodes {
            let cap = self.caps.get(s.node);
            let p = self.window_power.get(s.node) / denom;
            if p >= cap - self.cfg.at_cap_margin_w {
                self.claimants.push(s.node);
            } else if cap - p > self.cfg.headroom_w {
                self.donors.push((s.node, p));
            }
        }
        // SLURM only acts when someone is pinned at the cap.
        if self.claimants.is_empty() || self.donors.is_empty() {
            return false;
        }
        // Harvest excess from donors.
        let mut pool = 0.0;
        for &(n, p) in &self.donors {
            let cap = self.caps.get_mut(n);
            let floor = (p + self.cfg.headroom_w).max(self.cfg.limits.min_w);
            let give = (*cap - floor).max(0.0);
            if give > 0.0 {
                *cap -= give;
                pool += give;
            }
        }
        if pool <= 0.0 {
            return false;
        }
        // Divide evenly among claimants, respecting δ_max; watts a claimant
        // cannot absorb stay unallocated this round (SLURM re-harvests next
        // interval).
        let share = pool / self.claimants.len() as f64;
        for &n in &self.claimants {
            let cap = self.caps.get_mut(n);
            *cap = self.cfg.limits.clamp(*cap + share);
        }
        true
    }
}

impl Controller for PowerAware {
    fn name(&self) -> &'static str {
        "power-aware"
    }

    fn on_sync(&mut self, obs: &SyncObservation) -> Option<Allocation> {
        if obs.nodes.is_empty() {
            return None;
        }
        // Forget dropped nodes, then seed cap state from the observation on
        // first contact.
        self.caps.sync_to(&obs.nodes);
        for s in &obs.nodes {
            *self.window_power.entry_or(s.node, 0.0) += s.power_w;
        }
        self.window_count += 1;
        if self.window_count < self.cfg.window {
            return None;
        }
        let denom = self.window_count as f64;
        self.window_count = 0;
        let moved = self.rebalance(obs, denom);
        self.window_power.clear();
        if !moved {
            return None;
        }
        Some(self.caps.allocation(obs))
    }

    fn reset(&mut self) {
        self.caps.clear();
        self.window_power.clear();
        self.window_count = 0;
    }

    fn budget_w(&self) -> Option<f64> {
        Some(self.cfg.budget_w)
    }

    fn set_budget_w(&mut self, budget_w: f64) {
        if budget_w.is_finite() && budget_w > 0.0 {
            self.cfg.budget_w = budget_w;
            self.caps.shrink_to_budget(budget_w, self.cfg.limits.min_w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{NodeSample, Role};

    fn sample(node: usize, role: Role, power_w: f64, cap_w: f64) -> NodeSample {
        NodeSample { node, role, time_s: 1.0, power_w, cap_w }
    }

    fn cfg() -> PowerAwareConfig {
        PowerAwareConfig::paper_default(2)
    }

    #[test]
    fn shifts_from_idle_to_pinned() {
        let mut c = PowerAware::new(cfg());
        // Node 0 pinned at 110 W cap; node 1 drawing only 100 W.
        let obs = SyncObservation {
            step: 1,
            nodes: vec![
                sample(0, Role::Simulation, 109.5, 110.0),
                sample(1, Role::Analysis, 100.0, 110.0),
            ],
        };
        let alloc = c.on_sync(&obs).expect("should act");
        let cap0 = alloc.cap_for(0, Role::Simulation);
        let cap1 = alloc.cap_for(1, Role::Analysis);
        assert!(cap0 > 110.0, "pinned node gains: {cap0}");
        assert!(cap1 < 110.0, "idle node donates: {cap1}");
        // Donor keeps measured + headroom.
        assert!((cap1 - 101.0).abs() < 1e-9, "{cap1}");
    }

    #[test]
    fn no_action_when_nobody_at_cap() {
        let mut c = PowerAware::new(cfg());
        let obs = SyncObservation {
            step: 1,
            nodes: vec![
                sample(0, Role::Simulation, 100.0, 110.0),
                sample(1, Role::Analysis, 99.0, 110.0),
            ],
        };
        assert!(c.on_sync(&obs).is_none(), "SLURM assumes power is available");
    }

    #[test]
    fn no_action_when_everyone_at_cap() {
        let mut c = PowerAware::new(cfg());
        let obs = SyncObservation {
            step: 1,
            nodes: vec![
                sample(0, Role::Simulation, 109.9, 110.0),
                sample(1, Role::Analysis, 109.5, 110.0),
            ],
        };
        assert!(c.on_sync(&obs).is_none(), "no donors -> nothing to shift");
    }

    #[test]
    fn caps_respect_limits() {
        let mut c = PowerAware::new(PowerAwareConfig {
            limits: Limits { min_w: 98.0, max_w: 120.0 },
            ..cfg()
        });
        let obs = SyncObservation {
            step: 1,
            nodes: vec![
                sample(0, Role::Simulation, 118.0, 118.0),
                sample(1, Role::Analysis, 90.0, 118.0),
            ],
        };
        let alloc = c.on_sync(&obs).unwrap();
        assert!(alloc.cap_for(0, Role::Simulation) <= 120.0);
        assert!(alloc.cap_for(1, Role::Analysis) >= 98.0);
    }

    #[test]
    fn window_accumulates_before_acting() {
        let mut c = PowerAware::new(PowerAwareConfig { window: 2, ..cfg() });
        let obs = SyncObservation {
            step: 1,
            nodes: vec![
                sample(0, Role::Simulation, 109.5, 110.0),
                sample(1, Role::Analysis, 100.0, 110.0),
            ],
        };
        assert!(c.on_sync(&obs).is_none());
        assert!(c.on_sync(&obs).is_some());
    }

    #[test]
    fn respects_noise_blindly() {
        // The power-aware scheme has no efficiency metric: it will donate
        // from a node that is merely in a low-power *phase*, which is
        // exactly the pathology the paper demonstrates.
        let mut c = PowerAware::new(cfg());
        let obs = SyncObservation {
            step: 1,
            nodes: vec![
                sample(0, Role::Simulation, 109.9, 110.0),
                sample(1, Role::Analysis, 104.0, 110.0), // waiting at sync
            ],
        };
        let alloc = c.on_sync(&obs).unwrap();
        assert!(alloc.cap_for(1, Role::Analysis) < 110.0);
    }

    #[test]
    fn total_power_never_grows() {
        let mut c = PowerAware::new(cfg());
        let mut caps = [110.0_f64, 110.0];
        for step in 1..20 {
            let obs = SyncObservation {
                step,
                nodes: vec![
                    sample(0, Role::Simulation, caps[0] - 0.5, caps[0]),
                    sample(1, Role::Analysis, 100.0_f64.min(caps[1]), caps[1]),
                ],
            };
            if let Some(a) = c.on_sync(&obs) {
                caps[0] = a.cap_for(0, Role::Simulation);
                caps[1] = a.cap_for(1, Role::Analysis);
            }
            assert!(caps[0] + caps[1] <= 220.0 + 1e-9, "budget violated: {caps:?}");
        }
    }
}
