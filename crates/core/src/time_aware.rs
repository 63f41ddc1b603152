//! The strictly time-aware baseline (GEOPM power-balancer-style, §II).
//!
//! GEOPM's power balancer watches only *time*: at the end of each
//! application loop it designates a target runtime some percentage below
//! the maximum per-node median runtime, takes a fixed amount of power from
//! nodes faster than the target and gives it to the slower ones. The power
//! step decays over time to a configured minimum, and slack power (budget
//! not currently assigned) is redistributed to all nodes equally.
//!
//! The paper shows two failure modes this faithful reimplementation
//! reproduces: (1) an early wrong read (e.g. transient simulation setup
//! overhead) picks a direction and the decaying step cannot undo it; and
//! (2) when the two partitions alternate as slowest, donations cancel and
//! no net power moves even though the distribution is inefficient.
//!
//! Per the paper's methodology it is invoked at every synchronization and
//! the window `w` has no effect.

use crate::controller::Controller;
use crate::node_map::NodeMap;
use crate::types::{Allocation, Limits, SyncObservation};

/// Time-aware configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TimeAwareConfig {
    /// Global power budget, watts.
    pub budget_w: f64,
    /// Hardware per-node cap limits.
    pub limits: Limits,
    /// Target runtime is `(1 − margin) × max(median node time)`; larger
    /// margins make the algorithm more reactive.
    pub margin: f64,
    /// Initial per-adjustment power step, watts.
    pub initial_step_w: f64,
    /// Multiplicative decay applied to the step after every adjustment.
    pub step_decay: f64,
    /// Floor for the power step, watts (user-configured minimum rate).
    pub min_step_w: f64,
}

impl TimeAwareConfig {
    /// Defaults mirroring GEOPM's balancer behaviour at paper scale.
    pub(crate) fn paper_default(n_nodes: usize) -> Self {
        TimeAwareConfig {
            budget_w: 110.0 * n_nodes as f64,
            limits: Limits::theta(),
            margin: 0.02,
            initial_step_w: 8.0,
            step_decay: 0.5,
            // GEOPM's balancer converges: once the rate of change has
            // decayed, it effectively stops adapting — which is why an
            // early wrong direction cannot be undone (paper §VII-B1).
            min_step_w: 0.02,
        }
    }
}

/// The GEOPM-style time-aware controller.
#[derive(Debug, Clone)]
pub(crate) struct TimeAware {
    cfg: TimeAwareConfig,
    pub(crate) caps: NodeMap,
    step_w: f64,
}

impl TimeAware {
    /// Build a controller.
    pub(crate) fn new(cfg: TimeAwareConfig) -> Self {
        assert!(cfg.margin >= 0.0 && cfg.margin < 1.0);
        assert!(cfg.step_decay > 0.0 && cfg.step_decay <= 1.0);
        TimeAware { cfg, caps: NodeMap::default(), step_w: cfg.initial_step_w }
    }
}

impl Controller for TimeAware {
    fn name(&self) -> &'static str {
        "time-aware"
    }

    fn on_sync(&mut self, obs: &SyncObservation) -> Option<Allocation> {
        if obs.nodes.len() < 2 {
            return None;
        }
        // Forget nodes that have left the observation (dropouts): their
        // assigned watts must return to the slack pool, not stay reserved.
        self.caps.sync_to(&obs.nodes);
        let max_t = obs.nodes.iter().map(|s| s.time_s).fold(f64::MIN, f64::max);
        if max_t <= 0.0 || max_t.is_nan() {
            return None;
        }
        let target = (1.0 - self.cfg.margin) * max_t;
        let limits = self.cfg.limits;

        // Fast nodes donate up to one step (down to δ_min); slow nodes
        // receive. The donation scales with how far below the target a node
        // sits (GEOPM lowers a node's budget *until its runtime meets the
        // target*, so nodes already near it barely move). Who donates and
        // who receives depends on the observed times alone, so the donors
        // give in this pass and the receivers are only counted.
        let mut pool = 0.0;
        let mut receivers = 0usize;
        for s in &obs.nodes {
            if s.time_s < target {
                let deficit = ((target - s.time_s) / (0.1 * target)).clamp(0.0, 1.0);
                let cap = self.caps.get_mut(s.node);
                let give = (*cap - limits.min_w).min(self.step_w * deficit).max(0.0);
                if give > 0.0 {
                    *cap -= give;
                    pool += give;
                }
            } else if s.time_s >= target {
                receivers += 1;
            }
        }
        if receivers > 0 && pool > 0.0 {
            let share = pool / receivers as f64;
            for s in obs.nodes.iter().filter(|s| s.time_s >= target) {
                let cap = self.caps.get_mut(s.node);
                *cap = limits.clamp(*cap + share);
            }
        }
        // Redistribute slack (budget minus what is currently assigned)
        // evenly to all nodes, respecting δ_max.
        let assigned: f64 = self.caps.values().sum();
        let slack = self.cfg.budget_w - assigned;
        if slack > 1e-9 {
            let share = slack / self.caps.len() as f64;
            for cap in self.caps.values_mut() {
                *cap = limits.clamp(*cap + share);
            }
        }
        // Decay the rate of change down to the configured minimum.
        self.step_w = (self.step_w * self.cfg.step_decay).max(self.cfg.min_step_w);
        Some(self.caps.allocation(obs))
    }

    fn reset(&mut self) {
        self.caps.clear();
        self.step_w = self.cfg.initial_step_w;
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

    fn sample(node: usize, role: Role, time_s: f64, cap_w: f64) -> NodeSample {
        NodeSample { node, role, time_s, power_w: cap_w - 1.0, cap_w }
    }

    fn cfg() -> TimeAwareConfig {
        TimeAwareConfig::paper_default(2)
    }

    #[test]
    fn shifts_power_from_fast_to_slow() {
        let mut c = TimeAware::new(cfg());
        let obs = SyncObservation {
            step: 1,
            nodes: vec![
                sample(0, Role::Simulation, 4.0, 110.0), // slow
                sample(1, Role::Analysis, 2.0, 110.0),   // fast
            ],
        };
        let alloc = c.on_sync(&obs).unwrap();
        assert!(alloc.cap_for(0, Role::Simulation) > 110.0);
        assert!(alloc.cap_for(1, Role::Analysis) < 110.0);
    }

    #[test]
    fn step_decays_to_minimum() {
        let mut c = TimeAware::new(cfg());
        let obs = SyncObservation {
            step: 1,
            nodes: vec![
                sample(0, Role::Simulation, 4.0, 110.0),
                sample(1, Role::Analysis, 2.0, 110.0),
            ],
        };
        let first = c.step_w;
        for _ in 0..60 {
            let _ = c.on_sync(&obs);
        }
        assert!(c.step_w < first);
        assert!((c.step_w - cfg().min_step_w).abs() < 1e-12);
    }

    #[test]
    fn alternating_slowest_cancels_out() {
        // The paper's observed pathology: once sim and analysis alternate as
        // the slowest, no *net* power moves over time — whatever skew the
        // early (large-step) rounds locked in persists.
        let mut c = TimeAware::new(cfg());
        let mut caps = [110.0_f64, 110.0];
        let mut snapshot_mid = caps;
        for step in 1..=40 {
            let (t0, t1) = if step % 2 == 0 { (4.0, 2.0) } else { (2.0, 4.0) };
            let obs = SyncObservation {
                step,
                nodes: vec![
                    sample(0, Role::Simulation, t0, caps[0]),
                    sample(1, Role::Analysis, t1, caps[1]),
                ],
            };
            if let Some(a) = c.on_sync(&obs) {
                caps[0] = a.cap_for(0, Role::Simulation);
                caps[1] = a.cap_for(1, Role::Analysis);
            }
            if step == 20 {
                snapshot_mid = caps;
            }
        }
        // Net movement between sync 20 and sync 40 is bounded by the decayed
        // minimum step: the distribution is stuck, not converging.
        assert!(
            (caps[0] - snapshot_mid[0]).abs() <= 2.0 * cfg().min_step_w + 1e-9,
            "{caps:?} vs {snapshot_mid:?}"
        );
        // And neither side has drifted off to a limit.
        assert!(caps[0] > 100.0 && caps[1] > 100.0, "{caps:?}");
    }

    #[test]
    fn early_direction_locks_in() {
        // A transiently slow node keeps its power advantage: after the
        // transient, alternation + decayed steps cannot restore balance.
        let mut c = TimeAware::new(cfg());
        let mut caps = [110.0_f64, 110.0];
        // Phase 1: node 0 looks slow for 5 syncs (setup overhead).
        for step in 1..=5 {
            let obs = SyncObservation {
                step,
                nodes: vec![
                    sample(0, Role::Simulation, 5.0, caps[0]),
                    sample(1, Role::Analysis, 3.0, caps[1]),
                ],
            };
            if let Some(a) = c.on_sync(&obs) {
                caps[0] = a.cap_for(0, Role::Simulation);
                caps[1] = a.cap_for(1, Role::Analysis);
            }
        }
        let advantage_after_transient = caps[0] - caps[1];
        assert!(advantage_after_transient > 10.0, "{caps:?}");
        // Phase 2: equal times (alternating noise) for many syncs.
        for step in 6..=40 {
            let (t0, t1) = if step % 2 == 0 { (4.01, 4.0) } else { (4.0, 4.01) };
            let obs = SyncObservation {
                step,
                nodes: vec![
                    sample(0, Role::Simulation, t0, caps[0]),
                    sample(1, Role::Analysis, t1, caps[1]),
                ],
            };
            if let Some(a) = c.on_sync(&obs) {
                caps[0] = a.cap_for(0, Role::Simulation);
                caps[1] = a.cap_for(1, Role::Analysis);
            }
        }
        // The early advantage persists (within a few watts).
        assert!(caps[0] - caps[1] > advantage_after_transient * 0.5, "{caps:?}");
    }

    #[test]
    fn donor_floor_is_delta_min() {
        let mut c = TimeAware::new(cfg());
        let mut caps = [110.0_f64, 110.0];
        for step in 1..=100 {
            let obs = SyncObservation {
                step,
                nodes: vec![
                    sample(0, Role::Simulation, 4.0, caps[0]),
                    sample(1, Role::Analysis, 2.0, caps[1]),
                ],
            };
            if let Some(a) = c.on_sync(&obs) {
                caps[0] = a.cap_for(0, Role::Simulation);
                caps[1] = a.cap_for(1, Role::Analysis);
            }
        }
        assert!(caps[1] >= 98.0 - 1e-9, "{caps:?}");
        assert!((caps[1] - 98.0).abs() < 1.0, "fast node pinned at δ_min: {caps:?}");
    }

    #[test]
    fn budget_conserved_with_slack_redistribution() {
        let mut c = TimeAware::new(cfg());
        let mut caps = [110.0_f64, 110.0];
        for step in 1..=50 {
            let obs = SyncObservation {
                step,
                nodes: vec![
                    sample(0, Role::Simulation, 4.0, caps[0]),
                    sample(1, Role::Analysis, 2.0, caps[1]),
                ],
            };
            if let Some(a) = c.on_sync(&obs) {
                caps[0] = a.cap_for(0, Role::Simulation);
                caps[1] = a.cap_for(1, Role::Analysis);
            }
            assert!(caps[0] + caps[1] <= 220.0 + 1e-6, "{caps:?}");
        }
    }

    #[test]
    fn single_node_is_noop() {
        let mut c = TimeAware::new(cfg());
        let obs = SyncObservation { step: 1, nodes: vec![sample(0, Role::Simulation, 4.0, 110.0)] };
        assert!(c.on_sync(&obs).is_none());
    }
}
