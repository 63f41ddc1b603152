//! Old-semantics reference implementations, compiled for tests only.
//!
//! These are the node-granular baselines and the per-node cap lookup
//! exactly as they stood before their state moved to the dense
//! [`crate::node_map::NodeMap`] and the lookup to
//! [`crate::Allocation::write_caps`]: `BTreeMap` state with an O(n²) drop-out
//! `retain`, and a linear `find`. The equivalence tests below drive old
//! and new through the same seeded streams and demand bit-equal output.

use crate::controller::Controller;
use crate::power_aware::PowerAwareConfig;
use crate::time_aware::TimeAwareConfig;
use crate::types::{Allocation, Role, SyncObservation};
use std::collections::BTreeMap;

/// `Allocation::cap_for` as a linear scan: first match wins, absent
/// nodes fall back to the role cap.
pub(crate) fn linear_cap_for(a: &Allocation, node: usize, role: Role) -> f64 {
    if let Some(&(_, w)) = a.per_node_w.iter().find(|&&(n, _)| n == node) {
        return w;
    }
    match role {
        Role::Simulation => a.sim_node_w,
        Role::Analysis => a.analysis_node_w,
    }
}

/// [`crate::TimeAware`] as it was with `BTreeMap` state.
#[derive(Debug, Clone)]
pub(crate) struct RefTimeAware {
    cfg: TimeAwareConfig,
    caps: BTreeMap<usize, f64>,
    step_w: f64,
    allocations: u64,
}

impl RefTimeAware {
    /// Build a controller.
    pub(crate) fn new(cfg: TimeAwareConfig) -> Self {
        assert!(cfg.margin >= 0.0 && cfg.margin < 1.0);
        assert!(cfg.step_decay > 0.0 && cfg.step_decay <= 1.0);
        RefTimeAware { cfg, caps: BTreeMap::new(), step_w: cfg.initial_step_w, allocations: 0 }
    }

    /// Pull assigned caps back under the (possibly shrunk) budget by taking
    /// an equal share from every node that still has room above δ_min.
    fn shrink_caps_to_budget(&mut self) {
        for _ in 0..8 {
            let assigned: f64 = self.caps.values().sum();
            let excess = assigned - self.cfg.budget_w;
            if excess <= 1e-9 {
                break;
            }
            let adjustable: Vec<usize> = self
                .caps
                .iter()
                .filter(|&(_, &w)| w > self.cfg.limits.min_w + 1e-12)
                .map(|(&n, _)| n)
                .collect();
            if adjustable.is_empty() {
                break;
            }
            let share = excess / adjustable.len() as f64;
            for n in adjustable {
                let w = self.caps[&n];
                self.caps.insert(n, (w - share).max(self.cfg.limits.min_w));
            }
        }
    }

    fn build_allocation(&self, obs: &SyncObservation) -> Allocation {
        let mean = |role: Role| {
            let (sum, n) = obs
                .nodes
                .iter()
                .filter(|s| s.role == role)
                .fold((0.0, 0usize), |(sum, n), s| (sum + self.caps[&s.node], n + 1));
            if n == 0 {
                0.0
            } else {
                sum / n as f64
            }
        };
        Allocation {
            sim_node_w: mean(Role::Simulation),
            analysis_node_w: mean(Role::Analysis),
            per_node_w: self.caps.iter().map(|(&n, &w)| (n, w)).collect(),
        }
    }
}

impl Controller for RefTimeAware {
    fn name(&self) -> &'static str {
        "ref-time-aware"
    }

    fn on_sync(&mut self, obs: &SyncObservation) -> Option<Allocation> {
        if obs.nodes.len() < 2 {
            return None;
        }
        // Forget nodes that have left the observation (dropouts): their
        // assigned watts must return to the slack pool, not stay reserved.
        self.caps.retain(|n, _| obs.nodes.iter().any(|s| s.node == *n));
        for s in &obs.nodes {
            self.caps.entry(s.node).or_insert(s.cap_w);
        }
        let max_t = obs.nodes.iter().map(|s| s.time_s).fold(f64::MIN, f64::max);
        if max_t <= 0.0 || max_t.is_nan() {
            return None;
        }
        let target = (1.0 - self.cfg.margin) * max_t;

        // Fast nodes donate up to one step (down to δ_min); slow nodes
        // receive. The donation scales with how far below the target a node
        // sits (GEOPM lowers a node's budget *until its runtime meets the
        // target*, so nodes already near it barely move).
        let donors: Vec<(usize, f64)> = obs
            .nodes
            .iter()
            .filter(|s| s.time_s < target)
            .map(|s| {
                let deficit = ((target - s.time_s) / (0.1 * target)).clamp(0.0, 1.0);
                (s.node, deficit)
            })
            .collect();
        let receivers: Vec<usize> =
            obs.nodes.iter().filter(|s| s.time_s >= target).map(|s| s.node).collect();
        let mut pool = 0.0;
        for &(n, deficit) in &donors {
            let cap = self.caps[&n];
            let give = (cap - self.cfg.limits.min_w).min(self.step_w * deficit).max(0.0);
            if give > 0.0 {
                self.caps.insert(n, cap - give);
                pool += give;
            }
        }
        if !receivers.is_empty() && pool > 0.0 {
            let share = pool / receivers.len() as f64;
            for &n in &receivers {
                let cap = self.caps[&n];
                self.caps.insert(n, self.cfg.limits.clamp(cap + share));
            }
        }
        // Redistribute slack (budget minus what is currently assigned)
        // evenly to all nodes, respecting δ_max.
        let assigned: f64 = self.caps.values().sum();
        let slack = self.cfg.budget_w - assigned;
        if slack > 1e-9 {
            let share = slack / self.caps.len() as f64;
            let keys: Vec<usize> = self.caps.keys().copied().collect();
            for n in keys {
                let cap = self.caps[&n];
                self.caps.insert(n, self.cfg.limits.clamp(cap + share));
            }
        }
        // Decay the rate of change down to the configured minimum.
        self.step_w = (self.step_w * self.cfg.step_decay).max(self.cfg.min_step_w);
        self.allocations += 1;
        Some(self.build_allocation(obs))
    }

    fn reset(&mut self) {
        self.caps.clear();
        self.step_w = self.cfg.initial_step_w;
        self.allocations = 0;
    }

    fn budget_w(&self) -> Option<f64> {
        Some(self.cfg.budget_w)
    }

    fn set_budget_w(&mut self, budget_w: f64) {
        if budget_w.is_finite() && budget_w > 0.0 {
            self.cfg.budget_w = budget_w;
            self.shrink_caps_to_budget();
        }
    }
}

/// [`crate::PowerAware`] as it was with `BTreeMap` state.
#[derive(Debug, Clone)]
pub(crate) struct RefPowerAware {
    cfg: PowerAwareConfig,
    /// Current per-node caps (node id → watts).
    caps: BTreeMap<usize, f64>,
    /// Measured power accumulated over the window (node id → sum).
    window_power: BTreeMap<usize, f64>,
    window_count: usize,
    allocations: u64,
}

impl RefPowerAware {
    /// Build a controller.
    pub(crate) fn new(cfg: PowerAwareConfig) -> Self {
        assert!(cfg.window >= 1);
        RefPowerAware {
            cfg,
            caps: BTreeMap::new(),
            window_power: BTreeMap::new(),
            window_count: 0,
            allocations: 0,
        }
    }

    /// Pull assigned caps back under the (possibly shrunk) budget by taking
    /// an equal share from every node that still has room above δ_min.
    fn shrink_caps_to_budget(&mut self) {
        for _ in 0..8 {
            let assigned: f64 = self.caps.values().sum();
            let excess = assigned - self.cfg.budget_w;
            if excess <= 1e-9 {
                break;
            }
            let adjustable: Vec<usize> = self
                .caps
                .iter()
                .filter(|&(_, &w)| w > self.cfg.limits.min_w + 1e-12)
                .map(|(&n, _)| n)
                .collect();
            if adjustable.is_empty() {
                break;
            }
            let share = excess / adjustable.len() as f64;
            for n in adjustable {
                let w = self.caps[&n];
                self.caps.insert(n, (w - share).max(self.cfg.limits.min_w));
            }
        }
    }

    fn build_allocation(&self, obs: &SyncObservation) -> Allocation {
        let mean = |role: Role| {
            let (sum, n) = obs
                .nodes
                .iter()
                .filter(|s| s.role == role)
                .fold((0.0, 0usize), |(sum, n), s| (sum + self.caps[&s.node], n + 1));
            if n == 0 {
                0.0
            } else {
                sum / n as f64
            }
        };
        Allocation {
            sim_node_w: mean(Role::Simulation),
            analysis_node_w: mean(Role::Analysis),
            per_node_w: self.caps.iter().map(|(&n, &w)| (n, w)).collect(),
        }
    }
}

impl Controller for RefPowerAware {
    fn name(&self) -> &'static str {
        "ref-power-aware"
    }

    fn on_sync(&mut self, obs: &SyncObservation) -> Option<Allocation> {
        if obs.nodes.is_empty() {
            return None;
        }
        // Forget dropped nodes, then seed cap state from the observation on
        // first contact.
        self.caps.retain(|n, _| obs.nodes.iter().any(|s| s.node == *n));
        for s in &obs.nodes {
            self.caps.entry(s.node).or_insert(s.cap_w);
        }
        for s in &obs.nodes {
            *self.window_power.entry(s.node).or_insert(0.0) += s.power_w;
        }
        self.window_count += 1;
        if self.window_count < self.cfg.window {
            return None;
        }
        let denom = self.window_count as f64;
        let mean_power: BTreeMap<usize, f64> =
            self.window_power.iter().map(|(&n, &p)| (n, p / denom)).collect();
        self.window_power.clear();
        self.window_count = 0;

        // Partition nodes into donors (below cap) and claimants (at cap).
        let mut donors: Vec<usize> = Vec::new();
        let mut claimants: Vec<usize> = Vec::new();
        for s in &obs.nodes {
            let cap = self.caps[&s.node];
            let p = mean_power[&s.node];
            if p >= cap - self.cfg.at_cap_margin_w {
                claimants.push(s.node);
            } else if cap - p > self.cfg.headroom_w {
                donors.push(s.node);
            }
        }
        // SLURM only acts when someone is pinned at the cap.
        if claimants.is_empty() || donors.is_empty() {
            return None;
        }
        // Harvest excess from donors.
        let mut pool = 0.0;
        for &n in &donors {
            let cap = self.caps[&n];
            let floor = (mean_power[&n] + self.cfg.headroom_w).max(self.cfg.limits.min_w);
            let give = (cap - floor).max(0.0);
            if give > 0.0 {
                self.caps.insert(n, cap - give);
                pool += give;
            }
        }
        if pool <= 0.0 {
            return None;
        }
        // Divide evenly among claimants, respecting δ_max; watts a claimant
        // cannot absorb stay unallocated this round (SLURM re-harvests next
        // interval).
        let share = pool / claimants.len() as f64;
        for &n in &claimants {
            let cap = self.caps[&n];
            self.caps.insert(n, self.cfg.limits.clamp(cap + share));
        }
        self.allocations += 1;
        Some(self.build_allocation(obs))
    }

    fn reset(&mut self) {
        self.caps.clear();
        self.window_power.clear();
        self.window_count = 0;
        self.allocations = 0;
    }

    fn budget_w(&self) -> Option<f64> {
        Some(self.cfg.budget_w)
    }

    fn set_budget_w(&mut self, budget_w: f64) {
        if budget_w.is_finite() && budget_w > 0.0 {
            self.cfg.budget_w = budget_w;
            self.shrink_caps_to_budget();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time_aware::TimeAware;
    use crate::types::NodeSample;
    use crate::PowerAware;
    use des::Rng;

    /// An allocation flattened to exact bits: both uniform caps, then
    /// `(node, cap)` for every per-node entry in list order.
    fn bits(a: &Option<Allocation>) -> Option<Vec<u64>> {
        a.as_ref().map(|a| {
            let head = [a.sim_node_w.to_bits(), a.analysis_node_w.to_bits()];
            let per_node = a.per_node_w.iter().flat_map(|&(n, w)| [n as u64, w.to_bits()]);
            head.into_iter().chain(per_node).collect()
        })
    }

    /// Drive `old` and `new` through one seeded stream of observations in
    /// which nodes drop out, re-join and the budget shrinks and recovers
    /// with them, feeding each controller's own caps back to it, and
    /// demand bit-equal allocations at every sync.
    fn drive(old: &mut dyn Controller, new: &mut dyn Controller, n: usize, seed: u64, syncs: u64) {
        let mut rng = Rng::seed_from_u64(seed);
        let per_node = 110.0;
        let role = |node: usize| if node < n / 2 { Role::Simulation } else { Role::Analysis };
        let mut alive = vec![true; n];
        let mut caps = vec![per_node; n];
        let mut acted = 0;
        for step in 1..=syncs {
            // Drop or revive a few nodes, keeping both partitions populated.
            if rng.next_f64() < 0.35 {
                for _ in 0..1 + rng.next_below(1 + n as u64 / 64) {
                    let node = rng.next_below(n as u64) as usize;
                    let peers = (0..n).filter(|&m| alive[m] && role(m) == role(node)).count();
                    if !alive[node] {
                        alive[node] = true;
                        caps[node] = per_node;
                    } else if peers > 1 {
                        alive[node] = false;
                    }
                }
                let budget = per_node * alive.iter().filter(|&&a| a).count() as f64;
                old.set_budget_w(budget);
                new.set_budget_w(budget);
            }
            // Extra budget squeeze with no membership change.
            if rng.next_f64() < 0.1 {
                let budget =
                    rng.uniform(100.0, 110.0) * alive.iter().filter(|&&a| a).count() as f64;
                old.set_budget_w(budget);
                new.set_budget_w(budget);
            }
            let nodes: Vec<NodeSample> = (0..n)
                .filter(|&node| alive[node])
                .map(|node| {
                    let pinned = rng.next_f64() < 0.3;
                    NodeSample {
                        node,
                        role: role(node),
                        time_s: rng.uniform(0.5, 20.0),
                        power_w: if pinned {
                            caps[node] - 0.5
                        } else {
                            rng.uniform(90.0, caps[node])
                        },
                        cap_w: caps[node],
                    }
                })
                .collect();
            let obs = SyncObservation { step, nodes };
            let want = old.on_sync(&obs);
            let got = new.on_sync(&obs);
            assert_eq!(bits(&got), bits(&want), "n={n} seed={seed:#x} sync {step}");
            if let Some(a) = &got {
                acted += 1;
                let nodes: Vec<usize> = (0..n).filter(|&node| alive[node]).collect();
                let sim = nodes.iter().filter(|&&node| role(node) == Role::Simulation).count();
                let mut column = Vec::new();
                a.write_caps(&nodes, sim, &mut column);
                for (&node, cap) in nodes.iter().zip(column) {
                    caps[node] = cap;
                    assert_eq!(cap.to_bits(), linear_cap_for(a, node, role(node)).to_bits());
                }
            }
        }
        assert!(acted > 0, "n={n} seed={seed:#x}: the stream never made the controller act");
    }

    #[test]
    fn time_aware_is_bit_equal_to_the_btreemap_reference() {
        for (n, syncs) in [(2usize, 200u64), (128, 80), (1024, 24)] {
            for seed in [0x7A_01u64, 0x7A_02] {
                let cfg = TimeAwareConfig::paper_default(n);
                drive(&mut RefTimeAware::new(cfg), &mut TimeAware::new(cfg), n, seed, syncs);
            }
        }
    }

    #[test]
    fn power_aware_is_bit_equal_to_the_btreemap_reference() {
        for (n, syncs) in [(2usize, 200u64), (128, 80), (1024, 24)] {
            for (seed, window) in [(0x9A_01u64, 1usize), (0x9A_02, 3)] {
                let cfg = PowerAwareConfig { window, ..PowerAwareConfig::paper_default(n) };
                drive(&mut RefPowerAware::new(cfg), &mut PowerAware::new(cfg), n, seed, syncs);
            }
        }
    }
}
