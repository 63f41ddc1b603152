//! Dense per-node cap state shared by the node-granular baselines.
//!
//! [`TimeAware`](crate::TimeAware) and [`PowerAware`](crate::PowerAware)
//! cap every node individually and are consulted at every synchronization,
//! so their bookkeeping must be O(nodes) per sync with small constants.
//! Node ids are job-local indices (`0..n`), which makes a plain vector
//! the natural map: O(1) lookup, and iteration in ascending node id —
//! the order a `BTreeMap<usize, f64>` yields, so every `sum()` over the
//! values folds in the same order and produces the same bits.

use crate::types::{Allocation, NodeSample, Role, SyncObservation};

/// Node id → watts, stored densely (memory is O(highest node id)).
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeMap {
    slots: Vec<Option<f64>>,
    len: usize,
    /// Membership scratch for [`NodeMap::sync_to`].
    seen: Vec<bool>,
    /// Slots visited so far, added once per call: the count behind "one
    /// decision touches each slot O(1) times".
    pub(crate) touches: u64,
}

impl NodeMap {
    /// Number of nodes present.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Forget every node (capacity is kept).
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    /// Value of a node that must be present.
    pub(crate) fn get(&mut self, node: usize) -> f64 {
        self.touches += 1;
        self.slots[node].expect("node has cap state")
    }

    /// Mutable value of a node that must be present.
    pub(crate) fn get_mut(&mut self, node: usize) -> &mut f64 {
        self.touches += 1;
        self.slots[node].as_mut().expect("node has cap state")
    }

    /// The node's value, inserting `default` first if it is absent.
    pub(crate) fn entry_or(&mut self, node: usize, default: f64) -> &mut f64 {
        if node >= self.slots.len() {
            self.touches += (node - self.slots.len()) as u64;
            self.slots.resize(node + 1, None);
        }
        self.touches += 1;
        let slot = &mut self.slots[node];
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert(default)
    }

    /// Values in ascending node order.
    pub(crate) fn values(&mut self) -> impl Iterator<Item = f64> + '_ {
        self.touches += self.slots.len() as u64;
        self.slots.iter().filter_map(|s| *s)
    }

    /// Mutable values in ascending node order.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut f64> + '_ {
        self.touches += self.slots.len() as u64;
        self.slots.iter_mut().filter_map(Option::as_mut)
    }

    /// `(node, value)` pairs in ascending node order.
    pub(crate) fn iter(&mut self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.touches += self.slots.len() as u64;
        self.slots.iter().enumerate().filter_map(|(n, s)| s.map(|w| (n, w)))
    }

    /// Make the key set equal to the observed nodes: nodes that left the
    /// observation (dropouts) are forgotten — their assigned watts return
    /// to the slack pool instead of staying reserved — and nodes seen for
    /// the first time are seeded with the cap the observation reports.
    /// One pass over the samples plus one mask pass over the slots.
    pub(crate) fn sync_to(&mut self, samples: &[NodeSample]) {
        let need = samples.iter().map(|s| s.node + 1).max().unwrap_or(0);
        if need > self.slots.len() {
            self.slots.resize(need, None);
        }
        self.touches += (samples.len() + self.slots.len()) as u64;
        self.seen.clear();
        self.seen.resize(self.slots.len(), false);
        for s in samples {
            self.seen[s.node] = true;
            let slot = &mut self.slots[s.node];
            if slot.is_none() {
                *slot = Some(s.cap_w);
                self.len += 1;
            }
        }
        for (slot, &seen) in self.slots.iter_mut().zip(&self.seen) {
            if !seen && slot.take().is_some() {
                self.len -= 1;
            }
        }
    }

    /// Pull the assigned caps back under a (possibly shrunk) budget by
    /// taking an equal share from every node that still has room above
    /// `min_w`.
    pub(crate) fn shrink_to_budget(&mut self, budget_w: f64, min_w: f64) {
        for _ in 0..8 {
            let assigned: f64 = self.values().sum();
            let excess = assigned - budget_w;
            if excess <= 1e-9 {
                break;
            }
            let adjustable = self.values().filter(|&w| w > min_w + 1e-12).count();
            if adjustable == 0 {
                break;
            }
            let share = excess / adjustable as f64;
            for w in self.values_mut().filter(|w| **w > min_w + 1e-12) {
                *w = (*w - share).max(min_w);
            }
        }
    }

    /// The per-node allocation these caps describe: every present node in
    /// ascending order, plus the per-role means over the observed nodes
    /// (each of which must be present).
    pub(crate) fn allocation(&mut self, obs: &SyncObservation) -> Allocation {
        let (mut sim, mut ana) = ((0.0, 0usize), (0.0, 0usize));
        for s in &obs.nodes {
            let (sum, n) = match s.role {
                Role::Simulation => &mut sim,
                Role::Analysis => &mut ana,
            };
            *sum += self.get(s.node);
            *n += 1;
        }
        let mean = |(sum, n): (f64, usize)| if n == 0 { 0.0 } else { sum / n as f64 };
        let mut per_node_w = Vec::with_capacity(self.len);
        per_node_w.extend(self.iter());
        Allocation { sim_node_w: mean(sim), analysis_node_w: mean(ana), per_node_w }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power_aware::PowerAwareConfig;
    use crate::time_aware::{TimeAware, TimeAwareConfig};
    use crate::{Controller, PowerAware};

    fn sample(node: usize, cap_w: f64) -> NodeSample {
        NodeSample { node, role: Role::Simulation, time_s: 1.0, power_w: 100.0, cap_w }
    }

    #[test]
    fn sync_to_prunes_dropouts_and_seeds_newcomers() {
        let mut m = NodeMap::default();
        m.sync_to(&[sample(0, 110.0), sample(2, 120.0), sample(5, 130.0)]);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(0, 110.0), (2, 120.0), (5, 130.0)]);
        *m.get_mut(2) = 99.0;
        // Node 5 drops out, node 1 joins; node 2 keeps its adjusted cap
        // rather than being re-seeded from the observation.
        m.sync_to(&[sample(2, 120.0), sample(1, 105.0), sample(0, 111.0)]);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(0, 110.0), (1, 105.0), (2, 99.0)]);
        assert_eq!(m.len(), 3);
        // A re-joining node is seeded afresh.
        m.sync_to(&[sample(5, 140.0), sample(0, 111.0)]);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(0, 110.0), (5, 140.0)]);
    }

    #[test]
    fn entry_or_inserts_once_and_counts() {
        let mut m = NodeMap::default();
        *m.entry_or(3, 0.0) += 2.5;
        *m.entry_or(3, 0.0) += 2.5;
        assert_eq!((m.len(), m.get(3)), (1, 5.0));
        m.clear();
        assert_eq!(m.len(), 0);
        assert_eq!(m.values().count(), 0);
    }

    /// Slot touches per node per `on_sync` stay under one constant at
    /// every size, the count behind "a decision costs O(nodes)".
    const TOUCHES_PER_NODE_MAX: f64 = 10.0;

    /// The plant between two decisions: adopt the decided caps, pin a
    /// rotating third of the nodes at their cap, leave the rest a few
    /// watts under, and rotate which nodes are slow. Every decision then
    /// takes the full path: donors, claimants, slack, a per-node
    /// allocation.
    fn feed_back(obs: &mut SyncObservation, decided: Option<&Allocation>, call: usize) {
        let mut caps = decided.map(Allocation::caps);
        for s in &mut obs.nodes {
            if let Some(caps) = &mut caps {
                s.cap_w = caps.cap_for(s.node, s.role);
            }
            let pinned = (s.node + call).is_multiple_of(3);
            s.power_w = if pinned { s.cap_w - 0.5 } else { s.cap_w - 4.0 - (s.node % 5) as f64 };
            s.time_s = 4.0 + ((s.node * 7 + call) % 11) as f64 * 0.05;
        }
    }

    /// Slot touches per node per decision over 20 `on_sync` calls at
    /// `nodes`, half of them simulation.
    fn touches_per_node<C: Controller>(mut ctl: C, nodes: usize, touches: fn(&C) -> u64) -> f64 {
        const DECISIONS: usize = 20;
        let role = |n| if n < nodes / 2 { Role::Simulation } else { Role::Analysis };
        let sample =
            |node| NodeSample { node, role: role(node), time_s: 4.0, power_w: 105.0, cap_w: 110.0 };
        let mut obs = SyncObservation { step: 0, nodes: (0..nodes).map(sample).collect() };
        for call in 0..DECISIONS {
            feed_back(&mut obs, None, call);
            obs.step += 1;
            let decided = ctl.on_sync(&obs);
            feed_back(&mut obs, decided.as_ref(), call);
        }
        touches(&ctl) as f64 / (nodes * DECISIONS) as f64
    }

    /// A quadratic term — a per-node scan inside a per-sample loop — reads
    /// ≈ 34× from 128 to 4 392 nodes; linear bookkeeping reads the same.
    #[test]
    fn on_sync_touches_each_slot_a_bounded_number_of_times() {
        let time_aware = |n| {
            let ctl = TimeAware::new(TimeAwareConfig::paper_default(n));
            touches_per_node(ctl, n, |c| c.caps.touches)
        };
        let power_aware = |n| {
            let ctl = PowerAware::new(PowerAwareConfig::paper_default(n));
            touches_per_node(ctl, n, |c| c.caps.touches + c.window_power.touches)
        };
        let readings = [
            ("time-aware", time_aware(128), time_aware(4392)),
            ("power-aware", power_aware(128), power_aware(4392)),
        ];
        for (name, small, large) in readings {
            assert!(small <= TOUCHES_PER_NODE_MAX, "{name}: {small} touches/node at 128");
            assert!(large <= TOUCHES_PER_NODE_MAX, "{name}: {large} touches/node at 4392");
            assert!(large <= 1.05 * small, "{name}: {large} at 4392 vs {small} at 128");
        }
    }

    #[test]
    fn shrink_takes_equal_shares_down_to_the_floor() {
        let mut m = NodeMap::default();
        m.sync_to(&[sample(0, 100.0), sample(1, 120.0), sample(2, 98.0)]);
        m.shrink_to_budget(308.0, 98.0);
        // Node 2 sits at the floor: the 10 W excess comes from 0 and 1,
        // and node 0 bottoms out on the way.
        let total: f64 = m.values().sum();
        assert!(total <= 308.0 + 1e-9, "{total}");
        assert!(m.values().all(|w| w >= 98.0));
        assert_eq!(m.get(2), 98.0);
    }
}
