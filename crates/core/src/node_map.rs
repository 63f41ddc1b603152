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
    pub(crate) fn get(&self, node: usize) -> f64 {
        self.slots[node].expect("node has cap state")
    }

    /// Mutable value of a node that must be present.
    pub(crate) fn get_mut(&mut self, node: usize) -> &mut f64 {
        self.slots[node].as_mut().expect("node has cap state")
    }

    /// The node's value, inserting `default` first if it is absent.
    pub(crate) fn entry_or(&mut self, node: usize, default: f64) -> &mut f64 {
        if node >= self.slots.len() {
            self.slots.resize(node + 1, None);
        }
        let slot = &mut self.slots[node];
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert(default)
    }

    /// Values in ascending node order.
    pub(crate) fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.slots.iter().filter_map(|s| *s)
    }

    /// Mutable values in ascending node order.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut f64> + '_ {
        self.slots.iter_mut().filter_map(Option::as_mut)
    }

    /// `(node, value)` pairs in ascending node order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
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
    pub(crate) fn allocation(&self, obs: &SyncObservation) -> Allocation {
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
