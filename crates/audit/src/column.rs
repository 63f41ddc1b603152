//! Per-node audit state as a column indexed by node id.
//!
//! Node ids in a job are dense, `0..nodes` from `run_start`, so the
//! auditor's per-node state is a `Vec` slot per node rather than a map
//! entry. A trace is untrusted input, though: the column is sized once,
//! at the first `run_start`, to its node count capped at
//! [`MAX_COLUMN_NODES`], and every id outside it spills into an ordered
//! map. Iteration runs over the column and then the map, which is
//! ascending node order — the order the maps it replaced iterated in.

use std::collections::BTreeMap;

/// Most nodes a column holds, whatever a `run_start` claims (a Theta
/// partition is 4 392).
pub(crate) const MAX_COLUMN_NODES: usize = 1 << 16;

/// One value per node: a column for the ids `run_start` announced, a
/// map for the rest.
#[derive(Debug)]
pub(crate) struct NodeColumn<T> {
    col: Vec<Option<T>>,
    spill: BTreeMap<usize, T>,
    sized: bool,
}

impl<T> Default for NodeColumn<T> {
    fn default() -> Self {
        NodeColumn { col: Vec::new(), spill: BTreeMap::new(), sized: false }
    }
}

/// The column length for a `run_start` that claims `sim + analysis` nodes.
pub(crate) fn column_len(sim: usize, analysis: usize) -> usize {
    sim.saturating_add(analysis).min(MAX_COLUMN_NODES)
}

impl<T> NodeColumn<T> {
    /// Size the column to `len` nodes (the first call only), moving the
    /// ids already seen below `len` into it.
    pub(crate) fn size(&mut self, len: usize) {
        if std::mem::replace(&mut self.sized, true) {
            return;
        }
        self.col.resize_with(len, || None);
        let high = self.spill.split_off(&len);
        for (node, v) in std::mem::replace(&mut self.spill, high) {
            self.col[node] = Some(v);
        }
    }

    pub(crate) fn get(&self, node: usize) -> Option<&T> {
        match self.col.get(node) {
            Some(slot) => slot.as_ref(),
            None => self.spill.get(&node),
        }
    }

    /// Node `node`'s value, `new()` if it has none yet.
    pub(crate) fn get_or_insert_with(&mut self, node: usize, new: impl FnOnce() -> T) -> &mut T {
        match self.col.get_mut(node) {
            Some(slot) => slot.get_or_insert_with(new),
            None => self.spill.entry(node).or_insert_with(new),
        }
    }

    pub(crate) fn insert(&mut self, node: usize, v: T) {
        match self.col.get_mut(node) {
            Some(slot) => *slot = Some(v),
            None => drop(self.spill.insert(node, v)),
        }
    }

    /// Every `(node, value)`, ascending node order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        let col = self.col.iter().enumerate().filter_map(|(n, v)| Some((n, v.as_ref()?)));
        col.chain(self.spill.iter().map(|(&n, v)| (n, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The column answers exactly as the map it replaced, for ids inside
    /// and outside it, seen before and after sizing.
    #[test]
    fn column_and_map_agree() {
        let mut rng = des::Rng::seed_from_u64(7);
        for _ in 0..50 {
            let mut col = NodeColumn::default();
            let mut map = BTreeMap::new();
            let len = rng.next_below(20) as usize;
            let size_at = rng.next_below(40);
            for i in 0..40 {
                if i == size_at {
                    col.size(len);
                }
                let node = match rng.next_below(4) {
                    0 => usize::MAX - rng.next_below(3) as usize,
                    _ => rng.next_below(30) as usize,
                };
                let v = rng.next_below(1000);
                if rng.next_below(2) == 0 {
                    col.insert(node, v);
                    map.insert(node, v);
                } else {
                    assert_eq!(*col.get_or_insert_with(node, || v), *map.entry(node).or_insert(v));
                }
                assert_eq!(col.get(node), map.get(&node));
            }
            assert!(col.iter().eq(map.iter().map(|(&n, v)| (n, v))));
        }
    }

    #[test]
    fn a_huge_claim_allocates_the_cap() {
        let mut col = NodeColumn::<f64>::default();
        col.size(column_len(1 << 60, 4));
        assert_eq!(col.col.len(), MAX_COLUMN_NODES);
        col.size(8);
        assert_eq!(col.col.len(), MAX_COLUMN_NODES, "sized once");
    }
}
