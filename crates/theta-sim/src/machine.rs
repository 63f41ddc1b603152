//! Machine-level node accounting for multi-job composition.
//!
//! One simulated machine hosts many concurrent in-situ jobs, each built on
//! its own [`crate::Cluster`] (jobs are space-shared: disjoint node sets,
//! no cross-job interference beyond the shared power envelope). The
//! scheduler leases contiguous node ranges from a [`MachineNodes`] pool —
//! first-fit, lowest base first, so placement is a pure function of the
//! arrival/departure order and therefore deterministic.

/// A contiguous range of machine nodes leased to one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLease {
    /// First machine node of the range.
    pub base: usize,
    /// Number of nodes.
    pub count: usize,
}

/// The machine's node pool: tracks which nodes are leased.
#[derive(Debug, Clone)]
pub struct MachineNodes {
    used: Vec<bool>,
}

impl MachineNodes {
    /// A machine with `total` free nodes.
    pub fn new(total: usize) -> Self {
        assert!(total > 0, "a machine needs at least one node");
        MachineNodes { used: vec![false; total] }
    }

    /// Nodes currently free.
    pub fn free_count(&self) -> usize {
        self.used.iter().filter(|&&u| !u).count()
    }

    /// Lease `count` contiguous nodes, first-fit from node 0. Returns
    /// `None` when no contiguous range is free (external fragmentation
    /// counts: 3 free nodes split 2+1 cannot serve a 3-node job).
    pub fn lease(&mut self, count: usize) -> Option<NodeLease> {
        if count == 0 || count > self.used.len() {
            return None;
        }
        let mut run = 0usize;
        for i in 0..self.used.len() {
            run = if self.used[i] { 0 } else { run + 1 };
            if run == count {
                let base = i + 1 - count;
                self.used[base..=i].fill(true);
                return Some(NodeLease { base, count });
            }
        }
        None
    }

    /// Return a lease to the pool.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or any node in it is not
    /// currently leased (double release).
    pub fn release(&mut self, lease: NodeLease) {
        let end = lease.base + lease.count;
        assert!(end <= self.used.len(), "lease {lease:?} out of bounds");
        for i in lease.base..end {
            assert!(self.used[i], "double release of node {i}");
            self.used[i] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fit_is_lowest_base() {
        let mut m = MachineNodes::new(8);
        assert_eq!(m.lease(3), Some(NodeLease { base: 0, count: 3 }));
        assert_eq!(m.lease(2), Some(NodeLease { base: 3, count: 2 }));
        assert_eq!(m.free_count(), 3);
    }

    #[test]
    fn release_reopens_the_hole() {
        let mut m = MachineNodes::new(8);
        let a = m.lease(4).unwrap();
        let _b = m.lease(4).unwrap();
        assert_eq!(m.lease(1), None, "machine full");
        m.release(a);
        assert_eq!(m.lease(2), Some(NodeLease { base: 0, count: 2 }), "hole reused");
    }

    #[test]
    fn fragmentation_blocks_contiguous_requests() {
        let mut m = MachineNodes::new(6);
        let a = m.lease(2).unwrap(); // [0,1]
        let _b = m.lease(2).unwrap(); // [2,3]
        let c = m.lease(2).unwrap(); // [4,5]
        m.release(a);
        m.release(c);
        assert_eq!(m.free_count(), 4);
        assert_eq!(m.lease(3), None, "4 free but split 2+2");
        assert_eq!(m.lease(2), Some(NodeLease { base: 0, count: 2 }));
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let mut m = MachineNodes::new(4);
        let a = m.lease(2).unwrap();
        m.release(a);
        m.release(a);
    }
}
