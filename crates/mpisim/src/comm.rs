//! The job's process layout and its world communicator.
//!
//! PoLiMER only needs process *membership* (paper §VI-B): which ranks a
//! job has, how they sit on nodes, and one monitor rank per node. The
//! model is structural: a communicator is the job's layout, every rank of
//! it.

/// Immutable description of the job's process layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobLayout {
    /// Total ranks in the job.
    pub nranks: usize,
    /// Ranks per node (64 on Theta when fully packed; experiments often use
    /// fewer).
    pub ranks_per_node: usize,
}

impl JobLayout {
    /// Build a layout; `nranks` must divide evenly onto nodes.
    pub fn new(nranks: usize, ranks_per_node: usize) -> Self {
        assert!(nranks > 0 && ranks_per_node > 0);
        assert!(
            nranks.is_multiple_of(ranks_per_node),
            "nranks {nranks} not a multiple of ranks_per_node {ranks_per_node}"
        );
        JobLayout { nranks, ranks_per_node }
    }

    /// Number of nodes in the job.
    pub(crate) fn nnodes(&self) -> usize {
        self.nranks / self.ranks_per_node
    }
}

/// `MPI_COMM_WORLD` of one job: every rank of its layout.
#[derive(Debug, Clone)]
pub struct Communicator {
    layout: JobLayout,
}

impl Communicator {
    /// `MPI_COMM_WORLD` for the given layout.
    pub fn world(layout: JobLayout) -> Self {
        Communicator { layout }
    }

    /// Communicator size (number of member ranks).
    pub fn size(&self) -> usize {
        self.layout.nranks
    }

    /// Number of nodes the communicator spans: every collective prices
    /// itself by this number.
    pub fn nnodes(&self) -> usize {
        self.layout.nnodes()
    }

    /// The lowest global rank on each node — PoLiMER designates one
    /// monitor rank per node (paper §VI-B). Placement is blocked (like
    /// `aprun -d`), so node `k` hosts ranks `k·r … k·r + r − 1`.
    pub fn node_leaders(&self) -> Vec<usize> {
        (0..self.nnodes()).map(|k| k * self.layout.ranks_per_node).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_contains_all_ranks() {
        let w = Communicator::world(JobLayout::new(8, 2));
        assert_eq!(w.size(), 8);
        assert_eq!(w.nnodes(), 4);
    }

    #[test]
    fn node_mapping_is_block() {
        // Node k's lowest rank is k · ranks_per_node.
        let w = Communicator::world(JobLayout::new(8, 2));
        assert_eq!(w.node_leaders(), vec![0, 2, 4, 6]);
        let w = Communicator::world(JobLayout::new(12, 3));
        assert_eq!(w.node_leaders(), vec![0, 3, 6, 9]);
    }

    #[test]
    #[should_panic]
    fn uneven_layout_rejected() {
        let _ = JobLayout::new(7, 2);
    }

    #[test]
    fn nnodes_is_correct_for_world_and_clone() {
        for (nranks, per_node) in [(1, 1), (8, 2), (12, 4), (4392, 1), (8784, 2)] {
            let w = Communicator::world(JobLayout::new(nranks, per_node));
            assert_eq!(w.nnodes(), nranks / per_node);
            assert_eq!(w.nnodes(), w.node_leaders().len());
            assert_eq!(w.clone().nnodes(), w.nnodes());
        }
    }

    #[test]
    fn node_leaders_one_per_node() {
        let w = Communicator::world(JobLayout::new(12, 4));
        assert_eq!(w.node_leaders(), vec![0, 4, 8]);
    }
}
