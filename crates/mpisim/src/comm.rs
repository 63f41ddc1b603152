//! Communicators and sub-communicators.
//!
//! In-situ frameworks organize MPI processes with intra- and
//! inter-dependent sub-communicators (paper §I); the Verlet-*Splitanalysis*
//! extension pairs analysis ranks with simulation ranks inside
//! sub-communicators (§V). PoLiMER only needs process *membership*, so the
//! model here is structural: a communicator is an ordered set of global
//! ranks plus the global rank→node map.

use std::sync::Arc;

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

    /// Node hosting a global rank (block placement, like `aprun -d`).
    pub fn node_of(&self, rank: usize) -> usize {
        assert!(rank < self.nranks);
        rank / self.ranks_per_node
    }

    /// Number of nodes in the job.
    pub fn nnodes(&self) -> usize {
        self.nranks / self.ranks_per_node
    }
}

/// A communicator: an ordered set of global ranks sharing a context.
#[derive(Debug, Clone)]
pub struct Communicator {
    layout: Arc<JobLayout>,
    /// Global ranks in this communicator, ascending.
    ranks: Vec<usize>,
    /// Distinct nodes hosting `ranks`, counted once at construction:
    /// every collective prices itself by this number.
    nnodes: usize,
}

impl Communicator {
    /// `MPI_COMM_WORLD` for the given layout.
    pub fn world(layout: JobLayout) -> Self {
        let ranks = (0..layout.nranks).collect();
        let nnodes = layout.nnodes();
        Communicator { layout: Arc::new(layout), ranks, nnodes }
    }

    /// A communicator over `ranks` (ascending) of the job `layout`.
    fn from_ranks(layout: Arc<JobLayout>, ranks: Vec<usize>) -> Self {
        let nnodes = distinct_nodes(&layout, &ranks).count();
        Communicator { layout, ranks, nnodes }
    }

    /// Job layout shared by all communicators of this job.
    pub fn layout(&self) -> &JobLayout {
        &self.layout
    }

    /// Communicator size (number of member ranks).
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// Member global ranks, ascending.
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// Local rank (position) of a global rank, if a member.
    pub fn local_rank(&self, global: usize) -> Option<usize> {
        self.ranks.binary_search(&global).ok()
    }

    /// True if the global rank belongs to this communicator.
    pub fn contains(&self, global: usize) -> bool {
        self.local_rank(global).is_some()
    }

    /// Distinct nodes hosting this communicator's ranks, ascending.
    pub fn nodes(&self) -> Vec<usize> {
        distinct_nodes(&self.layout, &self.ranks).map(|(node, _)| node).collect()
    }

    /// Number of distinct nodes (O(1)).
    pub fn nnodes(&self) -> usize {
        self.nnodes
    }

    /// `MPI_Comm_split`: partition members by color. Returns the
    /// sub-communicators keyed by color, ascending. Key order within each
    /// color follows global rank (key = global rank, as in the common
    /// `split(color, rank)` idiom).
    pub fn split<F: Fn(usize) -> u32>(&self, color_of: F) -> Vec<(u32, Communicator)> {
        let mut colors: Vec<u32> = self.ranks.iter().map(|&r| color_of(r)).collect();
        colors.sort_unstable();
        colors.dedup();
        colors
            .into_iter()
            .map(|c| {
                let ranks: Vec<usize> =
                    self.ranks.iter().copied().filter(|&r| color_of(r) == c).collect();
                (c, Communicator::from_ranks(Arc::clone(&self.layout), ranks))
            })
            .collect()
    }

    /// The lowest global rank on each node of this communicator — PoLiMER
    /// designates one monitor rank per node (paper §VI-B).
    pub fn node_leaders(&self) -> Vec<usize> {
        distinct_nodes(&self.layout, &self.ranks).map(|(_, leader)| leader).collect()
    }
}

/// `(node, lowest member rank on it)` for each distinct node hosting
/// `ranks`, ascending. Placement is blocked and `ranks` ascend, so a
/// node's ranks are adjacent: a new node starts wherever the node id
/// changes.
fn distinct_nodes<'a>(
    layout: &'a JobLayout,
    ranks: &'a [usize],
) -> impl Iterator<Item = (usize, usize)> + 'a {
    let mut last = None;
    ranks.iter().filter_map(move |&r| {
        let node = layout.node_of(r);
        (last.replace(node) != Some(node)).then_some((node, r))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn world_contains_all_ranks() {
        let w = Communicator::world(JobLayout::new(8, 2));
        assert_eq!(w.size(), 8);
        assert_eq!(w.nnodes(), 4);
        assert!(w.contains(7));
        assert_eq!(w.local_rank(3), Some(3));
    }

    #[test]
    fn node_mapping_is_block() {
        let l = JobLayout::new(8, 2);
        assert_eq!(l.node_of(0), 0);
        assert_eq!(l.node_of(1), 0);
        assert_eq!(l.node_of(2), 1);
        assert_eq!(l.node_of(7), 3);
    }

    #[test]
    #[should_panic]
    fn uneven_layout_rejected() {
        let _ = JobLayout::new(7, 2);
    }

    #[test]
    fn split_partitions_by_color() {
        let w = Communicator::world(JobLayout::new(8, 2));
        // Even ranks = color 0 (simulation), odd = color 1 (analysis).
        let subs = w.split(|r| (r % 2) as u32);
        assert_eq!(subs.len(), 2);
        let (c0, sim) = &subs[0];
        let (c1, ana) = &subs[1];
        assert_eq!((*c0, *c1), (0, 1));
        assert_eq!(sim.ranks(), &[0, 2, 4, 6]);
        assert_eq!(ana.ranks(), &[1, 3, 5, 7]);
        // Local ranks renumber from 0.
        assert_eq!(ana.local_rank(5), Some(2));
        assert!(!sim.contains(1));
    }

    #[test]
    fn split_preserves_layout() {
        let w = Communicator::world(JobLayout::new(16, 4));
        let subs = w.split(|r| if r < 8 { 0 } else { 1 });
        let (_, front) = &subs[0];
        assert_eq!(front.nnodes(), 2);
        assert_eq!(front.nodes(), vec![0, 1]);
    }

    /// `nnodes()` is cached at construction; it must agree with a fresh
    /// count of distinct hosting nodes however the communicator was made.
    fn recount(c: &Communicator) -> usize {
        c.ranks().iter().map(|&r| c.layout().node_of(r)).collect::<BTreeSet<_>>().len()
    }

    #[test]
    fn nnodes_is_correct_for_world_split_and_dup() {
        for (nranks, per_node) in [(1, 1), (8, 2), (12, 4), (4392, 1), (8784, 2)] {
            let w = Communicator::world(JobLayout::new(nranks, per_node));
            assert_eq!(w.nnodes(), nranks / per_node);
            assert_eq!(w.nnodes(), recount(&w));
            assert_eq!(w.clone().nnodes(), w.nnodes());
        }
        // Sub-communicators that cover only part of each node they touch,
        // and only some of the nodes.
        let w = Communicator::world(JobLayout::new(24, 4)); // 6 nodes
        for color_of in [
            (|r| (r % 4 == 3) as u32) as fn(usize) -> u32, // one rank of every node vs the rest
            |r| (r / 6) as u32,                            // 6-rank bands straddling node edges
            |r| (r % 5) as u32,                            // scattered
            |r| if r == 13 { 1 } else { 0 },               // a single rank
        ] {
            for (color, sub) in w.split(color_of) {
                assert_eq!(sub.nnodes(), recount(&sub), "color {color}: {:?}", sub.ranks());
                assert_eq!(sub.nnodes(), sub.nodes().len());
                assert_eq!(sub.nnodes(), sub.node_leaders().len());
                assert_eq!(sub.clone().nnodes(), sub.nnodes());
                // Splitting a split keeps counting from the members.
                for (_, subsub) in sub.split(|r| (r % 2) as u32) {
                    assert_eq!(subsub.nnodes(), recount(&subsub));
                }
            }
        }
        let bands = w.split(|r| (r / 6) as u32);
        assert_eq!(bands[0].1.ranks(), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(bands[0].1.nnodes(), 2, "node 0 whole, node 1 half");
        assert_eq!(bands[1].1.nodes(), vec![1, 2]);
    }

    #[test]
    fn node_leaders_one_per_node() {
        let w = Communicator::world(JobLayout::new(12, 4));
        assert_eq!(w.node_leaders(), vec![0, 4, 8]);
        // A sub-communicator's leaders come from its own members.
        let subs = w.split(|r| if r % 4 < 2 { 0 } else { 1 });
        let (_, half) = &subs[1];
        assert_eq!(half.node_leaders(), vec![2, 6, 10]);
    }

    #[test]
    fn splitanalysis_style_partition() {
        // Paper §V: one analysis rank paired with simulation ranks; here 3:1
        // within each 4-rank node.
        let w = Communicator::world(JobLayout::new(256, 4));
        let subs = w.split(|r| if r % 4 == 3 { 1 } else { 0 });
        let (_, sim) = &subs[0];
        let (_, ana) = &subs[1];
        assert_eq!(sim.size(), 192);
        assert_eq!(ana.size(), 64);
        // Both span all nodes (co-located mode).
        assert_eq!(sim.nnodes(), 64);
        assert_eq!(ana.nnodes(), 64);
    }

    #[test]
    fn node_disjoint_partition() {
        // The paper's evaluation mode: simulation and analysis on separate
        // nodes (power is controlled per node).
        let w = Communicator::world(JobLayout::new(256, 2));
        let half = 128;
        let subs = w.split(|r| if r < half { 0 } else { 1 });
        let (_, sim) = &subs[0];
        let (_, ana) = &subs[1];
        let sim_nodes: BTreeSet<_> = sim.nodes().into_iter().collect();
        let ana_nodes: BTreeSet<_> = ana.nodes().into_iter().collect();
        assert!(sim_nodes.is_disjoint(&ana_nodes));
        assert_eq!(sim_nodes.len() + ana_nodes.len(), 128);
    }
}
