//! # mpisim — simulated MPI over a cost-modeled interconnect
//!
//! The SeeSAw reproduction needs two things from MPI: the *structure* of
//! in-situ process organization (communicators and sub-communicators that
//! identify simulation vs. analysis membership — paper §IV-B) and the
//! *cost* of the collective exchanges PoLiMER performs at every
//! synchronization (the overhead the paper measures in Fig. 9). This crate
//! provides both without real message passing: communicators are
//! structural, and collectives compute their result centrally while
//! charging a dragonfly-like latency/bandwidth cost.
//!
//! ```
//! use mpisim::{Communicator, JobLayout, NetworkModel, coll};
//!
//! // 128 ranks, 2 per node; odd ranks are analysis (Splitanalysis-style).
//! let world = Communicator::world(JobLayout::new(128, 2));
//! let subs = world.split(|r| (r % 2) as u32);
//! let (_, analysis) = &subs[1];
//! assert_eq!(analysis.size(), 64);
//!
//! // PoLiMER's measurement exchange: one sample per member rank.
//! let net = NetworkModel::aries();
//! let samples: Vec<f64> = vec![1.0; analysis.size()];
//! let total = coll::allreduce_sum(&net, analysis, &samples);
//! assert_eq!(total.value, 64.0);
//! ```

#![warn(missing_docs)]

pub mod coll;
mod comm;
mod net;

pub use comm::{Communicator, JobLayout};
pub use net::NetworkModel;

#[cfg(test)]
mod randomized {
    use super::*;
    use des::Rng;

    /// Splitting by any coloring partitions the communicator exactly:
    /// every rank lands in exactly one sub-communicator.
    #[test]
    fn split_is_a_partition() {
        let mut rng = Rng::seed_from_u64(0x0003_B101);
        for _case in 0..48 {
            let nodes = 1 + rng.next_below(63) as usize;
            let rpn = 1 + rng.next_below(7) as usize;
            let ncolors = 1 + rng.next_below(4) as u32;
            let world = Communicator::world(JobLayout::new(nodes * rpn, rpn));
            let subs = world.split(|r| (r as u32) % ncolors);
            let total: usize = subs.iter().map(|(_, c)| c.size()).sum();
            assert_eq!(total, world.size());
            for (color, c) in &subs {
                for &r in c.ranks() {
                    assert_eq!(r as u32 % ncolors, *color);
                }
            }
        }
    }

    /// node_leaders yields exactly one rank per spanned node.
    #[test]
    fn leaders_cover_nodes() {
        let mut rng = Rng::seed_from_u64(0x0003_B102);
        for _case in 0..48 {
            let nodes = 1 + rng.next_below(63) as usize;
            let rpn = 1 + rng.next_below(7) as usize;
            let world = Communicator::world(JobLayout::new(nodes * rpn, rpn));
            let leaders = world.node_leaders();
            assert_eq!(leaders.len(), world.nnodes());
        }
    }

    /// Collective costs are monotone in node count.
    #[test]
    fn costs_monotone_in_nodes() {
        let mut rng = Rng::seed_from_u64(0x0003_B103);
        for _case in 0..64 {
            let a = 1 + rng.next_below(511) as usize;
            let b = 1 + rng.next_below(511) as usize;
            let bytes = rng.next_below(1_000_000);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let net = NetworkModel::aries();
            assert!(net.allreduce(hi, bytes) >= net.allreduce(lo, bytes));
            assert!(net.allgather(hi, bytes) >= net.allgather(lo, bytes));
            assert!(net.barrier(hi) >= net.barrier(lo));
        }
    }

    /// allreduce_sum matches a plain sum for arbitrary contributions.
    #[test]
    fn allreduce_sum_correct() {
        let mut rng = Rng::seed_from_u64(0x0003_B104);
        for _case in 0..48 {
            let n = 1 + rng.next_below(63) as usize;
            let vals: Vec<f64> = (0..n).map(|_| rng.uniform(-1e6, 1e6)).collect();
            let world = Communicator::world(JobLayout::new(n, 1));
            let net = NetworkModel::aries();
            let out = coll::allreduce_sum(&net, &world, &vals);
            let expect: f64 = vals.iter().sum();
            assert!((out.value - expect).abs() <= 1e-9 * expect.abs().max(1.0));
        }
    }
}
