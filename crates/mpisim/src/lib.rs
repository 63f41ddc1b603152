//! # mpisim — simulated MPI over a cost-modeled interconnect
//!
//! The SeeSAw reproduction needs two things from MPI: process *identity*
//! (which ranks a job has, and one monitor rank per node — paper §VI-B)
//! and the *cost* of the collective exchanges PoLiMER performs at every
//! synchronization, which grows with node count (the overhead the paper
//! measures in Fig. 9). This crate provides both without real message
//! passing: a communicator is the job's layout, and collectives compute
//! their result centrally while charging a dragonfly-like
//! latency/bandwidth cost.
//!
//! ```
//! use mpisim::{Communicator, JobLayout, NetworkModel, coll};
//!
//! // 128 ranks, 2 per node: 64 nodes, one monitor rank on each.
//! let world = Communicator::world(JobLayout::new(128, 2));
//! assert_eq!(world.node_leaders().len(), 64);
//!
//! // One sample per rank, summed across the job.
//! let net = NetworkModel::aries();
//! let samples: Vec<f64> = vec![1.0; world.size()];
//! let total = coll::allreduce_sum(&net, &world, &samples);
//! assert_eq!(total.value, 128.0);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod coll;
mod comm;
mod net;

pub use comm::{Communicator, JobLayout};
pub use net::NetworkModel;

#[cfg(test)]
mod randomized {
    use super::*;
    use des::Rng;

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
            assert!(net.bcast(hi, bytes) >= net.bcast(lo, bytes));
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
