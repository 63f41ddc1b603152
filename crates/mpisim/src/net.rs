//! Interconnect cost model.
//!
//! Theta's Aries dragonfly network is abstracted as a latency/bandwidth
//! model with logarithmic collectives (the hardware has optimized
//! collective support — paper §VII-E notes the interconnect "is optimized
//! for collective MPI communication routines"). Constants are
//! order-of-magnitude Aries values; experiments depend on *scaling shape*
//! (costs grow with node count and message size), not absolutes.

use des::SimDuration;

/// Latency/bandwidth network model.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// One-way small-message latency between two nodes, seconds.
    pub latency_s: f64,
    /// Per-node injection bandwidth, bytes/second.
    pub bandwidth_bps: f64,
    /// Fixed software overhead per collective call, seconds (MPI stack).
    pub sw_overhead_s: f64,
}

impl NetworkModel {
    /// Aries-like defaults: 1.3 µs latency, 8 GB/s effective injection
    /// bandwidth, 2 µs software overhead.
    pub const fn aries() -> Self {
        NetworkModel { latency_s: 1.3e-6, bandwidth_bps: 8.0e9, sw_overhead_s: 2.0e-6 }
    }

    fn transfer(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }

    fn rounds(nodes: usize) -> u32 {
        if nodes <= 1 {
            0
        } else {
            (nodes as f64).log2().ceil() as u32
        }
    }

    /// Broadcast of `bytes` from one node to `nodes` nodes (binomial tree).
    pub fn bcast(&self, nodes: usize, bytes: u64) -> SimDuration {
        let t = self.sw_overhead_s + Self::rounds(nodes) as f64 * self.transfer(bytes);
        SimDuration::from_secs_f64(t)
    }

    /// Allreduce of `bytes` across `nodes` nodes (recursive doubling).
    pub(crate) fn allreduce(&self, nodes: usize, bytes: u64) -> SimDuration {
        let t = self.sw_overhead_s + Self::rounds(nodes) as f64 * self.transfer(bytes);
        SimDuration::from_secs_f64(t)
    }

    /// Allgather where each node contributes `bytes_per_node`
    /// (recursive-doubling: log rounds, data doubles each round — total
    /// traffic ≈ (n−1)·b, latency term log n).
    pub fn allgather(&self, nodes: usize, bytes_per_node: u64) -> SimDuration {
        if nodes <= 1 {
            return SimDuration::from_secs_f64(self.sw_overhead_s);
        }
        let lat = Self::rounds(nodes) as f64 * self.latency_s;
        let data = (nodes as u64 - 1) * bytes_per_node;
        SimDuration::from_secs_f64(self.sw_overhead_s + lat + data as f64 / self.bandwidth_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetworkModel {
        NetworkModel::aries()
    }

    #[test]
    fn collectives_scale_logarithmically_with_nodes() {
        let n = net();
        let t128 = n.allreduce(128, 64).as_secs_f64();
        let t1024 = n.allreduce(1024, 64).as_secs_f64();
        assert!(t1024 > t128);
        // 1024 nodes = 10 rounds vs 7 rounds at 128: ratio well under 2.
        assert!(t1024 / t128 < 2.0, "{}", t1024 / t128);
    }

    #[test]
    fn allgather_scales_linearly_in_total_data() {
        let n = net();
        let t128 = n.allgather(128, 1024).as_secs_f64();
        let t1024 = n.allgather(1024, 1024).as_secs_f64();
        assert!(t1024 > 4.0 * t128, "allgather data term must dominate at scale");
    }

    #[test]
    fn single_node_collectives_are_cheap() {
        let n = net();
        assert!((n.bcast(1, 16).as_secs_f64() - n.sw_overhead_s).abs() < 1e-12);
        assert!((n.allgather(1, 4096).as_secs_f64() - n.sw_overhead_s).abs() < 1e-12);
    }
}
