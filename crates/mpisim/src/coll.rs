//! Data-bearing collectives.
//!
//! The simulation is orchestrated centrally, so a collective both computes
//! its result (over the per-rank contributions) and reports the simulated
//! wall-clock cost it would have taken on the modeled interconnect. Costs
//! are driven by the number of *nodes* a communicator spans (intra-node
//! exchange is shared-memory and treated as free at this fidelity).

use crate::comm::Communicator;
use crate::net::NetworkModel;
use des::SimDuration;

/// Result of a collective: the value plus its simulated cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome<T> {
    /// The collective's result as visible to every member rank.
    pub value: T,
    /// Simulated wall-clock duration of the call.
    pub cost: SimDuration,
}

/// `MPI_Allreduce(SUM)` over one `f64` per rank.
pub fn allreduce_sum(net: &NetworkModel, comm: &Communicator, vals: &[f64]) -> Outcome<f64> {
    assert_eq!(vals.len(), comm.size(), "one contribution per member rank required");
    Outcome { value: vals.iter().sum(), cost: net.allreduce(comm.nnodes(), 8) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::JobLayout;

    fn world(nodes: usize) -> Communicator {
        Communicator::world(JobLayout::new(nodes * 2, 2))
    }

    #[test]
    fn allreduce_sum_is_sum() {
        let net = NetworkModel::aries();
        let c = world(2);
        let vals = [1.0, 2.0, 3.0, 4.0];
        let out = allreduce_sum(&net, &c, &vals);
        assert_eq!(out.value, 10.0);
        assert!(out.cost > SimDuration::ZERO);
    }

    #[test]
    fn cost_grows_with_scale() {
        let net = NetworkModel::aries();
        let small = world(16);
        let big = world(1024);
        let vs: Vec<f64> = vec![1.0; small.size()];
        let vb: Vec<f64> = vec![1.0; big.size()];
        assert!(allreduce_sum(&net, &big, &vb).cost > allreduce_sum(&net, &small, &vs).cost);
    }

    #[test]
    #[should_panic]
    fn wrong_contribution_count_panics() {
        let net = NetworkModel::aries();
        let c = world(2);
        let _ = allreduce_sum(&net, &c, &[1.0]);
    }
}
