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

fn check_len<T>(comm: &Communicator, vals: &[T]) {
    assert_eq!(vals.len(), comm.size(), "one contribution per member rank required");
}

/// `MPI_Allreduce(SUM)` over one `f64` per rank.
pub fn allreduce_sum(net: &NetworkModel, comm: &Communicator, vals: &[f64]) -> Outcome<f64> {
    check_len(comm, vals);
    Outcome { value: vals.iter().sum(), cost: net.allreduce(comm.nnodes(), 8) }
}

/// `MPI_Allgather`: every rank contributes one item of `bytes_per_item`.
pub fn allgather<T: Clone>(
    net: &NetworkModel,
    comm: &Communicator,
    vals: &[T],
    bytes_per_item: u64,
) -> Outcome<Vec<T>> {
    check_len(comm, vals);
    Outcome { value: vals.to_vec(), cost: net.allgather(comm.nnodes(), bytes_per_item) }
}

/// `MPI_Allgather` with message loss: ranks listed in `lost` contribute
/// nothing — the receivers see `None` in their slot. The exchange still
/// pays the full collective cost (the fabric timeout for the missing
/// contributions dominates, so this is a lower bound). This is the
/// fault-injection seam the PoLiMER measurement exchange degrades through:
/// aggregation proceeds over the contributions that did arrive.
pub fn allgather_lossy<T: Clone>(
    net: &NetworkModel,
    comm: &Communicator,
    vals: &[T],
    lost: &[usize],
    bytes_per_item: u64,
) -> Outcome<Vec<Option<T>>> {
    check_len(comm, vals);
    let value = vals
        .iter()
        .enumerate()
        .map(|(rank, v)| (!lost.contains(&rank)).then(|| v.clone()))
        .collect();
    Outcome { value, cost: net.allgather(comm.nnodes(), bytes_per_item) }
}

/// Simulated cost of a collective that times out and is retried: each
/// failed attempt burns a full timeout interval (a multiple of the
/// healthy collective's cost) before the final, successful attempt pays
/// the normal price. `failed_attempts = 0` degenerates to the healthy
/// cost.
pub fn retried_collective_cost(
    net: &NetworkModel,
    comm: &Communicator,
    failed_attempts: u32,
    bytes_per_item: u64,
) -> SimDuration {
    let healthy = net.allgather(comm.nnodes(), bytes_per_item);
    // A timeout is detected only after waiting well past the expected
    // completion; model it as 10× the healthy latency per failed attempt.
    let timeout = SimDuration::from_secs_f64(healthy.as_secs_f64() * 10.0);
    let mut total = healthy;
    for _ in 0..failed_attempts {
        total += timeout;
    }
    total
}

/// `MPI_Bcast` of a value of `bytes` from the communicator's rank 0.
pub fn bcast<T: Clone>(net: &NetworkModel, comm: &Communicator, val: &T, bytes: u64) -> Outcome<T> {
    Outcome { value: val.clone(), cost: net.bcast(comm.nnodes(), bytes) }
}

/// `MPI_Barrier`.
pub fn barrier(net: &NetworkModel, comm: &Communicator) -> Outcome<()> {
    Outcome { value: (), cost: net.barrier(comm.nnodes()) }
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
    fn allreduce_equals_reduce_plus_bcast_semantics() {
        // Semantic identity: allreduce(sum) == bcast(reduce(sum)).
        let net = NetworkModel::aries();
        let c = world(4);
        let vals = [5.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0];
        let red: f64 = vals.iter().sum();
        let all = allreduce_sum(&net, &c, &vals);
        let b = bcast(&net, &c, &red, 8);
        assert_eq!(all.value, b.value);
    }

    #[test]
    fn allgather_returns_everyones_data_in_rank_order() {
        let net = NetworkModel::aries();
        let c = world(2);
        let vals = ["a", "b", "c", "d"];
        let out = allgather(&net, &c, &vals, 8);
        assert_eq!(out.value, vec!["a", "b", "c", "d"]);
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

    #[test]
    fn lossy_allgather_marks_missing_contributions() {
        let net = NetworkModel::aries();
        let c = world(2);
        let vals = [10.0, 20.0, 30.0, 40.0];
        let out = allgather_lossy(&net, &c, &vals, &[1, 3], 8);
        assert_eq!(out.value, vec![Some(10.0), None, Some(30.0), None]);
        // Cost matches the healthy collective (lower bound).
        assert_eq!(out.cost, allgather(&net, &c, &vals, 8).cost);
    }

    #[test]
    fn lossy_allgather_with_no_losses_is_complete() {
        let net = NetworkModel::aries();
        let c = world(2);
        let vals = [1.0, 2.0, 3.0, 4.0];
        let out = allgather_lossy(&net, &c, &vals, &[], 8);
        assert!(out.value.iter().all(Option::is_some));
    }

    #[test]
    fn retried_collective_cost_grows_with_failures() {
        let net = NetworkModel::aries();
        let c = world(8);
        let healthy = retried_collective_cost(&net, &c, 0, 24);
        assert_eq!(healthy, allgather(&net, &c, &vec![0u8; c.size()], 24).cost);
        let one = retried_collective_cost(&net, &c, 1, 24);
        let three = retried_collective_cost(&net, &c, 3, 24);
        assert!(one > healthy);
        assert!(three > one);
        // Each failure costs 10× the healthy latency.
        let per_failure = (three - one).as_secs_f64() / 2.0;
        assert!((per_failure - healthy.as_secs_f64() * 10.0).abs() < 1e-12);
    }
}
