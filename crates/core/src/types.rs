//! Shared vocabulary for power controllers.

use std::borrow::Cow;

/// Whether a node (or rank) belongs to the simulation or analysis partition
/// of a space-shared in-situ job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Simulation partition (the "S" task in the paper).
    Simulation,
    /// Analysis partition (the "A" task).
    Analysis,
}

impl Role {
    /// Stable lowercase tag for serialized traces.
    pub fn tag(self) -> &'static str {
        match self {
            Role::Simulation => "sim",
            Role::Analysis => "analysis",
        }
    }
}

/// Per-node feedback gathered over one synchronization interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSample {
    /// Node index within the job.
    pub node: usize,
    /// Partition membership.
    pub role: Role,
    /// Time the node's slowest rank took to reach the synchronization,
    /// seconds (includes the power-allocation call, per the paper §VI-B).
    pub time_s: f64,
    /// Measured mean node power over the interval, watts.
    pub power_w: f64,
    /// Per-node power cap allocated for the interval, watts.
    pub cap_w: f64,
}

/// Everything a controller sees at one synchronization point.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncObservation {
    /// Synchronization index (0 = job start; the paper ignores step 0 as it
    /// is outside the main loop).
    pub step: u64,
    /// One sample per node.
    pub nodes: Vec<NodeSample>,
}

impl SyncObservation {
    /// Aggregate a partition: `(slowest node time, summed power, node count,
    /// current per-node cap)`. Returns `None` if the partition is empty.
    pub(crate) fn partition(&self, role: Role) -> Option<PartitionView> {
        let mut time_s: f64 = 0.0;
        let mut power_w = 0.0;
        let mut cap_sum = 0.0;
        let mut count = 0usize;
        for n in self.nodes.iter().filter(|n| n.role == role) {
            time_s = time_s.max(n.time_s);
            power_w += n.power_w;
            cap_sum += n.cap_w;
            count += 1;
        }
        (count > 0).then(|| PartitionView {
            time_s,
            power_w,
            nodes: count,
            cap_per_node_w: cap_sum / count as f64,
        })
    }
}

/// Aggregated view of one partition at a sync point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PartitionView {
    /// Slowest node's time to reach the sync, seconds.
    pub time_s: f64,
    /// Total measured power across the partition's nodes, watts.
    pub power_w: f64,
    /// Node count.
    pub nodes: usize,
    /// Mean allocated per-node cap, watts.
    pub cap_per_node_w: f64,
}

/// Hardware power-cap limits per node (δ_min / δ_max in the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Limits {
    /// Lowest supported per-node cap, watts (98 W on Theta).
    pub min_w: f64,
    /// Highest supported per-node cap, watts (TDP, 215 W on Theta).
    pub max_w: f64,
}

impl Limits {
    /// Theta's RAPL range.
    pub fn theta() -> Self {
        Limits { min_w: 98.0, max_w: 215.0 }
    }

    /// Clamp one per-node cap.
    pub(crate) fn clamp(&self, w: f64) -> f64 {
        w.clamp(self.min_w, self.max_w)
    }
}

/// A power allocation decision: uniform per-node caps for each partition
/// (power is divided evenly within a partition — paper §IV-A), plus
/// optional per-node overrides used by the node-granular schemes.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Per-node cap for simulation nodes, watts.
    pub sim_node_w: f64,
    /// Per-node cap for analysis nodes, watts.
    pub analysis_node_w: f64,
    /// If non-empty, exact per-node caps `(node, cap_w)` that override the
    /// uniform values (the SLURM-style scheme caps nodes individually).
    ///
    /// Contract: every controller in this crate lists each node at most
    /// once, in ascending node id. A hand-built list may be in any order
    /// and may repeat a node, in which case the *first* entry for that
    /// node wins. A node that is not listed gets its role's uniform cap.
    pub per_node_w: Vec<(usize, f64)>,
}

impl Allocation {
    /// A uniform allocation.
    pub(crate) fn uniform(sim_node_w: f64, analysis_node_w: f64) -> Self {
        Allocation { sim_node_w, analysis_node_w, per_node_w: Vec::new() }
    }

    /// A resolver for looking up many nodes' caps (O(nodes) to build, then
    /// O(1) per node asked in ascending order). Borrows `per_node_w` when
    /// it honours the ascending-unique contract and allocates only to
    /// normalize a hand-built list that does not.
    pub fn caps(&self) -> CapLookup<'_> {
        let ascending_unique = self.per_node_w.windows(2).all(|w| w[0].0 < w[1].0);
        let overrides = if ascending_unique {
            Cow::Borrowed(self.per_node_w.as_slice())
        } else {
            // Stable sort, then keep the first of each run: first match wins.
            let mut sorted = self.per_node_w.clone();
            sorted.sort_by_key(|&(n, _)| n);
            sorted.dedup_by_key(|&mut (n, _)| n);
            Cow::Owned(sorted)
        };
        CapLookup { alloc: self, overrides, cursor: 0 }
    }
}

#[cfg(test)]
impl Allocation {
    /// Cap for one node under this allocation. Costs a pass over
    /// `per_node_w`; to resolve many nodes use [`Allocation::caps`].
    pub(crate) fn cap_for(&self, node: usize, role: Role) -> f64 {
        self.caps().cap_for(node, role)
    }
}

/// Per-node cap resolver over one [`Allocation`] — see [`Allocation::caps`].
#[derive(Debug, Clone)]
pub struct CapLookup<'a> {
    alloc: &'a Allocation,
    /// The overrides in strictly ascending node order.
    overrides: Cow<'a, [(usize, f64)]>,
    /// Where the next node is expected: producers list nodes ascending and
    /// callers ask in the same order, so the walk stays in lock-step.
    cursor: usize,
}

impl CapLookup<'_> {
    /// Cap for a given node: its override if listed, else its role's
    /// uniform cap.
    pub fn cap_for(&mut self, node: usize, role: Role) -> f64 {
        // Out of step (a gap, an unlisted node, a caller jumping around):
        // find where `node` is, or would be.
        if self.overrides.get(self.cursor).is_none_or(|&(n, _)| n != node) {
            self.cursor = self.overrides.partition_point(|&(n, _)| n < node);
        }
        match self.overrides.get(self.cursor) {
            Some(&(n, w)) if n == node => {
                self.cursor += 1;
                w
            }
            _ => match role {
                Role::Simulation => self.alloc.sim_node_w,
                Role::Analysis => self.alloc.analysis_node_w,
            },
        }
    }
}

/// Split a two-partition budget into per-node caps honouring δ limits, with
/// δ_max taking priority over δ_min on a tie (paper §IV-A, last paragraph).
///
/// `sim_total_w`/`ana_total_w` are partition totals; the result is per-node.
/// The clamp *iterates*: each round pins the worst violation at its bound
/// and recomputes the peer from the remaining budget, so a clamp on one
/// side can never push the pair over the budget. The total exceeds
/// `budget_w` only when both sides pinned at δ_min make it infeasible
/// (`budget_w < δ_min × (sim_nodes + ana_nodes)` — a hardware floor the
/// caller must budget for); budget goes *unused* only when both sides
/// saturate at δ_max.
pub(crate) fn split_with_limits(
    limits: Limits,
    budget_w: f64,
    sim_total_w: f64,
    sim_nodes: usize,
    ana_total_w: f64,
    ana_nodes: usize,
) -> Allocation {
    assert!(sim_nodes > 0 && ana_nodes > 0, "both partitions must be non-empty");
    const EPS: f64 = 1e-9;
    let ns = sim_nodes as f64;
    let na = ana_nodes as f64;
    let mut sim = sim_total_w / ns;
    let mut ana = ana_total_w / na;

    // Each iteration pins one side and recomputes the other exactly from
    // the budget; a feasible split is reached in at most two pins, and the
    // only non-terminating patterns are both-high (budget beyond every
    // δ_max) and both-low (budget below every δ_min), which the final
    // clamp resolves to the saturated corner. 4 iterations cover all
    // pin/re-pin sequences.
    for _ in 0..4 {
        // δ_max violations take priority over δ_min on a tie.
        if sim > limits.max_w + EPS {
            sim = limits.max_w;
            ana = (budget_w - sim * ns) / na;
        } else if ana > limits.max_w + EPS {
            ana = limits.max_w;
            sim = (budget_w - ana * na) / ns;
        } else if sim < limits.min_w - EPS {
            sim = limits.min_w;
            ana = (budget_w - sim * ns) / na;
        } else if ana < limits.min_w - EPS {
            ana = limits.min_w;
            sim = (budget_w - ana * na) / ns;
        } else {
            break;
        }
    }
    Allocation::uniform(limits.clamp(sim), limits.clamp(ana))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs() -> SyncObservation {
        SyncObservation {
            step: 1,
            nodes: vec![
                NodeSample {
                    node: 0,
                    role: Role::Simulation,
                    time_s: 4.0,
                    power_w: 108.0,
                    cap_w: 110.0,
                },
                NodeSample {
                    node: 1,
                    role: Role::Simulation,
                    time_s: 4.2,
                    power_w: 109.0,
                    cap_w: 110.0,
                },
                NodeSample {
                    node: 2,
                    role: Role::Analysis,
                    time_s: 2.0,
                    power_w: 100.0,
                    cap_w: 110.0,
                },
                NodeSample {
                    node: 3,
                    role: Role::Analysis,
                    time_s: 1.9,
                    power_w: 99.0,
                    cap_w: 110.0,
                },
            ],
        }
    }

    #[test]
    fn partition_aggregates_slowest_and_sum() {
        let o = obs();
        let s = o.partition(Role::Simulation).unwrap();
        assert_eq!(s.time_s, 4.2);
        assert_eq!(s.power_w, 217.0);
        assert_eq!(s.nodes, 2);
        let a = o.partition(Role::Analysis).unwrap();
        assert_eq!(a.time_s, 2.0);
        assert_eq!(a.nodes, 2);
    }

    #[test]
    fn empty_partition_is_none() {
        let o = SyncObservation { step: 0, nodes: vec![] };
        assert!(o.partition(Role::Simulation).is_none());
    }

    #[test]
    fn allocation_cap_for_respects_overrides() {
        let mut a = Allocation::uniform(120.0, 100.0);
        a.per_node_w.push((3, 98.0));
        assert_eq!(a.cap_for(0, Role::Simulation), 120.0);
        assert_eq!(a.cap_for(2, Role::Analysis), 100.0);
        assert_eq!(a.cap_for(3, Role::Analysis), 98.0);
    }

    /// The `per_node_w` contract: the resolver (walked in any order, and
    /// through the one-off `cap_for`) answers exactly like a linear
    /// first-match scan, for ascending-unique lists as the controllers
    /// produce them and for unsorted, duplicate-bearing hand-built ones.
    #[test]
    fn cap_lookup_equals_linear_first_match_on_random_allocations() {
        use crate::reference::linear_cap_for;
        let mut rng = des::Rng::seed_from_u64(0xCA9_F02);
        for case in 0..400 {
            let span = 1 + rng.next_below(40) as usize;
            let len = rng.next_below(60) as usize;
            let mut a = Allocation::uniform(rng.uniform(98.0, 215.0), rng.uniform(98.0, 215.0));
            match case % 3 {
                // As produced: ascending, unique, possibly with gaps.
                0 => {
                    for n in 0..span {
                        if rng.next_f64() < 0.7 {
                            a.per_node_w.push((n, rng.uniform(98.0, 215.0)));
                        }
                    }
                }
                // Hand-built: any order, repeats likely.
                _ => {
                    for _ in 0..len {
                        let n = rng.next_below(span as u64) as usize;
                        a.per_node_w.push((n, rng.uniform(98.0, 215.0)));
                    }
                }
            }
            let role = |n: usize| if n & 1 == 0 { Role::Simulation } else { Role::Analysis };
            // Ascending walk (the runtime's cap-apply order), two past the end.
            let mut caps = a.caps();
            for n in 0..span + 2 {
                let want = linear_cap_for(&a, n, role(n));
                assert_eq!(caps.cap_for(n, role(n)).to_bits(), want.to_bits(), "case {case} n {n}");
                assert_eq!(a.cap_for(n, role(n)).to_bits(), want.to_bits(), "case {case} n {n}");
            }
            // Random-order walk with repeats on one resolver.
            let mut caps = a.caps();
            for _ in 0..3 * span {
                let n = rng.next_below(span as u64 + 2) as usize;
                let want = linear_cap_for(&a, n, role(n));
                assert_eq!(caps.cap_for(n, role(n)).to_bits(), want.to_bits(), "case {case} n {n}");
            }
        }
    }

    #[test]
    fn cap_lookup_first_match_wins_and_absent_falls_back() {
        let mut a = Allocation::uniform(120.0, 100.0);
        a.per_node_w = vec![(5, 101.0), (2, 102.0), (5, 103.0), (2, 104.0)];
        assert_eq!(a.cap_for(5, Role::Simulation), 101.0);
        assert_eq!(a.cap_for(2, Role::Analysis), 102.0);
        assert_eq!(a.cap_for(3, Role::Simulation), 120.0);
        assert_eq!(a.cap_for(9, Role::Analysis), 100.0);
    }

    #[test]
    fn split_no_clamp_needed() {
        let l = Limits::theta();
        let a = split_with_limits(l, 440.0, 240.0, 2, 200.0, 2);
        assert_eq!(a.sim_node_w, 120.0);
        assert_eq!(a.analysis_node_w, 100.0);
    }

    #[test]
    fn split_clamps_low_side_and_gives_remainder() {
        let l = Limits::theta();
        // Analysis would get 90 W/node (< 98): floor it, sim gets remainder.
        let a = split_with_limits(l, 440.0, 260.0, 2, 180.0, 2);
        assert_eq!(a.analysis_node_w, 98.0);
        assert!((a.sim_node_w - (440.0 - 196.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn split_max_priority_on_tie() {
        let l = Limits { min_w: 98.0, max_w: 120.0 };
        // Sim above max AND analysis below min: handle δ_max first.
        let a = split_with_limits(l, 440.0, 300.0, 2, 140.0, 2);
        assert_eq!(a.sim_node_w, 120.0);
        // Analysis gets remainder (100 W/node), itself clamped.
        assert_eq!(a.analysis_node_w, 100.0);
    }

    #[test]
    fn split_respects_budget_after_max_clamp() {
        // Repro from the machine-scheduler work: 310 W over 1+1 nodes with a
        // lopsided demand. The single-pass clamp returned (215, 98) = 313 W,
        // 3 W over budget, even though (212, 98) = 310 W is feasible.
        let a = split_with_limits(Limits::theta(), 310.0, 290.0, 1, 20.0, 1);
        assert!(
            a.sim_node_w + a.analysis_node_w <= 310.0 + 1e-9,
            "budget violated: {} + {}",
            a.sim_node_w,
            a.analysis_node_w
        );
        assert!((a.sim_node_w - 212.0).abs() < 1e-9, "{a:?}");
        assert!((a.analysis_node_w - 98.0).abs() < 1e-9, "{a:?}");
    }

    #[test]
    fn split_budget_conservation_over_grid() {
        // Property: whenever budget ≥ n·δ_min the total never exceeds the
        // budget, for any demand split and partition shape.
        let l = Limits::theta();
        for &(ns, na) in &[(1usize, 1usize), (1, 2), (2, 1), (2, 2), (3, 1), (4, 4)] {
            let n = (ns + na) as f64;
            let mut budget = n * l.min_w;
            while budget <= n * l.max_w + 50.0 {
                for frac in [0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.93, 0.95, 1.0] {
                    let a =
                        split_with_limits(l, budget, budget * frac, ns, budget * (1.0 - frac), na);
                    let total = a.sim_node_w * ns as f64 + a.analysis_node_w * na as f64;
                    assert!(
                        total <= budget + 1e-6,
                        "budget={budget} frac={frac} ns={ns} na={na}: total={total}"
                    );
                    assert!(a.sim_node_w >= l.min_w && a.sim_node_w <= l.max_w);
                    assert!(a.analysis_node_w >= l.min_w && a.analysis_node_w <= l.max_w);
                }
                budget += 7.0;
            }
        }
    }

    #[test]
    fn split_never_violates_limits() {
        let l = Limits::theta();
        for budget in [200.0, 400.0, 800.0] {
            for frac in [0.0, 0.2, 0.5, 0.9, 1.0] {
                let a = split_with_limits(l, budget, budget * frac, 2, budget * (1.0 - frac), 2);
                assert!(a.sim_node_w >= l.min_w && a.sim_node_w <= l.max_w);
                assert!(a.analysis_node_w >= l.min_w && a.analysis_node_w <= l.max_w);
            }
        }
    }
}
